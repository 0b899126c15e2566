#include "crypto/ecdsa.h"

#include <algorithm>

#include "crypto/hmac.h"
#include "crypto/p256_internal.h"

namespace guardnn::crypto {
namespace {

// z = digest mod n. A 256-bit digest is below 2n, so one conditional
// subtraction reduces it.
U256 digest_to_scalar(const Sha256Digest& digest) {
  return detail::scalar_reduce(U256::from_bytes(BytesView(digest.data(), digest.size())));
}

// a < b, read from the borrow of a - b (no early exit on the limbs).
bool less_than(const U256& a, const U256& b) {
  U256 diff;
  return sub(diff, a, b) == 1;
}

// Deterministic nonce derivation in the spirit of RFC 6979: an HMAC-DRBG
// keyed by (private key || digest) generates candidate nonces. The seed and
// every candidate are wiped before they are freed.
U256 derive_nonce(const U256& private_key, const Sha256Digest& digest) {
  Bytes seed(64);
  for (int i = 0; i < 4; ++i) store_be64(seed.data() + 8 * i, private_key.limb[3 - i]);
  std::copy(digest.begin(), digest.end(), seed.begin() + 32);
  HmacDrbg drbg(seed, Bytes{'e', 'c', 'd', 's', 'a', '-', 'k'});
  secure_zero(seed.data(), seed.size());
  for (;;) {
    Bytes candidate = drbg.generate(32);
    const U256 k = U256::from_bytes(candidate);
    secure_zero(candidate.data(), candidate.size());
    if (!k.is_zero() && less_than(k, p256().n)) return k;
  }
}

}  // namespace

Bytes EcdsaSignature::to_bytes() const {
  Bytes out = r.to_bytes();
  const Bytes sb = s.to_bytes();
  out.insert(out.end(), sb.begin(), sb.end());
  return out;
}

std::optional<EcdsaSignature> EcdsaSignature::from_bytes(BytesView bytes) {
  if (bytes.size() != 64) return std::nullopt;
  EcdsaSignature sig;
  sig.r = U256::from_bytes(bytes.subspan(0, 32));
  sig.s = U256::from_bytes(bytes.subspan(32, 32));
  return sig;
}

EcdsaKeyPair ecdsa_generate_key(HmacDrbg& drbg) {
  for (;;) {
    Bytes raw = drbg.generate(32);
    const U256 d = U256::from_bytes(raw);
    secure_zero(raw.data(), raw.size());
    if (d.is_zero() || !less_than(d, p256().n)) continue;
    EcdsaKeyPair kp;
    kp.private_key = d;
    kp.public_key = ec_scalar_base_mult(d);
    return kp;
  }
}

EcdsaSignature ecdsa_sign_digest(const U256& private_key, const Sha256Digest& digest) {
  const U256 z = digest_to_scalar(digest);
  Sha256Digest tweaked = digest;
  for (;;) {
    U256 k = derive_nonce(private_key, tweaked);
    const U256 r = detail::scalar_reduce(ec_scalar_base_mult(k).x);
    U256 k_inv = detail::scalar_inv(k);
    const U256 s = detail::scalar_mul(
        k_inv, detail::scalar_add(z, detail::scalar_mul(r, private_key)));
    secure_zero(&k, sizeof k);
    secure_zero(&k_inv, sizeof k_inv);
    // r or s is zero with probability ~2^-256; re-derive with a tweak.
    if (r.is_zero()) {
      tweaked[0] ^= 0x01;
    } else if (s.is_zero()) {
      tweaked[0] ^= 0x02;
    } else {
      return EcdsaSignature{r, s};
    }
  }
}

EcdsaSignature ecdsa_sign(const U256& private_key, BytesView message) {
  return ecdsa_sign_digest(private_key, Sha256::hash(message));
}

bool ecdsa_verify_digest(const AffinePoint& public_key, const Sha256Digest& digest,
                         const EcdsaSignature& sig) {
  const U256& n = p256().n;
  if (public_key.infinity || !on_curve(public_key)) return false;
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;

  const U256 z = digest_to_scalar(digest);
  const U256 s_inv = detail::scalar_inv(sig.s);
  const AffinePoint point = detail::ec_base_mult_add(
      detail::scalar_mul(z, s_inv), detail::scalar_mul(sig.r, s_inv), public_key);
  if (point.infinity) return false;
  return detail::scalar_reduce(point.x) == sig.r;
}

bool ecdsa_verify(const AffinePoint& public_key, BytesView message,
                  const EcdsaSignature& sig) {
  return ecdsa_verify_digest(public_key, Sha256::hash(message), sig);
}

}  // namespace guardnn::crypto
