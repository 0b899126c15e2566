// Test oracle for the P-256 code in src/crypto: the generic 256-bit modular
// arithmetic (schoolbook multiply, binary long-division reduction, Fermat
// inversion by square-and-multiply) and the affine/Jacobian double-and-add
// scalar multiplication, ECDSA and ECDH built on it. It is slow and leaks
// the scalar's bit length through its timing, and shares no arithmetic
// with the constant-time implementation, which is why the equivalence tests
// compare against it.
#pragma once

#include <array>
#include <bit>
#include <stdexcept>

#include "crypto/drbg.h"
#include "crypto/ecdsa.h"
#include "crypto/p256.h"
#include "crypto/sha256.h"

namespace guardnn::crypto::oracle {

/// 512-bit product container for the multiply-then-reduce path.
struct U512 {
  std::array<u64, 8> limb{};
  bool bit(unsigned i) const { return (limb[i / 64] >> (i % 64)) & 1; }
  int bit_length() const {
    for (int i = 7; i >= 0; --i) {
      if (limb[i] != 0) return 64 * i + 64 - std::countl_zero(limb[i]);
    }
    return 0;
  }
};

/// Full 256x256 -> 512-bit schoolbook multiply.
inline U512 mul_wide(const U256& a, const U256& b) {
  U512 out;
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const unsigned __int128 p =
          static_cast<unsigned __int128>(a.limb[i]) * b.limb[j] +
          out.limb[i + j] + carry;
      out.limb[i + j] = static_cast<u64>(p);
      carry = static_cast<u64>(p >> 64);
    }
    out.limb[i + 4] = carry;
  }
  return out;
}

namespace internal {

// Subtracts (m << shift) from x in place; caller guarantees no underflow.
inline void sub_shifted(U512& x, const U256& m, int shift) {
  const int word_shift = shift / 64;
  const int bit_shift = shift % 64;
  u64 borrow = 0;
  u64 prev = 0;
  for (int i = 0; i < 5; ++i) {
    u64 mw = i < 4 ? m.limb[i] : 0;
    u64 shifted = bit_shift == 0 ? mw : (mw << bit_shift) | (prev >> (64 - bit_shift));
    prev = mw;
    const int idx = i + word_shift;
    if (idx >= 8) break;
    const unsigned __int128 d =
        static_cast<unsigned __int128>(x.limb[idx]) - shifted - borrow;
    x.limb[idx] = static_cast<u64>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
  for (int idx = word_shift + 5; idx < 8 && borrow; ++idx) {
    const unsigned __int128 d = static_cast<unsigned __int128>(x.limb[idx]) - borrow;
    x.limb[idx] = static_cast<u64>(d);
    borrow = (d >> 64) ? 1 : 0;
  }
}

// Compares x against (m << shift).
inline int cmp_shifted(const U512& x, const U256& m, int shift) {
  const int word_shift = shift / 64;
  const int bit_shift = shift % 64;
  std::array<u64, 8> sm{};
  u64 prev = 0;
  for (int i = 0; i < 5; ++i) {
    const u64 mw = i < 4 ? m.limb[i] : 0;
    const u64 shifted = bit_shift == 0 ? mw : (mw << bit_shift) | (prev >> (64 - bit_shift));
    prev = mw;
    const int idx = i + word_shift;
    if (idx < 8) sm[idx] = shifted;
  }
  for (int i = 7; i >= 0; --i) {
    if (x.limb[i] < sm[i]) return -1;
    if (x.limb[i] > sm[i]) return 1;
  }
  return 0;
}

}  // namespace internal

/// x mod m via binary long division. m must be non-zero.
inline U256 mod_reduce(const U512& x, const U256& m) {
  if (m.is_zero()) throw std::invalid_argument("mod_reduce: zero modulus");
  U512 rem = x;
  const int mbits = m.bit_length();
  int xbits = rem.bit_length();
  while (xbits >= mbits) {
    int shift = xbits - mbits;
    if (internal::cmp_shifted(rem, m, shift) < 0) {
      if (shift == 0) break;
      --shift;
    }
    internal::sub_shifted(rem, m, shift);
    xbits = rem.bit_length();
  }
  U256 out;
  for (int i = 0; i < 4; ++i) out.limb[i] = rem.limb[i];
  return out;
}

/// Modular arithmetic helpers; all operands must already be < m.
inline U256 add_mod(const U256& a, const U256& b, const U256& m) {
  U256 s;
  const u64 carry = add(s, a, b);
  if (carry || cmp(s, m) >= 0) {
    U256 r;
    sub(r, s, m);
    return r;
  }
  return s;
}

inline U256 sub_mod(const U256& a, const U256& b, const U256& m) {
  U256 d;
  if (sub(d, a, b)) {
    U256 r;
    add(r, d, m);
    return r;
  }
  return d;
}

inline U256 mul_mod(const U256& a, const U256& b, const U256& m) {
  return mod_reduce(mul_wide(a, b), m);
}

/// a^e mod m (square-and-multiply).
inline U256 pow_mod(const U256& a, const U256& e, const U256& m) {
  U256 result = U256::one();
  U256 base = a;
  const int bits = e.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (e.bit(static_cast<unsigned>(i))) result = mul_mod(result, base, m);
    base = mul_mod(base, base, m);
  }
  return result;
}

/// a^-1 mod m for prime m (Fermat's little theorem). a must be non-zero.
inline U256 inv_mod_prime(const U256& a, const U256& m) {
  if (a.is_zero()) throw std::invalid_argument("inv_mod_prime: zero has no inverse");
  U256 e;
  sub(e, m, U256::from_u64(2));
  return pow_mod(a, e, m);
}

namespace internal {

// Jacobian coordinates: (X, Y, Z) represents affine (X/Z^2, Y/Z^3).
struct JacobianPoint {
  U256 x;
  U256 y;
  U256 z;  // z == 0 encodes infinity.

  bool is_infinity() const { return z.is_zero(); }

  static JacobianPoint infinity() { return JacobianPoint{}; }

  static JacobianPoint from_affine(const AffinePoint& a) {
    if (a.infinity) return infinity();
    return JacobianPoint{a.x, a.y, U256::one()};
  }
};

inline AffinePoint to_affine(const JacobianPoint& j) {
  const U256& p = p256().p;
  if (j.is_infinity()) return AffinePoint::at_infinity();
  const U256 z_inv = inv_mod_prime(j.z, p);
  const U256 z_inv2 = mul_mod(z_inv, z_inv, p);
  const U256 z_inv3 = mul_mod(z_inv2, z_inv, p);
  AffinePoint out;
  out.x = mul_mod(j.x, z_inv2, p);
  out.y = mul_mod(j.y, z_inv3, p);
  return out;
}

// Point doubling for a = -3 curves (dbl-2001-b formulas).
inline JacobianPoint jacobian_double(const JacobianPoint& q) {
  if (q.is_infinity() || q.y.is_zero()) return JacobianPoint::infinity();
  const U256& p = p256().p;
  const U256 z2 = mul_mod(q.z, q.z, p);
  const U256 m = mul_mod(U256::from_u64(3),
                         mul_mod(sub_mod(q.x, z2, p), add_mod(q.x, z2, p), p), p);
  const U256 y2 = mul_mod(q.y, q.y, p);
  const U256 s = mul_mod(U256::from_u64(4), mul_mod(q.x, y2, p), p);
  JacobianPoint out;
  out.x = sub_mod(mul_mod(m, m, p), add_mod(s, s, p), p);
  const U256 y4_8 = mul_mod(U256::from_u64(8), mul_mod(y2, y2, p), p);
  out.y = sub_mod(mul_mod(m, sub_mod(s, out.x, p), p), y4_8, p);
  out.z = mul_mod(U256::from_u64(2), mul_mod(q.y, q.z, p), p);
  return out;
}

inline JacobianPoint jacobian_add(const JacobianPoint& a, const JacobianPoint& b) {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  const U256& p = p256().p;
  const U256 z1z1 = mul_mod(a.z, a.z, p);
  const U256 z2z2 = mul_mod(b.z, b.z, p);
  const U256 u1 = mul_mod(a.x, z2z2, p);
  const U256 u2 = mul_mod(b.x, z1z1, p);
  const U256 s1 = mul_mod(a.y, mul_mod(z2z2, b.z, p), p);
  const U256 s2 = mul_mod(b.y, mul_mod(z1z1, a.z, p), p);
  if (u1 == u2) {
    if (s1 == s2) return jacobian_double(a);
    return JacobianPoint::infinity();
  }
  const U256 h = sub_mod(u2, u1, p);
  const U256 r = sub_mod(s2, s1, p);
  const U256 h2 = mul_mod(h, h, p);
  const U256 h3 = mul_mod(h2, h, p);
  const U256 u1h2 = mul_mod(u1, h2, p);
  JacobianPoint out;
  out.x = sub_mod(sub_mod(mul_mod(r, r, p), h3, p), add_mod(u1h2, u1h2, p), p);
  out.y = sub_mod(mul_mod(r, sub_mod(u1h2, out.x, p), p), mul_mod(s1, h3, p), p);
  out.z = mul_mod(h, mul_mod(a.z, b.z, p), p);
  return out;
}

}  // namespace internal

inline bool on_curve(const AffinePoint& pt) {
  if (pt.infinity) return true;
  const U256& p = p256().p;
  if (cmp(pt.x, p) >= 0 || cmp(pt.y, p) >= 0) return false;
  const U256 y2 = mul_mod(pt.y, pt.y, p);
  const U256 x2 = mul_mod(pt.x, pt.x, p);
  const U256 x3 = mul_mod(x2, pt.x, p);
  const U256 three_x = mul_mod(U256::from_u64(3), pt.x, p);
  const U256 rhs = add_mod(sub_mod(x3, three_x, p), p256().b, p);
  return y2 == rhs;
}

inline AffinePoint ec_add(const AffinePoint& a, const AffinePoint& b) {
  return internal::to_affine(internal::jacobian_add(
      internal::JacobianPoint::from_affine(a), internal::JacobianPoint::from_affine(b)));
}

/// k*P by right-to-left double-and-add over k's bit length.
inline AffinePoint ec_scalar_mult(const U256& k, const AffinePoint& point) {
  internal::JacobianPoint result = internal::JacobianPoint::infinity();
  internal::JacobianPoint base = internal::JacobianPoint::from_affine(point);
  const int bits = k.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (k.bit(static_cast<unsigned>(i))) result = internal::jacobian_add(result, base);
    base = internal::jacobian_double(base);
  }
  return internal::to_affine(result);
}

inline AffinePoint ec_scalar_base_mult(const U256& k) {
  AffinePoint g;
  g.x = p256().gx;
  g.y = p256().gy;
  return oracle::ec_scalar_mult(k, g);
}

namespace internal {

inline U256 reduce_256(const U256& v, const U256& m) {
  U512 wide;
  for (int i = 0; i < 4; ++i) wide.limb[i] = v.limb[i];
  return mod_reduce(wide, m);
}

inline U256 digest_to_scalar(const Sha256Digest& digest) {
  return reduce_256(U256::from_bytes(BytesView(digest.data(), digest.size())), p256().n);
}

inline U256 derive_nonce(const U256& private_key, const Sha256Digest& digest) {
  Bytes seed = private_key.to_bytes();
  seed.insert(seed.end(), digest.begin(), digest.end());
  HmacDrbg drbg(seed, Bytes{'e', 'c', 'd', 's', 'a', '-', 'k'});
  const U256& n = p256().n;
  for (;;) {
    const Bytes candidate = drbg.generate(32);
    U256 k = U256::from_bytes(candidate);
    if (!k.is_zero() && cmp(k, n) < 0) return k;
  }
}

}  // namespace internal

inline EcdsaSignature ecdsa_sign_digest(const U256& private_key, const Sha256Digest& digest) {
  const U256& n = p256().n;
  const U256 z = internal::digest_to_scalar(digest);
  Sha256Digest tweaked = digest;
  for (;;) {
    const U256 k = internal::derive_nonce(private_key, tweaked);
    const U256 r = internal::reduce_256(oracle::ec_scalar_base_mult(k).x, n);
    if (r.is_zero()) {
      tweaked[0] ^= 0x01;
      continue;
    }
    const U256 k_inv = inv_mod_prime(k, n);
    const U256 s = mul_mod(k_inv, add_mod(z, mul_mod(r, private_key, n), n), n);
    if (s.is_zero()) {
      tweaked[0] ^= 0x02;
      continue;
    }
    return EcdsaSignature{r, s};
  }
}

inline bool ecdsa_verify_digest(const AffinePoint& public_key, const Sha256Digest& digest,
                                const EcdsaSignature& sig) {
  const U256& n = p256().n;
  if (public_key.infinity || !oracle::on_curve(public_key)) return false;
  if (sig.r.is_zero() || sig.s.is_zero()) return false;
  if (cmp(sig.r, n) >= 0 || cmp(sig.s, n) >= 0) return false;
  const U256 z = internal::digest_to_scalar(digest);
  const U256 s_inv = inv_mod_prime(sig.s, n);
  const U256 u1 = mul_mod(z, s_inv, n);
  const U256 u2 = mul_mod(sig.r, s_inv, n);
  const AffinePoint point = oracle::ec_add(oracle::ec_scalar_base_mult(u1),
                                          oracle::ec_scalar_mult(u2, public_key));
  if (point.infinity) return false;
  return internal::reduce_256(point.x, n) == sig.r;
}

/// x of d*Q_peer; throws on an invalid peer key or a degenerate result.
inline U256 ecdh_shared_secret(const U256& private_key, const AffinePoint& peer_public) {
  if (peer_public.infinity || !oracle::on_curve(peer_public))
    throw std::invalid_argument("ecdh_shared_secret: invalid peer public key");
  const AffinePoint shared = oracle::ec_scalar_mult(private_key, peer_public);
  if (shared.infinity)
    throw std::invalid_argument("ecdh_shared_secret: degenerate shared point");
  return shared.x;
}

}  // namespace guardnn::crypto::oracle
