#include "crypto/ecdh.h"

#include <stdexcept>

#include "crypto/ecdsa.h"
#include "crypto/hmac.h"

namespace guardnn::crypto {

EcdhKeyPair ecdh_generate_key(HmacDrbg& drbg) {
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  return EcdhKeyPair{kp.private_key, kp.public_key};
}

U256 ecdh_shared_secret(const U256& private_key, const AffinePoint& peer_public) {
  if (peer_public.infinity || !on_curve(peer_public))
    throw std::invalid_argument("ecdh_shared_secret: invalid peer public key");
  const AffinePoint shared = ec_scalar_mult(private_key, peer_public);
  if (shared.infinity)
    throw std::invalid_argument("ecdh_shared_secret: degenerate shared point");
  return shared.x;
}

SessionKeys derive_session_keys(const U256& shared_x, const AffinePoint& user_pub,
                                const AffinePoint& accel_pub) {
  Bytes ikm = shared_x.to_bytes();
  Bytes info;
  const Bytes up = encode_point(user_pub);
  const Bytes ap = encode_point(accel_pub);
  info.insert(info.end(), up.begin(), up.end());
  info.insert(info.end(), ap.begin(), ap.end());
  static const char* kLabel = "guardnn-session-v1";
  Bytes salt(kLabel, kLabel + 18);

  Bytes okm = hkdf(salt, ikm, info, 48);
  SessionKeys keys;
  std::copy(okm.begin(), okm.begin() + 16, keys.enc_key.begin());
  std::copy(okm.begin() + 16, okm.end(), keys.mac_key.begin());
  secure_zero(ikm.data(), ikm.size());
  secure_zero(okm.data(), okm.size());
  return keys;
}

}  // namespace guardnn::crypto
