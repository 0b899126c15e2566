#include <gtest/gtest.h>

#include "crypto/cert.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "crypto/p256.h"
#include "p256_oracle.h"

namespace guardnn::crypto {
namespace {

using oracle::add_mod;
using oracle::mul_mod;
using oracle::sub_mod;

AffinePoint generator() {
  AffinePoint g;
  g.x = p256().gx;
  g.y = p256().gy;
  return g;
}

HmacDrbg test_drbg(u8 tag) {
  Bytes seed = {0xde, 0xad, tag};
  return HmacDrbg(seed);
}

TEST(P256, GeneratorOnCurve) { EXPECT_TRUE(on_curve(generator())); }

TEST(P256, OffCurvePointRejected) {
  AffinePoint bad = generator();
  bad.y = add_mod(bad.y, U256::one(), p256().p);
  EXPECT_FALSE(on_curve(bad));
}

TEST(P256, InfinityIsIdentity) {
  const AffinePoint g = generator();
  EXPECT_EQ(ec_add(g, AffinePoint::at_infinity()), g);
  EXPECT_EQ(ec_add(AffinePoint::at_infinity(), g), g);
}

TEST(P256, InverseSumsToInfinity) {
  AffinePoint g = generator();
  AffinePoint neg = g;
  neg.y = sub_mod(U256::zero(), g.y, p256().p);
  EXPECT_TRUE(on_curve(neg));
  EXPECT_TRUE(ec_add(g, neg).infinity);
}

TEST(P256, DoubleMatchesAdd) {
  const AffinePoint g = generator();
  EXPECT_EQ(ec_add(g, g), ec_scalar_mult(U256::from_u64(2), g));
}

TEST(P256, ScalarMultResultsOnCurve) {
  for (u64 k : {1ULL, 2ULL, 3ULL, 17ULL, 123456789ULL}) {
    const AffinePoint pt = ec_scalar_base_mult(U256::from_u64(k));
    EXPECT_TRUE(on_curve(pt)) << "k=" << k;
    EXPECT_FALSE(pt.infinity);
  }
}

TEST(P256, ScalarDistributes) {
  // (a+b)G == aG + bG
  const U256 a = U256::from_u64(12345);
  const U256 b = U256::from_u64(67890);
  U256 ab;
  add(ab, a, b);
  EXPECT_EQ(ec_scalar_base_mult(ab),
            ec_add(ec_scalar_base_mult(a), ec_scalar_base_mult(b)));
}

TEST(P256, ScalarComposes) {
  // a*(b*G) == (a*b mod n)*G
  const U256 a = U256::from_u64(1001);
  const U256 b = U256::from_u64(2002);
  const AffinePoint bg = ec_scalar_base_mult(b);
  const U256 ab = mul_mod(a, b, p256().n);
  EXPECT_EQ(ec_scalar_mult(a, bg), ec_scalar_base_mult(ab));
}

TEST(P256, OrderTimesGeneratorIsInfinity) {
  EXPECT_TRUE(ec_scalar_base_mult(p256().n).infinity);
}

TEST(P256, EncodeDecodeRoundTrip) {
  const AffinePoint pt = ec_scalar_base_mult(U256::from_u64(777));
  const Bytes encoded = encode_point(pt);
  ASSERT_EQ(encoded.size(), 65u);
  EXPECT_EQ(encoded[0], 0x04);
  const auto decoded = decode_point(encoded);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, pt);
}

TEST(P256, DecodeRejectsMalformed) {
  EXPECT_FALSE(decode_point(Bytes(64, 0)).has_value());  // wrong size
  Bytes bad(65, 0);
  bad[0] = 0x04;
  EXPECT_FALSE(decode_point(bad).has_value());  // (0,0) not on curve
  Bytes wrong_prefix = encode_point(generator());
  wrong_prefix[0] = 0x03;
  EXPECT_FALSE(decode_point(wrong_prefix).has_value());
}


TEST(P256, ScalarMultHandlesEdgeScalars) {
  const AffinePoint g = generator();
  EXPECT_TRUE(ec_scalar_mult(U256::zero(), g).infinity);
  EXPECT_EQ(ec_scalar_mult(U256::one(), g), g);
  EXPECT_TRUE(ec_scalar_mult(p256().n, g).infinity);
}

// RFC 6979 A.2.5 / NIST CAVP-style P-256 known-answer material. The private
// key d and public key Q = d*G are the official vectors, so this doubles as a
// scalar-multiplication KAT; the (r, s) pairs are the official deterministic
// signatures, which any correct verifier must accept regardless of its own
// nonce-derivation scheme.
const char* const kRfc6979D =
    "c9afa9d845ba75166b5c215767b1d6934e50c3db36e89b127b8a622b120f6721";
const char* const kRfc6979Qx =
    "60fed4ba255a9d31c961eb74c6356d68c049b8923b61fa6ce669622e60f29fb6";
const char* const kRfc6979Qy =
    "7903fe1008b8bc99a41ae9e95628bc64f2f1b20c2d7e9f5177a3c294d4462299";

AffinePoint rfc6979_public_key() {
  AffinePoint q;
  q.x = U256::from_bytes(from_hex(kRfc6979Qx));
  q.y = U256::from_bytes(from_hex(kRfc6979Qy));
  return q;
}

TEST(Ecdsa, Rfc6979PublicKeyDerivation) {
  const U256 d = U256::from_bytes(from_hex(kRfc6979D));
  const AffinePoint q = ec_scalar_base_mult(d);
  EXPECT_EQ(to_hex(q.x.to_bytes()), kRfc6979Qx);
  EXPECT_EQ(to_hex(q.y.to_bytes()), kRfc6979Qy);
}

TEST(Ecdsa, Rfc6979VerifyKnownAnswerSignatures) {
  const AffinePoint q = rfc6979_public_key();

  // SHA-256, message "sample".
  EcdsaSignature sample_sig;
  sample_sig.r = U256::from_bytes(from_hex(
      "efd48b2aacb6a8fd1140dd9cd45e81d69d2c877b56aaf991c34d0ea84eaf3716"));
  sample_sig.s = U256::from_bytes(from_hex(
      "f7cb1c942d657c41d436c7a1b6e29f65f3e900dbb9aff4064dc4ab2f843acda8"));
  const Bytes sample = {'s', 'a', 'm', 'p', 'l', 'e'};
  EXPECT_TRUE(ecdsa_verify(q, sample, sample_sig));

  // SHA-256, message "test".
  EcdsaSignature test_sig;
  test_sig.r = U256::from_bytes(from_hex(
      "f1abb023518351cd71d881567b1ea663ed3efcf6c5132b354f28d3b0b7d38367"));
  test_sig.s = U256::from_bytes(from_hex(
      "019f4113742a2b14bd25926b49c649155f267e60d3814b4c0cc84250e46f0083"));
  const Bytes test_msg = {'t', 'e', 's', 't'};
  EXPECT_TRUE(ecdsa_verify(q, test_msg, test_sig));

  // Cross-checks: signatures don't verify for the wrong message.
  EXPECT_FALSE(ecdsa_verify(q, test_msg, sample_sig));
  EXPECT_FALSE(ecdsa_verify(q, sample, test_sig));
}

TEST(Ecdsa, FixedDrbgSignVerifyRoundTripGolden) {
  // Key pair generated from a fixed DRBG seed; our nonces are deterministic,
  // so the full 64-byte r||s wire encoding is a regression golden.
  HmacDrbg drbg(Bytes{0x5e, 0xed, 0x01});
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes msg = {'s', 'a', 'm', 'p', 'l', 'e'};
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
  EXPECT_TRUE(ecdsa_verify(kp.public_key, msg, sig));
  EXPECT_EQ(to_hex(sig.to_bytes()),
            "99fb33c59fdc187953405a03f94182b31ea339d9ac6437ff2d9632d1a3d7946d"
            "ecaebe5333fd17935b13bb2c9de3084656e8a3cc94fb967308fa5f72bde641ab");

  // The implementation's own deterministic signature for the RFC 6979 key is
  // pinned too (nonce scheme is HMAC-DRBG-style, not bit-exact RFC 6979).
  const U256 d = U256::from_bytes(from_hex(kRfc6979D));
  const EcdsaSignature own = ecdsa_sign(d, msg);
  EXPECT_TRUE(ecdsa_verify(rfc6979_public_key(), msg, own));
  EXPECT_EQ(to_hex(own.to_bytes()),
            "168f3fc81659a4b00d9d9800194d1419e0c7160989cdf1848b8b27443fe76e53"
            "be7a6eb8ab4b0a2d78d238103fc1102c15e5110d2bec0ed946693f8aea863f6a");
}

TEST(Ecdsa, SignVerifyRoundTrip) {
  HmacDrbg drbg = test_drbg(1);
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes msg = {'h', 'e', 'l', 'l', 'o'};
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
  EXPECT_TRUE(ecdsa_verify(kp.public_key, msg, sig));
}

TEST(Ecdsa, RejectsTamperedMessage) {
  HmacDrbg drbg = test_drbg(2);
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes msg = {1, 2, 3, 4};
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(ecdsa_verify(kp.public_key, tampered, sig));
}

TEST(Ecdsa, RejectsTamperedSignature) {
  HmacDrbg drbg = test_drbg(3);
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes msg = {9, 9, 9};
  EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
  sig.r = add_mod(sig.r, U256::one(), p256().n);
  EXPECT_FALSE(ecdsa_verify(kp.public_key, msg, sig));
}

TEST(Ecdsa, RejectsWrongKey) {
  HmacDrbg drbg = test_drbg(4);
  const EcdsaKeyPair kp1 = ecdsa_generate_key(drbg);
  const EcdsaKeyPair kp2 = ecdsa_generate_key(drbg);
  const Bytes msg = {5, 5};
  const EcdsaSignature sig = ecdsa_sign(kp1.private_key, msg);
  EXPECT_FALSE(ecdsa_verify(kp2.public_key, msg, sig));
}

TEST(Ecdsa, RejectsZeroComponents) {
  HmacDrbg drbg = test_drbg(5);
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  EcdsaSignature sig{U256::zero(), U256::one()};
  EXPECT_FALSE(ecdsa_verify(kp.public_key, Bytes{1}, sig));
  sig = {U256::one(), U256::zero()};
  EXPECT_FALSE(ecdsa_verify(kp.public_key, Bytes{1}, sig));
}

TEST(Ecdsa, DeterministicNonces) {
  HmacDrbg drbg = test_drbg(6);
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes msg = {7};
  const EcdsaSignature s1 = ecdsa_sign(kp.private_key, msg);
  const EcdsaSignature s2 = ecdsa_sign(kp.private_key, msg);
  EXPECT_EQ(s1.r, s2.r);
  EXPECT_EQ(s1.s, s2.s);
}

TEST(Ecdsa, SignatureSerialization) {
  HmacDrbg drbg = test_drbg(7);
  const EcdsaKeyPair kp = ecdsa_generate_key(drbg);
  const Bytes msg = {1, 1, 2, 3, 5, 8};
  const EcdsaSignature sig = ecdsa_sign(kp.private_key, msg);
  const Bytes wire = sig.to_bytes();
  ASSERT_EQ(wire.size(), 64u);
  const auto parsed = EcdsaSignature::from_bytes(wire);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_TRUE(ecdsa_verify(kp.public_key, msg, *parsed));
  EXPECT_FALSE(EcdsaSignature::from_bytes(Bytes(63)).has_value());
}

TEST(Ecdh, SharedSecretAgrees) {
  HmacDrbg drbg_a = test_drbg(8);
  HmacDrbg drbg_b = test_drbg(9);
  const EcdhKeyPair alice = ecdh_generate_key(drbg_a);
  const EcdhKeyPair bob = ecdh_generate_key(drbg_b);
  const U256 s_ab = ecdh_shared_secret(alice.private_key, bob.public_key);
  const U256 s_ba = ecdh_shared_secret(bob.private_key, alice.public_key);
  EXPECT_EQ(s_ab, s_ba);
}

TEST(Ecdh, DifferentPeersDifferentSecrets) {
  HmacDrbg drbg = test_drbg(10);
  const EcdhKeyPair a = ecdh_generate_key(drbg);
  const EcdhKeyPair b = ecdh_generate_key(drbg);
  const EcdhKeyPair c = ecdh_generate_key(drbg);
  EXPECT_NE(ecdh_shared_secret(a.private_key, b.public_key),
            ecdh_shared_secret(a.private_key, c.public_key));
}

TEST(Ecdh, RejectsInvalidPeerKey) {
  HmacDrbg drbg = test_drbg(11);
  const EcdhKeyPair a = ecdh_generate_key(drbg);
  AffinePoint off_curve = generator();
  off_curve.x = add_mod(off_curve.x, U256::one(), p256().p);
  EXPECT_THROW(ecdh_shared_secret(a.private_key, off_curve), std::invalid_argument);
  EXPECT_THROW(ecdh_shared_secret(a.private_key, AffinePoint::at_infinity()),
               std::invalid_argument);
}

TEST(Ecdh, SessionKeysMatchOnBothSides) {
  HmacDrbg drbg_a = test_drbg(12);
  HmacDrbg drbg_b = test_drbg(13);
  const EcdhKeyPair user = ecdh_generate_key(drbg_a);
  const EcdhKeyPair accel = ecdh_generate_key(drbg_b);
  const SessionKeys k_user = derive_session_keys(
      ecdh_shared_secret(user.private_key, accel.public_key), user.public_key,
      accel.public_key);
  const SessionKeys k_accel = derive_session_keys(
      ecdh_shared_secret(accel.private_key, user.public_key), user.public_key,
      accel.public_key);
  EXPECT_EQ(k_user.enc_key, k_accel.enc_key);
  EXPECT_EQ(k_user.mac_key, k_accel.mac_key);
}

TEST(Cert, IssueAndVerify) {
  HmacDrbg drbg = test_drbg(14);
  const ManufacturerCa ca(drbg);
  const EcdsaKeyPair device = ecdsa_generate_key(drbg);
  const DeviceCertificate cert = ca.issue("guardnn-dev-0001", device.public_key);
  EXPECT_TRUE(verify_certificate(cert, ca.public_key()));
}

TEST(Cert, RejectsWrongCa) {
  HmacDrbg drbg = test_drbg(15);
  const ManufacturerCa real_ca(drbg);
  const ManufacturerCa fake_ca(drbg);
  const EcdsaKeyPair device = ecdsa_generate_key(drbg);
  const DeviceCertificate cert = real_ca.issue("dev", device.public_key);
  EXPECT_FALSE(verify_certificate(cert, fake_ca.public_key()));
}

TEST(Cert, RejectsSwappedKey) {
  HmacDrbg drbg = test_drbg(16);
  const ManufacturerCa ca(drbg);
  const EcdsaKeyPair device = ecdsa_generate_key(drbg);
  const EcdsaKeyPair attacker = ecdsa_generate_key(drbg);
  DeviceCertificate cert = ca.issue("dev", device.public_key);
  cert.device_public = attacker.public_key;  // substitution attack
  EXPECT_FALSE(verify_certificate(cert, ca.public_key()));
}

TEST(Cert, RejectsRenamedDevice) {
  HmacDrbg drbg = test_drbg(17);
  const ManufacturerCa ca(drbg);
  const EcdsaKeyPair device = ecdsa_generate_key(drbg);
  DeviceCertificate cert = ca.issue("dev-a", device.public_key);
  cert.device_id = "dev-b";
  EXPECT_FALSE(verify_certificate(cert, ca.public_key()));
}

}  // namespace
}  // namespace guardnn::crypto
