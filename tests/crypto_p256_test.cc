// The constant-time P-256 code (src/crypto/p256.cc) against its two
// properties: every scalar multiplication performs the same point
// operations whatever its scalar, and every output matches the generic
// double-and-add oracle (p256_oracle.h) byte for byte.
#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "crypto/ecdh.h"
#include "crypto/ecdsa.h"
#include "crypto/p256_internal.h"
#include "p256_oracle.h"

namespace guardnn::crypto {
namespace {

using detail::P256OpCounts;
using detail::p256_op_counts;

U256 random_u256(Xoshiro256& rng) {
  U256 v;
  for (auto& limb : v.limb) limb = rng.next();
  return v;
}

// The scalars the operation counts must not depend on.
std::vector<std::pair<std::string, U256>> count_scalars() {
  Xoshiro256 rng(2026);
  U256 n_minus_1;
  sub(n_minus_1, p256().n, U256::one());
  U256 top_bit;
  top_bit.limb[3] = 1ULL << 63;
  U256 low_weight;
  low_weight.limb[0] = 1;
  low_weight.limb[2] = 1ULL << 17;
  return {{"0", U256::zero()},       {"1", U256::one()},
          {"2", U256::from_u64(2)},  {"2^255", top_bit},
          {"n-1", n_minus_1},        {"random", random_u256(rng)},
          {"low weight", low_weight}};
}

P256OpCounts counts_of(const std::function<void()>& op) {
  p256_op_counts() = {};
  op();
  return p256_op_counts();
}

TEST(P256ConstantTime, BaseMultOpCountsIndependentOfScalar) {
  ec_scalar_base_mult(U256::one());  // builds the base-point table, once per process
  for (const auto& [name, k] : count_scalars()) {
    const P256OpCounts c = counts_of([&] { ec_scalar_base_mult(k); });
    EXPECT_EQ(c.doublings, 0u) << "k = " << name;
    EXPECT_EQ(c.additions, 64u) << "k = " << name;
    EXPECT_EQ(c.table_scans, 64u) << "k = " << name;
  }
}

TEST(P256ConstantTime, ScalarMultOpCountsIndependentOfScalar) {
  const AffinePoint q = ec_scalar_base_mult(U256::from_u64(12345));
  for (const auto& [name, k] : count_scalars()) {
    const P256OpCounts c = counts_of([&] { ec_scalar_mult(k, q); });
    // 256 doublings and 64 additions in the window loop, plus the 7 + 7
    // that build the [0..15]*Q table.
    EXPECT_EQ(c.doublings, 263u) << "k = " << name;
    EXPECT_EQ(c.additions, 71u) << "k = " << name;
    EXPECT_EQ(c.table_scans, 64u) << "k = " << name;
  }
}

TEST(P256Oracle, EdgeScalarsMatchOracle) {
  std::vector<std::pair<std::string, U256>> scalars = count_scalars();
  U256 n_plus_1;
  add(n_plus_1, p256().n, U256::one());
  U256 all_ones;
  all_ones.limb.fill(~0ULL);
  scalars.emplace_back("n", p256().n);
  scalars.emplace_back("n+1", n_plus_1);
  scalars.emplace_back("2^256-1", all_ones);
  const AffinePoint q = oracle::ec_scalar_base_mult(U256::from_u64(777));
  for (const auto& [name, k] : scalars) {
    EXPECT_EQ(ec_scalar_base_mult(k), oracle::ec_scalar_base_mult(k)) << "k = " << name;
    EXPECT_EQ(ec_scalar_mult(k, q), oracle::ec_scalar_mult(k, q)) << "k = " << name;
  }
}

// A private scalar in [1, n): mostly uniform, with short and low-weight ones
// mixed in.
U256 random_private_key(Xoshiro256& rng, int i) {
  U256 d;
  if (i % 10 == 0) {
    for (int bits = 0; bits < 3; ++bits) {
      const u64 b = rng.next_below(256);
      d.limb[b / 64] |= 1ULL << (b % 64);
    }
  } else if (i % 10 == 1) {
    d = U256::from_u64(rng.next() | 1);
  } else {
    do {
      d = random_u256(rng);
    } while (d.is_zero() || cmp(d, p256().n) >= 0);
  }
  return d;
}

constexpr int kOracleShards = 20;
constexpr int kVectorsPerShard = 50;

class P256OracleVectors : public ::testing::TestWithParam<int> {};

// kOracleShards x kVectorsPerShard = 1,000 random vectors. Each vector checks
// both scalar-multiplication paths, ECDH, a deterministic signature and a
// verification (of the genuine message on even vectors, of a tampered one on
// odd vectors). The peer point of each vector is the previous public key.
TEST_P(P256OracleVectors, MatchOracleByteForByte) {
  Xoshiro256 rng(0x9256 + static_cast<u64>(GetParam()));
  AffinePoint peer{p256().gx, p256().gy};
  int mismatches = 0;
  auto check = [&](bool same, const char* what, int i) {
    if (same) return;
    ++mismatches;
    ADD_FAILURE() << what << " differs from the oracle at vector " << i;
  };
  for (int i = 0; i < kVectorsPerShard; ++i) {
    const U256 d = random_private_key(rng, i);
    Bytes msg(1 + rng.next_below(64));
    rng.fill(msg);
    const Sha256Digest digest = Sha256::hash(msg);

    const AffinePoint pub = ec_scalar_base_mult(d);
    const AffinePoint pub_oracle = oracle::ec_scalar_base_mult(d);
    check(encode_point(pub) == encode_point(pub_oracle), "ec_scalar_base_mult", i);

    const AffinePoint shared_oracle = oracle::ec_scalar_mult(d, peer);
    check(encode_point(ec_scalar_mult(d, peer)) == encode_point(shared_oracle),
          "ec_scalar_mult", i);
    check(ecdh_shared_secret(d, peer).to_bytes() == shared_oracle.x.to_bytes(),
          "ecdh_shared_secret", i);

    const EcdsaSignature sig = ecdsa_sign(d, msg);
    check(sig.to_bytes() == oracle::ecdsa_sign_digest(d, digest).to_bytes(), "ecdsa_sign", i);

    Bytes checked = msg;
    if (i % 2 == 1) checked[rng.next_below(checked.size())] ^= 0x20;
    const bool verified = ecdsa_verify(pub, checked, sig);
    check(verified == oracle::ecdsa_verify_digest(pub_oracle, Sha256::hash(checked), sig),
          "ecdsa_verify", i);
    check(verified == (i % 2 == 0), "ecdsa_verify outcome", i);

    peer = pub;
  }
  EXPECT_EQ(mismatches, 0) << "over " << kVectorsPerShard << " vectors";
}

INSTANTIATE_TEST_SUITE_P(Shards, P256OracleVectors, ::testing::Range(0, kOracleShards));

}  // namespace
}  // namespace guardnn::crypto
