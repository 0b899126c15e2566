#include <gtest/gtest.h>

#include "common/rng.h"
#include "crypto/bigint.h"
#include "p256_oracle.h"

namespace guardnn::crypto {
namespace {

using namespace oracle;

U256 random_u256(guardnn::Xoshiro256& rng) {
  U256 v;
  for (auto& limb : v.limb) limb = rng.next();
  return v;
}

TEST(U256, HexRoundTrip) {
  const U256 v = U256::from_hex("deadbeef00000000000000000000000000000000000000000000000012345678");
  EXPECT_EQ(v.to_hex(),
            "deadbeef00000000000000000000000000000000000000000000000012345678");
  EXPECT_EQ(v.limb[0], 0x12345678u);
  EXPECT_EQ(v.limb[3], 0xdeadbeef00000000ULL);
}

TEST(U256, BytesRoundTrip) {
  guardnn::Xoshiro256 rng(1);
  for (int i = 0; i < 20; ++i) {
    const U256 v = random_u256(rng);
    EXPECT_EQ(U256::from_bytes(v.to_bytes()), v);
  }
}

TEST(U256, CmpOrdering) {
  const U256 a = U256::from_u64(5);
  const U256 b = U256::from_u64(9);
  U256 big;
  big.limb[3] = 1;
  EXPECT_EQ(cmp(a, b), -1);
  EXPECT_EQ(cmp(b, a), 1);
  EXPECT_EQ(cmp(a, a), 0);
  EXPECT_EQ(cmp(big, b), 1);
}

TEST(U256, AddSubInverse) {
  guardnn::Xoshiro256 rng(2);
  for (int i = 0; i < 100; ++i) {
    const U256 a = random_u256(rng);
    const U256 b = random_u256(rng);
    U256 s, d;
    const u64 carry = add(s, a, b);
    const u64 borrow = sub(d, s, b);
    // (a + b) - b == a, modulo 2^256 carry behaviour.
    EXPECT_EQ(d, a);
    EXPECT_EQ(borrow, carry);
  }
}

TEST(U256, AddCarryOut) {
  U256 max;
  max.limb.fill(~0ULL);
  U256 s;
  EXPECT_EQ(add(s, max, U256::one()), 1u);
  EXPECT_TRUE(s.is_zero());
}

TEST(U256, SubBorrowOut) {
  U256 d;
  EXPECT_EQ(sub(d, U256::zero(), U256::one()), 1u);
  U256 max;
  max.limb.fill(~0ULL);
  EXPECT_EQ(d, max);
}

TEST(U256, Shr1) {
  const U256 v = U256::from_hex("8000000000000000000000000000000000000000000000000000000000000001");
  const U256 half = shr1(v);
  EXPECT_EQ(half.to_hex(),
            "4000000000000000000000000000000000000000000000000000000000000000");
}

TEST(U256, BitLength) {
  EXPECT_EQ(U256::zero().bit_length(), 0);
  EXPECT_EQ(U256::one().bit_length(), 1);
  EXPECT_EQ(U256::from_u64(0xff).bit_length(), 8);
  U256 top;
  top.limb[3] = 1ULL << 63;
  EXPECT_EQ(top.bit_length(), 256);
}

TEST(MulWide, SmallKnownProduct) {
  const U512 p = mul_wide(U256::from_u64(0xffffffffffffffffULL),
                          U256::from_u64(0xffffffffffffffffULL));
  // (2^64-1)^2 = 2^128 - 2^65 + 1
  EXPECT_EQ(p.limb[0], 1u);
  EXPECT_EQ(p.limb[1], 0xfffffffffffffffeULL);
  EXPECT_EQ(p.limb[2], 0u);
}

TEST(MulWide, Commutative) {
  guardnn::Xoshiro256 rng(3);
  for (int i = 0; i < 50; ++i) {
    const U256 a = random_u256(rng);
    const U256 b = random_u256(rng);
    EXPECT_EQ(mul_wide(a, b).limb, mul_wide(b, a).limb);
  }
}

TEST(ModReduce, ResultBelowModulus) {
  guardnn::Xoshiro256 rng(4);
  const U256 m = U256::from_hex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  for (int i = 0; i < 50; ++i) {
    const U512 x = mul_wide(random_u256(rng), random_u256(rng));
    const U256 r = mod_reduce(x, m);
    EXPECT_LT(cmp(r, m), 0);
  }
}

TEST(ModReduce, SmallExamples) {
  U512 x;
  x.limb[0] = 17;
  EXPECT_EQ(mod_reduce(x, U256::from_u64(5)), U256::from_u64(2));
  x.limb[0] = 4;
  EXPECT_EQ(mod_reduce(x, U256::from_u64(5)), U256::from_u64(4));
}

TEST(ModReduce, RejectsZeroModulus) {
  U512 x;
  EXPECT_THROW(mod_reduce(x, U256::zero()), std::invalid_argument);
}

class ModArithTest : public ::testing::TestWithParam<u64> {};

TEST_P(ModArithTest, FieldAxiomsSampled) {
  guardnn::Xoshiro256 rng(GetParam());
  const U256 m = U256::from_hex(
      "ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
  auto reduce1 = [&](const U256& v) {
    U512 w;
    for (int i = 0; i < 4; ++i) w.limb[i] = v.limb[i];
    return mod_reduce(w, m);
  };
  const U256 a = reduce1(random_u256(rng));
  const U256 b = reduce1(random_u256(rng));
  const U256 c = reduce1(random_u256(rng));

  // Commutativity and associativity.
  EXPECT_EQ(add_mod(a, b, m), add_mod(b, a, m));
  EXPECT_EQ(mul_mod(a, b, m), mul_mod(b, a, m));
  EXPECT_EQ(add_mod(add_mod(a, b, m), c, m), add_mod(a, add_mod(b, c, m), m));
  EXPECT_EQ(mul_mod(mul_mod(a, b, m), c, m), mul_mod(a, mul_mod(b, c, m), m));
  // Distributivity.
  EXPECT_EQ(mul_mod(a, add_mod(b, c, m), m),
            add_mod(mul_mod(a, b, m), mul_mod(a, c, m), m));
  // Additive inverse.
  EXPECT_TRUE(sub_mod(a, a, m).is_zero());
  EXPECT_EQ(add_mod(sub_mod(a, b, m), b, m), a);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModArithTest,
                         ::testing::Values(10, 11, 12, 13, 14, 15, 16, 17));

TEST(PowMod, SmallCases) {
  const U256 m = U256::from_u64(1000000007ULL);
  EXPECT_EQ(pow_mod(U256::from_u64(2), U256::from_u64(10), m), U256::from_u64(1024));
  EXPECT_EQ(pow_mod(U256::from_u64(3), U256::zero(), m), U256::one());
}

TEST(PowMod, FermatLittleTheorem) {
  // a^(p-1) == 1 mod p for prime p and gcd(a,p)=1.
  const U256 p = U256::from_hex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  U256 e;
  sub(e, p, U256::one());
  guardnn::Xoshiro256 rng(6);
  for (int i = 0; i < 5; ++i) {
    U512 w;
    for (int j = 0; j < 4; ++j) w.limb[j] = rng.next();
    U256 a = mod_reduce(w, p);
    if (a.is_zero()) a = U256::one();
    EXPECT_EQ(pow_mod(a, e, p), U256::one());
  }
}

TEST(InvMod, InverseTimesSelfIsOne) {
  const U256 p = U256::from_hex(
      "ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
  guardnn::Xoshiro256 rng(7);
  for (int i = 0; i < 5; ++i) {
    U512 w;
    for (int j = 0; j < 4; ++j) w.limb[j] = rng.next();
    U256 a = mod_reduce(w, p);
    if (a.is_zero()) a = U256::from_u64(2);
    const U256 inv = inv_mod_prime(a, p);
    EXPECT_EQ(mul_mod(a, inv, p), U256::one());
  }
}

TEST(InvMod, RejectsZero) {
  EXPECT_THROW(inv_mod_prime(U256::zero(), U256::from_u64(7)), std::invalid_argument);
}

}  // namespace
}  // namespace guardnn::crypto
