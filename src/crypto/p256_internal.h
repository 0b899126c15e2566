// Internal P-256 interfaces shared by p256.cc and ecdsa.cc: arithmetic
// modulo the group order n, the joint scalar multiplication ECDSA
// verification needs, and the per-thread operation counters the
// constant-time tests read. Not part of the public crypto API.
#pragma once

#include "crypto/p256.h"

namespace guardnn::crypto::detail {

/// Point operations performed on the calling thread: doublings, additions
/// and masked 16-entry table scans. A scalar multiplication performs the
/// same number of each for every scalar; only the one-time construction of
/// the base-point table (on the first base-point multiplication in the
/// process) adds to them outside that rule.
struct P256OpCounts {
  u64 doublings = 0;
  u64 additions = 0;
  u64 table_scans = 0;
};

/// The calling thread's counters; reset by assigning `{}`.
P256OpCounts& p256_op_counts();

/// Arithmetic modulo the group order n on plain (non-Montgomery) scalars.
/// Each runs the same instructions for every operand value.
/// a mod n for any 256-bit a (one conditional subtraction, as 2^256 < 2n).
U256 scalar_reduce(const U256& a);
/// (a + b) mod n; a and b must be < n.
U256 scalar_add(const U256& a, const U256& b);
/// (a * b) mod n; at least one of a and b must be < n.
U256 scalar_mul(const U256& a, const U256& b);
/// a^-1 mod n by Fermat's little theorem (a^(n-2)); a must be in [1, n).
U256 scalar_inv(const U256& a);

/// a*G + b*Q, converted to affine once (ECDSA verification).
AffinePoint ec_base_mult_add(const U256& a, const U256& b, const AffinePoint& q);

}  // namespace guardnn::crypto::detail
