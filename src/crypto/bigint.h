// Fixed-width 256-bit unsigned integer, sized exactly for the NIST P-256
// group used by GuardNN's device identity (ECDSA) and session key exchange
// (ECDHE). The modular arithmetic on top of it is P-256-specific and lives in
// p256.cc (Montgomery form mod p and mod n).
#pragma once

#include <array>
#include <string>

#include "common/types.h"

namespace guardnn::crypto {

/// 256-bit unsigned integer; limbs are little-endian 64-bit words.
struct U256 {
  std::array<u64, 4> limb{};

  static U256 zero() { return {}; }
  static U256 one() {
    U256 v;
    v.limb[0] = 1;
    return v;
  }
  static U256 from_u64(u64 x) {
    U256 v;
    v.limb[0] = x;
    return v;
  }
  /// Parses a big-endian hex string (up to 64 hex digits).
  static U256 from_hex(const std::string& hex);
  /// Parses 32 big-endian bytes.
  static U256 from_bytes(BytesView bytes);

  /// Serializes to 32 big-endian bytes.
  Bytes to_bytes() const;
  std::string to_hex() const;

  bool is_zero() const { return (limb[0] | limb[1] | limb[2] | limb[3]) == 0; }
  bool is_odd() const { return limb[0] & 1; }
  bool bit(unsigned i) const { return (limb[i / 64] >> (i % 64)) & 1; }
  /// Number of significant bits (0 for zero).
  int bit_length() const;

  friend bool operator==(const U256& a, const U256& b) { return a.limb == b.limb; }
};

/// Three-way comparison: -1, 0 or +1.
int cmp(const U256& a, const U256& b);

/// a + b; returns the carry-out (0 or 1). add and sub run the same
/// instructions for every operand value (the P-256 code relies on this).
u64 add(U256& out, const U256& a, const U256& b);
/// a - b; returns the borrow-out (0 or 1).
u64 sub(U256& out, const U256& a, const U256& b);

/// Right shift by one bit.
U256 shr1(const U256& a);

}  // namespace guardnn::crypto
