#include "crypto/bigint.h"

#include <bit>
#include <stdexcept>

namespace guardnn::crypto {

U256 U256::from_hex(const std::string& hex) {
  if (hex.size() > 64) throw std::invalid_argument("U256::from_hex: too long");
  std::string padded(64 - hex.size(), '0');
  padded += hex;
  return from_bytes(guardnn::from_hex(padded));
}

U256 U256::from_bytes(BytesView bytes) {
  if (bytes.size() != 32) throw std::invalid_argument("U256::from_bytes: need 32 bytes");
  U256 v;
  for (int i = 0; i < 4; ++i) v.limb[3 - i] = load_be64(bytes.data() + 8 * i);
  return v;
}

Bytes U256::to_bytes() const {
  Bytes out(32);
  for (int i = 0; i < 4; ++i) store_be64(out.data() + 8 * i, limb[3 - i]);
  return out;
}

std::string U256::to_hex() const { return guardnn::to_hex(to_bytes()); }

int U256::bit_length() const {
  for (int i = 3; i >= 0; --i) {
    if (limb[i] != 0) return 64 * i + 64 - std::countl_zero(limb[i]);
  }
  return 0;
}

int cmp(const U256& a, const U256& b) {
  for (int i = 3; i >= 0; --i) {
    if (a.limb[i] < b.limb[i]) return -1;
    if (a.limb[i] > b.limb[i]) return 1;
  }
  return 0;
}

u64 add(U256& out, const U256& a, const U256& b) {
  u64 carry = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 s =
        static_cast<unsigned __int128>(a.limb[i]) + b.limb[i] + carry;
    out.limb[i] = static_cast<u64>(s);
    carry = static_cast<u64>(s >> 64);
  }
  return carry;
}

u64 sub(U256& out, const U256& a, const U256& b) {
  u64 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const unsigned __int128 d = static_cast<unsigned __int128>(a.limb[i]) -
                                b.limb[i] - borrow;
    out.limb[i] = static_cast<u64>(d);
    borrow = static_cast<u64>(d >> 64) & 1;
  }
  return borrow;
}

U256 shr1(const U256& a) {
  U256 out;
  for (int i = 0; i < 4; ++i) {
    out.limb[i] = a.limb[i] >> 1;
    if (i < 3) out.limb[i] |= a.limb[i + 1] << 63;
  }
  return out;
}

}  // namespace guardnn::crypto
