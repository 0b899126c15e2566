#include "crypto/p256.h"

#include <stdexcept>
#include <vector>

#include "crypto/p256_internal.h"

namespace guardnn::crypto {

const P256Params& p256() {
  static const P256Params params = [] {
    P256Params pr;
    pr.p = U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff");
    pr.n = U256::from_hex("ffffffff00000000ffffffffffffffffbce6faada7179e84f3b9cac2fc632551");
    pr.b = U256::from_hex("5ac635d8aa3a93e7b3ebbd55769886bc651d06b0cc53b0f63bce3c3e27d2604b");
    pr.gx = U256::from_hex("6b17d1f2e12c4247f8bce6e563a440f277037d812deb33a0f4a13945d898c296");
    pr.gy = U256::from_hex("4fe342e2fe1a7f9b8ee7eb4a7c0f9e162bce33576b315ececbb6406837bf51f5");
    return pr;
  }();
  return params;
}

namespace {

using u128 = unsigned __int128;

// Montgomery arithmetic on 4x64-bit limbs, shared by the field (mod p) and
// the scalars (mod n): a value a is held as a*R mod m, R = 2^256. Every
// routine runs the same instructions whatever its operand values; the only
// value-dependent choices are masked selects.
struct Modulus {
  U256 m;
  u64 m0inv;  // -m^-1 mod 2^64
  U256 r2;    // R^2 mod m: mont_mul(a, r2) brings a into Montgomery form
};

constexpr Modulus kP{{{0xffffffffffffffff, 0x00000000ffffffff, 0x0000000000000000,
                       0xffffffff00000001}},
                     0x0000000000000001,
                     {{0x0000000000000003, 0xfffffffbffffffff, 0xfffffffffffffffe,
                       0x00000004fffffffd}}};
constexpr Modulus kN{{{0xf3b9cac2fc632551, 0xbce6faada7179e84, 0xffffffffffffffff,
                       0xffffffff00000000}},
                     0xccd1c8aaee00bc4f,
                     {{0x83244c95be79eea2, 0x4699799c49bd6fa6, 0x2845b2392b6bec59,
                       0x66e12d94f3d95620}}};

// 1 and the curve coefficient b in Montgomery form mod p (R mod p, b*R mod p).
constexpr U256 kOneP{{0x0000000000000001, 0xffffffff00000000, 0xffffffffffffffff,
                      0x00000000fffffffe}};
constexpr U256 kBP{{0xd89cdf6229c4bddf, 0xacf005cd78843090, 0xe5a220abf7212ed6,
                    0xdc30061d04874834}};

// All ones when `bit` is 1, all zeros when it is 0.
constexpr u64 mask_from_bit(u64 bit) { return 0 - bit; }

// mask ? a : b.
U256 select(u64 mask, const U256& a, const U256& b) {
  U256 out;
  for (int i = 0; i < 4; ++i) out.limb[i] = (a.limb[i] & mask) | (b.limb[i] & ~mask);
  return out;
}

// The 257-bit value carry:a reduced once: a - m when carry:a >= m. Callers
// guarantee carry:a < 2m.
U256 reduce_once(const U256& a, u64 carry, const Modulus& mod) {
  U256 diff;
  const u64 borrow = sub(diff, a, mod.m);
  return select(mask_from_bit(borrow & (carry ^ 1)), a, diff);
}

U256 mod_add(const U256& a, const U256& b, const Modulus& mod) {
  U256 sum;
  const u64 carry = add(sum, a, b);
  return reduce_once(sum, carry, mod);
}

U256 mod_sub(const U256& a, const U256& b, const Modulus& mod) {
  U256 diff;
  const u64 mask = mask_from_bit(sub(diff, a, b));
  U256 wrap;
  for (int i = 0; i < 4; ++i) wrap.limb[i] = mod.m.limb[i] & mask;
  add(diff, diff, wrap);
  return diff;
}

// a*b/R mod m (CIOS). With a < R and b < m the accumulator stays below 2m,
// so one conditional subtraction completes the reduction.
U256 mont_mul(const U256& a, const U256& b, const Modulus& mod) {
  u64 t[6] = {};
  for (int i = 0; i < 4; ++i) {
    u64 carry = 0;
    for (int j = 0; j < 4; ++j) {
      const u128 s = static_cast<u128>(a.limb[j]) * b.limb[i] + t[j] + carry;
      t[j] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    u128 s = static_cast<u128>(t[4]) + carry;
    t[4] = static_cast<u64>(s);
    t[5] = static_cast<u64>(s >> 64);

    const u64 q = t[0] * mod.m0inv;
    s = static_cast<u128>(q) * mod.m.limb[0] + t[0];
    carry = static_cast<u64>(s >> 64);
    for (int j = 1; j < 4; ++j) {
      s = static_cast<u128>(q) * mod.m.limb[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(s);
      carry = static_cast<u64>(s >> 64);
    }
    s = static_cast<u128>(t[4]) + carry;
    t[3] = static_cast<u64>(s);
    t[4] = t[5] + static_cast<u64>(s >> 64);
  }
  return reduce_once(U256{{t[0], t[1], t[2], t[3]}}, t[4], mod);
}

U256 to_mont(const U256& a, const Modulus& mod) { return mont_mul(a, mod.r2, mod); }
U256 from_mont(const U256& a, const Modulus& mod) {
  return mont_mul(a, U256::one(), mod);
}

// a^(m-2) = a^-1 for prime m, in Montgomery form. The exponent is public,
// so the square-and-multiply schedule is the same for every a.
U256 mont_inv(const U256& a, const Modulus& mod) {
  U256 e;
  sub(e, mod.m, U256::from_u64(2));
  U256 r = to_mont(U256::one(), mod);
  for (int i = 255; i >= 0; --i) {
    r = mont_mul(r, r, mod);
    if (e.bit(static_cast<unsigned>(i))) r = mont_mul(r, a, mod);
  }
  return r;
}

U256 fmul(const U256& a, const U256& b) { return mont_mul(a, b, kP); }
U256 fadd(const U256& a, const U256& b) { return mod_add(a, b, kP); }
U256 fsub(const U256& a, const U256& b) { return mod_sub(a, b, kP); }
U256 ftwice(const U256& a) { return fadd(a, a); }
U256 ftriple(const U256& a) { return fadd(fadd(a, a), a); }

// Homogeneous projective point (X : Y : Z), coordinates in Montgomery form,
// standing for the affine (X/Z, Y/Z). The identity is (0 : 1 : 0).
struct Point {
  U256 x;
  U256 y;
  U256 z;
};

using Table = std::array<Point, 16>;

Point identity() { return Point{U256{}, kOneP, U256{}}; }

Point from_affine(const AffinePoint& a) {
  if (a.infinity) return identity();
  return Point{to_mont(a.x, kP), to_mont(a.y, kP), kOneP};
}

AffinePoint to_affine(const Point& pt) {
  if (pt.z.is_zero()) return AffinePoint::at_infinity();
  const U256 z_inv = mont_inv(pt.z, kP);
  AffinePoint out;
  out.x = from_mont(fmul(pt.x, z_inv), kP);
  out.y = from_mont(fmul(pt.y, z_inv), kP);
  return out;
}

// Complete addition for a = -3 (Renes-Costello-Batina, ePrint 2015/1060,
// Algorithm 4): one formula for every pair of inputs, including P == Q,
// P == -Q and the identity, so nothing branches on the points.
Point point_add(const Point& p, const Point& q) {
  ++detail::p256_op_counts().additions;
  const U256 xx = fmul(p.x, q.x);
  const U256 yy = fmul(p.y, q.y);
  const U256 zz = fmul(p.z, q.z);
  const U256 xy = fsub(fmul(fadd(p.x, p.y), fadd(q.x, q.y)), fadd(xx, yy));
  const U256 yz = fsub(fmul(fadd(p.y, p.z), fadd(q.y, q.z)), fadd(yy, zz));
  const U256 xz = fsub(fmul(fadd(p.x, p.z), fadd(q.x, q.z)), fadd(xx, zz));
  const U256 bzz3 = ftriple(fsub(xz, fmul(kBP, zz)));
  const U256 yy_m = fsub(yy, bzz3);
  const U256 yy_p = fadd(yy, bzz3);
  const U256 zz3 = ftriple(zz);
  const U256 bxz3 = ftriple(fsub(fsub(fmul(kBP, xz), zz3), xx));
  const U256 xx3_m_zz3 = fsub(ftriple(xx), zz3);
  return Point{fsub(fmul(yy_p, xy), fmul(yz, bxz3)),
               fadd(fmul(yy_p, yy_m), fmul(xx3_m_zz3, bxz3)),
               fadd(fmul(yy_m, yz), fmul(xy, xx3_m_zz3))};
}

// Complete doubling for a = -3 (ePrint 2015/1060, Algorithm 6).
Point point_double(const Point& p) {
  ++detail::p256_op_counts().doublings;
  const U256 xx = fmul(p.x, p.x);
  const U256 yy = fmul(p.y, p.y);
  const U256 zz = fmul(p.z, p.z);
  const U256 xy2 = ftwice(fmul(p.x, p.y));
  const U256 xz2 = ftwice(fmul(p.x, p.z));
  const U256 bzz3 = ftriple(fsub(fmul(kBP, zz), xz2));
  const U256 yy_m = fsub(yy, bzz3);
  const U256 yy_p = fadd(yy, bzz3);
  const U256 zz3 = ftriple(zz);
  const U256 bxz3 = ftriple(fsub(fsub(fmul(kBP, xz2), zz3), xx));
  const U256 xx3_m_zz3 = fsub(ftriple(xx), zz3);
  const U256 yz2 = ftwice(fmul(p.y, p.z));
  return Point{fsub(fmul(yy_m, xy2), fmul(bxz3, yz2)),
               fadd(fmul(yy_p, yy_m), fmul(xx3_m_zz3, bxz3)),
               ftwice(ftwice(fmul(yz2, yy)))};
}

// table[digit], read by scanning all 16 entries under a mask, so which
// memory is touched does not depend on the digit.
Point lookup(const Table& table, u64 digit) {
  ++detail::p256_op_counts().table_scans;
  Point out;
  for (u64 j = 0; j < table.size(); ++j) {
    // (j ^ digit) - 1 wraps to all ones, setting bit 63, only when j == digit.
    const u64 mask = mask_from_bit(((j ^ digit) - 1) >> 63);
    for (int i = 0; i < 4; ++i) {
      out.x.limb[i] |= table[j].x.limb[i] & mask;
      out.y.limb[i] |= table[j].y.limb[i] & mask;
      out.z.limb[i] |= table[j].z.limb[i] & mask;
    }
  }
  return out;
}

// The 64 4-bit windows of k, least significant first.
std::array<u8, 64> window_digits(const U256& k) {
  std::array<u8, 64> digits{};
  for (std::size_t w = 0; w < digits.size(); ++w)
    digits[w] = static_cast<u8>((k.limb[w / 16] >> (4 * (w % 16))) & 0xf);
  return digits;
}

// k*P with a fixed 4-bit window: 256 doublings and 64 additions of a
// masked lookup in [0..15]*P, whatever k is.
Point scalar_mult(const U256& k, const Point& p) {
  Table table;
  table[0] = identity();
  table[1] = p;
  for (std::size_t j = 2; j < table.size(); ++j)
    table[j] = j % 2 == 0 ? point_double(table[j / 2]) : point_add(table[j - 1], p);
  std::array<u8, 64> digits = window_digits(k);
  Point acc = identity();
  for (std::size_t w = digits.size(); w-- > 0;) {
    for (int i = 0; i < 4; ++i) acc = point_double(acc);
    acc = point_add(acc, lookup(table, digits[w]));
  }
  secure_zero(digits.data(), digits.size());
  return acc;
}

// windows[w][j] = j * 16^w * G, built on first use. k*G is then one masked
// lookup and one addition per window, with no doublings.
const std::vector<Table>& base_table() {
  static const std::vector<Table> windows = [] {
    std::vector<Table> out(64);
    Point base = from_affine(AffinePoint{p256().gx, p256().gy});
    for (Table& t : out) {
      t[0] = identity();
      t[1] = base;
      for (std::size_t j = 2; j < t.size(); ++j) t[j] = point_add(t[j - 1], base);
      base = point_add(t[15], base);
    }
    return out;
  }();
  return windows;
}

Point base_mult(const U256& k) {
  const std::vector<Table>& windows = base_table();
  std::array<u8, 64> digits = window_digits(k);
  Point acc = identity();
  for (std::size_t w = 0; w < digits.size(); ++w)
    acc = point_add(acc, lookup(windows[w], digits[w]));
  secure_zero(digits.data(), digits.size());
  return acc;
}

}  // namespace

namespace detail {

P256OpCounts& p256_op_counts() {
  thread_local P256OpCounts counts;
  return counts;
}

U256 scalar_reduce(const U256& a) { return reduce_once(a, 0, kN); }

U256 scalar_add(const U256& a, const U256& b) { return mod_add(a, b, kN); }

U256 scalar_mul(const U256& a, const U256& b) {
  return mont_mul(mont_mul(a, b, kN), kN.r2, kN);
}

U256 scalar_inv(const U256& a) { return from_mont(mont_inv(to_mont(a, kN), kN), kN); }

AffinePoint ec_base_mult_add(const U256& a, const U256& b, const AffinePoint& q) {
  return to_affine(point_add(base_mult(a), scalar_mult(b, from_affine(q))));
}

}  // namespace detail

bool on_curve(const AffinePoint& pt) {
  if (pt.infinity) return true;
  if (cmp(pt.x, kP.m) >= 0 || cmp(pt.y, kP.m) >= 0) return false;
  const U256 x = to_mont(pt.x, kP);
  const U256 y = to_mont(pt.y, kP);
  // y^2 == x^3 - 3x + b
  const U256 rhs = fadd(fsub(fmul(fmul(x, x), x), ftriple(x)), kBP);
  return fmul(y, y) == rhs;
}

AffinePoint ec_add(const AffinePoint& a, const AffinePoint& b) {
  return to_affine(point_add(from_affine(a), from_affine(b)));
}

AffinePoint ec_scalar_mult(const U256& k, const AffinePoint& point) {
  return to_affine(scalar_mult(k, from_affine(point)));
}

AffinePoint ec_scalar_base_mult(const U256& k) { return to_affine(base_mult(k)); }

Bytes encode_point(const AffinePoint& pt) {
  if (pt.infinity) throw std::invalid_argument("encode_point: cannot encode infinity");
  Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  const Bytes x = pt.x.to_bytes();
  const Bytes y = pt.y.to_bytes();
  out.insert(out.end(), x.begin(), x.end());
  out.insert(out.end(), y.begin(), y.end());
  return out;
}

std::optional<AffinePoint> decode_point(BytesView bytes) {
  if (bytes.size() != 65 || bytes[0] != 0x04) return std::nullopt;
  AffinePoint pt;
  pt.x = U256::from_bytes(bytes.subspan(1, 32));
  pt.y = U256::from_bytes(bytes.subspan(33, 32));
  if (!on_curve(pt)) return std::nullopt;
  return pt;
}

}  // namespace guardnn::crypto
