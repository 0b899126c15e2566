#include "crypto/p256.h"

#include <stdexcept>

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

const U256& P() { return p256().p; }

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

AffinePoint to_affine(const JacobianPoint& j) {
  if (j.is_infinity()) return AffinePoint::at_infinity();
  const U256 z_inv = inv_mod_prime(j.z, P());
  const U256 z_inv2 = mul_mod(z_inv, z_inv, P());
  const U256 z_inv3 = mul_mod(z_inv2, z_inv, P());
  AffinePoint out;
  out.x = mul_mod(j.x, z_inv2, P());
  out.y = mul_mod(j.y, z_inv3, P());
  return out;
}

// Point doubling for a = -3 curves (dbl-2001-b formulas).
JacobianPoint jacobian_double(const JacobianPoint& q) {
  if (q.is_infinity() || q.y.is_zero()) return JacobianPoint::infinity();
  const U256& p = P();
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

JacobianPoint jacobian_add(const JacobianPoint& a, const JacobianPoint& b) {
  if (a.is_infinity()) return b;
  if (b.is_infinity()) return a;
  const U256& p = P();
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
  out.x = sub_mod(sub_mod(mul_mod(r, r, p), h3, p),
                  add_mod(u1h2, u1h2, p), p);
  out.y = sub_mod(mul_mod(r, sub_mod(u1h2, out.x, p), p),
                  mul_mod(s1, h3, p), p);
  out.z = mul_mod(h, mul_mod(a.z, b.z, p), p);
  return out;
}

}  // namespace

bool on_curve(const AffinePoint& pt) {
  if (pt.infinity) return true;
  const U256& p = P();
  if (cmp(pt.x, p) >= 0 || cmp(pt.y, p) >= 0) return false;
  const U256 y2 = mul_mod(pt.y, pt.y, p);
  const U256 x2 = mul_mod(pt.x, pt.x, p);
  const U256 x3 = mul_mod(x2, pt.x, p);
  // x^3 - 3x + b
  const U256 three_x = mul_mod(U256::from_u64(3), pt.x, p);
  const U256 rhs = add_mod(sub_mod(x3, three_x, p), p256().b, p);
  return y2 == rhs;
}

AffinePoint ec_add(const AffinePoint& a, const AffinePoint& b) {
  return to_affine(jacobian_add(JacobianPoint::from_affine(a),
                                JacobianPoint::from_affine(b)));
}

AffinePoint ec_scalar_mult(const U256& k, const AffinePoint& point) {
  JacobianPoint result = JacobianPoint::infinity();
  JacobianPoint base = JacobianPoint::from_affine(point);
  const int bits = k.bit_length();
  for (int i = 0; i < bits; ++i) {
    if (k.bit(static_cast<unsigned>(i))) result = jacobian_add(result, base);
    base = jacobian_double(base);
  }
  return to_affine(result);
}

AffinePoint ec_scalar_base_mult(const U256& k) {
  AffinePoint g;
  g.x = p256().gx;
  g.y = p256().gy;
  return ec_scalar_mult(k, g);
}

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
