// NIST P-256 (secp256r1) elliptic-curve group operations.
//
// This is the public-key substrate for GuardNN's device identity: the
// manufacturer embeds a per-device ECDSA key pair (SK_Accel / PK_Accel) and
// signs the public key with its CA key; sessions are established with ECDHE
// (paper Section II-C, Table I).
#pragma once

#include <optional>

#include "crypto/bigint.h"

namespace guardnn::crypto {

/// Curve parameters for P-256: y^2 = x^3 - 3x + b over GF(p).
struct P256Params {
  U256 p;   ///< Field prime.
  U256 n;   ///< Group order.
  U256 b;   ///< Curve coefficient b.
  U256 gx;  ///< Generator x.
  U256 gy;  ///< Generator y.
};

const P256Params& p256();

/// Affine point; infinity is represented by `infinity == true`.
struct AffinePoint {
  U256 x;
  U256 y;
  bool infinity = false;

  static AffinePoint at_infinity() {
    AffinePoint pt;
    pt.infinity = true;
    return pt;
  }

  friend bool operator==(const AffinePoint& a, const AffinePoint& b) {
    if (a.infinity || b.infinity) return a.infinity == b.infinity;
    return a.x == b.x && a.y == b.y;
  }
};

/// Returns true when the point satisfies the curve equation (or is infinity).
bool on_curve(const AffinePoint& pt);

/// Point addition (complete: handles doubling, inverses, infinity).
AffinePoint ec_add(const AffinePoint& a, const AffinePoint& b);

/// Scalar multiplication k*P for any 256-bit k. Constant-time in k: a fixed
/// 4-bit window over all 64 windows with a masked table lookup, on complete
/// projective formulas, so the work done does not depend on k's value.
AffinePoint ec_scalar_mult(const U256& k, const AffinePoint& point);

/// k*G for the P-256 generator; constant-time in k like ec_scalar_mult, using
/// a table of multiples of G built on first use (64 additions, no doublings).
AffinePoint ec_scalar_base_mult(const U256& k);

/// Serializes as uncompressed SEC1 (0x04 || X || Y), 65 bytes.
Bytes encode_point(const AffinePoint& pt);

/// Parses an uncompressed SEC1 point; returns nullopt when malformed or not
/// on the curve (defends the key-exchange against invalid-curve attacks).
std::optional<AffinePoint> decode_point(BytesView bytes);

}  // namespace guardnn::crypto
