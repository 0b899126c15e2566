#include "functional/quant_ops.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace guardnn::functional {
namespace {

int conv_out_dim(int in, int kernel, int stride, int pad) {
  if (kernel <= 0 || stride <= 0)
    throw std::invalid_argument("conv: non-positive kernel/stride");
  const int out = (in + 2 * pad - kernel) / stride + 1;
  if (out <= 0) throw std::invalid_argument("conv: non-positive output dim");
  return out;
}

/// The output positions o in [0, out) whose input coordinate o*stride + off
/// lies inside [0, in), as a half-open range [lo, hi). Computed in 64 bits so
/// a hostile stride or pad cannot wrap it.
std::pair<int, int> in_bounds(int off, int stride, int in, int out) {
  const long long o = off, s = stride;
  const long long lo = o >= 0 ? 0 : (-o + s - 1) / s;
  const long long hi = o >= in ? 0 : std::min<long long>(out, (in - 1 - o) / s + 1);
  return {static_cast<int>(std::min(lo, hi)), static_cast<int>(hi)};
}

}  // namespace

i8 requantize(i32 acc, int shift, int bits) {
  const i32 shifted = shift > 0 ? (acc >> shift) : acc;
  const i32 hi = (1 << (bits - 1)) - 1;
  const i32 lo = -(1 << (bits - 1));
  return static_cast<i8>(std::clamp(shifted, lo, hi));
}

Tensor conv2d_direct(const Tensor& input, const ConvWeights& weights, int stride,
                     int pad, int requant_shift) {
  if (weights.in_c != input.channels())
    throw std::invalid_argument("conv2d: channel mismatch");
  const int oh = conv_out_dim(input.height(), weights.kernel, stride, pad);
  const int ow = conv_out_dim(input.width(), weights.kernel, stride, pad);
  Tensor out(weights.out_c, oh, ow, input.bits());
  for (int oc = 0; oc < weights.out_c; ++oc) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        i32 acc = 0;
        for (int ic = 0; ic < weights.in_c; ++ic) {
          for (int ky = 0; ky < weights.kernel; ++ky) {
            for (int kx = 0; kx < weights.kernel; ++kx) {
              const int iy = oy * stride + ky - pad;
              const int ix = ox * stride + kx - pad;
              acc += static_cast<i32>(input.at_padded(ic, iy, ix)) *
                     static_cast<i32>(weights.at(oc, ic, ky, kx));
            }
          }
        }
        out.at(oc, oy, ox) = requantize(acc, requant_shift, input.bits());
      }
    }
  }
  return out;
}

Tensor conv2d_gemm(const Tensor& input, const ConvWeights& weights, int stride,
                   int pad, int requant_shift) {
  if (weights.in_c != input.channels())
    throw std::invalid_argument("conv2d: channel mismatch");
  const int h = input.height();
  const int w = input.width();
  const int oh = conv_out_dim(h, weights.kernel, stride, pad);
  const int ow = conv_out_dim(w, weights.kernel, stride, pad);
  const int k2 = weights.kernel * weights.kernel;
  const std::size_t cols = static_cast<std::size_t>(oh) * ow;       // M
  const std::size_t rows = static_cast<std::size_t>(weights.in_c) * k2;  // K

  // im2col: patch matrix [K x M], zero wherever the window overhangs the
  // input. Row (ic, ky, kx) reads input row oy*stride + ky - pad at columns
  // ox*stride + kx - pad; the in-bounds ranges of oy and ox depend only on
  // (ky, kx), so each output row is one bounds decision and one copy, a
  // contiguous one at stride 1.
  std::vector<i8> patches(rows * cols);
  i8* row = patches.data();
  for (int ic = 0; ic < weights.in_c; ++ic) {
    const i8* plane = input.data().data() + static_cast<std::size_t>(ic) * h * w;
    for (int ky = 0; ky < weights.kernel; ++ky) {
      const auto [oy_lo, oy_hi] = in_bounds(ky - pad, stride, h, oh);
      for (int kx = 0; kx < weights.kernel; ++kx, row += cols) {
        const auto [ox_lo, ox_hi] = in_bounds(kx - pad, stride, w, ow);
        for (int oy = oy_lo; oy < oy_hi; ++oy) {
          const i8* src = plane + static_cast<std::size_t>(oy * stride + ky - pad) * w;
          i8* dst = row + static_cast<std::size_t>(oy) * ow;
          if (stride == 1) {
            std::copy_n(src + (ox_lo + kx - pad), ox_hi - ox_lo, dst + ox_lo);
          } else {
            for (int ox = ox_lo; ox < ox_hi; ++ox) dst[ox] = src[ox * stride + kx - pad];
          }
        }
      }
    }
  }

  // GEMM, k-outer: out[oc, :] = sum_k W[oc, k] * patches[k, :]. Each weight
  // scales one contiguous patch row into the channel's contiguous i32
  // accumulator row, a widening multiply-add the compiler vectorizes. No
  // branch depends on a weight or activation value, and zeros are not
  // skipped. Integer sums are exact in any order while no partial sum
  // overflows: |w * x| <= 2^14, so any K <= 131,071 stays below 2^31.
  Tensor out(weights.out_c, oh, ow, input.bits());
  std::vector<i32> acc(cols);
  for (int oc = 0; oc < weights.out_c; ++oc) {
    std::fill(acc.begin(), acc.end(), 0);
    const i8* wrow = weights.data.data() + static_cast<std::size_t>(oc) * rows;
    for (std::size_t k = 0; k < rows; ++k) {
      const i32 wk = wrow[k];
      const i8* prow = patches.data() + k * cols;
      for (std::size_t m = 0; m < cols; ++m) acc[m] += wk * prow[m];
    }
    i8* orow = out.data().data() + static_cast<std::size_t>(oc) * cols;
    for (std::size_t m = 0; m < cols; ++m)
      orow[m] = requantize(acc[m], requant_shift, input.bits());
  }
  return out;
}

std::vector<i8> fully_connected(const std::vector<i8>& input, const FcWeights& weights,
                                int requant_shift, int bits) {
  if (static_cast<int>(input.size()) != weights.in_features)
    throw std::invalid_argument("fully_connected: dimension mismatch");
  std::vector<i8> out(static_cast<std::size_t>(weights.out_features));
  for (int o = 0; o < weights.out_features; ++o) {
    i32 acc = 0;
    for (int i = 0; i < weights.in_features; ++i)
      acc += static_cast<i32>(weights.at(o, i)) * static_cast<i32>(input[static_cast<std::size_t>(i)]);
    out[static_cast<std::size_t>(o)] = requantize(acc, requant_shift, bits);
  }
  return out;
}

Tensor depthwise_conv2d(const Tensor& input, const ConvWeights& weights, int stride,
                        int pad, int requant_shift) {
  if (weights.out_c != input.channels() || weights.in_c != 1)
    throw std::invalid_argument("depthwise_conv2d: weights must be C x 1 x k x k");
  const int oh = conv_out_dim(input.height(), weights.kernel, stride, pad);
  const int ow = conv_out_dim(input.width(), weights.kernel, stride, pad);
  Tensor out(input.channels(), oh, ow, input.bits());
  for (int c = 0; c < input.channels(); ++c) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        i32 acc = 0;
        for (int ky = 0; ky < weights.kernel; ++ky) {
          for (int kx = 0; kx < weights.kernel; ++kx) {
            acc += static_cast<i32>(input.at_padded(c, oy * stride + ky - pad,
                                                    ox * stride + kx - pad)) *
                   static_cast<i32>(weights.at(c, 0, ky, kx));
          }
        }
        out.at(c, oy, ox) = requantize(acc, requant_shift, input.bits());
      }
    }
  }
  return out;
}

Tensor tensor_add(const Tensor& a, const Tensor& b) {
  if (a.channels() != b.channels() || a.height() != b.height() ||
      a.width() != b.width())
    throw std::invalid_argument("tensor_add: shape mismatch");
  Tensor out(a.channels(), a.height(), a.width(), a.bits());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const i32 sum = static_cast<i32>(a.data()[i]) + static_cast<i32>(b.data()[i]);
    out.data()[i] = static_cast<i8>(
        std::clamp(sum, static_cast<i32>(out.min_value()),
                   static_cast<i32>(out.max_value())));
  }
  return out;
}

void relu(Tensor& tensor) {
  for (i8& v : tensor.data()) v = std::max<i8>(v, 0);
}

Tensor maxpool2d(const Tensor& input, int kernel, int stride) {
  if (kernel <= 0 || stride <= 0)
    throw std::invalid_argument("maxpool: non-positive kernel/stride");
  // Guard before the output-dim division: (h - kernel) / stride truncates
  // toward zero, so kernel > h would still yield oh == 1 and read past the
  // input when |h - kernel| < stride.
  if (kernel > input.height() || kernel > input.width())
    throw std::invalid_argument("maxpool: kernel larger than input");
  const int oh = (input.height() - kernel) / stride + 1;
  const int ow = (input.width() - kernel) / stride + 1;
  if (oh <= 0 || ow <= 0) throw std::invalid_argument("maxpool: bad dims");
  Tensor out(input.channels(), oh, ow, input.bits());
  for (int c = 0; c < input.channels(); ++c) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        i8 best = input.at(c, oy * stride, ox * stride);
        for (int ky = 0; ky < kernel; ++ky)
          for (int kx = 0; kx < kernel; ++kx)
            best = std::max(best, input.at(c, oy * stride + ky, ox * stride + kx));
        out.at(c, oy, ox) = best;
      }
    }
  }
  return out;
}

Tensor global_avgpool(const Tensor& input) {
  Tensor out(input.channels(), 1, 1, input.bits());
  const i32 count = input.height() * input.width();
  for (int c = 0; c < input.channels(); ++c) {
    i32 acc = 0;
    for (int y = 0; y < input.height(); ++y)
      for (int x = 0; x < input.width(); ++x) acc += input.at(c, y, x);
    out.at(c, 0, 0) = static_cast<i8>(
        std::clamp(acc / count, static_cast<i32>(out.min_value()),
                   static_cast<i32>(out.max_value())));
  }
  return out;
}

}  // namespace guardnn::functional
