#include <gtest/gtest.h>

#include "common/rng.h"
#include "functional/fpga_model.h"
#include "functional/quant_ops.h"

namespace guardnn::functional {
namespace {

void fill_random(std::vector<i8>& data, Xoshiro256& rng, int bits) {
  const int span = 1 << bits;
  for (i8& v : data)
    v = static_cast<i8>(static_cast<int>(rng.next_below(static_cast<u64>(span))) -
                        span / 2);
}

TEST(Tensor, ShapeAndAccess) {
  Tensor t(2, 3, 4);
  EXPECT_EQ(t.size(), 24u);
  t.at(1, 2, 3) = 42;
  EXPECT_EQ(t.at(1, 2, 3), 42);
  EXPECT_EQ(t.at_padded(0, -1, 0), 0);
  EXPECT_EQ(t.at_padded(0, 3, 0), 0);
}

TEST(Tensor, RejectsBadArgs) {
  EXPECT_THROW(Tensor(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(Tensor(1, 1, 1, 7), std::invalid_argument);
}

TEST(Tensor, PrecisionBounds) {
  Tensor t8(1, 1, 1, 8), t6(1, 1, 1, 6);
  EXPECT_EQ(t8.max_value(), 127);
  EXPECT_EQ(t8.min_value(), -128);
  EXPECT_EQ(t6.max_value(), 31);
  EXPECT_EQ(t6.min_value(), -32);
}

TEST(Requantize, ShiftAndClamp) {
  EXPECT_EQ(requantize(256, 4, 8), 16);
  EXPECT_EQ(requantize(100000, 0, 8), 127);
  EXPECT_EQ(requantize(-100000, 0, 8), -128);
  EXPECT_EQ(requantize(100, 0, 6), 31);
  EXPECT_EQ(requantize(-100, 0, 6), -32);
}

TEST(Conv, IdentityKernel) {
  // 1x1 kernel with weight 1 reproduces the input.
  Tensor input(1, 4, 4);
  Xoshiro256 rng(1);
  fill_random(input.data(), rng, 8);
  ConvWeights w(1, 1, 1);
  w.at(0, 0, 0, 0) = 1;
  const Tensor out = conv2d_direct(input, w, 1, 0, 0);
  EXPECT_EQ(out, input);
}

TEST(Conv, KnownSmallExample) {
  // 2x2 input, 2x2 kernel of ones, no pad: single output = sum.
  Tensor input(1, 2, 2);
  input.at(0, 0, 0) = 1;
  input.at(0, 0, 1) = 2;
  input.at(0, 1, 0) = 3;
  input.at(0, 1, 1) = 4;
  ConvWeights w(1, 1, 2);
  for (int ky = 0; ky < 2; ++ky)
    for (int kx = 0; kx < 2; ++kx) w.at(0, 0, ky, kx) = 1;
  const Tensor out = conv2d_direct(input, w, 1, 0, 0);
  EXPECT_EQ(out.height(), 1);
  EXPECT_EQ(out.at(0, 0, 0), 10);
}

/// (in_c, h, w, out_c, kernel, stride, pad, bits, shift, input_fill,
/// weight_fill). A fill of 0 draws random `bits`-bit values; any other fill
/// sets every input (or weight) to that value.
using ConvCase = std::tuple<int, int, int, int, int, int, int, int, int, int, int>;

/// conv2d_gemm against the conv2d_direct oracle, byte for byte.
bool gemm_matches_direct(const ConvCase& c, u64 seed) {
  const auto [in_c, h, w, out_c, kernel, stride, pad, bits, shift, input_fill,
              weight_fill] = c;
  Xoshiro256 rng(seed);
  Tensor input(in_c, h, w, bits);
  ConvWeights weights(out_c, in_c, kernel, bits);
  fill_random(input.data(), rng, bits);
  fill_random(weights.data, rng, bits);
  if (input_fill != 0)
    std::fill(input.data().begin(), input.data().end(), static_cast<i8>(input_fill));
  if (weight_fill != 0)
    std::fill(weights.data.begin(), weights.data.end(), static_cast<i8>(weight_fill));
  return conv2d_gemm(input, weights, stride, pad, shift) ==
         conv2d_direct(input, weights, stride, pad, shift);
}

class ConvAgreementTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvAgreementTest, GemmMatchesDirect) {
  const auto [in_c, h, w, out_c, kernel, stride, pad, bits, shift, input_fill,
              weight_fill] = GetParam();
  EXPECT_TRUE(
      gemm_matches_direct(GetParam(), static_cast<u64>(in_c * 1000 + h * 100 + out_c)));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvAgreementTest,
    ::testing::Values(
        // Square, pad = kernel / 2, 8-bit, shift 4.
        ConvCase{1, 8, 8, 4, 3, 1, 1, 8, 4, 0, 0},
        ConvCase{3, 8, 8, 8, 3, 1, 1, 8, 4, 0, 0},
        ConvCase{4, 16, 16, 8, 5, 2, 2, 8, 4, 0, 0},
        ConvCase{8, 7, 7, 16, 1, 1, 0, 8, 4, 0, 0},
        ConvCase{2, 9, 9, 3, 3, 2, 1, 8, 4, 0, 0},
        ConvCase{6, 5, 5, 6, 5, 1, 2, 8, 4, 0, 0},
        // H != W, both ways: a swapped height and width index fails these.
        ConvCase{3, 5, 11, 4, 3, 1, 1, 8, 4, 0, 0},
        ConvCase{3, 11, 5, 4, 3, 1, 1, 8, 4, 0, 0},
        ConvCase{2, 6, 13, 3, 3, 2, 1, 8, 4, 0, 0},
        ConvCase{2, 13, 6, 3, 3, 2, 1, 8, 4, 0, 0},
        // Pad 0, pad > kernel / 2 (windows that lie wholly in the padding).
        ConvCase{4, 10, 10, 4, 3, 1, 0, 8, 4, 0, 0},
        ConvCase{2, 6, 7, 3, 3, 1, 3, 8, 4, 0, 0},
        ConvCase{2, 4, 5, 2, 2, 2, 4, 8, 4, 0, 0},
        // Stride 3, a 1x1 kernel with a stride.
        ConvCase{3, 14, 11, 4, 3, 3, 1, 8, 4, 0, 0},
        ConvCase{5, 9, 8, 6, 1, 3, 0, 8, 4, 0, 0},
        // 6-bit values; shifts 0 and 12.
        ConvCase{3, 8, 9, 4, 3, 1, 1, 6, 4, 0, 0},
        ConvCase{3, 8, 8, 4, 3, 1, 1, 8, 0, 0, 0},
        ConvCase{3, 8, 8, 4, 3, 1, 1, 8, 12, 0, 0},
        // Saturation: every product at its extreme, clamped high and low.
        ConvCase{4, 6, 6, 3, 3, 1, 1, 8, 4, -128, -128},
        ConvCase{4, 6, 6, 3, 3, 1, 1, 8, 4, 127, 127},
        ConvCase{4, 6, 6, 3, 3, 1, 1, 8, 4, -128, 127},
        ConvCase{4, 6, 6, 3, 3, 1, 1, 8, 0, 127, -128}));

TEST(Conv, GemmMatchesDirectOnSeededShapeSweep) {
  // 250 random geometries, including windows that overhang every edge.
  Xoshiro256 rng(2718);
  auto draw = [&rng](int lo, int hi) {
    return lo + static_cast<int>(rng.next_below(static_cast<u64>(hi - lo + 1)));
  };
  int mismatches = 0;
  for (int i = 0; i < 250; ++i) {
    const int h = draw(1, 20), w = draw(1, 20), pad = draw(0, 4);
    const int kernel = draw(1, std::min(7, std::min(h, w) + 2 * pad));
    const ConvCase c{draw(1, 8), h, w, draw(1, 8), kernel, draw(1, 4), pad,
                     draw(0, 1) == 0 ? 6 : 8, draw(0, 12), 0, 0};
    if (!gemm_matches_direct(c, rng.next())) {
      ++mismatches;
      ADD_FAILURE() << "mismatch at case " << i << ": " << ::testing::PrintToString(c);
    }
  }
  EXPECT_EQ(mismatches, 0);
}

TEST(Conv, RejectsChannelMismatch) {
  Tensor input(3, 4, 4);
  ConvWeights w(1, 2, 3);
  EXPECT_THROW(conv2d_direct(input, w, 1, 1, 0), std::invalid_argument);
}

TEST(Fc, MatVecKnownExample) {
  FcWeights w(2, 3);
  // Row 0: [1 2 3], row 1: [-1 0 1].
  w.at(0, 0) = 1; w.at(0, 1) = 2; w.at(0, 2) = 3;
  w.at(1, 0) = -1; w.at(1, 2) = 1;
  const std::vector<i8> input = {1, 1, 1};
  const std::vector<i8> out = fully_connected(input, w, 0, 8);
  EXPECT_EQ(out[0], 6);
  EXPECT_EQ(out[1], 0);
}

TEST(Fc, RejectsDimensionMismatch) {
  FcWeights w(2, 3);
  EXPECT_THROW(fully_connected({1, 2}, w, 0, 8), std::invalid_argument);
}

TEST(Relu, ClampsNegatives) {
  Tensor t(1, 1, 4);
  t.at(0, 0, 0) = -5;
  t.at(0, 0, 1) = 0;
  t.at(0, 0, 2) = 7;
  t.at(0, 0, 3) = -128;
  relu(t);
  EXPECT_EQ(t.at(0, 0, 0), 0);
  EXPECT_EQ(t.at(0, 0, 1), 0);
  EXPECT_EQ(t.at(0, 0, 2), 7);
  EXPECT_EQ(t.at(0, 0, 3), 0);
}

TEST(Pool, MaxPoolBasic) {
  Tensor t(1, 4, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) t.at(0, y, x) = static_cast<i8>(y * 4 + x);
  const Tensor out = maxpool2d(t, 2, 2);
  EXPECT_EQ(out.height(), 2);
  EXPECT_EQ(out.at(0, 0, 0), 5);
  EXPECT_EQ(out.at(0, 1, 1), 15);
}

TEST(Pool, GlobalAvg) {
  Tensor t(2, 2, 2);
  for (int x = 0; x < 2; ++x)
    for (int y = 0; y < 2; ++y) {
      t.at(0, y, x) = 8;
      t.at(1, y, x) = static_cast<i8>(4 * (y * 2 + x));  // 0,4,8,12 -> avg 6
    }
  const Tensor out = global_avgpool(t);
  EXPECT_EQ(out.at(0, 0, 0), 8);
  EXPECT_EQ(out.at(1, 0, 0), 6);
}


TEST(DepthwiseConv, PerChannelIndependence) {
  // Each channel convolves only with its own filter.
  Tensor input(2, 4, 4);
  for (int y = 0; y < 4; ++y)
    for (int x = 0; x < 4; ++x) {
      input.at(0, y, x) = 1;
      input.at(1, y, x) = 2;
    }
  ConvWeights w(2, 1, 3);
  for (int ky = 0; ky < 3; ++ky)
    for (int kx = 0; kx < 3; ++kx) {
      w.at(0, 0, ky, kx) = 1;   // channel 0: sum filter
      w.at(1, 0, ky, kx) = -1;  // channel 1: negated sum
    }
  const Tensor out = depthwise_conv2d(input, w, 1, 1, 0);
  EXPECT_EQ(out.at(0, 1, 1), 9);    // 3x3 ones over constant 1
  EXPECT_EQ(out.at(1, 1, 1), -18);  // -(3x3) over constant 2
}

TEST(DepthwiseConv, MatchesFullConvWithDiagonalWeights) {
  // A depthwise conv equals a full conv whose cross-channel taps are zero.
  Xoshiro256 rng(77);
  Tensor input(3, 6, 6);
  fill_random(input.data(), rng, 8);
  ConvWeights dw(3, 1, 3);
  fill_random(dw.data, rng, 8);
  ConvWeights full(3, 3, 3);
  for (int c = 0; c < 3; ++c)
    for (int ky = 0; ky < 3; ++ky)
      for (int kx = 0; kx < 3; ++kx) full.at(c, c, ky, kx) = dw.at(c, 0, ky, kx);
  EXPECT_EQ(depthwise_conv2d(input, dw, 1, 1, 2),
            conv2d_direct(input, full, 1, 1, 2));
}

TEST(DepthwiseConv, RejectsBadWeights) {
  Tensor input(3, 4, 4);
  ConvWeights wrong_groups(3, 2, 3);
  EXPECT_THROW(depthwise_conv2d(input, wrong_groups, 1, 1, 0),
               std::invalid_argument);
  ConvWeights wrong_channels(2, 1, 3);
  EXPECT_THROW(depthwise_conv2d(input, wrong_channels, 1, 1, 0),
               std::invalid_argument);
}

TEST(TensorAdd, SaturatesAtBounds) {
  Tensor a(1, 1, 3), b(1, 1, 3);
  a.at(0, 0, 0) = 100; b.at(0, 0, 0) = 100;    // 200 -> clamp 127
  a.at(0, 0, 1) = -100; b.at(0, 0, 1) = -100;  // -200 -> clamp -128
  a.at(0, 0, 2) = 5; b.at(0, 0, 2) = -3;
  const Tensor out = tensor_add(a, b);
  EXPECT_EQ(out.at(0, 0, 0), 127);
  EXPECT_EQ(out.at(0, 0, 1), -128);
  EXPECT_EQ(out.at(0, 0, 2), 2);
}

TEST(TensorAdd, RejectsShapeMismatch) {
  Tensor a(1, 2, 2), b(1, 2, 3);
  EXPECT_THROW(tensor_add(a, b), std::invalid_argument);
}

// --- FPGA throughput model (Table II shape checks) -------------------------

TEST(FpgaModel, ThroughputScalesWithDsps) {
  const dnn::Network net = dnn::resnet50();
  double prev = 0.0;
  for (int dsps : {128, 256, 512, 1024}) {
    FpgaConfig cfg;
    cfg.dsps = dsps;
    const FpgaThroughput t = fpga_throughput(net, cfg);
    EXPECT_GT(t.baseline_fps, prev);
    prev = t.baseline_fps;
  }
}

TEST(FpgaModel, SixBitFasterThanEightBit) {
  for (const auto& net : dnn::fpga_benchmark_suite()) {
    FpgaConfig cfg8, cfg6;
    cfg8.bits = 8;
    cfg6.bits = 6;
    const double r = fpga_throughput(net, cfg6).baseline_fps /
                     fpga_throughput(net, cfg8).baseline_fps;
    EXPECT_GT(r, 1.3) << net.name;
    EXPECT_LT(r, 2.1) << net.name;
  }
}

TEST(FpgaModel, OverheadBelowFourPercent) {
  // Paper Table II: GuardNN_C overhead is 0.2% - 3.1% everywhere.
  for (const auto& net : dnn::fpga_benchmark_suite()) {
    for (int dsps : {128, 256, 512, 1024}) {
      for (int bits : {8, 6}) {
        FpgaConfig cfg;
        cfg.dsps = dsps;
        cfg.bits = bits;
        const FpgaThroughput t = fpga_throughput(net, cfg);
        EXPECT_GE(t.overhead_percent, 0.0)
            << net.name << " " << dsps << " " << bits;
        EXPECT_LT(t.overhead_percent, 4.0)
            << net.name << " " << dsps << " " << bits;
      }
    }
  }
}

TEST(FpgaModel, OverheadGrowsWithDsps) {
  // Faster compute exposes the AES-limited memory path (Table II trend).
  const dnn::Network net = dnn::resnet50();
  FpgaConfig small, large;
  small.dsps = 128;
  large.dsps = 1024;
  EXPECT_GE(fpga_throughput(net, large).overhead_percent,
            fpga_throughput(net, small).overhead_percent);
}

TEST(FpgaModel, MoreAesEnginesReduceOverhead) {
  // Paper: going from 3 to 4 engines cuts the max overhead 3.1% -> 1.9%.
  const dnn::Network net = dnn::resnet50();
  FpgaConfig three, four;
  three.dsps = four.dsps = 1024;
  three.bits = four.bits = 6;
  three.aes_engines = 3;
  four.aes_engines = 4;
  EXPECT_LE(fpga_throughput(net, four).overhead_percent,
            fpga_throughput(net, three).overhead_percent);
}

TEST(FpgaModel, AlexnetAbsoluteThroughputPlausible) {
  // Table II: AlexNet 512 DSP 8-bit = 163.6 fps. Accept a generous band —
  // the substrate differs, the shape is what matters.
  FpgaConfig cfg;
  cfg.dsps = 512;
  const double fps = fpga_throughput(dnn::alexnet(), cfg).baseline_fps;
  EXPECT_GT(fps, 80.0);
  EXPECT_LT(fps, 330.0);
}

TEST(FpgaModel, InstructionLatenciesMatchPaper) {
  // Section III-B: SetWeight = 19.5 / 2.2 / 8.0 / 43.3 ms for AlexNet /
  // GoogleNet / ResNet / VGG; key exchange 23.1 ms; sign 4.8 ms.
  const struct {
    const char* name;
    double expected_ms;
  } cases[] = {{"alexnet", 19.5}, {"googlenet", 2.2}, {"resnet", 8.0}, {"vgg", 43.3}};
  for (const auto& c : cases) {
    const InstructionLatencies lat = instruction_latencies(dnn::model_by_name(c.name));
    EXPECT_NEAR(lat.set_weight_ms, c.expected_ms, c.expected_ms * 0.25) << c.name;
    EXPECT_DOUBLE_EQ(lat.key_exchange_ms, 23.1);
    EXPECT_DOUBLE_EQ(lat.sign_output_ms, 4.8);
    EXPECT_LT(lat.set_input_ms, 0.3);
    EXPECT_LT(lat.export_output_ms, 0.1);
  }
}

TEST(FpgaModel, RejectsBadPrecision) {
  FpgaConfig cfg;
  cfg.bits = 4;
  EXPECT_THROW(fpga_throughput(dnn::alexnet(), cfg), std::invalid_argument);
}

}  // namespace
}  // namespace guardnn::functional
