// Microbenchmarks for the int8 kernels the device datapath runs
// (google-benchmark): conv2d_gemm at the fleetbench model shapes, the
// conv2d_direct oracle for the ratio, and fully_connected. Every case
// reports macs_per_second, so kernels of different shapes compare directly.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "functional/quant_ops.h"

namespace guardnn::functional {
namespace {

void fill_int8(std::vector<i8>& data, Xoshiro256& rng) {
  for (i8& v : data) v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
}

void set_macs(benchmark::State& state, double macs_per_call) {
  state.counters["macs_per_second"] = benchmark::Counter(
      macs_per_call, benchmark::Counter::kIsIterationInvariantRate);
}

/// Args: in_c, out_c, h = w. A 3x3 kernel, stride 1, pad 1, shift 4: the
/// conv layers of fleetbench's serve_tiny (3->4, 8x8) and serve_cnn (3->16
/// and 16->16, 32x32) models.
template <Tensor (*Conv)(const Tensor&, const ConvWeights&, int, int, int)>
void BM_Conv(benchmark::State& state) {
  const int in_c = static_cast<int>(state.range(0));
  const int out_c = static_cast<int>(state.range(1));
  const int hw = static_cast<int>(state.range(2));
  Xoshiro256 rng(1);
  Tensor input(in_c, hw, hw);
  ConvWeights weights(out_c, in_c, 3);
  fill_int8(input.data(), rng);
  fill_int8(weights.data, rng);
  for (auto _ : state) {
    Tensor out = Conv(input, weights, 1, 1, 4);
    benchmark::DoNotOptimize(out.data().data());
    benchmark::ClobberMemory();
  }
  set_macs(state, static_cast<double>(out_c) * in_c * 9 * hw * hw);
}

void BM_Conv2dGemm(benchmark::State& state) { BM_Conv<conv2d_gemm>(state); }
BENCHMARK(BM_Conv2dGemm)
    ->ArgNames({"in_c", "out_c", "hw"})
    ->Args({3, 4, 8})
    ->Args({3, 16, 32})
    ->Args({16, 16, 32});

void BM_Conv2dDirect(benchmark::State& state) { BM_Conv<conv2d_direct>(state); }
BENCHMARK(BM_Conv2dDirect)->ArgNames({"in_c", "out_c", "hw"})->Args({16, 16, 32});

/// Args: in_features, out_features (serve_cnn's 4096->64 hidden layer and
/// fleet_ops' 8192->1024 model).
void BM_FullyConnected(benchmark::State& state) {
  const int in = static_cast<int>(state.range(0));
  const int out = static_cast<int>(state.range(1));
  Xoshiro256 rng(2);
  std::vector<i8> input(static_cast<std::size_t>(in));
  FcWeights weights(out, in);
  fill_int8(input, rng);
  fill_int8(weights.data, rng);
  for (auto _ : state) {
    std::vector<i8> y = fully_connected(input, weights, 9, 8);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  set_macs(state, static_cast<double>(in) * out);
}
BENCHMARK(BM_FullyConnected)->ArgNames({"in", "out"})->Args({4096, 64})->Args({8192, 1024});

}  // namespace
}  // namespace guardnn::functional

BENCHMARK_MAIN();
