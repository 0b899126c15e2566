// Sealed model store bench: SealModel / UnsealModel throughput through the
// fused MPU→blob pipeline (one region walk, lane-batched CMAC, in-place blob
// encryption) and cross-device replication latency (the full attested
// three-step re-wrap protocol, ECDHE + two ECDSA signatures + two fused blob
// passes).
//
// Every seal and unseal runs the path the serving and checkpoint loops run:
// a seal of the region SetWeight imported takes its content id from the
// attested weight hash, so it costs the MAC and keystream passes only, and
// an unseal runs one SHA-256 pass that serves both the content-id re-check
// and the attestation weight hash. `seal_gbps`, `unseal_gbps` and
// `memory_xcrypt_gbps` are each the fastest of three timed windows after one
// warm-up call, and `memory_xcrypt_ratio` relates the seal rate to that raw
// AES-CTR rate over the same footprint (the fused seal's floor is 2x raw —
// two keystream passes — plus the two CMAC passes).
//
// Emits a ##GUARDNN_BENCH_JSON## marker line that scripts/run_benches.sh
// folds into BENCH_BASELINE.json as the `model_store` block.
#include <algorithm>
#include <chrono>
#include <iostream>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "crypto/mem_mac.h"
#include "host/user_client.h"
#include "obs/metrics.h"

namespace guardnn {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

}  // namespace

int run() {
  constexpr u64 kWeightBytes = 8ull << 20;  // 8 MiB model
  constexpr int kSealIters = 6;
  constexpr int kReplicateIters = 24;

  std::cout << "\n=== Sealed model store ===\n";
  std::cout << "SealModel/UnsealModel GB/s over a "
            << (kWeightBytes >> 20) << " MiB weight blob; "
            << "replication = attested 3-step re-wrap A->B.\n\n";

  crypto::HmacDrbg ca_drbg(Bytes{0xb1});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::UntrustedMemory mem_a, mem_b;
  accel::GuardNnDevice a("bench-store-a", ca, mem_a, Bytes{0xb2});
  accel::GuardNnDevice b("bench-store-b", ca, mem_b, Bytes{0xb3});

  host::RemoteUser user(ca.public_key(), Bytes{0xb4});
  if (!user.attest_device(a.get_pk())) return 1;
  if (!user.complete_session(a.init_session(user.begin_session(), true)))
    return 1;
  const accel::SessionId sid = user.session_id();

  Bytes weights(kWeightBytes);
  Xoshiro256 rng(0xb5);
  rng.fill(weights);
  if (a.set_weight(sid, user.seal(weights), 0) != accel::DeviceStatus::kOk)
    return 1;

  const Bytes descriptor{'b', 'e', 'n', 'c', 'h'};
  store::SealedBlob blob;

  const auto gbps = [](double ms) {
    return static_cast<double>(kWeightBytes) / (ms * 1e-3) / 1e9;
  };
  // One warm-up call (allocator, first touch), then the fastest of three
  // timed windows of kSealIters calls — a VM shares its host, and the
  // minimum is the standard noise-robust estimate of achievable throughput.
  // Returns ms per call, or a negative value when a call fails.
  const auto fastest_ms = [](const auto& call) {
    if (!call()) return -1.0;
    double best = 1e300;
    for (int window = 0; window < 3; ++window) {
      const auto start = Clock::now();
      for (int i = 0; i < kSealIters; ++i)
        if (!call()) return -1.0;
      best = std::min(best, ms_since(start) / kSealIters);
    }
    return best;
  };

  // Raw AES-CTR reference over the same footprint (the fused pipeline's
  // floor is two such passes), measured with the session-independent key.
  const crypto::Aes128 raw_aes(crypto::AesKey{0x42});
  Bytes raw_buf(kWeightBytes);
  rng.fill(raw_buf);
  const double xcrypt_gbps = gbps(fastest_ms([&] {
    crypto::memory_xcrypt(raw_aes, 0, 1, raw_buf);
    return true;
  }));

  // Seal (checkpoint shape).
  const double seal_ms = fastest_ms([&] {
    return a.seal_model(sid, 0, kWeightBytes, descriptor, blob) ==
           accel::DeviceStatus::kOk;
  });
  if (seal_ms < 0) return 1;
  const double seal_gbps = gbps(seal_ms);

  // Unseal (replica load on connect, checkpoint restore).
  Bytes descriptor_out;
  const double unseal_ms = fastest_ms([&] {
    return a.unseal_model(sid, blob, 0, descriptor_out) ==
           accel::DeviceStatus::kOk;
  });
  if (unseal_ms < 0) return 1;
  const double unseal_gbps = gbps(unseal_ms);

  // Replication latency: full begin -> export_for_device -> finish rounds,
  // collected into the histogram the serving telemetry exports.
  obs::Histogram replicate_ms;
  for (int i = 0; i < kReplicateIters; ++i) {
    const auto start = Clock::now();
    accel::ProvisionRequest request;
    if (b.provision_begin(request) != accel::DeviceStatus::kOk) return 1;
    store::SealedBlob wrapped;
    accel::ProvisionGrant grant;
    if (a.export_for_device(blob, request, wrapped, grant) !=
        accel::DeviceStatus::kOk)
      return 1;
    store::SealedBlob rebound;
    if (b.provision_finish(wrapped, grant, rebound) != accel::DeviceStatus::kOk)
      return 1;
    replicate_ms.record(ms_since(start));
  }
  const double p50 = replicate_ms.percentile(0.50);
  const double p99 = replicate_ms.percentile(0.99);

  std::cout << "  seal       " << seal_gbps << " GB/s (" << seal_ms
            << " ms per " << (kWeightBytes >> 20) << " MiB)\n";
  std::cout << "  unseal     " << unseal_gbps << " GB/s (" << unseal_ms
            << " ms)\n";
  std::cout << "  raw CTR    " << xcrypt_gbps
            << " GB/s memory_xcrypt over the same " << (kWeightBytes >> 20)
            << " MiB (fused-seal floor = 2 passes = " << xcrypt_gbps / 2
            << " GB/s; seal = " << xcrypt_gbps / seal_gbps << "x raw)\n";
  std::cout << "  replicate  p50 " << p50 << " ms, p99 " << p99 << " ms over "
            << kReplicateIters << " rounds\n";

  std::cout << "##GUARDNN_BENCH_JSON## {\"weight_mib\": "
            << (kWeightBytes >> 20) << ", \"seal_gbps\": " << seal_gbps
            << ", \"unseal_gbps\": " << unseal_gbps
            << ", \"memory_xcrypt_gbps\": " << xcrypt_gbps
            << ", \"memory_xcrypt_ratio\": " << xcrypt_gbps / seal_gbps
            << ", \"replicate_p50_ms\": " << p50
            << ", \"replicate_p99_ms\": " << p99 << "}\n";
  std::cout << "PASS\n";
  return 0;
}

}  // namespace guardnn

int main() { return guardnn::run(); }
