// Shared helpers for the fleet benchmark: one clock, sample statistics, and
// the seeded generators every workload draws its models and inputs from.
#pragma once

#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "crypto/cert.h"
#include "crypto/drbg.h"
#include "host/scheduler.h"
#include "serving/inference_server.h"

namespace fleetbench {

using namespace guardnn;
using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock. Every benchmark timestamp uses it, so
/// client-side boundaries compare directly with each other.
inline long long now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline void sleep_until_ns(long long t_ns) {
  std::this_thread::sleep_until(
      Clock::time_point(std::chrono::duration_cast<Clock::duration>(
          std::chrono::nanoseconds(t_ns))));
}

inline double ms_between(long long from_ns, long long to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-6;
}

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// The networks the workloads serve. Weights and inputs come from the seed;
/// only the shapes are fixed.
enum class ModelKind { kTiny, kCnn, kFc8m };

struct Model {
  host::FuncNetwork net;
  Bytes descriptor;             ///< host::serialize_descriptor(net)
  std::vector<Bytes> inputs;    ///< CHW int8 input tensors
  std::vector<Bytes> expected;  ///< host::reference_run of each input
};

/// Builds `kind` with seeded weights plus `n_inputs` seeded inputs and their
/// reference outputs (the ground truth every served output is compared to).
Model make_model(ModelKind kind, u64 seed, std::size_t n_inputs);

/// Independent random streams drawn from the run seed.
enum Stream : u64 {
  kCaStream,
  kFleetStream,
  kTrafficUserStream,
  kControlUserStream,
  kModelStream,
  kCryptoStream,
  kOpenLoopStream,
  kClosedLoopStream,
};

/// The manufacturer and the seed-derived entropy of one run. Devices, users
/// and arrivals all draw from the seed, so a seed fixes every input.
struct World {
  explicit World(u64 run_seed);

  /// 16 bytes of entropy for stream `stream`, member `index`.
  Bytes entropy(u64 stream, u64 index) const;
  /// A sub-seed for the generators (arrivals, input choice).
  u64 sub_seed(u64 stream, u64 index) const;

  u64 seed;
  crypto::HmacDrbg ca_drbg;
  crypto::ManufacturerCa ca;
};

/// One user of the fleet: the RemoteUser holds its keys, `tenant` is the
/// server's handle for its session.
struct Client {
  std::unique_ptr<host::RemoteUser> user;
  serving::TenantId tenant = 0;
  std::size_t device = 0;
};

/// Connects a new user, keyed from World::entropy(stream, index): fresh
/// ECDHE share, device attestation, session completion. False on any refusal.
bool connect_client(serving::InferenceServer& server, const World& world,
                    u64 stream, u64 index, Client& client);

/// True when `result` succeeded and opens, under `user`'s keys, to exactly
/// `expected`.
bool output_matches(host::RemoteUser& user,
                    const serving::InferenceResult& result,
                    const Bytes& expected);

}  // namespace fleetbench
