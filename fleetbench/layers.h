// Per-layer attribution for the traced run: the request path split into
// contiguous stages, and the crypto primitives beneath them.
#pragma once

#include <array>
#include <vector>

#include "obs/trace.h"
#include "traffic.h"

namespace fleetbench {

/// Contiguous stages of an open-loop request. Boundaries, in order:
///   scheduled -> seal -> sealed -> admitted -> picked up -> unsealed
///   -> executed -> exported -> resolved -> future ready -> verified.
/// Consecutive stages share a boundary, so per request they sum to its total.
enum Stage {
  kLag,      ///< generator late: scheduled -> seal entry
  kSeal,     ///< RemoteUser::seal
  kSubmit,   ///< seal return -> admitted (incl. retries after a refusal)
  kQueue,    ///< admitted -> worker pickup
  kUnseal,   ///< pickup -> device consumed the sealed input
  kExecute,  ///< the plan's Forward stream
  kExport,   ///< output sealed for the user
  kResolve,  ///< exported -> promise resolved (rest of the batch)
  kWake,     ///< resolved -> the generator saw the future ready
  kOpen,     ///< open_output + byte compare with the reference
  kStageCount
};

/// Stage durations of the traced open-loop requests, one row per request
/// whose server span chain is complete.
struct StageSamples {
  std::vector<std::array<double, kStageCount>> stage_ms;
  std::vector<double> total_ms;
  std::vector<double> seal_call_us;    ///< RemoteUser::seal
  std::vector<double> submit_call_us;  ///< InferenceServer::submit_async
  std::vector<double> open_call_us;    ///< RemoteUser::open_output
  /// Steady-clock time of the server trace collector's epoch: server span
  /// t_ns + epoch_ns is on the benchmark's clock.
  long long epoch_ns = 0;

  /// Where the median request's time went: each stage's mean over the
  /// requests whose total lies within five percentiles of the median. (Per-
  /// stage medians need not add up: on fleet_ops a device stall lands in a
  /// different stage for different requests.)
  std::array<double, kStageCount> median_attribution() const;
};

/// Pairs each client record with the server span chain of the same request.
/// A tenant's requests are submitted from one thread, so its k-th traced
/// submit is its k-th kSubmit span; the two clocks are aligned by bracketing
/// every kSubmit span between the client's submit_async entry and return.
StageSamples stage_breakdown(const std::vector<RequestRecord>& records,
                             const std::vector<obs::SpanRecord>& spans,
                             const std::vector<Client>& clients);

/// Medians of the primitives the control plane and the MPU are built on.
struct CryptoFloor {
  double ecdsa_sign_ms = 0;
  double ecdsa_verify_ms = 0;
  double ecdh_ms = 0;
  double xcrypt_gbps = 0;  ///< memory_xcrypt over 8 MiB
  double cmac_gbps = 0;    ///< memory_mac_many, 512 B chunks, over 8 MiB
};

CryptoFloor measure_crypto(const World& world);

}  // namespace fleetbench
