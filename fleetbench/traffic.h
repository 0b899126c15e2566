// Request generators: an open loop (Poisson arrivals at a fixed rate, timed
// from each request's scheduled send) and a closed loop (a fixed window of
// requests in flight per tenant). Every output is opened by its user and
// compared byte for byte with the reference output of its input. A request
// the server refuses at admission is retried with the same sealed record.
#pragma once

#include <vector>

#include "common.h"

namespace fleetbench {

/// Client-side boundaries of one open-loop request (traced runs only). The
/// server's spans for the same request fill in the stages in between.
struct RequestRecord {
  std::size_t client = 0;  ///< Index into the fleet's client list.
  long long sched = 0;     ///< When the request was due to be sent.
  long long seal0 = 0;     ///< RemoteUser::seal entry.
  long long seal1 = 0;     ///< seal return.
  long long sub0 = 0;      ///< submit_async entry of the admitted attempt.
  long long sub1 = 0;      ///< submit_async return of the admitted attempt.
  long long ready = 0;     ///< Future observed ready.
  long long open0 = 0;     ///< RemoteUser::open_output entry.
  long long open1 = 0;     ///< open_output return.
  long long done = 0;      ///< Output compared with the reference.
};

struct TrafficStats {
  u64 attempted = 0;  ///< Requests sealed and queued for submission.
  u64 refused = 0;    ///< Admission refusals; the record is retried.
  u64 ok = 0;
  u64 failed = 0;     ///< Failed, hung or wrong outputs.
  std::vector<double> latency_ms;  ///< Open loop: scheduled send -> verified.
  std::vector<double> lag_ms;      ///< Open loop: how late each send ran.
  std::vector<RequestRecord> records;  ///< Open loop, traced runs only.
  long long start_ns = 0;
  long long last_done_ns = 0;  ///< Closed loop: last verified completion.

  void merge(TrafficStats&& other);
};

struct OpenLoopPlan {
  double rate_rps = 0;  ///< Aggregate arrival rate over the given clients.
  long long start_ns = 0;
  long long end_ns = 0;  ///< No arrival is scheduled at or after this.
  u64 seed = 0;          ///< Arrival gaps, tenant and input choice.
  bool record = false;   ///< Keep a RequestRecord per request.
};

/// Open loop over `clients` (indices into `fleet_clients`), one thread.
/// Arrivals pick a tenant and an input uniformly; each tenant is therefore
/// an independent Poisson source at rate_rps / clients.size().
void run_open_loop(serving::InferenceServer& server,
                   std::vector<Client>& fleet_clients,
                   const std::vector<std::size_t>& clients, const Model& model,
                   const OpenLoopPlan& plan, TrafficStats& out);

/// Closed loop over `clients`, one thread: each tenant keeps `window`
/// requests in flight until `end_ns`, then drains.
void run_closed_loop(serving::InferenceServer& server,
                     std::vector<Client>& fleet_clients,
                     const std::vector<std::size_t>& clients,
                     const Model& model, std::size_t window, long long end_ns,
                     u64 seed, TrafficStats& out);

/// Waits at most `timeout_s` for a future; nullopt when it never resolved.
std::optional<serving::InferenceResult> await_result(
    std::future<serving::InferenceResult>& future, double timeout_s = 30.0);

}  // namespace fleetbench
