// The fleet under test and the control-plane loop.
//
// Every workload runs a 2-device, 2-worker InferenceServer with device-
// latency emulation off, so the timings are real host work. The control
// loop cycles one model through the whole lifecycle a fleet operator
// drives: connect, load, checkpoint, replicate, live migration under a hot
// window, restore into a fresh session, disconnect.
#pragma once

#include <memory>
#include <vector>

#include "common.h"

namespace fleetbench {

struct WorkloadSpec {
  const char* name;
  ModelKind serve_model;      ///< What the traffic tenants run.
  std::size_t tenants;        ///< Traffic tenants.
  double open_rate_rps;       ///< Fixed open-loop arrival rate (all tenants).
  std::size_t closed_window;  ///< Closed loop: requests in flight per tenant.
  ModelKind control_model;    ///< What the control loop cycles.
  /// true: the control loop cycles beside the open-loop traffic.
  /// false: it runs alone, after the traffic phases.
  bool control_alongside;
};

struct Fleet {
  std::unique_ptr<serving::InferenceServer> server;
  serving::ModelHandle serve_handle;
  serving::ModelHandle control_handle;
  std::vector<Client> clients;
};

/// Set-up: fabricates the fleet, compiles both models' plans, connects and
/// loads every traffic tenant, and warms each with verified requests.
/// Returns nullptr (after printing why) on any failure.
std::unique_ptr<Fleet> build_fleet(const World& world, const WorkloadSpec& spec,
                                   const Model& serve, const Model& control,
                                   std::size_t trace_capacity);

/// A span of the benchmark's own, around one public call it made.
struct CallSpan {
  const char* name;
  long long start_ns;
  long long end_ns;
  serving::TenantId tenant;
};

struct ControlStats {
  std::vector<double> connect_ms;
  std::vector<double> load_ms;
  std::vector<double> checkpoint_ms;
  std::vector<double> replicate_ms;
  std::vector<double> migrate_ms;
  std::vector<double> restore_ms;
  std::vector<CallSpan> spans;
  u64 attempted = 0;  ///< Control calls plus verification requests.
  u64 failed = 0;
  u64 cycles = 0;
};

/// One control cycle on `model`: connect, load, checkpoint, replicate,
/// migrate with a hot window of 2, restore into a fresh session, disconnect;
/// then every replica is erased so the next cycle re-wraps for real.
/// Appends a sample per timed call. False on any failure.
bool control_cycle(Fleet& fleet, const World& world, const Model& model,
                   ControlStats& out);

}  // namespace fleetbench
