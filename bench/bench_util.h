// Shared helpers for the paper-reproduction benches.
#pragma once

#include <iostream>
#include <map>
#include <string>

#include "common/table.h"
#include "dnn/models.h"
#include "sim/perf_model.h"

namespace guardnn::bench {

/// Calibrates once and caches (all figure benches share the TPU-like config).
inline const sim::BandwidthCalibration& calibration() {
  static const sim::BandwidthCalibration calib = sim::BandwidthCalibration::measure(
      dram::DramConfig::ddr4_2400_16gb(), sim::AcceleratorConfig::tpu_like());
  return calib;
}

/// Formats "+<v>%" for overhead columns. Append-based construction avoids a
/// GCC 12 -Wrestrict false positive (PR 105329) that operator+ chains trip
/// under -O2.
inline std::string pct(double v, int digits = 2) {
  std::string s = "+";
  s += fmt_fixed(v, digits);
  s += '%';
  return s;
}

struct SchemeRuns {
  sim::RunResult np;
  sim::RunResult guardnn_c;
  sim::RunResult guardnn_ci;
  sim::RunResult bp;
};

inline SchemeRuns run_all_schemes(const dnn::Network& net,
                                  const std::vector<dnn::WorkItem>& schedule,
                                  const sim::SimConfig& cfg = {}) {
  using memprot::Scheme;
  SchemeRuns runs;
  runs.np = sim::simulate(net, schedule, Scheme::kNone, cfg, calibration());
  runs.guardnn_c =
      sim::simulate(net, schedule, Scheme::kGuardNnC, cfg, calibration());
  runs.guardnn_ci =
      sim::simulate(net, schedule, Scheme::kGuardNnCI, cfg, calibration());
  runs.bp = sim::simulate(net, schedule, Scheme::kBaselineMee, cfg, calibration());
  return runs;
}

inline double normalized(const sim::RunResult& run, const sim::RunResult& base) {
  return static_cast<double>(run.total_cycles) /
         static_cast<double>(base.total_cycles);
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "\n=== " << title << " ===\n";
  std::cout << "Reproduces: " << paper_ref << "\n\n";
}

}  // namespace guardnn::bench
