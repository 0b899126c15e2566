// Microcontroller latency model.
//
// The prototype runs GuardNN's new instructions as firmware on a Xilinx
// MicroBlaze (paper Section III-B): the key exchange, signature and
// per-command latencies are the ones functional/fpga_model.h defines, and
// weight import is bounded by the AES path at an effective ~3.2 GB/s. The
// functional device accumulates these latencies so examples/benches can
// report instruction timing without real hardware.
#pragma once

#include "common/types.h"
#include "functional/fpga_model.h"

namespace guardnn::accel {

struct MicrocontrollerModel {
  /// GetPK + InitSession (ECDHE-ECDSA).
  double key_exchange_ms = functional::kKeyExchangeMs;
  double sign_ms = functional::kSignMs;  ///< ECDSA signature (SignOutput).
  double import_gbs = 3.2;        ///< Session-decrypt + memory-encrypt path.
  double command_overhead_ms = functional::kCommandOverheadMs;

  double import_ms(u64 bytes) const {
    return command_overhead_ms + static_cast<double>(bytes) / (import_gbs * 1e9) * 1e3;
  }
};

/// Accumulates instruction latency over a session.
class LatencyAccumulator {
 public:
  explicit LatencyAccumulator(const MicrocontrollerModel& model = {})
      : model_(model) {}

  void add_key_exchange() { total_ms_ += model_.key_exchange_ms; }
  void add_sign() { total_ms_ += model_.sign_ms; }
  void add_import(u64 bytes) { total_ms_ += model_.import_ms(bytes); }
  void add_command() { total_ms_ += model_.command_overhead_ms; }

  double total_ms() const { return total_ms_; }
  void reset() { total_ms_ = 0.0; }
  const MicrocontrollerModel& model() const { return model_; }

 private:
  MicrocontrollerModel model_;
  double total_ms_ = 0.0;
};

}  // namespace guardnn::accel
