// Untrusted host scheduler.
//
// The host owns the data-flow graph, allocates DRAM addresses, reconstructs
// the VN counters from the instruction stream it issued (Section II-D.2:
// "the host CPU can easily reconstruct the VN used to write features"), and
// drives the device with SetReadCTR + Forward. It never sees a key or a
// plaintext — it is outside the TCB, and the tests drive a *malicious* host
// through these same interfaces.
#pragma once

#include <vector>

#include "accel/device.h"

namespace guardnn::host {

/// One layer of a functional network, with the user-owned weights as raw
/// bytes (conv: OC*IC*K*K, fc: OUT*IN; empty for relu/pool).
struct FuncLayer {
  accel::ForwardOp::Kind kind = accel::ForwardOp::Kind::kConv;
  int out_c = 0;
  int kernel = 0;
  int stride = 1;
  int pad = 0;
  int requant_shift = 0;
  Bytes weights;
  /// For kAdd: index of the earlier layer whose output is the second
  /// operand (-1 means the original input tensor). Residual connections.
  int input2_layer = -2;
};

/// A small functional network (the remote user's model).
struct FuncNetwork {
  int in_c = 1, in_h = 1, in_w = 1;
  int bits = 8;
  std::vector<FuncLayer> layers;
};

/// CHW shapes of every intermediate tensor (index 0 = input).
std::vector<std::array<int, 3>> infer_shapes(const FuncNetwork& net);

/// The compiled execution plan: packed weight blob, address assignment, and
/// the Forward instruction stream.
struct ExecutionPlan {
  u64 weight_base = 0;
  std::vector<u64> weight_addrs;
  u64 input_addr = 0;
  u64 output_addr = 0;
  u64 output_bytes = 0;
  Bytes weight_blob;  ///< Plaintext blob the *user* encrypts and sends.
  std::vector<accel::ForwardOp> ops;
};

class HostScheduler {
 public:
  /// Drives one session-table entry. The serving layer keeps one scheduler
  /// per tenant.
  HostScheduler(accel::GuardNnDevice& device, accel::SessionId session)
      : device_(device), session_(session) {}

  /// Compiles the network into an address plan + instruction stream.
  static ExecutionPlan compile(const FuncNetwork& net);

  /// The host mirrors CTR_IN by observing its own SetInput issue order
  /// (Section II-D.2: "the host CPU can easily reconstruct the VN used to
  /// write features"). Call once after each SetInput.
  void note_input() { ++ctr_in_mirror_; }

  /// Issues SetReadCTR + Forward for every op. The read counters are
  /// reconstructed from the known schedule: SetInput wrote the input with
  /// (CTR_IN, CTR_F,W=0); layer i's output was written with CTR_F,W = i.
  /// Each layer output lives in its own buffer so residual (kAdd) ops can
  /// reference any earlier tensor.
  accel::DeviceStatus execute(const ExecutionPlan& plan);

  /// Read VN for the tensor consumed by op `index` (0 = the imported input).
  u64 read_vn_for(std::size_t index) const {
    return (ctr_in_mirror_ << 32) | (index == 0 ? 0 : index - 1);
  }

  /// Read VN for the final output of a `n_ops`-layer plan.
  u64 output_read_vn(std::size_t n_ops) const {
    return (ctr_in_mirror_ << 32) | (n_ops - 1);
  }

 private:
  accel::GuardNnDevice& device_;
  accel::SessionId session_;
  u64 ctr_in_mirror_ = 0;
};

/// User-side reference execution (plaintext, no device) — ground truth for
/// the encrypted run.
Bytes reference_run(const FuncNetwork& net, const functional::Tensor& input);

/// Absorbs the plan's instruction stream into the user's attestation mirror
/// (SetWeight, SetInput, Forwards, ExportOutput — in that order).
void mirror_attestation(class RemoteUser& user, const ExecutionPlan& plan);

}  // namespace guardnn::host
