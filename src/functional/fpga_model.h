// FPGA prototype throughput model (Table II).
//
// The paper's prototype adds a VN generator, pipelined AES-128 engines and a
// MicroBlaze to CHaiDNN on an AMD Xilinx FPGA, and reports frames/second for
// AlexNet/GoogleNet/ResNet/VGG across {128,256,512,1024} DSPs and
// {8,6}-bit precisions, with GuardNN_C overhead below ~3.1%.
//
// Without the FPGA we reproduce the published analytical throughput
// structure: compute rate is DSP-limited (CHaiDNN packs two 8-bit MACs per
// DSP slice), memory rate is bounded by the DDR bandwidth, and with
// protection enabled the memory path is additionally bounded by the
// aggregate AES engine throughput (engines x 16 B x 200 MHz). The overhead
// is the non-overlapped part of the slower protected memory path — which is
// why it grows with DSP count (faster compute exposes the memory path) and
// is largest for the most memory-intensive network (ResNet), exactly the
// trends in Table II.
#pragma once

#include "dnn/models.h"

namespace guardnn::functional {

struct FpgaConfig {
  int dsps = 512;
  int bits = 8;            ///< 8 or 6.
  double clock_ghz = 0.2;  ///< 200 MHz fabric clock.
  int aes_engines = 3;     ///< Paper uses 3; 4 cuts worst-case overhead.
  int batch = 16;          ///< Frames per weight-resident batch.
  double mem_bandwidth_gbs = 12.0;  ///< Achieved DDR bandwidth on the board.

  /// MACs per DSP per cycle: CHaiDNN packs 2 at 8-bit; the 6-bit datapath
  /// fits ~1.7x more work per slice (Table II shows 6-bit ~1.7-1.9x faster).
  double macs_per_dsp() const { return bits == 6 ? 3.5 : 2.0; }

  /// Aggregate AES throughput: engines x 128 bits per cycle at the fabric
  /// clock (the engines are pipelined with 12-cycle latency).
  double aes_bandwidth_gbs() const {
    return static_cast<double>(aes_engines) * 16.0 * clock_ghz;
  }
};

struct FpgaThroughput {
  double baseline_fps = 0.0;   ///< CHaiDNN, no protection.
  double guardnn_fps = 0.0;    ///< GuardNN_C (memory encryption enabled).
  double overhead_percent = 0.0;
};

/// Per-frame DRAM traffic in bytes: activations every frame plus weights
/// amortized over the batch.
double frame_traffic_bytes(const dnn::Network& net, const FpgaConfig& cfg);

/// Throughput for one network on one configuration.
FpgaThroughput fpga_throughput(const dnn::Network& net, const FpgaConfig& cfg);

/// MicroBlaze firmware latencies on the prototype (Section III-B), defined
/// once: instruction_latencies() reports them and the device's
/// accel::MicrocontrollerModel charges them.
inline constexpr double kKeyExchangeMs = 23.1;  ///< ECDHE-ECDSA key exchange.
inline constexpr double kSignMs = 4.8;          ///< ECDSA signature.
inline constexpr double kCommandOverheadMs = 0.01;  ///< Fixed per command.

/// GuardNN instruction latencies on the prototype (Section III-B):
/// key exchange on the MicroBlaze, weight import through the AES engines,
/// input import, output export and ECDSA signing.
struct InstructionLatencies {
  double key_exchange_ms = 0.0;   ///< GetPK + InitSession (ECDHE-ECDSA).
  double set_weight_ms = 0.0;     ///< Decrypt + re-encrypt all weights.
  double set_input_ms = 0.0;      ///< One input image.
  double export_output_ms = 0.0;  ///< 1000-class output.
  double sign_output_ms = 0.0;    ///< ECDSA signature on the MicroBlaze.
};

InstructionLatencies instruction_latencies(const dnn::Network& net,
                                           const FpgaConfig& cfg = {});

}  // namespace guardnn::functional
