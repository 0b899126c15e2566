// Private training step on the GuardNN device: a full forward + backward +
// SGD update over the ISA, compared bit-exactly against a user-side
// plaintext reference. Exercises the paper's training story (Section II-A,
// Figure 2b): gradients live in protected memory with feature VNs, and the
// on-device weight update bumps CTR_W.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "functional/train_ops.h"
#include "host/scheduler.h"
#include "host/user_client.h"

namespace guardnn::host {
namespace {

using accel::DeviceStatus;
using accel::ForwardOp;

constexpr u64 kWBase = 0x0;
constexpr u64 kXAddr = 0x4000'0000ULL;
constexpr u64 kF0 = 0x4800'0000ULL;   // fc1 pre-activation
constexpr u64 kF1 = 0x4880'0000ULL;   // relu output
constexpr u64 kF2 = 0x4900'0000ULL;   // logits
constexpr u64 kDy = 0x4980'0000ULL;   // loss gradient (imported)
constexpr u64 kDa1 = 0x4A00'0000ULL;  // grad wrt relu output
constexpr u64 kDh1 = 0x4A80'0000ULL;  // grad wrt fc1 pre-activation
constexpr u64 kGradBlob = 0x4B00'0000ULL;  // dW blob, same layout as weights

struct TrainBench {
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg{Bytes{0x51}};
  crypto::ManufacturerCa ca{ca_drbg};
  accel::GuardNnDevice device{"train-dev", ca, memory, Bytes{0x52}};
  RemoteUser user{ca.public_key(), Bytes{0x53}};

  // 4 -> 6 -> 3 MLP, one weight blob (fc1 at offset 0, fc2 at offset 512).
  static constexpr int kIn = 4, kHidden = 6, kOut = 3;
  static constexpr int kShift = 3;     // forward requant shift
  static constexpr int kGradShift = 4; // backward requant shift
  static constexpr int kLrShift = 3;   // SGD learning-rate shift

  functional::FcWeights w1{kHidden, kIn};
  functional::FcWeights w2{kOut, kHidden};
  std::vector<i8> x = std::vector<i8>(kIn);

  TrainBench() {
    Xoshiro256 rng(55);
    auto fill = [&](std::vector<i8>& v) {
      for (auto& e : v)
        e = static_cast<i8>(static_cast<int>(rng.next_below(17)) - 8);
    };
    fill(w1.data);
    fill(w2.data);
    fill(x);
  }

  Bytes weight_blob() const {
    Bytes blob(1024, 0);
    std::copy(w1.data.begin(), w1.data.end(),
              reinterpret_cast<i8*>(blob.data()));
    std::copy(w2.data.begin(), w2.data.end(),
              reinterpret_cast<i8*>(blob.data() + 512));
    return blob;
  }

  bool establish() {
    if (!user.attest_device(device.get_pk())) return false;
    return user.complete_session(device.init_session(user.begin_session(), true));
  }

  /// Reference: the full quantized training step in plaintext.
  struct Reference {
    std::vector<i8> h1, a1, y, dy, da1, dh1;
    functional::FcWeights dw1{kHidden, kIn}, dw2{kOut, kHidden};
    Bytes updated_blob;
  };

  Reference reference_step() const {
    using namespace functional;
    Reference r;
    r.h1 = fully_connected(x, w1, kShift, 8);
    r.a1 = r.h1;
    for (auto& v : r.a1) v = std::max<i8>(v, 0);
    r.y = fully_connected(r.a1, w2, kShift, 8);
    // Loss gradient: dy = y - target with target = 0 (toy).
    r.dy = r.y;
    // Backward.
    r.da1 = fc_backward_input(r.dy, w2, kGradShift, 8);
    r.dh1 = r.da1;
    for (std::size_t i = 0; i < r.dh1.size(); ++i)
      if (r.h1[i] <= 0) r.dh1[i] = 0;
    r.dw2 = fc_backward_weights(r.dy, r.a1, kGradShift, 8);
    r.dw1 = fc_backward_weights(r.dh1, x, kGradShift, 8);
    // SGD over the blob layout.
    FcWeights w1_new = w1, w2_new = w2;
    sgd_update(w1_new.data, r.dw1.data, kLrShift, 8);
    sgd_update(w2_new.data, r.dw2.data, kLrShift, 8);
    r.updated_blob.assign(1024, 0);
    std::copy(w1_new.data.begin(), w1_new.data.end(),
              reinterpret_cast<i8*>(r.updated_blob.data()));
    std::copy(w2_new.data.begin(), w2_new.data.end(),
              reinterpret_cast<i8*>(r.updated_blob.data() + 512));
    return r;
  }
};

TEST(DeviceTraining, FullStepMatchesReference) {
  TrainBench bench;
  ASSERT_TRUE(bench.establish());
  auto& dev = bench.device;
  auto& user = bench.user;
  const accel::SessionId sid = user.session_id();

  // Import model + input.
  ASSERT_EQ(dev.set_weight(sid, user.seal(bench.weight_blob()), kWBase),
            DeviceStatus::kOk);
  const Bytes x_bytes(reinterpret_cast<const u8*>(bench.x.data()),
                      reinterpret_cast<const u8*>(bench.x.data()) + bench.x.size());
  ASSERT_EQ(dev.set_input(sid, user.seal(x_bytes), kXAddr), DeviceStatus::kOk);

  const u64 in1 = 1ULL << 32;  // CTR_IN = 1

  // Forward: fc1 -> h1, relu -> a1, fc2 -> y.   (write VNs: in1|0,1,2)
  ForwardOp fc1;
  fc1.kind = ForwardOp::Kind::kFc;
  fc1.in_c = TrainBench::kIn; fc1.in_h = 1; fc1.in_w = 1;
  fc1.out_c = TrainBench::kHidden;
  fc1.requant_shift = TrainBench::kShift;
  fc1.input_addr = kXAddr; fc1.weight_addr = kWBase; fc1.output_addr = kF0;
  ASSERT_EQ(dev.set_read_ctr(sid, kXAddr, 512, in1 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, fc1), DeviceStatus::kOk);

  ForwardOp relu;
  relu.kind = ForwardOp::Kind::kRelu;
  relu.in_c = TrainBench::kHidden; relu.in_h = 1; relu.in_w = 1;
  relu.input_addr = kF0; relu.output_addr = kF1;
  ASSERT_EQ(dev.set_read_ctr(sid, kF0, 512, in1 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, relu), DeviceStatus::kOk);

  ForwardOp fc2;
  fc2.kind = ForwardOp::Kind::kFc;
  fc2.in_c = TrainBench::kHidden; fc2.in_h = 1; fc2.in_w = 1;
  fc2.out_c = TrainBench::kOut;
  fc2.requant_shift = TrainBench::kShift;
  fc2.input_addr = kF1; fc2.weight_addr = kWBase + 512; fc2.output_addr = kF2;
  ASSERT_EQ(dev.set_read_ctr(sid, kF1, 512, in1 | 1), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, fc2), DeviceStatus::kOk);

  // Export logits; user computes the loss gradient and imports it.
  ASSERT_EQ(dev.set_read_ctr(sid, kF2, 512, in1 | 2), DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(dev.export_output(sid, kF2, TrainBench::kOut, sealed),
            DeviceStatus::kOk);
  const auto y = user.open_output(sealed);
  ASSERT_TRUE(y.has_value());

  const TrainBench::Reference ref = bench.reference_step();
  const Bytes y_ref(reinterpret_cast<const u8*>(ref.y.data()),
                    reinterpret_cast<const u8*>(ref.y.data()) + ref.y.size());
  EXPECT_EQ(*y, y_ref);

  // dy = y (target 0), imported as a new encrypted input. CTR_IN -> 2.
  ASSERT_EQ(dev.set_input(sid, user.seal(*y), kDy), DeviceStatus::kOk);
  const u64 in2 = 2ULL << 32;

  // Backward: dA1 = W2^T dy   (write VN in2|0)
  ForwardOp fc2_dx;
  fc2_dx.kind = ForwardOp::Kind::kFcDx;
  fc2_dx.in_c = TrainBench::kOut; fc2_dx.in_h = 1; fc2_dx.in_w = 1;
  fc2_dx.aux_c = TrainBench::kHidden; fc2_dx.aux_h = 1; fc2_dx.aux_w = 1;
  fc2_dx.requant_shift = TrainBench::kGradShift;
  fc2_dx.input_addr = kDy; fc2_dx.weight_addr = kWBase + 512;
  fc2_dx.output_addr = kDa1;
  ASSERT_EQ(dev.set_read_ctr(sid, kDy, 512, in2 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, fc2_dx), DeviceStatus::kOk);

  // dH1 = relu'(h1) * dA1   (write VN in2|1)
  ForwardOp relu_dx;
  relu_dx.kind = ForwardOp::Kind::kReluDx;
  relu_dx.in_c = TrainBench::kHidden; relu_dx.in_h = 1; relu_dx.in_w = 1;
  relu_dx.aux_c = TrainBench::kHidden; relu_dx.aux_h = 1; relu_dx.aux_w = 1;
  relu_dx.input_addr = kDa1; relu_dx.input2_addr = kF0;
  relu_dx.output_addr = kDh1;
  ASSERT_EQ(dev.set_read_ctr(sid, kDa1, 512, in2 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.set_read_ctr(sid, kF0, 512, in1 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, relu_dx), DeviceStatus::kOk);

  // dW2 = dy a1^T -> grad blob offset 512   (write VN in2|2)
  ForwardOp fc2_dw;
  fc2_dw.kind = ForwardOp::Kind::kFcDw;
  fc2_dw.in_c = TrainBench::kOut; fc2_dw.in_h = 1; fc2_dw.in_w = 1;
  fc2_dw.aux_c = TrainBench::kHidden; fc2_dw.aux_h = 1; fc2_dw.aux_w = 1;
  fc2_dw.requant_shift = TrainBench::kGradShift;
  fc2_dw.input_addr = kDy; fc2_dw.input2_addr = kF1;
  fc2_dw.output_addr = kGradBlob + 512;
  ASSERT_EQ(dev.set_read_ctr(sid, kDy, 512, in2 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.set_read_ctr(sid, kF1, 512, in1 | 1), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, fc2_dw), DeviceStatus::kOk);

  // dW1 = dH1 x^T -> grad blob offset 0   (write VN in2|3)
  ForwardOp fc1_dw;
  fc1_dw.kind = ForwardOp::Kind::kFcDw;
  fc1_dw.in_c = TrainBench::kHidden; fc1_dw.in_h = 1; fc1_dw.in_w = 1;
  fc1_dw.aux_c = TrainBench::kIn; fc1_dw.aux_h = 1; fc1_dw.aux_w = 1;
  fc1_dw.requant_shift = TrainBench::kGradShift;
  fc1_dw.input_addr = kDh1; fc1_dw.input2_addr = kXAddr;
  fc1_dw.output_addr = kGradBlob;
  ASSERT_EQ(dev.set_read_ctr(sid, kDh1, 512, in2 | 1), DeviceStatus::kOk);
  ASSERT_EQ(dev.set_read_ctr(sid, kXAddr, 512, in1 | 0), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, fc1_dw), DeviceStatus::kOk);

  // SGD update over the whole blob; per-range gradient read counters.
  ForwardOp update;
  update.kind = ForwardOp::Kind::kSgdUpdate;
  update.in_c = 1024; update.in_h = 1; update.in_w = 1;
  update.requant_shift = TrainBench::kLrShift;
  update.input_addr = kGradBlob;
  update.weight_addr = kWBase;
  ASSERT_EQ(dev.set_read_ctr(sid, kGradBlob, 512, in2 | 3), DeviceStatus::kOk);
  ASSERT_EQ(dev.set_read_ctr(sid, kGradBlob + 512, 512, in2 | 2),
            DeviceStatus::kOk);
  EXPECT_EQ(dev.vn_generator(sid).ctr_w(), 1u);
  ASSERT_EQ(dev.forward(sid, update), DeviceStatus::kOk);
  EXPECT_EQ(dev.vn_generator(sid).ctr_w(), 2u);

  // Export the fine-tuned model back to the user (weights read with the new
  // CTR_W, which the host mirrors).
  ASSERT_EQ(dev.set_read_ctr(sid, kWBase, 1024, 2), DeviceStatus::kOk);
  ASSERT_EQ(dev.export_output(sid, kWBase, 1024, sealed), DeviceStatus::kOk);
  const auto updated = user.open_output(sealed);
  ASSERT_TRUE(updated.has_value());
  EXPECT_EQ(*updated, ref.updated_blob)
      << "on-device training step must match the plaintext reference";
}


TEST(DeviceTraining, ConvBackwardOpsMatchReference) {
  // Conv gradient instructions (kConvDx / kConvDw) against the plaintext
  // operators, through protected memory.
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg(Bytes{0x54});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::GuardNnDevice dev("conv-train", ca, memory, Bytes{0x55});
  RemoteUser user(ca.public_key(), Bytes{0x56});
  ASSERT_TRUE(user.attest_device(dev.get_pk()));
  ASSERT_TRUE(user.complete_session(dev.init_session(user.begin_session(), true)));
  const accel::SessionId sid = user.session_id();

  // Geometry: 2x6x6 input, 3 output channels, 3x3 kernel, stride 1, pad 1.
  const int ic = 2, hw = 6, oc = 3, k = 3;
  Xoshiro256 rng(77);
  functional::ConvWeights w(oc, ic, k);
  for (auto& v : w.data)
    v = static_cast<i8>(static_cast<int>(rng.next_below(9)) - 4);
  functional::Tensor x(ic, hw, hw);
  for (auto& v : x.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(9)) - 4);
  functional::Tensor dy(oc, hw, hw);
  for (auto& v : dy.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(9)) - 4);

  // Import weights (blob), x (input 1), dy (input 2).
  Bytes wblob(512, 0);
  std::copy(w.data.begin(), w.data.end(), reinterpret_cast<i8*>(wblob.data()));
  ASSERT_EQ(dev.set_weight(sid, user.seal(wblob), kWBase), DeviceStatus::kOk);
  const Bytes x_bytes(x.bytes().begin(), x.bytes().end());
  ASSERT_EQ(dev.set_input(sid, user.seal(x_bytes), kXAddr), DeviceStatus::kOk);
  const Bytes dy_bytes(dy.bytes().begin(), dy.bytes().end());
  ASSERT_EQ(dev.set_input(sid, user.seal(dy_bytes), kDy), DeviceStatus::kOk);

  // kConvDx: dX from dY and W.
  ForwardOp conv_dx;
  conv_dx.kind = ForwardOp::Kind::kConvDx;
  conv_dx.in_c = oc; conv_dx.in_h = hw; conv_dx.in_w = hw;
  conv_dx.aux_c = ic; conv_dx.aux_h = hw; conv_dx.aux_w = hw;
  conv_dx.kernel = k; conv_dx.stride = 1; conv_dx.pad = 1;
  conv_dx.requant_shift = 2;
  conv_dx.input_addr = kDy; conv_dx.weight_addr = kWBase;
  conv_dx.output_addr = kDh1;
  ASSERT_EQ(dev.set_read_ctr(sid, kDy, 512, 2ULL << 32), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, conv_dx), DeviceStatus::kOk);

  // kConvDw: dW from dY and x.
  ForwardOp conv_dw;
  conv_dw.kind = ForwardOp::Kind::kConvDw;
  conv_dw.in_c = oc; conv_dw.in_h = hw; conv_dw.in_w = hw;
  conv_dw.aux_c = ic; conv_dw.aux_h = hw; conv_dw.aux_w = hw;
  conv_dw.kernel = k; conv_dw.stride = 1; conv_dw.pad = 1;
  conv_dw.requant_shift = 4;
  conv_dw.input_addr = kDy; conv_dw.input2_addr = kXAddr;
  conv_dw.output_addr = kGradBlob;
  ASSERT_EQ(dev.set_read_ctr(sid, kDy, 512, 2ULL << 32), DeviceStatus::kOk);
  ASSERT_EQ(dev.set_read_ctr(sid, kXAddr, 512, 1ULL << 32), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, conv_dw), DeviceStatus::kOk);

  // Export and compare against the plaintext operators.
  const functional::Tensor dx_ref =
      functional::conv2d_backward_input(dy, w, hw, hw, 1, 1, 2);
  ASSERT_EQ(dev.set_read_ctr(sid, kDh1, 512, 2ULL << 32), DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(dev.export_output(sid, kDh1, dx_ref.size(), sealed),
            DeviceStatus::kOk);
  auto exported = user.open_output(sealed);
  ASSERT_TRUE(exported.has_value());
  EXPECT_EQ(*exported, Bytes(dx_ref.bytes().begin(), dx_ref.bytes().end()));

  const functional::ConvWeights dw_ref =
      functional::conv2d_backward_weights(dy, x, k, 1, 1, 4);
  ASSERT_EQ(dev.set_read_ctr(sid, kGradBlob, 512, (2ULL << 32) | 1),
            DeviceStatus::kOk);
  ASSERT_EQ(dev.export_output(sid, kGradBlob, dw_ref.data.size(), sealed),
            DeviceStatus::kOk);
  exported = user.open_output(sealed);
  ASSERT_TRUE(exported.has_value());
  EXPECT_EQ(*exported, Bytes(dw_ref.bytes().begin(), dw_ref.bytes().end()));
}

TEST(DeviceTraining, MaxPoolBackwardOnDevice) {
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg(Bytes{0x57});
  crypto::ManufacturerCa ca(ca_drbg);
  accel::GuardNnDevice dev("pool-train", ca, memory, Bytes{0x58});
  RemoteUser user(ca.public_key(), Bytes{0x59});
  ASSERT_TRUE(user.attest_device(dev.get_pk()));
  ASSERT_TRUE(user.complete_session(dev.init_session(user.begin_session(), true)));
  const accel::SessionId sid = user.session_id();

  functional::Tensor x(1, 4, 4), dy(1, 2, 2);
  Xoshiro256 rng(31);
  for (auto& v : x.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(17)) - 8);
  for (auto& v : dy.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(7)) - 3);

  const Bytes x_bytes(x.bytes().begin(), x.bytes().end());
  ASSERT_EQ(dev.set_input(sid, user.seal(x_bytes), kXAddr), DeviceStatus::kOk);
  const Bytes dy_bytes(dy.bytes().begin(), dy.bytes().end());
  ASSERT_EQ(dev.set_input(sid, user.seal(dy_bytes), kDy), DeviceStatus::kOk);

  ForwardOp op;
  op.kind = ForwardOp::Kind::kMaxPoolDx;
  op.in_c = 1; op.in_h = 2; op.in_w = 2;
  op.aux_c = 1; op.aux_h = 4; op.aux_w = 4;
  op.kernel = 2; op.stride = 2;
  op.input_addr = kDy; op.input2_addr = kXAddr; op.output_addr = kDh1;
  ASSERT_EQ(dev.set_read_ctr(sid, kDy, 512, 2ULL << 32), DeviceStatus::kOk);
  ASSERT_EQ(dev.set_read_ctr(sid, kXAddr, 512, 1ULL << 32), DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, op), DeviceStatus::kOk);

  const functional::Tensor ref = functional::maxpool_backward(dy, x, 2, 2);
  ASSERT_EQ(dev.set_read_ctr(sid, kDh1, 512, 2ULL << 32), DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(dev.export_output(sid, kDh1, ref.size(), sealed), DeviceStatus::kOk);
  const auto exported = user.open_output(sealed);
  ASSERT_TRUE(exported.has_value());
  EXPECT_EQ(*exported, Bytes(ref.bytes().begin(), ref.bytes().end()));
}

TEST(DeviceTraining, GoldenSgdUpdateTraceCountersAndWeightsPinned) {
  // FullStepMatchesReference checks the updated weights' plaintext; this
  // pins one SGD update to recorded values instead: the MPU access trace,
  // the MPU byte counters, the modeled latency and the updated weight
  // region's ciphertext and MAC slots. An update-path change that keeps the
  // weights and the simulated statistics identical leaves all four
  // untouched.
  TrainBench bench;
  ASSERT_TRUE(bench.establish());
  auto& dev = bench.device;
  const accel::SessionId sid = bench.user.session_id();
  ASSERT_EQ(dev.set_weight(sid, bench.user.seal(bench.weight_blob()), kWBase),
            DeviceStatus::kOk);
  // A 1 KiB gradient blob imported as input #1 (write VN 1|0).
  Xoshiro256 rng(57);
  Bytes grads(1024);
  for (auto& b : grads)
    b = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(33)) - 16));
  ASSERT_EQ(dev.set_input(sid, bench.user.seal(grads), kGradBlob),
            DeviceStatus::kOk);

  ForwardOp update;
  update.kind = ForwardOp::Kind::kSgdUpdate;
  update.in_c = 1024; update.in_h = 1; update.in_w = 1;
  update.requant_shift = TrainBench::kLrShift;
  update.input_addr = kGradBlob;
  update.weight_addr = kWBase;
  ASSERT_EQ(dev.set_read_ctr(sid, kGradBlob, 1024, 1ULL << 32),
            DeviceStatus::kOk);
  ASSERT_EQ(dev.forward(sid, update), DeviceStatus::kOk);

  const auto& trace = dev.access_trace(sid);
  crypto::Sha256 trace_hash;
  for (const auto& [address, is_write] : trace) {
    u8 entry[9];
    store_be64(entry, address);
    entry[8] = is_write ? 1 : 0;
    trace_hash.update(BytesView(entry, sizeof(entry)));
  }
  EXPECT_EQ(trace.size(), 16u);
  EXPECT_EQ(to_hex(trace_hash.finalize()),
            "c15022b59cd0ccb611cd2ae17f83408af7cb2b9704ac9c8d12947413ca02632b");

  const accel::MpuByteCounters& counters = dev.mpu_byte_counters();
  EXPECT_EQ(counters.bytes_encrypted.load(), 5120u);
  EXPECT_EQ(counters.bytes_macd.load(), 5120u);
  EXPECT_DOUBLE_EQ(dev.elapsed_ms(), 23.150640000000006);

  constexpr u64 kChunk = accel::MemoryProtectionUnit::kChunkBytes;
  const u64 phys = accel::GuardNnDevice::partition_base(sid) + kWBase;
  crypto::Sha256 weights_hash;
  weights_hash.update(bench.memory.read(phys, 1024));
  weights_hash.update(bench.memory.read(
      accel::MemoryProtectionUnit::kMacRegionBase + phys / kChunk * 8,
      1024 / kChunk * 8));
  EXPECT_EQ(to_hex(weights_hash.finalize()),
            "185c3f41c5a02a59532952167e020948f083be33530e2a77d9438b25ab078bb0");
}

TEST(DeviceTraining, StaleGradientReplayDetected) {
  // An adversary substituting an old gradient (wrong CTR_F,R epoch) makes
  // the MAC check fail under integrity protection.
  TrainBench bench;
  ASSERT_TRUE(bench.establish());
  auto& dev = bench.device;
  auto& user = bench.user;
  const accel::SessionId sid = user.session_id();
  ASSERT_EQ(dev.set_weight(sid, user.seal(bench.weight_blob()), kWBase),
            DeviceStatus::kOk);
  const Bytes x_bytes(reinterpret_cast<const u8*>(bench.x.data()),
                      reinterpret_cast<const u8*>(bench.x.data()) + bench.x.size());
  ASSERT_EQ(dev.set_input(sid, user.seal(x_bytes), kXAddr), DeviceStatus::kOk);

  // The host claims a gradient exists at kGradBlob, but nothing was written
  // there: the MAC over the zero-filled region cannot verify.
  ForwardOp update;
  update.kind = ForwardOp::Kind::kSgdUpdate;
  update.in_c = 1024; update.in_h = 1; update.in_w = 1;
  update.input_addr = kGradBlob;
  update.weight_addr = kWBase;
  ASSERT_EQ(dev.set_read_ctr(sid, kGradBlob, 1024, (1ULL << 32) | 0),
            DeviceStatus::kOk);
  EXPECT_EQ(dev.forward(sid, update), DeviceStatus::kIntegrityFailure);
}

}  // namespace
}  // namespace guardnn::host
