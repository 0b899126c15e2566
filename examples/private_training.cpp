// Private training on the GuardNN device (paper Section II-A: "a DNN
// accelerator can run both inference and training").
//
// A remote user fine-tunes a small MLP on the untrusted accelerator:
// forward, loss gradient (computed user-side from the exported logits),
// backward (FcDx/ReluDx/FcDw) and an on-device SGD update that bumps CTR_W.
// Weights, activations and *gradients* only ever appear encrypted in DRAM
// (gradients use feature VNs — paper Figure 2b). After several steps the
// user exports the fine-tuned model and the loss has dropped.
//
// Build & run:  ./build/examples/private_training
#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/rng.h"
#include "functional/train_ops.h"
#include "host/scheduler.h"
#include "host/user_client.h"

using namespace guardnn;
using accel::DeviceStatus;
using accel::ForwardOp;

namespace {

constexpr u64 kWBase = 0x0;
constexpr u64 kXAddr = 0x4000'0000ULL;
constexpr u64 kF0 = 0x4800'0000ULL, kF1 = 0x4880'0000ULL, kF2 = 0x4900'0000ULL;
constexpr u64 kDy = 0x4980'0000ULL, kDa1 = 0x4A00'0000ULL, kDh1 = 0x4A80'0000ULL;
constexpr u64 kGradBlob = 0x4B00'0000ULL;

constexpr int kIn = 8, kHidden = 12, kOut = 4;
constexpr int kShift = 4, kGradShift = 5, kLrShift = 2;

void require(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAILED: %s\n", what);
    std::exit(1);
  }
}

}  // namespace

int main() {
  accel::UntrustedMemory dram;
  crypto::HmacDrbg ca_entropy(Bytes{0x61});
  crypto::ManufacturerCa manufacturer(ca_entropy);
  accel::GuardNnDevice device("guardnn-train", manufacturer, dram, Bytes{0x62});
  host::RemoteUser user(manufacturer.public_key(), Bytes{0x63});

  require(user.attest_device(device.get_pk()), "attestation");
  require(user.complete_session(device.init_session(user.begin_session(), true)),
          "key exchange");
  const accel::SessionId sid = user.session_id();

  // Model + private training sample (target class 0).
  Xoshiro256 rng(7);
  Bytes blob(1024, 0);
  for (std::size_t i = 0; i < static_cast<std::size_t>(kHidden * kIn); ++i)
    blob[i] = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(9)) - 4));
  for (std::size_t i = 0; i < static_cast<std::size_t>(kOut * kHidden); ++i)
    blob[512 + i] =
        static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(9)) - 4));
  std::vector<i8> x(kIn);
  for (auto& v : x)
    v = static_cast<i8>(static_cast<int>(rng.next_below(17)) - 8);
  std::vector<i8> target(kOut, 0);
  target[0] = 24;

  require(device.set_weight(sid, user.seal(blob), kWBase) == DeviceStatus::kOk,
          "SetWeight");

  auto ctr = [](u64 input_epoch, u64 fw) { return (input_epoch << 32) | fw; };

  int first_loss = -1, last_loss = -1;
  u64 epoch = 0;  // CTR_IN mirror
  for (int step = 0; step < 8; ++step) {
    // Import the sample (every step re-imports: CTR_IN advances).
    const Bytes x_bytes(reinterpret_cast<const u8*>(x.data()),
                        reinterpret_cast<const u8*>(x.data()) + x.size());
    require(
        device.set_input(sid, user.seal(x_bytes), kXAddr) == DeviceStatus::kOk,
        "SetInput");
    ++epoch;

    // Forward.
    ForwardOp fc1;
    fc1.kind = ForwardOp::Kind::kFc;
    fc1.in_c = kIn; fc1.in_h = 1; fc1.in_w = 1;
    fc1.out_c = kHidden; fc1.requant_shift = kShift;
    fc1.input_addr = kXAddr; fc1.weight_addr = kWBase; fc1.output_addr = kF0;
    device.set_read_ctr(sid, kXAddr, 512, ctr(epoch, 0));
    require(device.forward(sid, fc1) == DeviceStatus::kOk, "fc1");

    ForwardOp relu;
    relu.kind = ForwardOp::Kind::kRelu;
    relu.in_c = kHidden; relu.in_h = 1; relu.in_w = 1;
    relu.input_addr = kF0; relu.output_addr = kF1;
    device.set_read_ctr(sid, kF0, 512, ctr(epoch, 0));
    require(device.forward(sid, relu) == DeviceStatus::kOk, "relu");

    ForwardOp fc2;
    fc2.kind = ForwardOp::Kind::kFc;
    fc2.in_c = kHidden; fc2.in_h = 1; fc2.in_w = 1;
    fc2.out_c = kOut; fc2.requant_shift = kShift;
    fc2.input_addr = kF1; fc2.weight_addr = kWBase + 512; fc2.output_addr = kF2;
    device.set_read_ctr(sid, kF1, 512, ctr(epoch, 1));
    require(device.forward(sid, fc2) == DeviceStatus::kOk, "fc2");

    // User computes the loss gradient from exported logits.
    device.set_read_ctr(sid, kF2, 512, ctr(epoch, 2));
    crypto::SealedRecord sealed;
    require(device.export_output(sid, kF2, kOut, sealed) == DeviceStatus::kOk,
            "export logits");
    const auto y = user.open_output(sealed);
    require(y.has_value(), "decrypt logits");
    std::vector<i8> dy(kOut);
    int loss = 0;
    for (int o = 0; o < kOut; ++o) {
      const int err = static_cast<i8>((*y)[static_cast<std::size_t>(o)]) -
                      target[static_cast<std::size_t>(o)];
      loss += std::abs(err);
      dy[static_cast<std::size_t>(o)] =
          static_cast<i8>(std::clamp(err, -127, 127));
    }
    if (step == 0) first_loss = loss;
    last_loss = loss;
    std::printf("step %d: |y - target| = %d\n", step, loss);

    // Import dy and run the backward pass.
    const Bytes dy_bytes(reinterpret_cast<const u8*>(dy.data()),
                         reinterpret_cast<const u8*>(dy.data()) + dy.size());
    require(
        device.set_input(sid, user.seal(dy_bytes), kDy) == DeviceStatus::kOk,
        "import dy");
    ++epoch;

    ForwardOp fc2_dx;
    fc2_dx.kind = ForwardOp::Kind::kFcDx;
    fc2_dx.in_c = kOut; fc2_dx.in_h = 1; fc2_dx.in_w = 1;
    fc2_dx.aux_c = kHidden; fc2_dx.aux_h = 1; fc2_dx.aux_w = 1;
    fc2_dx.requant_shift = kGradShift;
    fc2_dx.input_addr = kDy; fc2_dx.weight_addr = kWBase + 512;
    fc2_dx.output_addr = kDa1;
    device.set_read_ctr(sid, kDy, 512, ctr(epoch, 0));
    require(device.forward(sid, fc2_dx) == DeviceStatus::kOk, "fc2 dX");

    ForwardOp relu_dx;
    relu_dx.kind = ForwardOp::Kind::kReluDx;
    relu_dx.in_c = kHidden; relu_dx.in_h = 1; relu_dx.in_w = 1;
    relu_dx.aux_c = kHidden; relu_dx.aux_h = 1; relu_dx.aux_w = 1;
    relu_dx.input_addr = kDa1; relu_dx.input2_addr = kF0;
    relu_dx.output_addr = kDh1;
    device.set_read_ctr(sid, kDa1, 512, ctr(epoch, 0));
    device.set_read_ctr(sid, kF0, 512, ctr(epoch - 1, 0));
    require(device.forward(sid, relu_dx) == DeviceStatus::kOk, "relu dX");

    ForwardOp fc2_dw;
    fc2_dw.kind = ForwardOp::Kind::kFcDw;
    fc2_dw.in_c = kOut; fc2_dw.in_h = 1; fc2_dw.in_w = 1;
    fc2_dw.aux_c = kHidden; fc2_dw.aux_h = 1; fc2_dw.aux_w = 1;
    fc2_dw.requant_shift = kGradShift;
    fc2_dw.input_addr = kDy; fc2_dw.input2_addr = kF1;
    fc2_dw.output_addr = kGradBlob + 512;
    device.set_read_ctr(sid, kDy, 512, ctr(epoch, 0));
    device.set_read_ctr(sid, kF1, 512, ctr(epoch - 1, 1));
    require(device.forward(sid, fc2_dw) == DeviceStatus::kOk, "fc2 dW");

    ForwardOp fc1_dw;
    fc1_dw.kind = ForwardOp::Kind::kFcDw;
    fc1_dw.in_c = kHidden; fc1_dw.in_h = 1; fc1_dw.in_w = 1;
    fc1_dw.aux_c = kIn; fc1_dw.aux_h = 1; fc1_dw.aux_w = 1;
    fc1_dw.requant_shift = kGradShift;
    fc1_dw.input_addr = kDh1; fc1_dw.input2_addr = kXAddr;
    fc1_dw.output_addr = kGradBlob;
    device.set_read_ctr(sid, kDh1, 512, ctr(epoch, 1));
    device.set_read_ctr(sid, kXAddr, 512, ctr(epoch - 1, 0));
    require(device.forward(sid, fc1_dw) == DeviceStatus::kOk, "fc1 dW");

    // On-device SGD over the whole blob; CTR_W advances.
    ForwardOp update;
    update.kind = ForwardOp::Kind::kSgdUpdate;
    update.in_c = 1024; update.in_h = 1; update.in_w = 1;
    update.requant_shift = kLrShift;
    update.input_addr = kGradBlob; update.weight_addr = kWBase;
    device.set_read_ctr(sid, kGradBlob, 512, ctr(epoch, 3));
    device.set_read_ctr(sid, kGradBlob + 512, 512, ctr(epoch, 2));
    require(device.forward(sid, update) == DeviceStatus::kOk, "SGD update");
  }

  // Retrieve the fine-tuned model.
  device.set_read_ctr(sid, kWBase, 1024, device.vn_generator(sid).ctr_w());
  crypto::SealedRecord sealed;
  require(device.export_output(sid, kWBase, 1024, sealed) == DeviceStatus::kOk,
          "export model");
  const auto fine_tuned = user.open_output(sealed);
  require(fine_tuned.has_value(), "decrypt model");

  std::printf("\nCTR_W after training: %llu (1 import + 8 updates)\n",
              static_cast<unsigned long long>(
                  device.vn_generator(sid).ctr_w()));
  std::printf("loss: %d -> %d (%s)\n", first_loss, last_loss,
              last_loss < first_loss ? "improved" : "no improvement");
  std::printf("fine-tuned model differs from initial: %s\n",
              *fine_tuned != blob ? "yes" : "NO");
  const bool ok = last_loss < first_loss && *fine_tuned != blob;
  std::printf("\nprivate training demo: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
