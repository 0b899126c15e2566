// Secure model update + preprocessing-as-matmul.
//
// Two GuardNN features beyond plain inference:
//
//  1. Weight updates (paper Section II-D.2): SetWeight increments CTR_W, so
//     a rolled-back DRAM snapshot of the *old* model fails integrity
//     verification — model-downgrade attacks are detected in hardware.
//
//  2. Input preprocessing as matrix multiplication (paper Section II-E):
//     "GuardNN can also handle most standard image data preprocessing, such
//     as scaling, cropping, clipping and reflection, by performing the data
//     preprocessing steps as matrix multiplication." Here a 2x downscale is
//     compiled into an Fc layer that runs on the accelerator itself, so even
//     preprocessing sees only encrypted data.
//
// Build & run:  ./build/examples/secure_model_update
#include <cstdio>

#include "common/rng.h"
#include "host/scheduler.h"
#include "host/user_client.h"

using namespace guardnn;

namespace {

Bytes random_bytes(Xoshiro256& rng, std::size_t n) {
  Bytes out(n);
  for (auto& b : out)
    b = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128));
  return out;
}

/// Builds the Fc weight matrix for 2x2 average-pool downscaling of a CxHxW
/// tensor: out[(c,y,x)] = sum of the four source pixels, then requant >> 2.
Bytes downscale_matrix(int c, int h, int w) {
  const int oh = h / 2, ow = w / 2;
  const std::size_t in_features = static_cast<std::size_t>(c) * h * w;
  const std::size_t out_features = static_cast<std::size_t>(c) * oh * ow;
  Bytes matrix(out_features * in_features, 0);
  for (int ch = 0; ch < c; ++ch) {
    for (int oy = 0; oy < oh; ++oy) {
      for (int ox = 0; ox < ow; ++ox) {
        const std::size_t row =
            (static_cast<std::size_t>(ch) * oh + oy) * ow + ox;
        for (int dy = 0; dy < 2; ++dy) {
          for (int dx = 0; dx < 2; ++dx) {
            const std::size_t col =
                (static_cast<std::size_t>(ch) * h + 2 * oy + dy) * w + 2 * ox + dx;
            matrix[row * in_features + col] = 1;
          }
        }
      }
    }
  }
  return matrix;
}

}  // namespace

int main() {
  Xoshiro256 rng(99);
  accel::UntrustedMemory dram;
  crypto::HmacDrbg ca_entropy(Bytes{0x31});
  crypto::ManufacturerCa manufacturer(ca_entropy);
  accel::GuardNnDevice device("guardnn-update-demo", manufacturer, dram,
                              Bytes{0x32});
  host::RemoteUser user(manufacturer.public_key(), Bytes{0x33});

  if (!user.attest_device(device.get_pk())) return 1;
  if (!user.complete_session(device.init_session(user.begin_session(), true)))
    return 1;
  const accel::SessionId sid = user.session_id();
  host::HostScheduler scheduler(device, sid);

  // Network: on-device 2x downscale preprocessing (as matmul), then a conv
  // classifier over the 8x8 result.
  host::FuncNetwork net;
  net.in_c = 1;
  net.in_h = 16;
  net.in_w = 16;
  host::FuncLayer preprocess;
  preprocess.kind = accel::ForwardOp::Kind::kFc;
  preprocess.out_c = 8 * 8;  // 1x8x8 flattened
  preprocess.requant_shift = 2;  // divide by 4 = averaging
  preprocess.weights = downscale_matrix(1, 16, 16);
  net.layers.push_back(preprocess);
  // Fc output is 64x1x1; treat as 64-feature vector into a classifier.
  net.layers.push_back({accel::ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back({accel::ForwardOp::Kind::kFc, 10, 0, 1, 0, 6,
                        random_bytes(rng, 10 * 64)});

  host::ExecutionPlan plan = host::HostScheduler::compile(net);
  functional::Tensor image(1, 16, 16);
  for (auto& v : image.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
  const Bytes image_bytes(image.bytes().begin(), image.bytes().end());

  if (device.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base) !=
      accel::DeviceStatus::kOk)
    return 1;
  if (device.set_input(sid, user.seal(image_bytes), plan.input_addr) !=
      accel::DeviceStatus::kOk)
    return 1;
  scheduler.note_input();
  if (scheduler.execute(plan) != accel::DeviceStatus::kOk) return 1;
  crypto::SealedRecord sealed;
  if (device.export_output(sid, plan.output_addr, plan.output_bytes, sealed) !=
      accel::DeviceStatus::kOk)
    return 1;
  const auto v1 = user.open_output(sealed);
  if (!v1) return 1;
  const bool v1_ok = *v1 == host::reference_run(net, image);
  std::printf("[v1] on-device preprocessing + inference correct: %s\n",
              v1_ok ? "yes" : "NO");

  // --- Model update: fine-tuned classifier weights ------------------------
  const Bytes old_cipher = dram.read(plan.weight_base, plan.weight_blob.size());
  const u64 mac_base = accel::MemoryProtectionUnit::kMacRegionBase +
                       plan.weight_base / 512 * 8;
  const Bytes old_macs = dram.read(mac_base, plan.weight_blob.size() / 512 * 8 + 8);

  host::FuncNetwork net_v2 = net;
  net_v2.layers[2].weights = random_bytes(rng, 10 * 64);
  const host::ExecutionPlan plan_v2 = host::HostScheduler::compile(net_v2);
  if (device.set_weight(sid, user.seal(plan_v2.weight_blob),
                        plan_v2.weight_base) != accel::DeviceStatus::kOk)
    return 1;
  std::printf("[v2] model updated (CTR_W is now %llu)\n",
              static_cast<unsigned long long>(
                  device.vn_generator(sid).ctr_w()));

  if (device.set_input(sid, user.seal(image_bytes), plan_v2.input_addr) !=
      accel::DeviceStatus::kOk)
    return 1;
  scheduler.note_input();
  if (scheduler.execute(plan_v2) != accel::DeviceStatus::kOk) return 1;
  if (device.export_output(sid, plan_v2.output_addr, plan_v2.output_bytes,
                           sealed) != accel::DeviceStatus::kOk)
    return 1;
  const auto v2 = user.open_output(sealed);
  if (!v2) return 1;
  const bool v2_ok = *v2 == host::reference_run(net_v2, image);
  std::printf("[v2] updated model runs correctly: %s (output %s v1)\n",
              v2_ok ? "yes" : "NO", *v2 == *v1 ? "==" : "!=");

  // --- Rollback attack: restore the old model's ciphertext + MACs ---------
  dram.write(plan.weight_base, old_cipher);
  dram.write(mac_base, old_macs);
  if (device.set_input(sid, user.seal(image_bytes), plan_v2.input_addr) !=
      accel::DeviceStatus::kOk)
    return 1;
  scheduler.note_input();
  const accel::DeviceStatus rollback = scheduler.execute(plan_v2);
  const bool rollback_detected =
      rollback == accel::DeviceStatus::kIntegrityFailure;
  std::printf("[adversary] model rollback to v1 snapshot: %s\n",
              rollback_detected ? "DETECTED (MAC bound to CTR_W)"
                                : "undetected (broken!)");

  const bool ok = v1_ok && v2_ok && rollback_detected;
  std::printf("\nsecure model update demo: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
