// Private inference with full remote attestation — the paper's headline use
// case (Section II): a hospital-style user runs a convolutional classifier
// on a cloud accelerator it does not trust, then *proves* the right model
// ran on the right input.
//
// The example also plays the adversary: it scans DRAM for plaintext, flips a
// ciphertext bit to show integrity detection, and shows that a malicious
// schedule is caught by attestation.
//
// Build & run:  ./build/examples/private_inference
#include <algorithm>
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

/// LeNet-style: conv(6@5x5) -> relu -> pool -> conv(16@5x5) -> relu -> pool -> fc(10)
host::FuncNetwork lenet_like(Xoshiro256& rng) {
  host::FuncNetwork net;
  net.in_c = 1;
  net.in_h = 28;
  net.in_w = 28;
  net.layers.push_back({accel::ForwardOp::Kind::kConv, 6, 5, 1, 2, 6,
                        random_bytes(rng, 6 * 1 * 5 * 5)});
  net.layers.push_back({accel::ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back({accel::ForwardOp::Kind::kMaxPool, 0, 2, 2, 0, 0, {}});
  net.layers.push_back({accel::ForwardOp::Kind::kConv, 16, 5, 1, 0, 7,
                        random_bytes(rng, 16 * 6 * 5 * 5)});
  net.layers.push_back({accel::ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back({accel::ForwardOp::Kind::kMaxPool, 0, 2, 2, 0, 0, {}});
  net.layers.push_back({accel::ForwardOp::Kind::kFc, 10, 0, 1, 0, 8,
                        random_bytes(rng, 10 * 16 * 5 * 5)});
  return net;
}

}  // namespace

int main() {
  Xoshiro256 rng(2024);

  accel::UntrustedMemory dram;
  crypto::HmacDrbg ca_entropy(Bytes{0x11});
  crypto::ManufacturerCa manufacturer(ca_entropy);
  accel::GuardNnDevice device("guardnn-cloud-17", manufacturer, dram, Bytes{0x12});
  host::RemoteUser user(manufacturer.public_key(), Bytes{0x13});

  // 1. Attestation + session.
  if (!user.attest_device(device.get_pk())) return 1;
  if (!user.complete_session(
          device.init_session(user.begin_session(), /*integrity=*/true)))
    return 1;
  const accel::SessionId sid = user.session_id();
  host::HostScheduler scheduler(device, sid);
  std::puts("[user] device certificate verified; session keys derived");

  // 2. Ship the private model and a private "patient scan".
  const host::FuncNetwork net = lenet_like(rng);
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);
  functional::Tensor scan(1, 28, 28);
  for (auto& v : scan.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
  const Bytes scan_bytes(scan.bytes().begin(), scan.bytes().end());

  if (device.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base) !=
      accel::DeviceStatus::kOk)
    return 1;
  if (device.set_input(sid, user.seal(scan_bytes), plan.input_addr) !=
      accel::DeviceStatus::kOk)
    return 1;
  scheduler.note_input();
  std::printf("[user] imported %zu weight bytes + %zu input bytes (encrypted)\n",
              plan.weight_blob.size(), scan_bytes.size());

  // 3. Adversary scans DRAM for the plaintext model/input.
  const Bytes weight_window(plan.weight_blob.begin(), plan.weight_blob.begin() + 48);
  const Bytes region = dram.read(plan.weight_base, 1 << 20);
  const bool leaked =
      std::search(region.begin(), region.end(), weight_window.begin(),
                  weight_window.end()) != region.end();
  std::printf("[adversary] plaintext weights visible in DRAM: %s\n",
              leaked ? "YES (BROKEN!)" : "no (ciphertext only)");

  // 4. Execute and export.
  if (scheduler.execute(plan) != accel::DeviceStatus::kOk) return 1;
  crypto::SealedRecord sealed;
  if (device.export_output(sid, plan.output_addr, plan.output_bytes, sealed) !=
      accel::DeviceStatus::kOk)
    return 1;
  const auto logits = user.open_output(sealed);
  if (!logits) return 1;

  const Bytes expected = host::reference_run(net, scan);
  std::printf("[user] class scores match local reference: %s\n",
              *logits == expected ? "yes" : "NO");

  // 5. Remote attestation: SignOutput over input/weights/output/instructions.
  user.expect_weights(plan.weight_blob);
  user.expect_input(scan_bytes);
  user.expect_output(*logits);
  host::mirror_attestation(user, plan);
  accel::SignOutputResponse report;
  if (device.sign_output(sid, report) != accel::DeviceStatus::kOk) return 1;
  std::printf("[user] attestation report verifies: %s\n",
              user.verify_attestation(report) ? "yes" : "NO");

  // 6. Adversary now flips one bit of ciphertext; the next session's read
  // fails integrity verification and the device refuses to continue. The
  // fresh session lives in its own session-table slot — and therefore its
  // own DRAM partition, which is where the adversary strikes.
  const accel::InitSessionResponse second =
      device.init_session(user.begin_session(), true);
  if (!user.complete_session(second)) return 1;
  host::HostScheduler fresh_scheduler(device, second.session_id);
  if (device.set_weight(second.session_id, user.seal(plan.weight_blob),
                        plan.weight_base) != accel::DeviceStatus::kOk)
    return 1;
  if (device.set_input(second.session_id, user.seal(scan_bytes),
                       plan.input_addr) != accel::DeviceStatus::kOk)
    return 1;
  fresh_scheduler.note_input();
  dram.tamper(accel::GuardNnDevice::partition_base(second.session_id) +
                  plan.weight_addrs[0] + 3,
              0x04);
  const accel::DeviceStatus tampered = fresh_scheduler.execute(plan);
  std::printf("[device] execution after DRAM tampering: %s\n",
              tampered == accel::DeviceStatus::kIntegrityFailure
                  ? "integrity failure detected, session aborted"
                  : "UNDETECTED (broken!)");

  const bool ok = !leaked && *logits == expected &&
                  tampered == accel::DeviceStatus::kIntegrityFailure;
  std::printf("\nprivate inference demo: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
