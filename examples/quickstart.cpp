// Quickstart: the shortest path through the GuardNN API.
//
//   1. "Fabricate" a GuardNN device (identity key + manufacturer certificate).
//   2. Remote user authenticates the device and opens an encrypted session.
//   3. User ships an encrypted 2-layer MLP and an encrypted input.
//   4. The untrusted host schedules execution; the device computes on
//      protected memory.
//   5. User decrypts the output and checks it against a local plaintext run.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "common/rng.h"
#include "host/scheduler.h"
#include "host/user_client.h"

using namespace guardnn;

int main() {
  // --- Manufacturing time -------------------------------------------------
  accel::UntrustedMemory dram;
  crypto::HmacDrbg ca_entropy(Bytes{0x01});
  crypto::ManufacturerCa manufacturer(ca_entropy);
  accel::GuardNnDevice device("guardnn-quickstart", manufacturer, dram,
                              Bytes{0x02});

  // --- Remote user: authenticate + key exchange ---------------------------
  host::RemoteUser user(manufacturer.public_key(), Bytes{0x03});
  if (!user.attest_device(device.get_pk())) {
    std::puts("device certificate rejected");
    return 1;
  }
  const crypto::AffinePoint user_share = user.begin_session();
  if (!user.complete_session(device.init_session(user_share, /*integrity=*/true))) {
    std::puts("key exchange failed");
    return 1;
  }
  std::puts("session established (ECDHE-ECDSA, integrity protection on)");

  // --- The user's model: 16 -> 8 -> 4 MLP with ReLU -----------------------
  host::FuncNetwork net;
  net.in_c = 1;
  net.in_h = 4;
  net.in_w = 4;
  Xoshiro256 rng(7);
  auto random_weights = [&](std::size_t n) {
    Bytes w(n);
    for (auto& b : w)
      b = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128));
    return w;
  };
  net.layers.push_back(
      {accel::ForwardOp::Kind::kFc, 8, 0, 1, 0, 6, random_weights(8 * 16)});
  net.layers.push_back({accel::ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back(
      {accel::ForwardOp::Kind::kFc, 4, 0, 1, 0, 6, random_weights(4 * 8)});

  functional::Tensor input(1, 4, 4);
  for (auto& v : input.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);

  // --- Compile, import, execute, export -----------------------------------
  const host::ExecutionPlan plan = host::HostScheduler::compile(net);
  const accel::SessionId sid = user.session_id();
  host::HostScheduler scheduler(device, sid);

  if (device.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base) !=
      accel::DeviceStatus::kOk)
    return 1;
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  if (device.set_input(sid, user.seal(input_bytes), plan.input_addr) !=
      accel::DeviceStatus::kOk)
    return 1;
  scheduler.note_input();
  if (scheduler.execute(plan) != accel::DeviceStatus::kOk) return 1;

  crypto::SealedRecord sealed;
  if (device.export_output(sid, plan.output_addr, plan.output_bytes, sealed) !=
      accel::DeviceStatus::kOk)
    return 1;
  const auto output = user.open_output(sealed);
  if (!output) return 1;

  // --- Check against the plaintext reference ------------------------------
  const Bytes expected = host::reference_run(net, input);
  std::printf("encrypted output : ");
  for (u8 b : *output) std::printf("%4d", static_cast<i8>(b));
  std::printf("\nplaintext ref    : ");
  for (u8 b : expected) std::printf("%4d", static_cast<i8>(b));
  std::printf("\nmatch: %s\n", *output == expected ? "yes" : "NO");
  std::printf("modeled on-device latency: %.1f ms (MicroBlaze model)\n",
              device.elapsed_ms());
  return *output == expected ? 0 : 1;
}
