// Side-channel audit — empirically checks the paper's claim (Table I) that
// GuardNN's memory access pattern and timing are independent of secret
// values. Runs the same network structure with different secret weights and
// inputs and compares (a) the exact MPU address trace, (b) the modeled
// latency, and — as a contrast — shows that *changing the structure* (which
// is public) does change the trace.
//
// Build & run:  ./build/examples/side_channel_audit
#include <cstdio>

#include "crypto/sha256.h"
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

host::FuncNetwork cnn(Xoshiro256& rng, int conv_channels = 8) {
  host::FuncNetwork net;
  net.in_c = 3;
  net.in_h = 16;
  net.in_w = 16;
  net.layers.push_back({accel::ForwardOp::Kind::kConv, conv_channels, 3, 1, 1, 5,
                        random_bytes(rng, static_cast<std::size_t>(conv_channels) * 3 * 9)});
  net.layers.push_back({accel::ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back({accel::ForwardOp::Kind::kMaxPool, 0, 2, 2, 0, 0, {}});
  net.layers.push_back(
      {accel::ForwardOp::Kind::kFc, 10, 0, 1, 0, 7,
       random_bytes(rng, static_cast<std::size_t>(10) * conv_channels * 8 * 8)});
  return net;
}

struct AuditResult {
  crypto::Sha256Digest trace_hash{};
  std::size_t trace_len = 0;
  double latency_ms = 0.0;
};

AuditResult run_once(const host::FuncNetwork& net, u64 input_seed) {
  accel::UntrustedMemory dram;
  crypto::HmacDrbg ca_entropy(Bytes{0x21});
  crypto::ManufacturerCa manufacturer(ca_entropy);
  accel::GuardNnDevice device("audit-dev", manufacturer, dram, Bytes{0x22});
  host::RemoteUser user(manufacturer.public_key(), Bytes{0x23});

  if (!user.attest_device(device.get_pk())) std::abort();
  if (!user.complete_session(device.init_session(user.begin_session(), true)))
    std::abort();
  const accel::SessionId sid = user.session_id();
  host::HostScheduler scheduler(device, sid);

  const host::ExecutionPlan plan = host::HostScheduler::compile(net);
  functional::Tensor input(net.in_c, net.in_h, net.in_w);
  Xoshiro256 rng(input_seed);
  for (auto& v : input.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());

  if (device.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base) !=
      accel::DeviceStatus::kOk)
    std::abort();
  if (device.set_input(sid, user.seal(input_bytes), plan.input_addr) !=
      accel::DeviceStatus::kOk)
    std::abort();
  scheduler.note_input();
  if (scheduler.execute(plan) != accel::DeviceStatus::kOk) std::abort();
  crypto::SealedRecord sealed;
  if (device.export_output(sid, plan.output_addr, plan.output_bytes, sealed) !=
      accel::DeviceStatus::kOk)
    std::abort();

  // Hash the (address, read/write) trace the adversary could observe.
  crypto::Sha256 hasher;
  for (const auto& [addr, is_write] : device.access_trace(sid)) {
    u8 rec[9];
    store_be64(rec, addr);
    rec[8] = is_write ? 1 : 0;
    hasher.update(BytesView(rec, 9));
  }
  AuditResult result;
  result.trace_hash = hasher.finalize();
  result.trace_len = device.access_trace(sid).size();
  result.latency_ms = device.elapsed_ms();
  return result;
}

std::string hex8(const crypto::Sha256Digest& digest) {
  return to_hex(BytesView(digest.data(), 8));
}

}  // namespace

int main() {
  Xoshiro256 wrng_a(1), wrng_b(2), wrng_c(3);
  const host::FuncNetwork secret_a = cnn(wrng_a);   // weights A
  const host::FuncNetwork secret_b = cnn(wrng_b);   // weights B (same shape)
  const host::FuncNetwork wider = cnn(wrng_c, 16);  // different *structure*

  const AuditResult a = run_once(secret_a, /*input_seed=*/100);
  const AuditResult b = run_once(secret_b, /*input_seed=*/200);
  const AuditResult c = run_once(wider, /*input_seed=*/100);

  std::printf("run A (weights A, input A): trace %zu accesses, hash %s..., "
              "latency %.3f ms\n",
              a.trace_len, hex8(a.trace_hash).c_str(), a.latency_ms);
  std::printf("run B (weights B, input B): trace %zu accesses, hash %s..., "
              "latency %.3f ms\n",
              b.trace_len, hex8(b.trace_hash).c_str(), b.latency_ms);
  std::printf("run C (wider network)     : trace %zu accesses, hash %s...\n",
              c.trace_len, hex8(c.trace_hash).c_str());

  const bool secrets_hidden =
      a.trace_hash == b.trace_hash && a.latency_ms == b.latency_ms;
  const bool structure_visible = a.trace_hash != c.trace_hash;
  std::printf("\nsecret values leak into the trace/timing : %s\n",
              secrets_hidden ? "no (traces identical)" : "YES (BROKEN)");
  std::printf("public structure visible (expected)      : %s\n",
              structure_visible ? "yes" : "no");
  return secrets_hidden && structure_visible ? 0 : 1;
}
