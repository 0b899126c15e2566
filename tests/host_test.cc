// End-to-end protocol tests: remote user <-> untrusted host <-> GuardNN
// device, including functional correctness of encrypted inference, remote
// attestation, malicious-host behaviour and side-channel invariants.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "host/scheduler.h"
#include "host/user_client.h"
#include "p256_oracle.h"

namespace guardnn::host {
namespace {

using accel::DeviceStatus;
using accel::ForwardOp;

Bytes random_weights(std::size_t n, u64 seed, int bits = 8) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  const u64 span = 1ULL << bits;
  for (auto& b : out)
    b = static_cast<u8>(static_cast<i8>(
        static_cast<int>(rng.next_below(span)) - static_cast<int>(span / 2)));
  return out;
}

/// A small conv -> relu -> maxpool -> fc network.
FuncNetwork small_cnn(u64 seed = 42) {
  FuncNetwork net;
  net.in_c = 3;
  net.in_h = 8;
  net.in_w = 8;
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 4, 3, 1, 1, 4,
                                 random_weights(4 * 3 * 3 * 3, seed)});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kMaxPool, 0, 2, 2, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kFc, 10, 0, 1, 0, 5,
                                 random_weights(10 * 4 * 4 * 4, seed + 1)});
  return net;
}

functional::Tensor random_input(const FuncNetwork& net, u64 seed) {
  functional::Tensor input(net.in_c, net.in_h, net.in_w, net.bits);
  Xoshiro256 rng(seed);
  const int span = 1 << net.bits;
  for (auto& v : input.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(static_cast<u64>(span))) -
                        span / 2);
  return input;
}

struct TestBench {
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg{Bytes{0xca}};
  crypto::ManufacturerCa ca{ca_drbg};
  accel::GuardNnDevice device{"guardnn-0001", ca, memory, Bytes{0x0d}};
  RemoteUser user{ca.public_key(), Bytes{0x05}};
  /// Bound to the session establish() opens.
  std::optional<HostScheduler> scheduler;

  /// Runs GetPK -> InitSession with certificate + signature verification.
  [[nodiscard]] bool establish(bool integrity) {
    if (!user.attest_device(device.get_pk())) return false;
    const crypto::AffinePoint share = user.begin_session();
    if (!user.complete_session(device.init_session(share, integrity)))
      return false;
    scheduler.emplace(device, user.session_id());
    return true;
  }

  /// Full encrypted inference; returns the decrypted output.
  std::optional<Bytes> run(const FuncNetwork& net, const functional::Tensor& input,
                           bool integrity, bool attest = true) {
    if (!establish(integrity)) return std::nullopt;
    const accel::SessionId sid = user.session_id();
    const ExecutionPlan plan = HostScheduler::compile(net);

    if (device.set_weight(sid, user.seal(plan.weight_blob), plan.weight_base) !=
        DeviceStatus::kOk)
      return std::nullopt;
    const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
    if (device.set_input(sid, user.seal(input_bytes), plan.input_addr) !=
        DeviceStatus::kOk)
      return std::nullopt;
    scheduler->note_input();
    if (scheduler->execute(plan) != DeviceStatus::kOk) return std::nullopt;

    crypto::SealedRecord sealed;
    if (device.export_output(sid, plan.output_addr, plan.output_bytes,
                             sealed) != DeviceStatus::kOk)
      return std::nullopt;
    auto output = user.open_output(sealed);
    if (!output) return std::nullopt;

    if (attest) {
      user.expect_weights(plan.weight_blob);
      user.expect_input(input_bytes);
      user.expect_output(*output);
      mirror_attestation(user, plan);
      accel::SignOutputResponse report;
      if (device.sign_output(sid, report) != DeviceStatus::kOk)
        return std::nullopt;
      if (!user.verify_attestation(report)) return std::nullopt;
    }
    return output;
  }
};

TEST(Shapes, InferShapesTracksGeometry) {
  const FuncNetwork net = small_cnn();
  const auto shapes = infer_shapes(net);
  ASSERT_EQ(shapes.size(), 5u);
  EXPECT_EQ(shapes[0], (std::array<int, 3>{3, 8, 8}));
  EXPECT_EQ(shapes[1], (std::array<int, 3>{4, 8, 8}));   // conv, pad 1
  EXPECT_EQ(shapes[2], (std::array<int, 3>{4, 8, 8}));   // relu
  EXPECT_EQ(shapes[3], (std::array<int, 3>{4, 4, 4}));   // maxpool
  EXPECT_EQ(shapes[4], (std::array<int, 3>{10, 1, 1}));  // fc
}

TEST(Compile, PlanAddressesAreChunkAligned) {
  const ExecutionPlan plan = HostScheduler::compile(small_cnn());
  for (u64 addr : plan.weight_addrs) EXPECT_EQ(addr % 512, 0u);
  EXPECT_EQ(plan.input_addr % 512, 0u);
  for (const auto& op : plan.ops) {
    EXPECT_EQ(op.input_addr % 512, 0u);
    EXPECT_EQ(op.output_addr % 512, 0u);
  }
}

class EndToEndTest : public ::testing::TestWithParam<bool> {};

TEST_P(EndToEndTest, EncryptedInferenceMatchesReference) {
  const bool integrity = GetParam();
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 7);

  TestBench bench;
  const auto output = bench.run(net, input, integrity);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, reference_run(net, input))
      << "encrypted execution must agree with plaintext reference";
}

INSTANTIATE_TEST_SUITE_P(Modes, EndToEndTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "GuardNN_CI" : "GuardNN_C";
                         });

TEST(EndToEnd, MultipleInputsSameSession) {
  const FuncNetwork net = small_cnn();
  TestBench bench;
  ASSERT_TRUE(bench.establish(true));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);

  for (u64 trial = 0; trial < 3; ++trial) {
    const functional::Tensor input = random_input(net, 100 + trial);
    const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
    ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                     plan.input_addr),
              DeviceStatus::kOk);
    bench.scheduler->note_input();
    ASSERT_EQ(bench.scheduler->execute(plan), DeviceStatus::kOk);
    crypto::SealedRecord sealed;
    ASSERT_EQ(bench.device.export_output(sid, plan.output_addr,
                                         plan.output_bytes, sealed),
              DeviceStatus::kOk);
    const auto output = bench.user.open_output(sealed);
    ASSERT_TRUE(output.has_value());
    EXPECT_EQ(*output, reference_run(net, input)) << "trial " << trial;
  }
}

TEST(EndToEnd, NoPlaintextAnywhereInUntrustedMemory) {
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 9);
  TestBench bench;
  const auto output = bench.run(net, input, false);
  ASSERT_TRUE(output.has_value());

  // Adversary scans the full feature/weight regions for any 32-byte window
  // of the plaintext weights, input, or output.
  const ExecutionPlan plan = HostScheduler::compile(net);
  auto contains = [&](u64 base, u64 len, BytesView needle) {
    const Bytes haystack = bench.memory.read(base, len);
    return std::search(haystack.begin(), haystack.end(), needle.begin(),
                       needle.end()) != haystack.end();
  };
  const BytesView weights(plan.weight_blob.data(), 32);
  const BytesView input_view(input.bytes().data(), 32);
  for (u64 base : {0x0ULL, 0x4000'0000ULL, 0x4800'0000ULL, 0x5000'0000ULL}) {
    EXPECT_FALSE(contains(base, 1 << 16, weights));
    EXPECT_FALSE(contains(base, 1 << 16, input_view));
  }
}


TEST(EndToEnd, SixBitPrecisionMatchesReference) {
  // The FPGA prototype's 6-bit datapath (Table II): values clamp to
  // [-32, 31] but the protocol and protection are identical.
  FuncNetwork net;
  net.in_c = 2;
  net.in_h = 6;
  net.in_w = 6;
  net.bits = 6;
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 3, 3, 1, 1, 3,
                                 random_weights(3 * 2 * 3 * 3, 61, 6)});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kFc, 5, 0, 1, 0, 4,
                                 random_weights(5 * 3 * 6 * 6, 62, 6)});
  const functional::Tensor input = random_input(net, 63);
  for (i8 v : input.data()) {
    EXPECT_GE(v, -32);
    EXPECT_LE(v, 31);
  }
  TestBench bench;
  const auto output = bench.run(net, input, /*integrity=*/true);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, reference_run(net, input));
  for (u8 b : *output) {
    EXPECT_GE(static_cast<i8>(b), -32);
    EXPECT_LE(static_cast<i8>(b), 31);
  }
}

TEST(MaliciousHost, StaleWeightReplayAfterUpdateDetected) {
  // Model update flow: the user re-imports new weights (CTR_W increments);
  // the adversary then restores the *old* ciphertext and old MACs. Because
  // the MAC binds the weight VN, the stale weights fail verification.
  const FuncNetwork net = small_cnn();
  TestBench bench;
  ASSERT_TRUE(bench.establish(true));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);

  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  // Snapshot the old weight ciphertext and its MAC slots.
  const u64 weight_span = plan.weight_blob.size();
  const Bytes old_cipher = bench.memory.read(plan.weight_base, weight_span);
  const u64 mac_base = accel::MemoryProtectionUnit::kMacRegionBase +
                       plan.weight_base / 512 * 8;
  const Bytes old_macs = bench.memory.read(mac_base, weight_span / 512 * 8 + 8);

  // User ships updated weights (e.g. a fine-tuned model).
  Bytes updated = plan.weight_blob;
  for (auto& b : updated) b = static_cast<u8>(b ^ 0x3c);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(updated),
                                    plan.weight_base),
            DeviceStatus::kOk);
  EXPECT_EQ(bench.device.vn_generator(sid).ctr_w(), 2u);

  // Adversary rolls DRAM back to the old (self-consistent) snapshot.
  bench.memory.write(plan.weight_base, old_cipher);
  bench.memory.write(mac_base, old_macs);

  const functional::Tensor input = random_input(net, 71);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();
  EXPECT_EQ(bench.scheduler->execute(plan), DeviceStatus::kIntegrityFailure)
      << "stale-weight replay must fail: MAC was computed under CTR_W=1";
}

TEST(EndToEnd, WeightUpdateChangesOutput) {
  // Same input, updated weights -> different (still correct) output; the
  // device executes against the latest import.
  FuncNetwork net = small_cnn(81);
  const functional::Tensor input = random_input(net, 82);
  TestBench bench;
  ASSERT_TRUE(bench.establish(false));
  const accel::SessionId sid = bench.user.session_id();
  ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();
  ASSERT_EQ(bench.scheduler->execute(plan), DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(bench.device.export_output(sid, plan.output_addr,
                                       plan.output_bytes, sealed),
            DeviceStatus::kOk);
  const auto out_v1 = bench.user.open_output(sealed);
  ASSERT_TRUE(out_v1.has_value());
  EXPECT_EQ(*out_v1, reference_run(net, input));

  // Update the model (new conv weights), re-run the same input.
  FuncNetwork net_v2 = small_cnn(99);
  const ExecutionPlan plan_v2 = HostScheduler::compile(net_v2);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan_v2.weight_blob),
                                    plan_v2.weight_base),
            DeviceStatus::kOk);
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan_v2.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();
  ASSERT_EQ(bench.scheduler->execute(plan_v2), DeviceStatus::kOk);
  ASSERT_EQ(bench.device.export_output(sid, plan_v2.output_addr,
                                       plan_v2.output_bytes, sealed),
            DeviceStatus::kOk);
  const auto out_v2 = bench.user.open_output(sealed);
  ASSERT_TRUE(out_v2.has_value());
  EXPECT_EQ(*out_v2, reference_run(net_v2, input));
  EXPECT_NE(*out_v1, *out_v2);
}


TEST(EndToEnd, ResidualNetworkMatchesReference) {
  // conv -> relu -> conv -> add(skip from relu output) -> fc: the residual
  // second operand exercises kAdd with a host-supplied second read counter.
  FuncNetwork net;
  net.in_c = 2;
  net.in_h = 8;
  net.in_w = 8;
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 4, 3, 1, 1, 5,
                                 random_weights(4 * 2 * 3 * 3, 201)});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 4, 3, 1, 1, 5,
                                 random_weights(4 * 4 * 3 * 3, 202)});
  FuncLayer add;
  add.kind = ForwardOp::Kind::kAdd;
  add.input2_layer = 1;  // the relu output
  net.layers.push_back(add);
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kFc, 6, 0, 1, 0, 7,
                                 random_weights(6 * 4 * 8 * 8, 203)});

  const functional::Tensor input = random_input(net, 204);
  TestBench bench;
  const auto output = bench.run(net, input, /*integrity=*/true);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, reference_run(net, input));
}

TEST(EndToEnd, DepthwiseSeparableMatchesReference) {
  // MobileNet-style depthwise + pointwise pair through the device.
  FuncNetwork net;
  net.in_c = 4;
  net.in_h = 8;
  net.in_w = 8;
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kDepthwiseConv, 0, 3, 1, 1, 4,
                                 random_weights(4 * 3 * 3, 211)});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 8, 1, 1, 0, 5,
                                 random_weights(8 * 4 * 1 * 1, 212)});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kGlobalAvgPool, 0, 0, 1, 0, 0, {}});

  const functional::Tensor input = random_input(net, 213);
  TestBench bench;
  const auto output = bench.run(net, input, /*integrity=*/true);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, reference_run(net, input));
}

TEST(Compile, RejectsForwardReferenceInAdd) {
  FuncNetwork net;
  net.in_c = 1;
  net.in_h = 4;
  net.in_w = 4;
  FuncLayer add;
  add.kind = ForwardOp::Kind::kAdd;
  add.input2_layer = 3;  // refers to a later layer
  net.layers.push_back(add);
  EXPECT_THROW(HostScheduler::compile(net), std::invalid_argument);
}

TEST(EndToEnd, AddWithOriginalInputAsSkip) {
  // Residual from the *imported input* (input2_layer = -1).
  FuncNetwork net;
  net.in_c = 2;
  net.in_h = 4;
  net.in_w = 4;
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 2, 3, 1, 1, 6,
                                 random_weights(2 * 2 * 3 * 3, 221)});
  FuncLayer add;
  add.kind = ForwardOp::Kind::kAdd;
  add.input2_layer = -1;
  net.layers.push_back(add);

  const functional::Tensor input = random_input(net, 222);
  TestBench bench;
  const auto output = bench.run(net, input, /*integrity=*/false);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, reference_run(net, input));
}

TEST(MaliciousHost, WrongReadCtrNeverLeaksOnlyGarbles) {
  // The host lies about CTR_F,R: decryption garbles, confidentiality holds.
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 11);
  TestBench bench;
  ASSERT_TRUE(bench.establish(false));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();

  // Malicious schedule: wrong read counters everywhere.
  for (std::size_t i = 0; i < plan.ops.size(); ++i) {
    const auto& op = plan.ops[i];
    ASSERT_EQ(bench.device.set_read_ctr(sid, op.input_addr, 1 << 16, 0xbad),
              DeviceStatus::kOk);
    ASSERT_EQ(bench.device.forward(sid, op), DeviceStatus::kOk);
  }
  ASSERT_EQ(bench.device.set_read_ctr(sid, plan.output_addr, 1 << 16, 0xbad),
            DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(bench.device.export_output(sid, plan.output_addr,
                                       plan.output_bytes, sealed),
            DeviceStatus::kOk);
  const auto output = bench.user.open_output(sealed);
  ASSERT_TRUE(output.has_value());
  EXPECT_NE(*output, reference_run(net, input)) << "garbled, as expected";
  // The key property: nothing in untrusted memory ever equals the plaintext.
  const Bytes region = bench.memory.read(plan.input_addr, 1 << 12);
  EXPECT_EQ(std::search(region.begin(), region.end(), input_bytes.begin(),
                        input_bytes.begin() + 32),
            region.end());
}

TEST(MaliciousHost, ReorderedInstructionsCaughtByAttestation) {
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 13);
  TestBench bench;
  // Confidentiality-only: the reordered schedule still *executes* (with
  // integrity on, reading the never-written ping-pong buffer would already
  // kill the session); attestation is what catches the reorder.
  ASSERT_TRUE(bench.establish(false));
  const accel::SessionId sid = bench.user.session_id();
  ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();

  // Malicious host swaps relu and maxpool (a plausible-looking change).
  ExecutionPlan tampered = plan;
  std::swap(tampered.ops[1], tampered.ops[2]);
  // The swapped ops still execute (GuardNN allows any sequence)...
  (void)bench.scheduler->execute(tampered);
  crypto::SealedRecord sealed;
  (void)bench.device.export_output(sid, tampered.output_addr,
                                   tampered.output_bytes, sealed);
  const auto output = bench.user.open_output(sealed);
  ASSERT_TRUE(output.has_value());

  // ...but the attestation report cannot match the user's intended schedule.
  bench.user.expect_weights(plan.weight_blob);
  bench.user.expect_input(input_bytes);
  bench.user.expect_output(*output);
  mirror_attestation(bench.user, plan);  // the *intended* plan
  accel::SignOutputResponse report;
  ASSERT_EQ(bench.device.sign_output(sid, report), DeviceStatus::kOk);
  EXPECT_FALSE(bench.user.verify_attestation(report));
}

TEST(MaliciousHost, TamperedDramDetectedWithIntegrity) {
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 17);
  TestBench bench;
  ASSERT_TRUE(bench.establish(true));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();

  // Flip one ciphertext bit in the weight region.
  bench.memory.tamper(plan.weight_addrs[0] + 17, 0x80);
  const DeviceStatus status = bench.scheduler->execute(plan);
  EXPECT_EQ(status, DeviceStatus::kIntegrityFailure);
  // The session is dead: even untampered exports now fail.
  crypto::SealedRecord sealed;
  EXPECT_EQ(bench.device.export_output(sid, plan.output_addr,
                                       plan.output_bytes, sealed),
            DeviceStatus::kIntegrityFailure);
}

TEST(MaliciousHost, TamperedDramUndetectedWithoutIntegrityButStillGarbled) {
  // GuardNN_C (confidentiality only): tampering is not *detected*, but the
  // result is garbage and plaintext never appears — the paper's argument for
  // why confidentiality-only is still safe for privacy.
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 19);
  TestBench bench;
  ASSERT_TRUE(bench.establish(false));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();
  bench.memory.tamper(plan.weight_addrs[0] + 5, 0x40);
  ASSERT_EQ(bench.scheduler->execute(plan), DeviceStatus::kOk);  // undetected
  crypto::SealedRecord sealed;
  ASSERT_EQ(bench.device.export_output(sid, plan.output_addr,
                                       plan.output_bytes, sealed),
            DeviceStatus::kOk);
  const auto output = bench.user.open_output(sealed);
  ASSERT_TRUE(output.has_value());
  EXPECT_NE(*output, reference_run(net, input));
}

TEST(MaliciousHost, FakeDeviceFailsAttestation) {
  // A host substituting its own device (not certified by the real CA) is
  // caught at the first step.
  accel::UntrustedMemory memory;
  crypto::HmacDrbg fake_ca_drbg(Bytes{0xbb});
  crypto::ManufacturerCa fake_ca(fake_ca_drbg);
  accel::GuardNnDevice fake_device("evil", fake_ca, memory, Bytes{0xee});

  crypto::HmacDrbg real_ca_drbg(Bytes{0xca});
  crypto::ManufacturerCa real_ca(real_ca_drbg);
  RemoteUser user(real_ca.public_key(), Bytes{0x01});
  EXPECT_FALSE(user.attest_device(fake_device.get_pk()));
}

TEST(SideChannel, MemoryTraceIndependentOfData) {
  // Paper Section II-A/Table I: the access pattern and timing are functions
  // of the (public) network structure only. Run the same network on two
  // different inputs and weight sets; the MPU traces must be identical.
  const FuncNetwork net_a = small_cnn(/*seed=*/21);
  const FuncNetwork net_b = small_cnn(/*seed=*/22);  // different weights
  const functional::Tensor in_a = random_input(net_a, 23);
  const functional::Tensor in_b = random_input(net_b, 24);

  auto trace_of = [](const FuncNetwork& net, const functional::Tensor& input) {
    TestBench bench;
    const auto output = bench.run(net, input, true, /*attest=*/false);
    EXPECT_TRUE(output.has_value());
    return bench.device.access_trace(bench.user.session_id());
  };
  const auto trace_a = trace_of(net_a, in_a);
  const auto trace_b = trace_of(net_b, in_b);
  ASSERT_FALSE(trace_a.empty());
  EXPECT_EQ(trace_a, trace_b)
      << "memory side channel must not depend on input or weight values";
}

TEST(SideChannel, GoldenSmallCnnTraceCountersAndOutputPinned) {
  // The trace test above compares two runs of one build, so a change that
  // moves the trace the same way for every input passes it. This pins one
  // integrity-on small_cnn inference to recorded values instead: the MPU
  // access trace, the MPU byte counters, the modeled latency and the output
  // region's ciphertext and MAC slots. A datapath change that keeps outputs
  // and simulated statistics identical leaves all five untouched.
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 7);
  TestBench bench;
  ASSERT_TRUE(bench.run(net, input, true, /*attest=*/true).has_value());
  const accel::SessionId sid = bench.user.session_id();

  const auto& trace = bench.device.access_trace(sid);
  crypto::Sha256 trace_hash;
  for (const auto& [address, is_write] : trace) {
    u8 entry[9];
    store_be64(entry, address);
    entry[8] = is_write ? 1 : 0;
    trace_hash.update(BytesView(entry, sizeof(entry)));
  }
  EXPECT_EQ(trace.size(), 29u);
  EXPECT_EQ(to_hex(trace_hash.finalize()),
            "5d7d80c6fab3d331d28749454ca9f59783d9d0d2a8f93257a04eae63e5130e46");

  const accel::MpuByteCounters& counters = bench.device.mpu_byte_counters();
  EXPECT_EQ(counters.bytes_encrypted.load(), 8192u);
  EXPECT_EQ(counters.bytes_macd.load(), 8192u);
  EXPECT_DOUBLE_EQ(bench.device.elapsed_ms(), 28.03064000000002);

  constexpr u64 kChunk = accel::MemoryProtectionUnit::kChunkBytes;
  const ExecutionPlan plan = HostScheduler::compile(net);
  const u64 phys = accel::GuardNnDevice::partition_base(sid) + plan.output_addr;
  const u64 chunks = (plan.output_bytes + kChunk - 1) / kChunk;
  crypto::Sha256 output_hash;
  output_hash.update(bench.memory.read(phys, chunks * kChunk));
  output_hash.update(bench.memory.read(
      accel::MemoryProtectionUnit::kMacRegionBase + phys / kChunk * 8, chunks * 8));
  EXPECT_EQ(to_hex(output_hash.finalize()),
            "fd3381b6bb248e9acc96480d33a25fc960b59c2f2052a37b1989bd92ce226027");
}

TEST(SideChannel, LatencyIndependentOfData) {
  const FuncNetwork net_a = small_cnn(31);
  const FuncNetwork net_b = small_cnn(32);
  const functional::Tensor in_a = random_input(net_a, 33);
  const functional::Tensor in_b = random_input(net_b, 34);
  auto latency_of = [](const FuncNetwork& net, const functional::Tensor& input) {
    TestBench bench;
    const auto output = bench.run(net, input, true, false);
    EXPECT_TRUE(output.has_value());
    return bench.device.elapsed_ms();
  };
  EXPECT_DOUBLE_EQ(latency_of(net_a, in_a), latency_of(net_b, in_b));
}

TEST(Attestation, HonestRunVerifies) {
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 41);
  TestBench bench;
  EXPECT_TRUE(bench.run(net, input, true, /*attest=*/true).has_value());
}

TEST(Attestation, WrongWeightsRejected) {
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 43);
  TestBench bench;
  ASSERT_TRUE(bench.establish(true));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();
  ASSERT_EQ(bench.scheduler->execute(plan), DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(bench.device.export_output(sid, plan.output_addr,
                                       plan.output_bytes, sealed),
            DeviceStatus::kOk);
  const auto output = bench.user.open_output(sealed);
  ASSERT_TRUE(output.has_value());

  Bytes wrong_blob = plan.weight_blob;
  wrong_blob[0] ^= 1;
  bench.user.expect_weights(wrong_blob);  // user expected different weights
  bench.user.expect_input(input_bytes);
  bench.user.expect_output(*output);
  mirror_attestation(bench.user, plan);
  accel::SignOutputResponse report;
  ASSERT_EQ(bench.device.sign_output(sid, report), DeviceStatus::kOk);
  EXPECT_FALSE(bench.user.verify_attestation(report));
}

TEST(Attestation, ForgedSignatureRejected) {
  const FuncNetwork net = small_cnn();
  const functional::Tensor input = random_input(net, 47);
  TestBench bench;
  ASSERT_TRUE(bench.establish(true));
  const accel::SessionId sid = bench.user.session_id();
  const ExecutionPlan plan = HostScheduler::compile(net);
  ASSERT_EQ(bench.device.set_weight(sid, bench.user.seal(plan.weight_blob),
                                    plan.weight_base),
            DeviceStatus::kOk);
  const Bytes input_bytes(input.bytes().begin(), input.bytes().end());
  ASSERT_EQ(bench.device.set_input(sid, bench.user.seal(input_bytes),
                                   plan.input_addr),
            DeviceStatus::kOk);
  bench.scheduler->note_input();
  ASSERT_EQ(bench.scheduler->execute(plan), DeviceStatus::kOk);
  crypto::SealedRecord sealed;
  ASSERT_EQ(bench.device.export_output(sid, plan.output_addr,
                                       plan.output_bytes, sealed),
            DeviceStatus::kOk);
  const auto output = bench.user.open_output(sealed);
  ASSERT_TRUE(output.has_value());

  bench.user.expect_weights(plan.weight_blob);
  bench.user.expect_input(input_bytes);
  bench.user.expect_output(*output);
  mirror_attestation(bench.user, plan);
  accel::SignOutputResponse report;
  ASSERT_EQ(bench.device.sign_output(sid, report), DeviceStatus::kOk);
  report.signature.r = crypto::oracle::add_mod(report.signature.r, crypto::U256::one(),
                                               crypto::p256().n);
  EXPECT_FALSE(bench.user.verify_attestation(report));
}

}  // namespace
}  // namespace guardnn::host
