// Adversarial instruction-sequence fuzzing.
//
// The paper's central TCB claim (Section II-B): "GuardNN can ensure
// confidentiality without trusting a host processor by designing its ISA so
// that sensitive information is always encrypted no matter which instruction
// is executed." These tests drive the device with *randomized* instruction
// streams — arbitrary opcodes, operands, addresses and read counters — and
// assert after every step that (a) the device never crashes, and (b) no
// window of the secret plaintext ever appears in untrusted memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>

#include "common/rng.h"
#include "host/scheduler.h"
#include "host/user_client.h"
#include "serving/fault.h"
#include "serving/inference_server.h"

namespace guardnn::host {
namespace {

/// Steps per fuzz seed. The default keeps the whole suite around a second so
/// it runs in tier-1 CI; GUARDNN_FUZZ_STEPS=<n> deepens a local soak run
/// without touching code (the seeds keep every run deterministic).
int fuzz_steps() {
  if (const char* env = std::getenv("GUARDNN_FUZZ_STEPS")) {
    const int parsed = std::atoi(env);
    if (parsed > 0) return parsed;
  }
  return 120;
}

using accel::DeviceStatus;
using accel::ForwardOp;

struct FuzzBench {
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg{Bytes{0x71}};
  crypto::ManufacturerCa ca{ca_drbg};
  accel::GuardNnDevice device{"fuzz-dev", ca, memory, Bytes{0x72}};
  RemoteUser user{ca.public_key(), Bytes{0x73}};

  Bytes secret_weights;
  Bytes secret_input;

  bool setup(bool integrity) {
    if (!user.attest_device(device.get_pk())) return false;
    if (!user.complete_session(device.init_session(user.begin_session(), integrity)))
      return false;
    Xoshiro256 rng(0x5ec2e7);
    secret_weights.resize(2048);
    secret_input.resize(512);
    rng.fill(secret_weights);
    rng.fill(secret_input);
    if (device.set_weight(user.session_id(), user.seal(secret_weights), 0) !=
        DeviceStatus::kOk)
      return false;
    if (device.set_input(user.session_id(), user.seal(secret_input),
                         0x4000'0000ULL) != DeviceStatus::kOk)
      return false;
    return true;
  }

  /// Scans plausible DRAM regions for any 24-byte window of either secret.
  bool secrets_leaked() const {
    const u64 scan_bases[] = {0x0ULL, 0x4000'0000ULL, 0x4800'0000ULL,
                              0x5000'0000ULL,
                              accel::MemoryProtectionUnit::kMacRegionBase};
    for (u64 base : scan_bases) {
      const Bytes region = memory.read(base, 1 << 16);
      for (const Bytes* secret : {&secret_weights, &secret_input}) {
        const auto begin = secret->begin();
        if (std::search(region.begin(), region.end(), begin, begin + 24) !=
            region.end())
          return true;
      }
    }
    return false;
  }
};

/// Generates a random (mostly malformed) ForwardOp.
ForwardOp random_op(Xoshiro256& rng) {
  ForwardOp op;
  op.kind = static_cast<ForwardOp::Kind>(rng.next_below(13));
  op.in_c = static_cast<int>(rng.next_below(20)) - 2;   // may be <= 0
  op.in_h = static_cast<int>(rng.next_below(20)) - 2;
  op.in_w = static_cast<int>(rng.next_below(20)) - 2;
  op.out_c = static_cast<int>(rng.next_below(20)) - 2;
  op.kernel = static_cast<int>(rng.next_below(8)) - 1;
  op.stride = static_cast<int>(rng.next_below(4));
  op.pad = static_cast<int>(rng.next_below(4));
  op.requant_shift = static_cast<int>(rng.next_below(9));
  op.bits = rng.next_below(3) == 0 ? 6 : (rng.next_below(2) ? 8 : 7);
  op.aux_c = static_cast<int>(rng.next_below(16)) - 2;
  op.aux_h = static_cast<int>(rng.next_below(16)) - 2;
  op.aux_w = static_cast<int>(rng.next_below(16)) - 2;
  const u64 addr_pool[] = {0x0ULL, 0x200ULL, 0x4000'0000ULL, 0x4800'0000ULL,
                           0x4880'0000ULL, 0xdead'0000ULL};
  op.input_addr = addr_pool[rng.next_below(6)];
  op.input2_addr = addr_pool[rng.next_below(6)];
  op.weight_addr = addr_pool[rng.next_below(6)];
  op.output_addr = addr_pool[rng.next_below(6)] + 0x1000;
  return op;
}

class InstructionFuzzTest : public ::testing::TestWithParam<u64> {};

TEST_P(InstructionFuzzTest, RandomSequencesNeverLeakPlaintext) {
  FuzzBench bench;
  // Confidentiality-only mode: every instruction *executes* (no fail-stop),
  // which is the worst case for leakage.
  ASSERT_TRUE(bench.setup(/*integrity=*/false));
  Xoshiro256 rng(GetParam());
  const accel::SessionId sid = bench.user.session_id();

  const int steps = fuzz_steps();
  for (int step = 0; step < steps; ++step) {
    switch (rng.next_below(5)) {
      case 0: {
        // Random (often nonsensical) forward/backward instruction.
        (void)bench.device.forward(sid, random_op(rng));
        break;
      }
      case 1: {
        // Arbitrary read-counter manipulation.
        (void)bench.device.set_read_ctr(sid, rng.next() % (1ULL << 36),
                                        rng.next_below(1 << 16), rng.next());
        break;
      }
      case 2: {
        // Export from an arbitrary address: output is sealed to the session
        // user; ciphertext in DRAM stays ciphertext.
        crypto::SealedRecord sealed;
        (void)bench.device.export_output(sid,
                                         (rng.next() % (1ULL << 34)) & ~511ULL,
                                         64 + rng.next_below(512), sealed);
        break;
      }
      case 3: {
        // Forged import records (random bytes, bad MACs).
        crypto::SealedRecord forged;
        forged.sequence = rng.next();
        forged.ciphertext.resize(64 + rng.next_below(256));
        rng.fill(forged.ciphertext);
        rng.fill(MutBytesView(forged.tag.data(), forged.tag.size()));
        (void)bench.device.set_weight(sid, forged,
                                      (rng.next() % (1ULL << 30)) & ~511ULL);
        break;
      }
      case 4: {
        // Direct DRAM tampering by the adversary.
        bench.memory.tamper(rng.next() % (1ULL << 30), static_cast<u8>(rng.next()));
        break;
      }
    }
    ASSERT_FALSE(bench.secrets_leaked()) << "seed " << GetParam() << " step " << step;
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, InstructionFuzzTest,
                         ::testing::Values(1001, 1002, 1003, 1004, 1005, 1006));

TEST(SessionIsolation, NewSessionCannotDecryptOldData) {
  // K_MEnc is regenerated per session: the same plaintext imported in two
  // sessions yields different ciphertext, and data from session 1 reads as
  // garbage (or fails integrity) in session 2. With the session table the
  // second session also lands in its own DRAM partition, so the comparison
  // reads each session's partition base.
  FuzzBench bench;
  ASSERT_TRUE(bench.setup(false));
  const Bytes session1_cipher = bench.memory.read(0, 512);

  // New session, same weights, same (session-local) address.
  const accel::InitSessionResponse second =
      bench.device.init_session(bench.user.begin_session(), false);
  ASSERT_TRUE(bench.user.complete_session(second));
  ASSERT_EQ(bench.device.set_weight(second.session_id,
                                    bench.user.seal(bench.secret_weights), 0),
            DeviceStatus::kOk);
  const Bytes session2_cipher = bench.memory.read(
      accel::GuardNnDevice::partition_base(second.session_id), 512);
  EXPECT_NE(session1_cipher, session2_cipher)
      << "per-session K_MEnc must change the ciphertext";
}

TEST(SessionIsolation, InstructionsAcrossSessionsDontCompose) {
  // Records sealed for session 1 are rejected once session 2 starts (fresh
  // channel keys) — a host cannot splice old user messages into a new run.
  FuzzBench bench;
  ASSERT_TRUE(bench.setup(false));
  const crypto::SealedRecord old_record = bench.user.seal(Bytes(512, 0x42));
  ASSERT_TRUE(bench.user.complete_session(
      bench.device.init_session(bench.user.begin_session(), false)));
  EXPECT_EQ(bench.device.set_weight(bench.user.session_id(), old_record, 0),
            DeviceStatus::kBadRecord);
}

// --- Session-id fuzzing ------------------------------------------------------
// Two live tenants plus a closed (stale) session on one device; every step
// picks a random session id — tenant A's, tenant B's, the stale one, a forged
// one — and a random instruction. Invariants checked after every step:
// neither tenant's secrets ever appear in any scanned DRAM region, and
// stale/forged ids always answer kNoSession.

struct MultiSessionFuzzBench {
  accel::UntrustedMemory memory;
  crypto::HmacDrbg ca_drbg{Bytes{0x81}};
  crypto::ManufacturerCa ca{ca_drbg};
  accel::GuardNnDevice device{"fuzz-mt-dev", ca, memory, Bytes{0x82}};
  RemoteUser user_a{ca.public_key(), Bytes{0x83}};
  RemoteUser user_b{ca.public_key(), Bytes{0x84}};
  RemoteUser user_stale{ca.public_key(), Bytes{0x85}};

  Bytes secret_a;
  Bytes secret_b;
  accel::SessionId stale_sid = accel::kInvalidSession;

  bool open(RemoteUser& user) {
    if (!user.attest_device(device.get_pk())) return false;
    return user.complete_session(
        device.init_session(user.begin_session(), /*integrity=*/false));
  }

  bool setup() {
    // A stale session first, so its slot is reused by tenant A — the worst
    // case for the generation check.
    if (!open(user_stale)) return false;
    stale_sid = user_stale.session_id();
    if (device.close_session(stale_sid) != DeviceStatus::kOk) return false;
    if (!open(user_a) || !open(user_b)) return false;

    Xoshiro256 rng(0xab5e55);
    secret_a.resize(1024);
    secret_b.resize(1024);
    rng.fill(secret_a);
    rng.fill(secret_b);
    if (device.set_weight(user_a.session_id(), user_a.seal(secret_a), 0) !=
        DeviceStatus::kOk)
      return false;
    if (device.set_weight(user_b.session_id(), user_b.seal(secret_b), 0) !=
        DeviceStatus::kOk)
      return false;
    return true;
  }

  /// Scans every session's partition (plus the MAC region) for a 24-byte
  /// window of either tenant's secret.
  bool secrets_leaked() const {
    const u64 partition_bases[] = {
        accel::GuardNnDevice::partition_base(stale_sid),
        accel::GuardNnDevice::partition_base(user_a.session_id()),
        accel::GuardNnDevice::partition_base(user_b.session_id())};
    const u64 offsets[] = {0x0ULL, 0x4000'0000ULL, 0x4800'0000ULL};
    for (const Bytes* secret : {&secret_a, &secret_b}) {
      const auto begin = secret->begin();
      for (u64 base : partition_bases) {
        for (u64 off : offsets) {
          const Bytes region = memory.read(base + off, 1 << 15);
          if (std::search(region.begin(), region.end(), begin, begin + 24) !=
              region.end())
            return true;
        }
      }
      const Bytes macs =
          memory.read(accel::MemoryProtectionUnit::kMacRegionBase, 1 << 15);
      if (std::search(macs.begin(), macs.end(), begin, begin + 24) != macs.end())
        return true;
    }
    return false;
  }
};

class SessionIdFuzzTest : public ::testing::TestWithParam<u64> {};

TEST_P(SessionIdFuzzTest, RandomSessionIdsNeverLeakOrConfuseTenants) {
  MultiSessionFuzzBench bench;
  ASSERT_TRUE(bench.setup());
  Xoshiro256 rng(GetParam());

  auto pick_sid = [&](bool& must_fail) {
    switch (rng.next_below(5)) {
      case 0: must_fail = false; return bench.user_a.session_id();
      case 1: must_fail = false; return bench.user_b.session_id();
      case 2: must_fail = true; return bench.stale_sid;
      case 3: must_fail = true; return accel::SessionId{rng.next()};
      default: must_fail = true; return accel::kInvalidSession;
    }
  };

  const int steps = fuzz_steps();
  for (int step = 0; step < steps; ++step) {
    bool must_fail = false;
    const accel::SessionId sid = pick_sid(must_fail);
    DeviceStatus status = DeviceStatus::kOk;
    bool checked = true;
    switch (rng.next_below(5)) {
      case 0:
        status = bench.device.forward(sid, random_op(rng));
        break;
      case 1:
        status = bench.device.set_read_ctr(sid, rng.next() % (1ULL << 36),
                                           rng.next_below(1 << 16), rng.next());
        break;
      case 2: {
        crypto::SealedRecord sealed;
        status = bench.device.export_output(
            sid, (rng.next() % (1ULL << 34)) & ~511ULL, 64 + rng.next_below(512),
            sealed);
        break;
      }
      case 3: {
        // Cross-tenant splice: a record sealed by tenant A thrown at `sid`.
        const crypto::SealedRecord record =
            bench.user_a.seal(Bytes(64 + rng.next_below(256), 0x6e));
        status = bench.device.set_weight(
            sid, record, (rng.next() % (1ULL << 30)) & ~511ULL);
        // Only tenant A's own session may ever accept it.
        if (!must_fail && sid != bench.user_a.session_id()) {
          EXPECT_EQ(status, DeviceStatus::kBadRecord)
              << "tenant B accepted a record sealed for tenant A";
        }
        break;
      }
      default:
        checked = false;
        bench.memory.tamper(rng.next() % (1ULL << 34), static_cast<u8>(rng.next()));
        break;
    }
    if (checked && must_fail) {
      EXPECT_EQ(status, DeviceStatus::kNoSession)
          << "stale/forged session id must answer kNoSession (seed "
          << GetParam() << " step " << step << ")";
    }
    ASSERT_FALSE(bench.secrets_leaked())
        << "seed " << GetParam() << " step " << step;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SessionIdFuzzTest,
                         ::testing::Values(2001, 2002, 2003, 2004));

// --- Sealed-blob mutation fuzzing --------------------------------------------
// The sealed model store hands the host a device-bound ciphertext blob; the
// host (or its storage) is free to corrupt it arbitrarily. Every mutation of
// the wire bytes — bit flips anywhere, truncation, extension, header-field
// rewrites — must either fail to parse or fail to unseal, with no VN
// movement and no secret bytes surfacing in untrusted memory.

class SealedBlobFuzzTest : public ::testing::TestWithParam<u64> {};

TEST_P(SealedBlobFuzzTest, MutatedBlobsNeverUnsealOrLeak) {
  FuzzBench bench;
  ASSERT_TRUE(bench.setup(/*integrity=*/false));
  const accel::SessionId sid = bench.user.session_id();

  // Seal the session's secret weights (imported by setup at address 0).
  store::SealedBlob blob;
  const Bytes descriptor{0x5e, 0xa1};
  ASSERT_EQ(bench.device.seal_model(sid, 0, bench.secret_weights.size(),
                                    descriptor, blob),
            DeviceStatus::kOk);
  const Bytes wire = blob.serialize();
  ASSERT_FALSE(bench.secrets_leaked()) << "sealing must not expose plaintext";

  Xoshiro256 rng(GetParam());
  const u64 ctr_w_before = bench.device.vn_generator(sid).ctr_w();
  const int steps = fuzz_steps();
  for (int step = 0; step < steps; ++step) {
    Bytes mutated = wire;
    const int n_mutations = 1 + static_cast<int>(rng.next_below(3));
    for (int m = 0; m < n_mutations && !mutated.empty(); ++m) {
      switch (rng.next_below(4)) {
        case 0:  // single-bit flip anywhere
          mutated[rng.next_below(mutated.size())] ^=
              static_cast<u8>(1u << rng.next_below(8));
          break;
        case 1:  // truncation
          mutated.resize(rng.next_below(mutated.size()));
          break;
        case 2:  // extension with junk
          mutated.push_back(static_cast<u8>(rng.next()));
          break;
        default:  // header-field rewrite (version/binding/content/nonce/sizes)
          mutated[rng.next_below(std::min<std::size_t>(108, mutated.size()))] ^=
              0xff;
          break;
      }
    }
    if (mutated == wire) continue;  // mutations cancelled out

    const auto parsed = store::SealedBlob::deserialize(mutated);
    if (parsed) {
      Bytes descriptor_out;
      const DeviceStatus status =
          bench.device.unseal_model(sid, *parsed, 0, descriptor_out);
      EXPECT_NE(status, DeviceStatus::kOk)
          << "a mutated blob must never unseal (seed " << GetParam() << " step "
          << step << ")";
      EXPECT_TRUE(descriptor_out.empty());
    }
    ASSERT_FALSE(bench.secrets_leaked())
        << "seed " << GetParam() << " step " << step;
    ASSERT_EQ(bench.device.vn_generator(sid).ctr_w(), ctr_w_before)
        << "failed unseals must not move version counters";
  }

  // Control: the untouched wire still round-trips and restores the weights.
  const auto intact = store::SealedBlob::deserialize(wire);
  ASSERT_TRUE(intact.has_value());
  Bytes descriptor_out;
  EXPECT_EQ(bench.device.unseal_model(sid, *intact, 0, descriptor_out),
            DeviceStatus::kOk);
  EXPECT_EQ(descriptor_out, descriptor);
  EXPECT_FALSE(bench.secrets_leaked());
}

INSTANTIATE_TEST_SUITE_P(Seeds, SealedBlobFuzzTest,
                         ::testing::Values(3001, 3002));

// --- Fault-injected serving fuzzing ------------------------------------------
// The serving fleet under probabilistic fault injection: transient integrity
// failures, latency spikes and dropped completions roll on every device call
// while two tenants keep submitting, randomly live-migrating themselves
// between devices, and — halfway through — losing a primary to a fail-stop
// death (which the standby spare may then replace). The invariants are
// liveness-shaped, not value-shaped: every synchronous submit returns a
// *named* outcome (never a crash, never a hang past the deadline),
// successful outcomes still decrypt to the reference result, a failed-over
// or degraded-migration tenant can always reconnect, and the admission
// counters drain to zero at the end. GUARDNN_FAULT_SEED reseeds the roll
// without touching code.

TEST(ServingFaultFuzz, RandomFaultsAlwaysResolveToNamedOutcomes) {
  crypto::HmacDrbg ca_drbg{Bytes{0x91}};
  crypto::ManufacturerCa ca{ca_drbg};
  serving::ServerConfig config;
  config.num_devices = 2;
  config.num_spare_devices = 1;  // promotion path rolls with the faults
  config.num_workers = 2;
  config.default_deadline_ms = 200.0;
  config.transient_retries = 2;
  config.retry_backoff_ms = 0.05;
  serving::InferenceServer server(ca, config, Bytes{0x92, 0x93});

  const u64 seed = serving::FaultInjector::env_seed(0xfa17);

  FuncNetwork net;
  net.in_c = 3;
  net.in_h = 8;
  net.in_w = 8;
  Xoshiro256 weight_rng(0xfa170001);
  Bytes weights(4 * 3 * 3 * 3);
  weight_rng.fill(weights);
  for (auto& b : weights) b = static_cast<u8>(static_cast<i8>(b) / 2);
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kConv, 4, 3, 1, 1, 4, weights});
  net.layers.push_back(FuncLayer{ForwardOp::Kind::kRelu, 0, 0, 1, 0, 0, {}});

  struct FuzzTenant {
    std::unique_ptr<RemoteUser> user;
    serving::TenantId tenant = 0;
    std::size_t device_index = 0;
    bool alive = false;
  };
  auto open_tenant = [&](FuzzTenant& t, u64 user_seed) {
    t.user = std::make_unique<RemoteUser>(ca.public_key(),
                                          Bytes{static_cast<u8>(user_seed)});
    const auto connected = server.connect(t.user->begin_session(), true);
    if (connected.tenant == 0) return false;
    t.tenant = connected.tenant;
    t.device_index = connected.device_index;
    if (!t.user->attest_device(server.get_pk(t.device_index))) return false;
    if (!t.user->complete_session(connected.response)) return false;
    const serving::ModelHandle model = server.register_model(net);
    if (!model.valid()) return false;
    t.alive = server.load_model(t.tenant, model,
                                t.user->seal(model.plan->weight_blob)) ==
              DeviceStatus::kOk;
    return t.alive;
  };

  FuzzTenant tenants[2];
  ASSERT_TRUE(open_tenant(tenants[0], 0x94));
  ASSERT_TRUE(open_tenant(tenants[1], 0x95));

  // Fresh handshake + resume after a wounded session, a crash failover, or a
  // degraded migration. No sealed replica in this fuzzer — reload the model
  // over the fresh channel when the server could not restore it.
  auto try_reconnect = [&](FuzzTenant& t) {
    const auto resumed =
        server.reconnect(t.tenant, t.user->begin_session(), true);
    t.alive = resumed.tenant == t.tenant &&
              t.user->attest_device(server.get_pk(resumed.device_index)) &&
              t.user->complete_session(resumed.response);
    if (!t.alive) return;
    t.device_index = resumed.device_index;
    if (!resumed.model_restored) {
      const serving::ModelHandle model = server.register_model(net);
      t.alive = model.valid() &&
                server.load_model(t.tenant, model,
                                  t.user->seal(model.plan->weight_blob)) ==
                    DeviceStatus::kOk;
    }
  };

  // Arm faults only after setup: session establishment and the initial model
  // load are the controlled baseline; the fuzz rolls start with the traffic.
  serving::FaultInjector::Probabilities p;
  p.integrity = 0.04;
  p.drop = 0.01;
  p.latency = 0.04;
  p.latency_ms = 0.5;
  server.faults().arm_random(0, p, seed);
  server.faults().arm_random(1, p, seed + 1);
  // One scripted burst so the plan provably fires even at tiny step counts.
  server.faults().script_integrity_burst(0, 1);

  Xoshiro256 rng(seed ^ 0xfu);
  const int steps = fuzz_steps();
  for (int step = 0; step < steps; ++step) {
    // Half-way fail-stop: kill a random primary once. The monitor fails its
    // tenants over, and with the routable fleet below the floor it promotes
    // the standby spare to backfill capacity.
    if (step == steps / 2) server.faults().kill(rng.next_below(2));
    FuzzTenant& t = tenants[rng.next_below(2)];
    if (!t.alive) continue;
    // Roll a live migration under fire (1 in 8): any *named* result is
    // acceptable. Success re-keys to the target; a degraded move (source
    // died mid-replay) falls back to reconnect exactly like a crash; an
    // abort (dead/standby target, tenant torn down) leaves the old session
    // and channel keys untouched.
    if (rng.next_below(8) == 0) {
      const std::size_t target = rng.next_below(server.device_count());
      if (target != t.device_index) {
        const auto moved = server.migrate_tenant(t.tenant, target,
                                                 t.user->begin_session(), true);
        if (moved.tenant == t.tenant) {
          t.device_index = moved.device_index;
          t.alive = t.user->attest_device(server.get_pk(moved.device_index)) &&
                    t.user->complete_session(moved.response);
        } else if (server.failover_pending(t.tenant)) {
          try_reconnect(t);
        }
        if (!t.alive) continue;
      }
    }
    functional::Tensor input(net.in_c, net.in_h, net.in_w, net.bits);
    for (auto& v : input.data())
      v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
    const Bytes plain(input.bytes().begin(), input.bytes().end());
    const crypto::SealedRecord record = t.user->seal(plain);
    // Retry kTimeout with the *same* record: deadline expiry never consumes
    // it, so resubmitting preserves the channel's strict sequence numbers.
    serving::InferenceResult result;
    for (int attempt = 0; attempt < 8; ++attempt) {
      result = server.submit(t.tenant, record);
      if (result.outcome != serving::RequestOutcome::kTimeout) break;
    }
    switch (result.outcome) {
      case serving::RequestOutcome::kOk: {
        const auto output = t.user->open_output(result.sealed_output);
        ASSERT_TRUE(output.has_value()) << "seed " << seed << " step " << step;
        ASSERT_EQ(*output, reference_run(net, input))
            << "seed " << seed << " step " << step;
        break;
      }
      case serving::RequestOutcome::kTimeout:
        // Still timing out after 8 attempts — park the tenant; liveness of
        // the *server* is what this fuzzer checks.
        break;
      case serving::RequestOutcome::kDeviceFailover:
      case serving::RequestOutcome::kNoTenant:
        // Wounded session (dropped completion) or crash: reconnect, resume.
        try_reconnect(t);
        break;
      default:
        FAIL() << "unnamed outcome " << serving::outcome_name(result.outcome)
               << " (seed " << seed << " step " << step << ")";
    }
  }

  EXPECT_GT(server.faults().injected_count(), 0u);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

}  // namespace
}  // namespace guardnn::host
