// Multi-tenant serving-stack tests: N tenants on M worker threads running
// full attest → session → infer → verify round trips against a device fleet,
// plus adversarial cross-tenant isolation (sealed-record replay, SetReadCTR
// splicing, replay across CloseSession/re-InitSession) and server API error
// paths. This suite is also the ThreadSanitizer target (GUARDNN_SANITIZE=TSAN).
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "host/model_codec.h"
#include "serving/inference_server.h"

// Sanitizers slow the host-side work of replicate_model (a whole replication
// test takes 0.1-0.25 s under Debug ASan+UBSan on a 4-vCPU host) while
// emulated device sleeps stay wall-clock; timing-calibrated tests widen their
// busy windows under any sanitizer.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define GUARDNN_TEST_UNDER_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define GUARDNN_TEST_UNDER_SANITIZER 1
#endif
#endif
#ifndef GUARDNN_TEST_UNDER_SANITIZER
#define GUARDNN_TEST_UNDER_SANITIZER 0
#endif

namespace guardnn::serving {
namespace {

using accel::DeviceStatus;
using accel::ForwardOp;
using host::FuncLayer;
using host::FuncNetwork;
using host::RemoteUser;

Bytes random_weights(std::size_t n, u64 seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out)
    b = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128));
  return out;
}

/// Small conv -> relu -> maxpool -> fc network (same family as host_test's
/// single-tenant golden).
FuncNetwork small_cnn(u64 seed) {
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
  for (auto& v : input.data())
    v = static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128);
  return input;
}

Bytes tensor_bytes(const functional::Tensor& t) {
  return Bytes(t.bytes().begin(), t.bytes().end());
}

/// The user-side mirror of a serving session's attestation chain: one
/// SetWeight, then per request SetInput + the plan's Forwards + ExportOutput.
void mirror_serving_attestation(RemoteUser& user, const host::ExecutionPlan& plan,
                                std::size_t n_requests) {
  u8 addr_bytes[8];
  store_be64(addr_bytes, plan.weight_base);
  user.expect_instruction(accel::Opcode::kSetWeight, BytesView(addr_bytes, 8));
  for (std::size_t r = 0; r < n_requests; ++r) {
    store_be64(addr_bytes, plan.input_addr);
    user.expect_instruction(accel::Opcode::kSetInput, BytesView(addr_bytes, 8));
    for (const auto& op : plan.ops)
      user.expect_instruction(accel::Opcode::kForward, op.serialize());
    u8 operand[16];
    store_be64(operand, plan.output_addr);
    store_be64(operand + 8, plan.output_bytes);
    user.expect_instruction(accel::Opcode::kExportOutput, BytesView(operand, 16));
  }
}

/// One tenant's client side: the remote user plus the server handles.
struct TenantClient {
  std::unique_ptr<RemoteUser> user;
  TenantId tenant = 0;
  std::size_t device_index = 0;
  ModelHandle model;

  /// attest_device + InitSession handshake against the server.
  bool connect(InferenceServer& server, const crypto::AffinePoint& ca_public,
               u64 seed, bool integrity) {
    user = std::make_unique<RemoteUser>(ca_public,
                                        Bytes{static_cast<u8>(seed),
                                              static_cast<u8>(seed >> 8), 0x77});
    const crypto::AffinePoint share = user->begin_session();
    const auto connected = server.connect(share, integrity);
    if (connected.tenant == 0) return false;
    tenant = connected.tenant;
    device_index = connected.device_index;
    if (!user->attest_device(server.get_pk(device_index))) return false;
    return user->complete_session(connected.response);
  }

  bool load(InferenceServer& server, const FuncNetwork& net) {
    model = server.register_model(net);
    return model.valid() &&
           server.load_model(tenant, model, user->seal(model.plan->weight_blob)) ==
               DeviceStatus::kOk;
  }
};

struct ServerFixture {
  crypto::HmacDrbg ca_drbg{Bytes{0x91}};
  crypto::ManufacturerCa ca{ca_drbg};

  InferenceServer make(std::size_t devices, std::size_t workers,
                       std::size_t per_tenant_quota = 4096) {
    ServerConfig config;
    config.num_devices = devices;
    config.num_workers = workers;
    config.max_pending_per_tenant = per_tenant_quota;
    return InferenceServer(ca, config, Bytes{0x92, 0x93});
  }
};

TEST(Serving, SingleTenantMatchesReferenceWithAttestation) {
  ServerFixture fx;
  InferenceServer server = fx.make(1, 1);
  const FuncNetwork net = small_cnn(301);
  const functional::Tensor input = random_input(net, 302);

  TenantClient client;
  ASSERT_TRUE(client.connect(server, fx.ca.public_key(), 1, /*integrity=*/true));
  ASSERT_TRUE(client.load(server, net));

  const Bytes input_bytes = tensor_bytes(input);
  InferenceResult result =
      server.submit(client.tenant, client.user->seal(input_bytes), /*attest=*/true);
  ASSERT_EQ(result.outcome, RequestOutcome::kOk)
      << outcome_name(result.outcome) << " device_status="
      << static_cast<int>(result.device_status);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));

  // Full remote-attestation verification through the serving path.
  ASSERT_TRUE(result.attested);
  client.user->expect_weights(client.model.plan->weight_blob);
  client.user->expect_input(input_bytes);
  client.user->expect_output(*output);
  mirror_serving_attestation(*client.user, *client.model.plan, 1);
  EXPECT_TRUE(client.user->verify_attestation(result.report));
}

TEST(Serving, EightTenantsFourWorkersConcurrentRoundTrips) {
  // The acceptance workload: 8 tenants on 8 client threads against a 4-device
  // fleet drained by 4 workers. Every tenant runs the full protocol and
  // checks outputs against the single-tenant golden (reference_run) plus the
  // attestation report for its whole session.
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kRequests = 4;
  ServerFixture fx;
  InferenceServer server = fx.make(4, 4);

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](std::string message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  auto tenant_main = [&](std::size_t index) {
    // Even tenants share one architecture+weights (exercising the plan
    // cache); odd tenants each bring their own model.
    const u64 net_seed = index % 2 == 0 ? 400 : 500 + index;
    const FuncNetwork net = small_cnn(net_seed);
    TenantClient client;
    if (!client.connect(server, fx.ca.public_key(), 40 + index, true))
      return fail("tenant " + std::to_string(index) + ": connect failed");
    if (!client.load(server, net))
      return fail("tenant " + std::to_string(index) + ": load_model failed");

    // Pipelined async submissions, FIFO per tenant.
    std::vector<functional::Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < kRequests; ++r) {
      inputs.push_back(random_input(net, 1000 * index + r));
      const bool last = r + 1 == kRequests;
      futures.push_back(server.submit_async(
          client.tenant, client.user->seal(tensor_bytes(inputs.back())),
          /*attest=*/last));
    }

    InferenceResult last_result;
    Bytes last_output;
    for (std::size_t r = 0; r < kRequests; ++r) {
      InferenceResult result = futures[r].get();
      if (result.outcome != RequestOutcome::kOk)
        return fail("tenant " + std::to_string(index) + " request " +
                    std::to_string(r) + ": " + outcome_name(result.outcome));
      const auto output = client.user->open_output(result.sealed_output);
      if (!output)
        return fail("tenant " + std::to_string(index) + " request " +
                    std::to_string(r) + ": output record did not open");
      if (*output != host::reference_run(net, inputs[r]))
        return fail("tenant " + std::to_string(index) + " request " +
                    std::to_string(r) + ": output mismatch vs golden");
      if (r + 1 == kRequests) {
        last_result = std::move(result);
        last_output = *output;
      }
    }

    // Attestation over the whole session (1 SetWeight + kRequests inferences).
    if (!last_result.attested)
      return fail("tenant " + std::to_string(index) + ": report missing");
    client.user->expect_weights(client.model.plan->weight_blob);
    client.user->expect_input(tensor_bytes(inputs.back()));
    client.user->expect_output(last_output);
    mirror_serving_attestation(*client.user, *client.model.plan, kRequests);
    if (!client.user->verify_attestation(last_result.report))
      return fail("tenant " + std::to_string(index) + ": attestation failed");

    if (server.disconnect(client.tenant) != DeviceStatus::kOk)
      return fail("tenant " + std::to_string(index) + ": disconnect failed");
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i)
    threads.emplace_back(tenant_main, i);
  for (auto& thread : threads) thread.join();

  for (const std::string& message : failures) ADD_FAILURE() << message;
  EXPECT_TRUE(failures.empty());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kTenants * kRequests);
}

TEST(Serving, PlanCacheSharesCompiledPlansByModelHash) {
  ServerFixture fx;
  InferenceServer server = fx.make(1, 1);
  const FuncNetwork net = small_cnn(600);
  const ModelHandle first = server.register_model(net);
  const ModelHandle second = server.register_model(net);
  ASSERT_TRUE(first.valid());
  EXPECT_EQ(first.plan.get(), second.plan.get())
      << "same model hash must reuse the cached ExecutionPlan";
  EXPECT_EQ(first.hash, second.hash);

  FuncNetwork other = small_cnn(601);
  const ModelHandle third = server.register_model(other);
  EXPECT_NE(first.plan.get(), third.plan.get());
  EXPECT_NE(first.hash, third.hash);
}

TEST(Serving, ErrorPathsAreCoarse) {
  ServerFixture fx;
  InferenceServer server = fx.make(1, 1);
  const FuncNetwork net = small_cnn(610);

  // Unknown tenant.
  crypto::SealedRecord dummy;
  EXPECT_EQ(server.submit(999, dummy).outcome, RequestOutcome::kNoTenant);

  // Connected but no model.
  TenantClient client;
  ASSERT_TRUE(client.connect(server, fx.ca.public_key(), 61, false));
  EXPECT_EQ(server.submit(client.tenant, dummy).outcome, RequestOutcome::kNoModel);

  // Forged input record: coarse device error, session stays up.
  ASSERT_TRUE(client.load(server, net));
  crypto::SealedRecord forged;
  forged.ciphertext.resize(256, 0xab);
  InferenceResult result = server.submit(client.tenant, forged);
  EXPECT_EQ(result.outcome, RequestOutcome::kDeviceError);
  EXPECT_EQ(result.device_status, DeviceStatus::kBadRecord);

  // Disconnect: later submissions and double disconnects fail coarse.
  EXPECT_EQ(server.disconnect(client.tenant), DeviceStatus::kOk);
  EXPECT_EQ(server.submit(client.tenant, dummy).outcome, RequestOutcome::kNoTenant);
  EXPECT_EQ(server.disconnect(client.tenant), DeviceStatus::kNoSession);
}

TEST(Serving, AdmissionControlRejectsWhenQueueFull) {
  ServerFixture fx;
  // A zero per-tenant quota: every request is rejected before it queues —
  // the deterministic version of a tenant that overran its own budget.
  InferenceServer server = fx.make(1, 1, /*per_tenant_quota=*/0);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, fx.ca.public_key(), 62, false));
  ASSERT_TRUE(client.load(server, small_cnn(620)));
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(Bytes(512, 1)));
  EXPECT_EQ(result.outcome, RequestOutcome::kQueueFull);
  EXPECT_GE(server.stats().rejected, 1u);
}

// --- Cross-tenant isolation: the malicious host drives the devices directly,
// splicing one tenant's protocol messages into another tenant's session. ----

struct TwoTenantFixture {
  ServerFixture env;
  InferenceServer server = env.make(1, 2);  // same device: worst case
  FuncNetwork net_a = small_cnn(700);
  FuncNetwork net_b = small_cnn(701);
  TenantClient a, b;

  bool setup() {
    if (!a.connect(server, env.ca.public_key(), 71, true)) return false;
    if (!b.connect(server, env.ca.public_key(), 72, true)) return false;
    if (a.device_index != b.device_index) return false;  // want co-residency
    if (!a.load(server, net_a)) return false;
    if (!b.load(server, net_b)) return false;
    return true;
  }

  /// Scans both tenants' DRAM partitions (and the MAC region) for a window
  /// of `secret`.
  bool leaked(BytesView secret) {
    accel::UntrustedMemory& memory = server.device_memory(0);
    const accel::SessionId sid_a = server.tenant_session(a.tenant).second;
    const accel::SessionId sid_b = server.tenant_session(b.tenant).second;
    const u64 bases[] = {accel::GuardNnDevice::partition_base(sid_a),
                         accel::GuardNnDevice::partition_base(sid_b),
                         accel::MemoryProtectionUnit::kMacRegionBase};
    const std::size_t window = std::min<std::size_t>(secret.size(), 24);
    for (u64 base : bases) {
      const Bytes region = memory.read(base, 1 << 16);
      if (std::search(region.begin(), region.end(), secret.begin(),
                      secret.begin() + window) != region.end())
        return true;
    }
    return false;
  }
};

TEST(CrossTenantIsolation, SealedRecordReplayIntoOtherSessionRejected) {
  TwoTenantFixture fx;
  ASSERT_TRUE(fx.setup());
  accel::GuardNnDevice& device = fx.server.device(0);
  const accel::SessionId sid_b = fx.server.tenant_session(fx.b.tenant).second;

  // The host replays records sealed by tenant A's user — weights and input —
  // into tenant B's session. B's channel keys differ, so the MAC check fails
  // and the device answers kBadRecord; nothing is written.
  const crypto::SealedRecord weights_for_a =
      fx.a.user->seal(fx.a.model.plan->weight_blob);
  EXPECT_EQ(device.set_weight(sid_b, weights_for_a, 0), DeviceStatus::kBadRecord);
  const Bytes secret_input(512, 0x5d);
  const crypto::SealedRecord input_for_a = fx.a.user->seal(secret_input);
  EXPECT_EQ(device.set_input(sid_b, input_for_a, 0), DeviceStatus::kBadRecord);

  // And nothing of A's plaintext ever reaches DRAM.
  EXPECT_FALSE(fx.leaked(BytesView(fx.a.model.plan->weight_blob.data(), 24)));
  EXPECT_FALSE(fx.leaked(secret_input));

  // B is unharmed: a genuine inference still round-trips.
  const functional::Tensor input = random_input(fx.net_b, 710);
  InferenceResult result =
      fx.server.submit(fx.b.tenant, fx.b.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk);
  const auto output = fx.b.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(fx.net_b, input));
}

TEST(CrossTenantIsolation, SetReadCtrSplicingNeverLeaksOnlyGarbles) {
  TwoTenantFixture fx;
  ASSERT_TRUE(fx.setup());
  accel::GuardNnDevice& device = fx.server.device(0);
  const accel::SessionId sid_b = fx.server.tenant_session(fx.b.tenant).second;

  // Run a real inference for A so its partition holds fresh feature data.
  const functional::Tensor input_a = random_input(fx.net_a, 711);
  InferenceResult result_a =
      fx.server.submit(fx.a.tenant, fx.a.user->seal(tensor_bytes(input_a)));
  ASSERT_EQ(result_a.outcome, RequestOutcome::kOk);

  // The host replays A's read-counter values into B's session, then exports
  // from the same addresses in B. B decrypts with *B's* K_MEnc at *B's*
  // physical partition: with integrity on the stale/never-written region
  // fails the MAC; either way A's plaintext cannot appear.
  ASSERT_EQ(device.set_read_ctr(sid_b, fx.a.model.plan->output_addr, 4096,
                                1ULL << 32),
            DeviceStatus::kOk)
      << "SetReadCTR is untrusted input and always accepted";
  crypto::SealedRecord exported;
  const DeviceStatus status = device.export_output(
      sid_b, fx.a.model.plan->output_addr, fx.a.model.plan->output_bytes,
      exported);
  EXPECT_NE(status, DeviceStatus::kOk) << "never-written region must not export";
  EXPECT_FALSE(fx.leaked(tensor_bytes(input_a)));
  EXPECT_FALSE(fx.leaked(BytesView(fx.a.model.plan->weight_blob.data(), 24)));
}

TEST(CrossTenantIsolation, ReplayAcrossCloseAndReinitRejected) {
  TwoTenantFixture fx;
  ASSERT_TRUE(fx.setup());
  accel::GuardNnDevice& device = fx.server.device(0);
  const accel::SessionId old_sid = fx.server.tenant_session(fx.b.tenant).second;

  // Capture a record sealed for B's *current* session, then close it.
  const crypto::SealedRecord old_record = fx.b.user->seal(Bytes(512, 0x3e));
  ASSERT_EQ(fx.server.disconnect(fx.b.tenant), DeviceStatus::kOk);

  // Replay into the dead session id: kNoSession (generation check).
  EXPECT_EQ(device.set_weight(old_sid, old_record, 0), DeviceStatus::kNoSession);

  // Re-connect B (the slot may be reused); replaying the old-session record
  // into the *new* session fails the fresh channel keys.
  TenantClient b2;
  ASSERT_TRUE(b2.connect(fx.server, fx.env.ca.public_key(), 73, true));
  const accel::SessionId new_sid = fx.server.tenant_session(b2.tenant).second;
  ASSERT_NE(new_sid, old_sid);
  EXPECT_EQ(device.set_weight(new_sid, old_record, 0), DeviceStatus::kBadRecord);

  // The stale id still answers kNoSession even though its slot may be live
  // again under a new generation.
  EXPECT_EQ(device.set_weight(old_sid, old_record, 0), DeviceStatus::kNoSession);
}

TEST(SessionEviction, LruIdleTenantEvictedToAdmitNewcomer) {
  // Fill one device's 16-slot session table, then connect a 17th tenant:
  // the least-recently-active idle session is evicted (closed + zeroized
  // device-side) and the newcomer is admitted in its place.
  ServerFixture fx;
  InferenceServer server = fx.make(1, 1);
  const FuncNetwork net = small_cnn(601);
  const functional::Tensor input = random_input(net, 602);

  std::vector<TenantClient> clients(accel::GuardNnDevice::kMaxSessions);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i].connect(server, fx.ca.public_key(), 610 + i, true));
    ASSERT_TRUE(clients[i].load(server, net));
  }
  // Touch every tenant but #0, so #0 is unambiguously the LRU victim.
  const Bytes input_bytes = tensor_bytes(input);
  for (std::size_t i = 1; i < clients.size(); ++i) {
    ASSERT_EQ(server.submit(clients[i].tenant,
                            clients[i].user->seal(input_bytes)).outcome,
              RequestOutcome::kOk);
  }

  TenantClient newcomer;
  ASSERT_TRUE(newcomer.connect(server, fx.ca.public_key(), 699, true))
      << "a full table must evict the idle LRU tenant, not refuse";
  EXPECT_EQ(server.stats().evicted, 1u);
  ASSERT_TRUE(newcomer.load(server, net));
  InferenceResult result =
      server.submit(newcomer.tenant, newcomer.user->seal(input_bytes));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk);
  const auto output = newcomer.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));

  // The evicted tenant is gone: its handle answers kNoTenant, its session
  // id is dead on the device.
  EXPECT_EQ(server.submit(clients[0].tenant,
                          clients[0].user->seal(input_bytes)).outcome,
            RequestOutcome::kNoTenant);
  EXPECT_FALSE(server.device(0).session_active(clients[0].user->session_id()));

  // Everyone else still works.
  EXPECT_EQ(server.submit(clients[1].tenant,
                          clients[1].user->seal(input_bytes)).outcome,
            RequestOutcome::kOk);
}

TEST(SessionEviction, DisabledEvictionStillRefusesWhenFull) {
  ServerFixture fx;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.evict_idle_sessions = false;
  InferenceServer server(fx.ca, config, Bytes{0x92, 0x93});

  std::vector<TenantClient> clients(accel::GuardNnDevice::kMaxSessions);
  for (std::size_t i = 0; i < clients.size(); ++i)
    ASSERT_TRUE(clients[i].connect(server, fx.ca.public_key(), 710 + i, true));

  TenantClient refused;
  refused.user = std::make_unique<RemoteUser>(fx.ca.public_key(), Bytes{0x7f});
  const auto connected = server.connect(refused.user->begin_session(), true);
  EXPECT_EQ(connected.tenant, 0u);
  EXPECT_EQ(connected.response.status, DeviceStatus::kNoResources);
  EXPECT_EQ(server.stats().evicted, 0u);
}

/// Connects an idle tenant for the server side only: InitSession needs a
/// valid user share, but the resident never completes its handshake, so
/// fillers can share one share and skip the client-side EC work.
TenantId connect_idle(InferenceServer& server, const crypto::AffinePoint& share,
                      std::size_t& device_index) {
  const auto connected = server.connect(share, /*integrity=*/true);
  device_index = connected.device_index;
  return connected.tenant;
}

TEST(SessionEviction, ReconnectOntoFullFailoverTargetEvictsIdleTenant) {
  // reconnect() has the same bounded idle-eviction retry as connect(): a
  // failed-over tenant whose only surviving device has a full session table
  // resumes there by evicting the survivor's least-recently-active idle
  // tenant.
  ServerFixture fx;
  InferenceServer server = fx.make(2, 1);
  const FuncNetwork net = small_cnn(801);
  const Bytes input_bytes = tensor_bytes(random_input(net, 802));

  TenantClient displaced;
  ASSERT_TRUE(displaced.connect(server, fx.ca.public_key(), 810, true));
  ASSERT_TRUE(displaced.load(server, net));
  const std::size_t dead = displaced.device_index;
  const std::size_t survivor = 1 - dead;
  // The replica must already sit on the survivor: the dead device's own
  // replica is stranded with its store key.
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(displaced.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(content, survivor), DeviceStatus::kOk);

  server.faults().kill(dead);
  for (int i = 0; i < 5000 && !server.failover_pending(displaced.tenant); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_TRUE(server.failover_pending(displaced.tenant));

  // The dead device is not routable, so every resident lands on the
  // survivor; the first one is its least-recently-active tenant.
  RemoteUser filler(fx.ca.public_key(), Bytes{0x81});
  const crypto::AffinePoint share = filler.begin_session();
  std::vector<TenantId> residents;
  for (std::size_t i = 0; i < accel::GuardNnDevice::kMaxSessions; ++i) {
    std::size_t device_index = 0;
    residents.push_back(connect_idle(server, share, device_index));
    ASSERT_NE(residents.back(), 0u);
    ASSERT_EQ(device_index, survivor);
  }
  const accel::SessionId lru_session = server.tenant_session(residents[0]).second;

  const auto resumed = server.reconnect(
      displaced.tenant, displaced.user->begin_session(), /*integrity=*/true);
  ASSERT_EQ(resumed.tenant, displaced.tenant)
      << "reconnect onto a full table must evict an idle tenant, not refuse: "
      << static_cast<int>(resumed.response.status);
  EXPECT_EQ(resumed.device_index, survivor);
  EXPECT_TRUE(resumed.model_restored);
  EXPECT_EQ(server.stats().evicted, 1u);
  ASSERT_TRUE(displaced.user->attest_device(server.get_pk(survivor)));
  ASSERT_TRUE(displaced.user->complete_session(resumed.response));
  const InferenceResult result =
      server.submit(displaced.tenant, displaced.user->seal(input_bytes));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);

  EXPECT_EQ(server.submit(residents[0], crypto::SealedRecord{}).outcome,
            RequestOutcome::kNoTenant);
  EXPECT_FALSE(server.device(survivor).session_active(lru_session));
}

TEST(SessionEviction, MigrateOntoFullTargetEvictsIdleTenant) {
  // migrate_tenant() opens the target session with the same bounded
  // idle-eviction retry as connect(): a full target gives up its
  // least-recently-active idle tenant and the move completes.
  ServerFixture fx;
  InferenceServer server = fx.make(2, 1);
  const FuncNetwork net = small_cnn(851);
  const functional::Tensor input = random_input(net, 852);

  TenantClient mover;
  ASSERT_TRUE(mover.connect(server, fx.ca.public_key(), 860, true));
  ASSERT_TRUE(mover.load(server, net));
  const std::size_t target = 1 - mover.device_index;

  // Least-loaded placement alternates devices, so 2 * 16 - 1 more connects
  // fill the target's table; the first resident placed there is its LRU.
  RemoteUser filler(fx.ca.public_key(), Bytes{0x85});
  const crypto::AffinePoint share = filler.begin_session();
  TenantId lru = 0;
  for (std::size_t i = 0; i < 2 * accel::GuardNnDevice::kMaxSessions - 1; ++i) {
    std::size_t device_index = 0;
    const TenantId resident = connect_idle(server, share, device_index);
    ASSERT_NE(resident, 0u);
    if (!lru && device_index == target) lru = resident;
  }
  ASSERT_NE(lru, 0u);
  const accel::SessionId lru_session = server.tenant_session(lru).second;

  const auto moved = server.migrate_tenant(
      mover.tenant, target, mover.user->begin_session(), /*integrity=*/true);
  ASSERT_EQ(moved.tenant, mover.tenant)
      << "migration onto a full table must evict an idle tenant, not abort: "
      << static_cast<int>(moved.response.status);
  EXPECT_TRUE(moved.model_restored);
  EXPECT_EQ(server.stats().evicted, 1u);
  EXPECT_EQ(server.stats().migrations, 1u);
  ASSERT_TRUE(mover.user->attest_device(server.get_pk(target)));
  ASSERT_TRUE(mover.user->complete_session(moved.response));
  const InferenceResult result =
      server.submit(mover.tenant, mover.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = mover.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));

  EXPECT_EQ(server.submit(lru, crypto::SealedRecord{}).outcome,
            RequestOutcome::kNoTenant);
  EXPECT_FALSE(server.device(target).session_active(lru_session));
}

TEST(FleetProvisioning, DisjointDevicePairsReplicateConcurrently) {
  // Regression: the provisioning exclusion used to be one server-global
  // mutex, so a replication stalled behind a busy target device blocked
  // every other replication in the fleet — even between a disjoint pair of
  // devices. The exclusion is now scoped to the two devices involved
  // (source + target each hold one pending provisioning ephemeral).
  //
  // Setup: 4 devices. Device 1 is pinned busy by an in-flight batch whose
  // emulated device time is ~2.4 s. Thread A replicates content held on
  // device 0 to device 1 (pair {0,1}) and blocks on device 1's busy lock.
  // Thread B replicates content held on device 2 to device 3 (pair {2,3}):
  // it must complete while A is still blocked.
  ServerFixture fx;
  ServerConfig config;
  config.num_devices = 4;
  config.num_workers = 1;
  config.emulate_device_latency = true;
  // One small_cnn request models ~0.12 ms of device time; scaled, the batch
  // holds device 1's busy lock for roughly 2.4 s of wall time (14.4 s under
  // sanitizers, which slow the re-wrap B must finish inside the window).
  config.device_latency_scale = GUARDNN_TEST_UNDER_SANITIZER ? 120000.0
                                                             : 20000.0;
  InferenceServer server(fx.ca, config, Bytes{0x92, 0x93});

  const FuncNetwork net_a = small_cnn(900);
  const FuncNetwork net_b = small_cnn(901);

  // Least-loaded placement spreads four tenants across the four devices;
  // index them by the device they landed on.
  std::array<std::size_t, 4> by_device{};
  std::array<TenantClient, 4> clients;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    ASSERT_TRUE(clients[i].connect(server, fx.ca.public_key(), 910 + i, true));
    ASSERT_LT(clients[i].device_index, 4u);
    by_device[clients[i].device_index] = i;
  }
  TenantClient& on_dev0 = clients[by_device[0]];
  TenantClient& on_dev1 = clients[by_device[1]];
  TenantClient& on_dev2 = clients[by_device[2]];
  ASSERT_TRUE(on_dev0.load(server, net_a));
  ASSERT_TRUE(on_dev1.load(server, net_a));
  ASSERT_TRUE(on_dev2.load(server, net_b));

  store::ContentId content_a{}, content_b{};
  ASSERT_EQ(server.seal_tenant_model(on_dev0.tenant,
                                     host::serialize_descriptor(net_a),
                                     content_a),
            DeviceStatus::kOk);
  ASSERT_EQ(server.seal_tenant_model(on_dev2.tenant,
                                     host::serialize_descriptor(net_b),
                                     content_b),
            DeviceStatus::kOk);

  // Pin device 1: one queued request, then wait for the worker to own it
  // (pending drops to zero at pickup; the emulated sleep runs under busy).
  const functional::Tensor input = random_input(net_a, 920);
  std::future<InferenceResult> busy_batch = server.submit_async(
      on_dev1.tenant, on_dev1.user->seal(tensor_bytes(input)));
  while (server.pending_requests() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  std::atomic<bool> a_done{false};
  DeviceStatus status_a = DeviceStatus::kOk;
  std::thread replicate_a([&] {
    status_a = server.replicate_model(content_a, /*target_device=*/1);
    a_done.store(true);
  });
  // Let A reach the provisioning exclusion before B starts, so the
  // pre-sharding global-mutex regression would make B queue behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const DeviceStatus status_b = server.replicate_model(content_b, 3);
  // Snapshot the overlap evidence first: a fatal assert before the join
  // would destroy a joinable thread (std::terminate), so all checks run
  // after A drains.
  const bool a_done_when_b_finished = a_done.load();
  const bool dev1_busy_when_b_finished =
      busy_batch.wait_for(std::chrono::seconds(0)) !=
      std::future_status::ready;
  replicate_a.join();

  EXPECT_EQ(status_b, DeviceStatus::kOk);
  EXPECT_FALSE(a_done_when_b_finished)
      << "replication {2,3} waited for the stalled replication {0,1}: the "
         "provisioning exclusion is not per-device-pair";
  // Guard against mis-calibration: device 1 must still be inside the
  // emulated batch when B finishes, or the overlap proves nothing.
  EXPECT_TRUE(dev1_busy_when_b_finished)
      << "device 1 went idle too early; raise device_latency_scale";
  EXPECT_EQ(status_a, DeviceStatus::kOk);
  EXPECT_EQ(server.stats().replications, 2u);
  EXPECT_EQ(busy_batch.get().outcome, RequestOutcome::kOk);
}

TEST(PlanCacheGeneration, DeviceResetInvalidatesCachedPlans) {
  // The plan cache keys on (model hash, device generation): after a device
  // reset, a re-provisioned model must get a freshly compiled plan, never
  // the pre-reset pointer.
  ServerFixture fx;
  InferenceServer server = fx.make(1, 1);
  const FuncNetwork net = small_cnn(801);
  const functional::Tensor input = random_input(net, 802);

  const ModelHandle before_a = server.register_model(net);
  const ModelHandle before_b = server.register_model(net);
  EXPECT_EQ(before_a.plan.get(), before_b.plan.get());  // same generation: shared
  EXPECT_EQ(before_a.generation, server.device(0).device_generation());

  TenantClient old_tenant;
  ASSERT_TRUE(old_tenant.connect(server, fx.ca.public_key(), 810, true));
  ASSERT_TRUE(old_tenant.load(server, net));

  ASSERT_EQ(server.reset_device(0), DeviceStatus::kOk);
  EXPECT_EQ(server.device(0).device_generation(), before_a.generation + 1);
  EXPECT_EQ(server.device(0).session_count(), 0u);  // sessions wiped
  // The pre-reset tenant is disconnected, coarse errors onward.
  const Bytes input_bytes = tensor_bytes(input);
  EXPECT_EQ(server.submit(old_tenant.tenant,
                          old_tenant.user->seal(input_bytes)).outcome,
            RequestOutcome::kNoTenant);

  const ModelHandle after = server.register_model(net);
  EXPECT_EQ(after.hash, before_a.hash);  // same model...
  EXPECT_NE(after.plan.get(), before_a.plan.get())
      << "a post-reset registration must not reuse the stale compiled plan";

  // A handle from *before* the reset still loads — the server transparently
  // recompiles for the device's current generation — and serves correctly.
  TenantClient fresh;
  ASSERT_TRUE(fresh.connect(server, fx.ca.public_key(), 811, true));
  ASSERT_TRUE(fresh.load(server, net));
  InferenceResult result =
      server.submit(fresh.tenant, fresh.user->seal(input_bytes));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk);
  const auto output = fresh.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

}  // namespace
}  // namespace guardnn::serving
