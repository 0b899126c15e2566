// Fault-tolerant serving fleet tests: scripted device fault injection
// (fault.h), the health state machine (healthy → degraded → quarantined,
// dead on fail-stop), replica failover (tenant teardown with
// kDeviceFailover, sealed-model restore through reconnect()), per-request
// deadlines (kTimeout, FIFO drained gapless), and the extended teardown
// invariant under chaos: killing a device mid-storm resolves 100% of
// in-flight futures — zero hangs. Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "host/model_codec.h"
#include "serving/fault.h"
#include "serving/inference_server.h"

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
    b = static_cast<u8>(
        static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128));
  return out;
}

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

struct TenantClient {
  std::unique_ptr<RemoteUser> user;
  TenantId tenant = 0;
  std::size_t device_index = 0;
  ModelHandle model;

  bool connect(InferenceServer& server, const crypto::AffinePoint& ca_public,
               u64 seed) {
    user = std::make_unique<RemoteUser>(
        ca_public,
        Bytes{static_cast<u8>(seed), static_cast<u8>(seed >> 8), 0x5d});
    const crypto::AffinePoint share = user->begin_session();
    const auto connected = server.connect(share, /*integrity=*/true);
    if (connected.tenant == 0) return false;
    tenant = connected.tenant;
    device_index = connected.device_index;
    if (!user->attest_device(server.get_pk(device_index))) return false;
    return user->complete_session(connected.response);
  }

  /// Failover resume: fresh ECDHE share, same TenantId. Returns the
  /// ConnectResult so tests can assert model_restored.
  InferenceServer::ConnectResult reconnect(InferenceServer& server) {
    const crypto::AffinePoint share = user->begin_session();
    auto result = server.reconnect(tenant, share, /*integrity=*/true);
    if (result.tenant == 0) return result;
    device_index = result.device_index;
    if (!user->attest_device(server.get_pk(device_index)) ||
        !user->complete_session(result.response))
      result.tenant = 0;
    return result;
  }

  bool load(InferenceServer& server, const FuncNetwork& net) {
    model = server.register_model(net);
    return model.valid() &&
           server.load_model(tenant, model,
                             user->seal(model.plan->weight_blob)) ==
               DeviceStatus::kOk;
  }
};

struct Env {
  crypto::HmacDrbg ca_drbg{Bytes{0xfa}};
  crypto::ManufacturerCa ca{ca_drbg};

  InferenceServer make(ServerConfig config) {
    return InferenceServer(ca, config, Bytes{0xfb, 0xfc});
  }
};

/// Polls `predicate` until it holds or ~2 s elapse (the health monitor runs
/// every monitor_interval_ms; tests must never sleep a fixed guess).
template <typename Predicate>
bool eventually(Predicate predicate) {
  for (int i = 0; i < 2000; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// --- FaultInjector unit tests ------------------------------------------------

TEST(FaultInjector, ScriptedCountersFireFifoThenClear) {
  FaultInjector faults(2);
  faults.script_integrity_burst(0, 2);
  faults.script_latency(0, 7.5, 1);
  // Device 1 is untouched by device 0's scripts.
  EXPECT_EQ(faults.on_call(1).kind, FaultKind::kNone);
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kIntegrity);
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kIntegrity);
  const auto latency = faults.on_call(0);
  EXPECT_EQ(latency.kind, FaultKind::kLatency);
  EXPECT_DOUBLE_EQ(latency.latency_ms, 7.5);
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kNone);
  EXPECT_EQ(faults.injected_count(), 3u);
}

TEST(FaultInjector, KillAfterCountdownLatchesDeath) {
  FaultInjector faults(1);
  faults.kill_after(0, 3);
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kNone);
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kNone);
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kDeath);
  EXPECT_TRUE(faults.dead(0));
  // Death latches: every later call fails until revive().
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kDeath);
  faults.revive(0);
  EXPECT_FALSE(faults.dead(0));
  EXPECT_EQ(faults.on_call(0).kind, FaultKind::kNone);
}

TEST(FaultInjector, EnvSeedParsesDecimalAndHex) {
  ASSERT_EQ(setenv("GUARDNN_FAULT_SEED", "0x2a", 1), 0);
  EXPECT_EQ(FaultInjector::env_seed(7), 42u);
  ASSERT_EQ(setenv("GUARDNN_FAULT_SEED", "1234", 1), 0);
  EXPECT_EQ(FaultInjector::env_seed(7), 1234u);
  ASSERT_EQ(setenv("GUARDNN_FAULT_SEED", "nonsense", 1), 0);
  EXPECT_EQ(FaultInjector::env_seed(7), 7u);
  ASSERT_EQ(unsetenv("GUARDNN_FAULT_SEED"), 0);
  EXPECT_EQ(FaultInjector::env_seed(7), 7u);
}

// --- Transient faults / health state machine ---------------------------------

TEST(DeviceHealth, TransientBurstBelowThresholdRetriesSameRecordToSuccess) {
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.degrade_after = 2;
  config.quarantine_after = 6;
  config.transient_retries = 3;
  config.retry_backoff_ms = 0.1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9200);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9201));
  ASSERT_TRUE(client.load(server, net));

  // Two injected transient failures, three retries budgeted: the worker
  // retries the *same* sealed record and the request completes correctly —
  // the channel sequence survives because the record was never consumed.
  server.faults().script_integrity_burst(0, 2);
  const functional::Tensor input = random_input(net, 9210);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));

  const ServerStats stats = server.stats();
  EXPECT_GE(stats.retries, 2u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(stats.quarantines, 0u);
  // Two consecutive failures crossed degrade_after, then the success healed
  // the device back to healthy.
  EXPECT_EQ(server.device_health(0), DeviceHealth::kHealthy);
}

TEST(DeviceHealth, ExhaustedRetryBudgetResolvesTimeoutAndDrainsFifo) {
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.quarantine_after = 0;  // isolate the retry/timeout machinery
  config.transient_retries = 1;
  config.retry_backoff_ms = 0.1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9300);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9301));
  ASSERT_TRUE(client.load(server, net));

  // More injected failures than the retry budget: the head request gives up
  // as kTimeout (record never consumed) and everything queued behind it
  // drains the same way — the FIFO stays gapless.
  server.faults().script_integrity_burst(0, 8);
  const functional::Tensor in1 = random_input(net, 9310);
  const functional::Tensor in2 = random_input(net, 9311);
  const crypto::SealedRecord rec1 = client.user->seal(tensor_bytes(in1));
  const crypto::SealedRecord rec2 = client.user->seal(tensor_bytes(in2));
  std::future<InferenceResult> f1 = server.submit_async(client.tenant, rec1);
  std::future<InferenceResult> f2 = server.submit_async(client.tenant, rec2);
  const InferenceResult r1 = f1.get();
  const InferenceResult r2 = f2.get();
  EXPECT_EQ(r1.outcome, RequestOutcome::kTimeout) << outcome_name(r1.outcome);
  EXPECT_EQ(r1.device_status, DeviceStatus::kIntegrityFailure);
  EXPECT_EQ(r2.outcome, RequestOutcome::kTimeout) << outcome_name(r2.outcome);
  EXPECT_GE(server.stats().timeouts, 2u);

  // Retrying the same records in order succeeds once the burst clears.
  server.faults().clear(0);
  const InferenceResult retry1 = server.submit(client.tenant, rec1);
  ASSERT_EQ(retry1.outcome, RequestOutcome::kOk) << outcome_name(retry1.outcome);
  const auto out1 = client.user->open_output(retry1.sealed_output);
  ASSERT_TRUE(out1.has_value());
  EXPECT_EQ(*out1, host::reference_run(net, in1));
  const InferenceResult retry2 = server.submit(client.tenant, rec2);
  ASSERT_EQ(retry2.outcome, RequestOutcome::kOk) << outcome_name(retry2.outcome);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

TEST(DeviceHealth, QuarantineRemovesFromRoutingRescalesBudgetAndReinstates) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 2;
  config.max_pending_bytes = 1 << 20;  // explicit budget → exact rescale math
  config.degrade_after = 1;
  config.quarantine_after = 3;
  config.transient_retries = 0;  // every injected failure counts immediately
  InferenceServer server = env.make(config);
  ASSERT_EQ(server.admission_byte_budget(), std::size_t{1} << 20);
  ASSERT_EQ(server.routable_device_count(), 2u);

  const FuncNetwork net = small_cnn(9400);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9401));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t sick = client.device_index;

  // Three consumed integrity records (retry budget zero → each records one
  // failure) cross quarantine_after. A submit can also resolve kTimeout
  // *without* a device call: the worker that just aborted a batch resolves
  // its promise before draining the FIFO under the shard lock, so the next
  // serial submit may slip into the gapless kTimeout drain. Those count no
  // failure — loop on injected_count() until all three records truly fired.
  server.faults().script_integrity_burst(sick, 3);
  const u64 fired_base = server.faults().injected_count();
  for (int i = 0; server.faults().injected_count() - fired_base < 3; ++i) {
    ASSERT_LT(i, 20) << "integrity burst never fully consumed";
    const InferenceResult result = server.submit(
        client.tenant,
        client.user->seal(tensor_bytes(random_input(net, 9410 + i))));
    EXPECT_EQ(result.outcome, RequestOutcome::kTimeout)
        << outcome_name(result.outcome);
  }

  ASSERT_TRUE(eventually([&] {
    return server.device_health(sick) == DeviceHealth::kQuarantined &&
           server.routable_device_count() == 1;
  })) << "device never quarantined: health "
      << health_name(server.device_health(sick));
  EXPECT_EQ(server.stats().quarantines, 1u);
  // The admission byte budget rescaled to the surviving half of the fleet.
  EXPECT_TRUE(eventually([&] {
    return server.admission_byte_budget() == (std::size_t{1} << 20) / 2;
  })) << "budget " << server.admission_byte_budget();
  // The quarantined device's tenant was failed over.
  EXPECT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));
  EXPECT_GE(server.stats().failovers, 1u);
  // New tenants route around the quarantined device.
  TenantClient fresh;
  ASSERT_TRUE(fresh.connect(server, env.ca.public_key(), 9402));
  EXPECT_NE(fresh.device_index, sick);

  // Admin reinstates ("replaced the card"): reset, healthy, budget restored.
  ASSERT_EQ(server.reinstate_device(sick), DeviceStatus::kOk);
  EXPECT_EQ(server.device_health(sick), DeviceHealth::kHealthy);
  EXPECT_EQ(server.routable_device_count(), 2u);
  EXPECT_EQ(server.admission_byte_budget(), std::size_t{1} << 20);
}

TEST(DeviceHealth, FailStopKillRescalesBudgetToSurvivors) {
  // The fail-stop half of the rescale rule (the quarantine half is above):
  // once the monitor sees a dead device, routing and the admission byte
  // budget shrink to the surviving fleet, with no traffic needed.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.max_pending_bytes = 1 << 20;
  InferenceServer server = env.make(config);
  ASSERT_EQ(server.admission_byte_budget(), std::size_t{1} << 20);

  server.faults().kill(0);
  EXPECT_TRUE(eventually([&] {
    return server.routable_device_count() == 1 &&
           server.admission_byte_budget() == (std::size_t{1} << 20) / 2;
  })) << "routable " << server.routable_device_count() << ", budget "
      << server.admission_byte_budget();
}

// --- Deadlines ---------------------------------------------------------------

TEST(Deadlines, WedgedDeviceResolvesTimeoutNotAHungFuture) {
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.default_deadline_ms = 25.0;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9500);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9501));
  ASSERT_TRUE(client.load(server, net));

  // Wedge the device far past the deadline: the worker sleeps only *to* the
  // deadline and resolves kTimeout — bounded wait, never a hung future.
  server.faults().script_latency(0, 10'000.0, 1);
  const functional::Tensor input = random_input(net, 9510);
  const crypto::SealedRecord record = client.user->seal(tensor_bytes(input));
  const auto before = std::chrono::steady_clock::now();
  std::future<InferenceResult> future = server.submit_async(client.tenant, record);
  ASSERT_EQ(future.wait_for(std::chrono::seconds(5)), std::future_status::ready)
      << "wedged device hung the future past the deadline";
  const double waited_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() -
                                                before)
          .count();
  const InferenceResult result = future.get();
  EXPECT_EQ(result.outcome, RequestOutcome::kTimeout)
      << outcome_name(result.outcome);
  EXPECT_LT(waited_ms, 2000.0) << "kTimeout must arrive near the deadline, "
                                  "not after the full 10 s wedge";
  EXPECT_GE(server.stats().timeouts, 1u);

  // Deadline expiry never consumed the record: the same record retries
  // cleanly once the wedge is gone.
  const InferenceResult retried = server.submit(client.tenant, record);
  ASSERT_EQ(retried.outcome, RequestOutcome::kOk) << outcome_name(retried.outcome);
  const auto output = client.user->open_output(retried.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
  // Per-request override: negative disables the config default.
  const InferenceResult no_deadline = server.submit(
      client.tenant, client.user->seal(tensor_bytes(random_input(net, 9511))),
      /*attest=*/false, /*deadline_ms=*/-1.0);
  EXPECT_EQ(no_deadline.outcome, RequestOutcome::kOk);
}

// --- Fail-stop death and replica failover ------------------------------------

TEST(Failover, DeviceDeathResolvesEveryInFlightFutureNoHangs) {
  // Regression (the satellite fix): submit_async futures used to hang when
  // the device died mid-request — the worker kept retrying device-side
  // kNoSession forever and queued promises were never resolved. Death now
  // resolves the owned batch and the queued remainder with kDeviceFailover.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.emulate_device_latency = true;
  config.device_latency_scale = 50.0;  // ~6 ms emulated service per request
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9600);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9601));
  ASSERT_TRUE(client.load(server, net));

  constexpr std::size_t kInFlight = 24;
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t r = 0; r < kInFlight; ++r)
    futures.push_back(server.submit_async(
        client.tenant,
        client.user->seal(tensor_bytes(random_input(net, 9610 + r)))));

  // Kill the device at its next data-plane call: the worker owns a batch.
  server.faults().kill_after(0, 1);

  std::size_t ok = 0, failed_over = 0;
  for (std::size_t r = 0; r < kInFlight; ++r) {
    ASSERT_EQ(futures[r].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "future " << r << " hung after device death";
    const InferenceResult result = futures[r].get();
    if (result.outcome == RequestOutcome::kOk) {
      ++ok;
    } else {
      EXPECT_EQ(result.outcome, RequestOutcome::kDeviceFailover)
          << "request " << r << ": " << outcome_name(result.outcome);
      EXPECT_EQ(result.device_status, DeviceStatus::kUnavailable);
      ++failed_over;
    }
  }
  EXPECT_EQ(ok + failed_over, kInFlight);
  EXPECT_GE(failed_over, 1u);
  EXPECT_TRUE(eventually(
      [&] { return server.device_health(0) == DeviceHealth::kDead; }));
  EXPECT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));
  EXPECT_GE(server.stats().failovers, 1u);
  // Admission counters returned every charge.
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
  // Submissions for the torn-down tenant answer the retryable outcome.
  EXPECT_EQ(server
                .submit(client.tenant,
                        client.user->seal(tensor_bytes(random_input(net, 9650))))
                .outcome,
            RequestOutcome::kDeviceFailover);
  // No routable device remains: connect reports kUnavailable, not a crash.
  RemoteUser probe(env.ca.public_key(), Bytes{0x11, 0x22});
  const auto refused = server.connect(probe.begin_session(), true);
  EXPECT_EQ(refused.tenant, 0u);
  EXPECT_EQ(refused.response.status, DeviceStatus::kUnavailable);
}

TEST(Failover, SealedReplicaTenantsResumeOnSurvivorWithModelRestored) {
  // The full failover walkthrough: the tenant seals its model to the store
  // and the fleet replicates it; when its device dies, reconnect() lands on
  // the survivor with the model already provisioned (model_restored) — the
  // weights never crossed the user link again — and inference resumes with
  // correct outputs under the fresh session.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 2;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9700);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9701));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t doomed = client.device_index;
  const std::size_t survivor = 1 - doomed;

  // Seal + replicate while the device is alive: fail-stop death strands any
  // replica that only exists on the dead device (its store key dies with
  // it), so a survivable replica must exist beforehand.
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(client.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(content, survivor), DeviceStatus::kOk);

  server.faults().kill(doomed);
  ASSERT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }))
      << "monitor never failed the tenant over";

  const auto resumed = client.reconnect(server);
  ASSERT_EQ(resumed.tenant, client.tenant);
  EXPECT_EQ(resumed.device_index, survivor);
  EXPECT_TRUE(resumed.model_restored)
      << "sealed replica existed on the survivor — reconnect must restore it";
  EXPECT_FALSE(server.failover_pending(client.tenant));

  // Inference resumes immediately — no re-upload, correct output.
  const functional::Tensor input = random_input(net, 9710);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));

  // A second reconnect for the same id finds nothing pending.
  EXPECT_EQ(server.reconnect(client.tenant, client.user->begin_session(), true)
                .response.status,
            DeviceStatus::kNoSession);
}

TEST(Failover, TenantWithoutReplicaResumesSessionButMustReloadModel) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9800);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9801));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t doomed = client.device_index;

  server.faults().kill(doomed);
  ASSERT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));

  // No sealed replica: the model died with the device — that is the honest
  // fail-stop story. The session resumes, but submissions need a reload.
  const auto resumed = client.reconnect(server);
  ASSERT_EQ(resumed.tenant, client.tenant);
  EXPECT_FALSE(resumed.model_restored);
  // Probe with an unsealed dummy record: seal() would advance the channel
  // send sequence on a record the device never consumes, wedging the session.
  crypto::SealedRecord dummy;
  EXPECT_EQ(server.submit(client.tenant, dummy).outcome,
            RequestOutcome::kNoModel);
  ASSERT_TRUE(client.load(server, net));
  const functional::Tensor input = random_input(net, 9811);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

TEST(Failover, ReloadAfterSealReconnectsWithoutStaleModel) {
  // A replica sealed before a reload holds the old weights, and the two
  // models share a structure, so restoring it would pass every descriptor
  // check. The reload forgets it: the reconnect resumes without a model
  // rather than serving the old weights under the new model's plan.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork model_a = small_cnn(9850);
  const FuncNetwork model_b = small_cnn(9860);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 9851));
  ASSERT_TRUE(client.load(server, model_a));
  const std::size_t doomed = client.device_index;
  store::ContentId stale{};
  ASSERT_EQ(server.seal_tenant_model(
                client.tenant, host::serialize_descriptor(model_a), stale),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(stale, 1 - doomed), DeviceStatus::kOk);
  ASSERT_TRUE(client.load(server, model_b));

  server.faults().kill(doomed);
  ASSERT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));

  const auto resumed = client.reconnect(server);
  ASSERT_EQ(resumed.tenant, client.tenant);
  EXPECT_FALSE(resumed.model_restored)
      << "reconnect restored the replica sealed before the reload";
  // Unsealed probe, as above: a sealed one would desync the channel.
  crypto::SealedRecord dummy;
  EXPECT_EQ(server.submit(client.tenant, dummy).outcome,
            RequestOutcome::kNoModel);
}

TEST(Failover, DroppedCompletionWoundsSessionDeviceSurvives) {
  // A lost completion is not a lost command: the device executed it and its
  // to_user sender sequence advanced on an output nobody can open. The
  // session is wounded — the tenant fails over — but the *device* is fine
  // and keeps serving other tenants.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(9900);
  TenantClient victim, bystander;
  ASSERT_TRUE(victim.connect(server, env.ca.public_key(), 9901));
  ASSERT_TRUE(bystander.connect(server, env.ca.public_key(), 9902));
  ASSERT_TRUE(victim.load(server, net));
  ASSERT_TRUE(bystander.load(server, net));

  server.faults().script_drop(0, 1);
  const InferenceResult dropped = server.submit(
      victim.tenant, victim.user->seal(tensor_bytes(random_input(net, 9910))));
  EXPECT_EQ(dropped.outcome, RequestOutcome::kDeviceFailover)
      << outcome_name(dropped.outcome);
  EXPECT_TRUE(eventually([&] { return server.failover_pending(victim.tenant); }));
  // The device never died — still routable, bystander unaffected.
  EXPECT_NE(server.device_health(0), DeviceHealth::kDead);
  EXPECT_EQ(server.routable_device_count(), 1u);
  const functional::Tensor input = random_input(net, 9911);
  const InferenceResult fine = server.submit(
      bystander.tenant, bystander.user->seal(tensor_bytes(input)));
  ASSERT_EQ(fine.outcome, RequestOutcome::kOk) << outcome_name(fine.outcome);
  const auto output = bystander.user->open_output(fine.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

TEST(Failover, PendingReconnectSurvivesReinstateOfDeadDevice) {
  // Reinstating the dead device resets it and purges its tenants, but a
  // tenant already failed over off it is no longer one of them: it stays
  // failover-pending, keeps answering the retryable outcome, and its
  // reconnect still restores the sealed model.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10100);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 10101));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t doomed = client.device_index;
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(client.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(content, 1 - doomed), DeviceStatus::kOk);

  server.faults().kill(doomed);
  ASSERT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));
  server.faults().revive(doomed);
  ASSERT_EQ(server.reinstate_device(doomed), DeviceStatus::kOk);

  EXPECT_TRUE(server.failover_pending(client.tenant))
      << "reinstating the dead device dropped the pending reconnect";
  // An unsealed probe: the old channel is gone, so nothing is consumed.
  crypto::SealedRecord probe;
  EXPECT_EQ(server.submit(client.tenant, probe).outcome,
            RequestOutcome::kDeviceFailover);

  const auto resumed = client.reconnect(server);
  ASSERT_EQ(resumed.tenant, client.tenant);
  EXPECT_TRUE(resumed.model_restored);
  EXPECT_FALSE(server.failover_pending(client.tenant));
  const functional::Tensor input = random_input(net, 10110);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

TEST(Failover, DisconnectAbandonsPendingReconnect) {
  // Disconnecting a failed-over tenant abandons its pending reconnect: the
  // id is unknown from then on, not failover-pending.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10200);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 10201));
  ASSERT_TRUE(client.load(server, net));

  server.faults().kill(client.device_index);
  ASSERT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));

  EXPECT_EQ(server.disconnect(client.tenant), DeviceStatus::kNoSession);
  EXPECT_FALSE(server.failover_pending(client.tenant));
  crypto::SealedRecord probe;
  EXPECT_EQ(server.submit(client.tenant, probe).outcome,
            RequestOutcome::kNoTenant);
  const auto resumed =
      server.reconnect(client.tenant, client.user->begin_session(), true);
  EXPECT_EQ(resumed.tenant, 0u);
  EXPECT_EQ(resumed.response.status, DeviceStatus::kNoSession);
}

TEST(Failover, ConcurrentReconnectsOneWinsNoSessionLeaks) {
  // Two reconnects of one failed-over tenant race. Exactly one resumes it;
  // the other answers kNoSession and gives back any session it opened, so
  // every open device session belongs to a live tenant.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10300);
  TenantClient victim, bystander;
  ASSERT_TRUE(victim.connect(server, env.ca.public_key(), 10301));
  ASSERT_TRUE(bystander.connect(server, env.ca.public_key(), 10302));
  ASSERT_TRUE(victim.load(server, net));
  ASSERT_TRUE(bystander.load(server, net));

  // A dropped completion wounds the victim's session but not its device,
  // so the failover closes the old slot and the session counts are exact.
  server.faults().script_drop(victim.device_index, 1);
  EXPECT_EQ(server
                .submit(victim.tenant,
                        victim.user->seal(tensor_bytes(random_input(net, 10310))))
                .outcome,
            RequestOutcome::kDeviceFailover);
  ASSERT_TRUE(eventually([&] { return server.failover_pending(victim.tenant); }));

  std::array<std::unique_ptr<RemoteUser>, 2> users;
  std::array<crypto::AffinePoint, 2> shares;
  for (std::size_t i = 0; i < 2; ++i) {
    users[i] = std::make_unique<RemoteUser>(
        env.ca.public_key(), Bytes{0x7a, static_cast<u8>(i)});
    shares[i] = users[i]->begin_session();
  }
  std::array<InferenceServer::ConnectResult, 2> results;
  {
    std::array<std::thread, 2> racers;
    for (std::size_t i = 0; i < 2; ++i)
      racers[i] = std::thread([&, i] {
        results[i] = server.reconnect(victim.tenant, shares[i], true);
      });
    for (auto& racer : racers) racer.join();
  }
  const std::size_t winners = (results[0].tenant == victim.tenant ? 1 : 0) +
                              (results[1].tenant == victim.tenant ? 1 : 0);
  ASSERT_EQ(winners, 1u);
  const std::size_t w = results[0].tenant == victim.tenant ? 0 : 1;
  EXPECT_EQ(results[1 - w].tenant, 0u);
  EXPECT_EQ(results[1 - w].response.status, DeviceStatus::kNoSession);
  EXPECT_FALSE(server.failover_pending(victim.tenant));

  std::size_t sessions = 0;
  for (std::size_t d = 0; d < server.device_count(); ++d)
    sessions += server.device(d).session_count();
  EXPECT_EQ(sessions, 2u) << "victim and bystander hold one session each";

  // The winner's handshake completes and the tenant serves again.
  ASSERT_TRUE(users[w]->attest_device(server.get_pk(results[w].device_index)));
  ASSERT_TRUE(users[w]->complete_session(results[w].response));
  ASSERT_EQ(server.load_model(victim.tenant, victim.model,
                              users[w]->seal(victim.model.plan->weight_blob)),
            DeviceStatus::kOk);
  const functional::Tensor input = random_input(net, 10311);
  const InferenceResult result =
      server.submit(victim.tenant, users[w]->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = users[w]->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

// --- Health monitor ----------------------------------------------------------

TEST(Monitor, DestructorDoesNotWaitOutTheInterval) {
  // The health monitor waits on its stop token, so tearing a server down
  // never blocks for the rest of a long monitor interval.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.monitor_interval_ms = 20000.0;
  auto server =
      std::make_unique<InferenceServer>(env.ca, config, Bytes{0xfb, 0xfc});
  std::this_thread::sleep_for(std::chrono::milliseconds(20));  // monitor idle
  const auto start = std::chrono::steady_clock::now();
  server.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

// --- Teardown of a worker-owned tenant ---------------------------------------
// A tenant waiting in a ready queue belongs to the worker that will pop it,
// so teardown leaves its FIFO to that worker. A scripted wedge holds the only
// worker inside another tenant's device call, which makes the teardown land
// deterministically while the tenant waits.

TEST(WorkerOwnedTeardown, DisconnectedQueueResolvesNoTenantUncounted) {
  // A torn-down tenant's drained requests never reach the device, so the
  // processed-work counters (stats().requests, stats().batches, the
  // batch-size histogram, the per-tenant counter) must not count them.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10300);
  TenantClient a;
  TenantClient b;
  ASSERT_TRUE(a.connect(server, env.ca.public_key(), 10301));
  ASSERT_TRUE(a.load(server, net));
  ASSERT_TRUE(b.connect(server, env.ca.public_key(), 10302));
  ASSERT_TRUE(b.load(server, net));
  const ServerStats before = server.stats();

  server.faults().script_latency(0, 300, 1);
  const u64 injected = server.faults().injected_count();
  std::future<InferenceResult> a_future = server.submit_async(
      a.tenant, a.user->seal(tensor_bytes(random_input(net, 10310))));
  ASSERT_TRUE(eventually(
      [&] { return server.faults().injected_count() > injected; }));

  std::vector<std::future<InferenceResult>> b_futures;
  for (u64 r = 0; r < 6; ++r)
    b_futures.push_back(server.submit_async(
        b.tenant, b.user->seal(tensor_bytes(random_input(net, 10320 + r)))));
  EXPECT_EQ(server.disconnect(b.tenant), DeviceStatus::kOk);

  const InferenceResult a_result = a_future.get();
  EXPECT_EQ(a_result.outcome, RequestOutcome::kOk)
      << outcome_name(a_result.outcome);
  for (auto& future : b_futures) {
    const InferenceResult result = future.get();
    EXPECT_EQ(result.outcome, RequestOutcome::kNoTenant)
        << outcome_name(result.outcome);
  }
  const ServerStats after = server.stats();
  EXPECT_EQ(after.requests - before.requests, 1u);
  EXPECT_EQ(after.batches - before.batches, 1u);
  EXPECT_TRUE(eventually([&] {
    return server.pending_requests() == 0 && server.pending_bytes() == 0;
  }));
}

TEST(WorkerOwnedTeardown, ResetLeavesQueuedTenantToItsWorker) {
  // A reset that clears a worker-owned tenant's FIFO in place destroys the
  // promises under the worker, and their futures throw broken_promise. The
  // reset must flip the tenant closed and let the worker drain it.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10400);
  TenantClient a;
  TenantClient b;
  ASSERT_TRUE(a.connect(server, env.ca.public_key(), 10401));
  ASSERT_TRUE(a.load(server, net));
  ASSERT_TRUE(b.connect(server, env.ca.public_key(), 10402));
  ASSERT_TRUE(b.load(server, net));
  ASSERT_NE(a.device_index, b.device_index);

  server.faults().script_latency(a.device_index, 300, 1);
  const u64 injected = server.faults().injected_count();
  std::future<InferenceResult> a_future = server.submit_async(
      a.tenant, a.user->seal(tensor_bytes(random_input(net, 10410))));
  ASSERT_TRUE(eventually(
      [&] { return server.faults().injected_count() > injected; }));

  std::vector<std::future<InferenceResult>> b_futures;
  for (u64 r = 0; r < 12; ++r)
    b_futures.push_back(server.submit_async(
        b.tenant, b.user->seal(tensor_bytes(random_input(net, 10420 + r)))));
  EXPECT_EQ(server.reset_device(b.device_index), DeviceStatus::kOk);

  for (auto& future : b_futures) {
    const InferenceResult result = future.get();
    EXPECT_EQ(result.outcome, RequestOutcome::kNoTenant)
        << outcome_name(result.outcome);
  }
  EXPECT_EQ(a_future.get().outcome, RequestOutcome::kOk);
  EXPECT_TRUE(eventually([&] {
    return server.pending_requests() == 0 && server.pending_bytes() == 0;
  }));
}

TEST(WorkerOwnedTeardown, DisconnectsRacingResetKeepTenantCountInRange) {
  // A disconnect that erases its tenant before reset_device purges that
  // shard must not decrement the device's tenant count after the reset
  // zeroed it: a wrapped count (2^64-1) would misroute every later connect.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  InferenceServer server = env.make(config);
  auto device_tenants = [&] {
    for (const obs::MetricSample& m : server.telemetry().metrics)
      if (m.name == "device_tenants" && m.labels == obs::Labels{{"device", "0"}})
        return m.gauge;
    return -1.0;
  };

  constexpr int kRounds = 10;
  constexpr int kTenants = 8;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<TenantClient> clients(kTenants);
    for (int i = 0; i < kTenants; ++i)
      ASSERT_TRUE(clients[i].connect(server, env.ca.public_key(),
                                     10500 + static_cast<u64>(round * kTenants + i)));
    ASSERT_EQ(device_tenants(), static_cast<double>(kTenants));

    std::atomic<bool> stop{false};
    double max_seen = 0.0;
    std::thread sampler([&] {
      while (!stop.load()) max_seen = std::max(max_seen, device_tenants());
    });
    std::thread disconnector([&] {
      for (const TenantClient& client : clients) server.disconnect(client.tenant);
    });
    // Reset while the disconnects are under way: once the first has landed.
    while (device_tenants() >= kTenants) std::this_thread::yield();
    EXPECT_EQ(server.reset_device(0), DeviceStatus::kOk);
    disconnector.join();
    stop.store(true);
    sampler.join();

    EXPECT_LE(max_seen, static_cast<double>(kTenants)) << "round " << round;
    EXPECT_EQ(device_tenants(), 0.0) << "round " << round;
  }
}

// --- Device-bound ready queues -----------------------------------------------
// A worker takes tenants only from its own device group's queue, so a wedged
// device can stall its own group but never a worker another device needs.

TEST(DeviceQueues, IdleDeviceServesWhileAnotherDeviceIsWedged) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 2;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10500);
  TenantClient a1;
  TenantClient b;
  TenantClient a2;
  ASSERT_TRUE(a1.connect(server, env.ca.public_key(), 10501));
  ASSERT_TRUE(a1.load(server, net));
  ASSERT_TRUE(b.connect(server, env.ca.public_key(), 10502));
  ASSERT_TRUE(b.load(server, net));
  ASSERT_TRUE(a2.connect(server, env.ca.public_key(), 10503));
  ASSERT_TRUE(a2.load(server, net));
  // Least-loaded placement: a1 and a2 share a device, b has the other.
  ASSERT_EQ(a1.device_index, a2.device_index);
  ASSERT_NE(a1.device_index, b.device_index);

  server.faults().script_latency(a1.device_index, 2000, 1);
  const u64 injected = server.faults().injected_count();
  std::future<InferenceResult> a1_future = server.submit_async(
      a1.tenant, a1.user->seal(tensor_bytes(random_input(net, 10510))));
  ASSERT_TRUE(eventually(
      [&] { return server.faults().injected_count() > injected; }));

  // A worker free to take any tenant would pick a2 up here and then block
  // on the wedged device. Give it the chance; a device-bound worker never
  // takes it, so this poll asserts nothing.
  std::future<InferenceResult> a2_future = server.submit_async(
      a2.tenant, a2.user->seal(tensor_bytes(random_input(net, 10511))));
  for (int i = 0; i < 100 && server.pending_requests() != 0; ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const functional::Tensor input = random_input(net, 10512);
  std::future<InferenceResult> b_future =
      server.submit_async(b.tenant, b.user->seal(tensor_bytes(input)));
  ASSERT_EQ(b_future.wait_for(std::chrono::milliseconds(500)),
            std::future_status::ready)
      << "the idle device's request waited behind the wedged device";
  EXPECT_EQ(a1_future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  const InferenceResult b_result = b_future.get();
  ASSERT_EQ(b_result.outcome, RequestOutcome::kOk)
      << outcome_name(b_result.outcome);
  const auto output = b.user->open_output(b_result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));

  EXPECT_EQ(a1_future.get().outcome, RequestOutcome::kOk);
  EXPECT_EQ(a2_future.get().outcome, RequestOutcome::kOk);
}

TEST(DeviceQueues, TargetResetDuringReplayAbortsMoveTenantStaysOnSource) {
  // A target reset while a move replays the parked FIFO wipes the session
  // the move opened there, so the move must abort rather than flip the
  // tenant onto it.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10600);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 10601));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t source = client.device_index;
  const std::size_t target = 1 - source;
  // With the replica already on the target, the move's only source-device
  // calls are the replayed requests.
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(client.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(content, target), DeviceStatus::kOk);
  const u64 aborted_before = server.stats().migrations_aborted;

  server.faults().script_latency(source, 600, 2);
  const u64 injected = server.faults().injected_count();
  const functional::Tensor in1 = random_input(net, 10610);
  const functional::Tensor in2 = random_input(net, 10611);
  std::future<InferenceResult> r1 =
      server.submit_async(client.tenant, client.user->seal(tensor_bytes(in1)));
  ASSERT_TRUE(eventually(
      [&] { return server.faults().injected_count() > injected; }));
  std::future<InferenceResult> r2 =
      server.submit_async(client.tenant, client.user->seal(tensor_bytes(in2)));

  const crypto::AffinePoint share = client.user->begin_session();
  std::future<InferenceServer::ConnectResult> moved =
      std::async(std::launch::async, [&] {
        return server.migrate_tenant(client.tenant, target, share,
                                     /*integrity=*/true);
      });
  // The second wedge is r2's replay on the source; the move's target
  // session is open by then. Sanitizer builds run the handshake slowly.
  for (int i = 0; i < 60'000 && server.faults().injected_count() < injected + 2;
       ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  ASSERT_EQ(server.faults().injected_count(), injected + 2);
  EXPECT_EQ(server.reset_device(target), DeviceStatus::kOk);

  const InferenceServer::ConnectResult result = moved.get();
  EXPECT_EQ(result.tenant, 0u);
  EXPECT_EQ(result.response.status, DeviceStatus::kUnavailable);
  const auto expect_served = [&](std::future<InferenceResult>& future,
                                 const functional::Tensor& input) {
    const InferenceResult served = future.get();
    ASSERT_EQ(served.outcome, RequestOutcome::kOk)
        << outcome_name(served.outcome);
    const auto output = client.user->open_output(served.sealed_output);
    ASSERT_TRUE(output.has_value());
    EXPECT_EQ(*output, host::reference_run(net, input));
  };
  expect_served(r1, in1);
  expect_served(r2, in2);
  EXPECT_EQ(server.tenant_session(client.tenant).first, source);
  EXPECT_EQ(server.stats().migrations_aborted, aborted_before + 1);
  const InferenceResult later = server.submit(
      client.tenant, client.user->seal(tensor_bytes(random_input(net, 10612))));
  EXPECT_EQ(later.outcome, RequestOutcome::kOk) << outcome_name(later.outcome);
}

// --- Chaos: the TSan acceptance workload -------------------------------------

TEST(Chaos, KillOneOfTwoDevicesMidStormEveryFutureResolves) {
  // The extended teardown invariant under chaos, run under ThreadSanitizer
  // in CI: 8 tenants across 2 devices submit from 8 threads while device 0
  // is killed mid-storm. 100% of in-flight futures must resolve (a dropped
  // promise throws broken_promise at .get(); a hang trips the wait_for
  // assert), admission counters must drain to zero, and tenants with sealed
  // replicas must be able to resume on the survivor.
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kPerTenant = 24;
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 4;
  config.max_pending_per_tenant = 64;
  config.emulate_device_latency = true;
  config.device_latency_scale = 20.0;  // ~2.4 ms emulated service per request
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(10000);
  std::array<TenantClient, kTenants> clients;
  store::ContentId content{};
  for (std::size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(clients[i].connect(server, env.ca.public_key(), 10010 + i));
    ASSERT_TRUE(clients[i].load(server, net));
  }
  // One sealed replica on each device so victims can resume on the survivor.
  ASSERT_EQ(server.seal_tenant_model(clients[0].tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  for (std::size_t d = 0; d < 2; ++d)
    ASSERT_EQ(server.replicate_model(content, d), DeviceStatus::kOk);

  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> hung{0};
  std::atomic<std::size_t> unexpected{0};
  auto tenant_main = [&](std::size_t index) {
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < kPerTenant; ++r) {
      futures.push_back(server.submit_async(
          clients[index].tenant,
          clients[index].user->seal(
              tensor_bytes(random_input(net, 10100 + 32 * index + r)))));
      if (r % 4 == 3) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto& future : futures) {
      if (future.wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        ++hung;
        continue;
      }
      const InferenceResult result = future.get();
      ++resolved;
      switch (result.outcome) {
        case RequestOutcome::kOk:
        case RequestOutcome::kDeviceFailover:
        case RequestOutcome::kTimeout:
        case RequestOutcome::kQueueFull:
        case RequestOutcome::kBackpressure:
        case RequestOutcome::kNoTenant:
          break;
        case RequestOutcome::kDeviceError:
          // Narrow teardown window (see serving_overload_test): acceptable
          // as long as the promise resolves.
          if (result.device_status != DeviceStatus::kNoSession) ++unexpected;
          break;
        default:
          ++unexpected;
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i)
    threads.emplace_back(tenant_main, i);
  // Kill device 0 in the middle of the storm.
  std::this_thread::sleep_for(std::chrono::milliseconds(15));
  server.faults().kill(0);
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(hung.load(), 0u) << "futures hung after device death";
  EXPECT_EQ(resolved.load(), kTenants * kPerTenant)
      << "every submitted request must resolve its promise";
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_TRUE(eventually([&] {
    return server.pending_requests() == 0 && server.pending_bytes() == 0;
  }));
  EXPECT_TRUE(eventually(
      [&] { return server.device_health(0) == DeviceHealth::kDead; }));
  EXPECT_EQ(server.routable_device_count(), 1u);

  // Victims of the dead device resume on the survivor (sealed replica →
  // model restored) and serve correct outputs again.
  std::size_t resumed_with_model = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    if (!server.failover_pending(clients[i].tenant)) continue;
    const auto resumed = clients[i].reconnect(server);
    if (resumed.tenant == 0) continue;  // survivor's session table filled up
    EXPECT_EQ(resumed.device_index, 1u);
    if (!resumed.model_restored) continue;
    ++resumed_with_model;
    const functional::Tensor input = random_input(net, 10200 + i);
    const InferenceResult result = server.submit(
        clients[i].tenant, clients[i].user->seal(tensor_bytes(input)));
    ASSERT_EQ(result.outcome, RequestOutcome::kOk)
        << outcome_name(result.outcome);
    const auto output = clients[i].user->open_output(result.sealed_output);
    ASSERT_TRUE(output.has_value());
    EXPECT_EQ(*output, host::reference_run(net, input));
  }
  EXPECT_GE(resumed_with_model, 1u)
      << "no failed-over tenant resumed with its model restored";
}

}  // namespace
}  // namespace guardnn::serving
