// Live-migration and hot-spare tests: planned zero-loss tenant moves
// (drain → attested re-wrap → re-key → FIFO replay on the source → atomic
// routing flip), migration racing device death (source death degrades to the
// crash failover path, target death aborts with the tenant untouched),
// standby-pool auto-promotion restoring the admission byte budget, and the
// migration chaos storm: 8 tenants migrating repeatedly under live load and
// injected faults with 100% of futures resolved and bit-identical outputs.
// Runs under ThreadSanitizer in CI.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
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
        Bytes{static_cast<u8>(seed), static_cast<u8>(seed >> 8), 0x6e});
    const crypto::AffinePoint share = user->begin_session();
    const auto connected = server.connect(share, /*integrity=*/true);
    if (connected.tenant == 0) return false;
    tenant = connected.tenant;
    device_index = connected.device_index;
    if (!user->attest_device(server.get_pk(device_index))) return false;
    return user->complete_session(connected.response);
  }

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

  /// Planned migration, step 1: hand the server a fresh ECDHE share and run
  /// the drain + replay + flip. begin_session() only mints the new
  /// ephemeral — the *old* channel keys stay live, so outputs of replayed
  /// (old-session) requests still open until finish_migrate() re-keys.
  InferenceServer::ConnectResult start_migrate(InferenceServer& server,
                                               std::size_t target) {
    return server.migrate_tenant(tenant, target, user->begin_session(),
                                 /*integrity=*/true);
  }

  /// Step 2 (after harvesting old-session outputs): attest the target and
  /// derive the new channel keys from the migration's InitSession response.
  bool finish_migrate(InferenceServer& server,
                      const InferenceServer::ConnectResult& result) {
    if (result.tenant == 0) return false;
    device_index = result.device_index;
    return user->attest_device(server.get_pk(device_index)) &&
           user->complete_session(result.response);
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

// Spare promotion pre-warms through the attested re-wrap whose EC math runs
// ~10x slower under ASan — waits that gate on it get the longer budget.
template <typename Predicate>
bool eventually(Predicate predicate, int iterations = 2000) {
  for (int i = 0; i < iterations; ++i) {
    if (predicate()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return predicate();
}

// --- Planned migration: the zero-loss walkthrough ----------------------------

TEST(Migration, MigrateUnderLoadZeroLossBitIdenticalFifoSurvives) {
  // The tentpole invariant: migrating a tenant with a queue full of admitted
  // requests loses nothing. Parked records replay on the *source* session in
  // FIFO order (they are sealed under the old channel keys and strict
  // sequence numbers forbid re-sealing or skipping), so every future
  // resolves kOk and every output is bit-identical to the single-device
  // golden — then new submissions execute on the target under the new keys.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  config.emulate_device_latency = true;
  config.device_latency_scale = 10.0;  // keep requests parked during the move
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(11000);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11001));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t source = client.device_index;
  const std::size_t target = 1 - source;

  constexpr std::size_t kInFlight = 16;
  std::vector<functional::Tensor> inputs;
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t r = 0; r < kInFlight; ++r) {
    inputs.push_back(random_input(net, 11010 + r));
    futures.push_back(server.submit_async(
        client.tenant, client.user->seal(tensor_bytes(inputs.back()))));
  }

  // Migrate while the queue is hot. The call returns only after the replay
  // drained the FIFO and the routing entry flipped.
  const auto moved = client.start_migrate(server, target);
  ASSERT_EQ(moved.tenant, client.tenant)
      << "migration failed: " << static_cast<int>(moved.response.status);
  EXPECT_EQ(moved.device_index, target);
  EXPECT_TRUE(moved.model_restored)
      << "the loaded model must follow the tenant without a re-upload";

  // Zero loss, FIFO intact: every parked future resolved kOk during the
  // replay, and each output opens under the OLD keys (finish_migrate has not
  // re-keyed yet) bit-identical to the reference — an out-of-order or
  // re-sealed record would have failed the channel sequence check instead.
  for (std::size_t r = 0; r < kInFlight; ++r) {
    ASSERT_EQ(futures[r].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "future " << r << " not resolved by the replay";
    const InferenceResult result = futures[r].get();
    ASSERT_EQ(result.outcome, RequestOutcome::kOk)
        << "request " << r << ": " << outcome_name(result.outcome);
    const auto output = client.user->open_output(result.sealed_output);
    ASSERT_TRUE(output.has_value()) << "request " << r;
    EXPECT_EQ(*output, host::reference_run(net, inputs[r])) << "request " << r;
  }
  ASSERT_TRUE(client.finish_migrate(server, moved));

  // Post-flip traffic executes on the target under the new keys.
  const functional::Tensor after = random_input(net, 11100);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(after)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, after));
  EXPECT_EQ(server.tenant_session(client.tenant).first, target);

  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.migrations, 1u);
  EXPECT_EQ(stats.migrations_aborted, 0u);
  EXPECT_EQ(stats.migrations_degraded, 0u);
  EXPECT_EQ(stats.failovers, 0u);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

TEST(Migration, ModelLessTenantMigratesAsSessionOnlyMove) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11200));
  const std::size_t target = 1 - client.device_index;

  const auto moved = client.start_migrate(server, target);
  ASSERT_EQ(moved.tenant, client.tenant);
  EXPECT_FALSE(moved.model_restored);
  ASSERT_TRUE(client.finish_migrate(server, moved));

  // The fresh target session accepts a model load and serves correctly.
  const FuncNetwork net = small_cnn(11210);
  ASSERT_TRUE(client.load(server, net));
  const functional::Tensor input = random_input(net, 11211);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
  EXPECT_EQ(server.stats().migrations, 1u);
}

TEST(Migration, ReloadAfterSealMovesTheReloadedWeights) {
  // A replica sealed before a reload holds the old weights. The two models
  // share a structure, so their descriptors match and nothing downstream
  // can tell the replicas apart: the migration must seal the reloaded model
  // on the source instead of moving the stale replica.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork model_a = small_cnn(11250);
  const FuncNetwork model_b = small_cnn(11260);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11251));
  ASSERT_TRUE(client.load(server, model_a));
  store::ContentId stale{};
  ASSERT_EQ(server.seal_tenant_model(
                client.tenant, host::serialize_descriptor(model_a), stale),
            DeviceStatus::kOk);
  ASSERT_TRUE(client.load(server, model_b));
  const std::size_t target = 1 - client.device_index;

  const auto moved = client.start_migrate(server, target);
  ASSERT_EQ(moved.tenant, client.tenant)
      << "migration failed: " << static_cast<int>(moved.response.status);
  EXPECT_TRUE(moved.model_restored);
  ASSERT_TRUE(client.finish_migrate(server, moved));

  const functional::Tensor input = random_input(model_b, 11270);
  ASSERT_NE(host::reference_run(model_a, input),
            host::reference_run(model_b, input));
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(model_b, input))
      << "the migrated tenant serves the weights sealed before the reload";
}

TEST(Migration, BadTargetsAndUnknownTenantsAreRejected) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11300));
  RemoteUser& user = *client.user;

  // Unknown tenant.
  EXPECT_EQ(server.migrate_tenant(9999, 1 - client.device_index,
                                  user.begin_session(), true)
                .response.status,
            DeviceStatus::kNoSession);
  // Out-of-range target.
  EXPECT_EQ(server.migrate_tenant(client.tenant, 99, user.begin_session(), true)
                .response.status,
            DeviceStatus::kBadOperand);
  // Target == source: nothing to move.
  EXPECT_EQ(server.migrate_tenant(client.tenant, client.device_index,
                                  user.begin_session(), true)
                .response.status,
            DeviceStatus::kBadOperand);
  // Dead target is not routable.
  const std::size_t other = 1 - client.device_index;
  server.faults().kill(other);
  ASSERT_TRUE(eventually(
      [&] { return server.device_health(other) == DeviceHealth::kDead; }));
  EXPECT_EQ(server.migrate_tenant(client.tenant, other, user.begin_session(),
                                  true)
                .response.status,
            DeviceStatus::kUnavailable);
  // None of the rejections disturbed the tenant.
  EXPECT_EQ(server.tenant_session(client.tenant).first, client.device_index);
  EXPECT_EQ(server.stats().migrations, 0u);
}

// --- Migration racing device death -------------------------------------------

TEST(Migration, SourceDeathMidMigrationDegradesToCrashFailover) {
  // The source's session keys die with its SRAM: the parked records can
  // never be replayed. The migration must degrade to exactly the PR 7 crash
  // story — every future resolves (kDeviceFailover), a failover record is
  // registered, and reconnect() restores the sealed replica on the survivor.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  config.emulate_device_latency = true;
  config.device_latency_scale = 10.0;  // a wide replay window to die inside
  // Slow the monitor so the *migration's replay* observes the fail-stop
  // (with the default 1 ms tick the monitor usually wins the race and tears
  // the tenant down before migrate_tenant claims it — same end state, but
  // then the degraded path would never be exercised here).
  config.monitor_interval_ms = 200.0;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(11400);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11401));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t source = client.device_index;
  const std::size_t target = 1 - source;

  // A survivable replica must exist before the death (fail-stop strands the
  // dead device's replica — its store key died too).
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(client.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(content, target), DeviceStatus::kOk);

  // One canary occupies the worker (each emulated inference sleeps tens of
  // milliseconds inside the device-busy region), then a deep queue builds up
  // behind it that the migration's replay will own.
  std::future<InferenceResult> canary = server.submit_async(
      client.tenant, client.user->seal(tensor_bytes(random_input(net, 11405))));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  constexpr std::size_t kParked = 13;
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t r = 0; r < kParked; ++r)
    futures.push_back(server.submit_async(
        client.tenant,
        client.user->seal(tensor_bytes(random_input(net, 11410 + r)))));

  // Script the fail-stop five source calls out: the replay is mid-queue when
  // the death latches, so run_batch observes it, fails the tenant over, and
  // the migration degrades instead of flipping (the FIFO can never empty).
  server.faults().kill_after(source, 5);
  const auto moved = client.start_migrate(server, target);
  EXPECT_EQ(moved.tenant, 0u) << "a migration whose source died must not "
                                 "report success";
  {
    const RequestOutcome outcome = canary.get().outcome;
    EXPECT_TRUE(outcome == RequestOutcome::kOk ||
                outcome == RequestOutcome::kDeviceFailover)
        << outcome_name(outcome);
  }

  // 100% of the parked futures resolve — none hang, none are lost silently.
  for (std::size_t r = 0; r < kParked; ++r) {
    ASSERT_EQ(futures[r].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "future " << r << " hung after source death mid-migration";
    const InferenceResult result = futures[r].get();
    EXPECT_TRUE(result.outcome == RequestOutcome::kDeviceFailover ||
                result.outcome == RequestOutcome::kOk)
        << "request " << r << ": " << outcome_name(result.outcome);
  }
  EXPECT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }))
      << "degraded migration must leave the tenant failover-pending";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.migrations, 0u);
  if (moved.response.status == accel::DeviceStatus::kNoSession) {
    // Legal (rare) race: a worker observed the death before migrate_tenant
    // could mark the tenant draining, so the crash machinery won outright
    // and the migration never started.
    EXPECT_EQ(stats.migrations_degraded, 0u);
  } else {
    EXPECT_EQ(stats.migrations_degraded, 1u)
        << "a mid-replay source death must be classified as degraded";
  }
  EXPECT_TRUE(eventually([&] {
    return server.pending_requests() == 0 && server.pending_bytes() == 0;
  }));

  // The PR 7 resume path works unchanged: fresh handshake, model restored.
  const auto resumed = client.reconnect(server);
  ASSERT_EQ(resumed.tenant, client.tenant);
  EXPECT_EQ(resumed.device_index, target);
  EXPECT_TRUE(resumed.model_restored);
  const functional::Tensor input = random_input(net, 11450);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

TEST(Migration, TargetDeathMidMigrationAbortsAndTenantResumesOnSource) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(11500);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11501));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t source = client.device_index;
  const std::size_t target = 1 - source;

  constexpr std::size_t kParked = 6;
  std::vector<functional::Tensor> inputs;
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t r = 0; r < kParked; ++r) {
    inputs.push_back(random_input(net, 11510 + r));
    futures.push_back(server.submit_async(
        client.tenant, client.user->seal(tensor_bytes(inputs.back()))));
  }

  // The target dies at its first migration-side call (the routable check at
  // entry still passes — death latches on the next call through the gate).
  server.faults().kill_after(target, 1);
  const auto moved = client.start_migrate(server, target);
  EXPECT_EQ(moved.tenant, 0u);
  EXPECT_EQ(moved.response.status, DeviceStatus::kUnavailable);

  // Abort means *untouched*: the tenant is still keyed to the source, the
  // parked queue reschedules onto the workers, and every request completes
  // correctly under the original channel keys. finish_migrate is never
  // called, so the client's keys were never swapped.
  for (std::size_t r = 0; r < kParked; ++r) {
    ASSERT_EQ(futures[r].wait_for(std::chrono::seconds(10)),
              std::future_status::ready)
        << "future " << r << " hung after aborted migration";
    const InferenceResult result = futures[r].get();
    ASSERT_EQ(result.outcome, RequestOutcome::kOk)
        << "request " << r << ": " << outcome_name(result.outcome);
    const auto output = client.user->open_output(result.sealed_output);
    ASSERT_TRUE(output.has_value()) << "request " << r;
    EXPECT_EQ(*output, host::reference_run(net, inputs[r])) << "request " << r;
  }
  EXPECT_EQ(server.tenant_session(client.tenant).first, source);
  EXPECT_FALSE(server.failover_pending(client.tenant));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_GE(stats.migrations_aborted, 1u);
  EXPECT_EQ(stats.migrations_degraded, 0u);

  // The tenant keeps serving on the source as if nothing happened.
  const functional::Tensor input = random_input(net, 11550);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
}

TEST(Migration, DisconnectMidMigrationAbortsWithoutFailover) {
  // A tenant disconnected after the drain mark is torn down by its owner,
  // not by a device failure: the migration counts as aborted and answers
  // kNoSession, and no failover is recorded or registered.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(11600);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11601));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t target = 1 - client.device_index;

  // Wedge the target's first gated call: once the injector has fired, the
  // migration sits inside that call, past the drain mark.
  server.faults().script_latency(target, 300, 1);
  const u64 injected_before = server.faults().injected_count();
  InferenceServer::ConnectResult moved;
  std::thread migrator([&] { moved = client.start_migrate(server, target); });
  const bool wedged = eventually(
      [&] { return server.faults().injected_count() > injected_before; },
      /*iterations=*/20000);
  const DeviceStatus disconnected = server.disconnect(client.tenant);
  migrator.join();
  ASSERT_TRUE(wedged);
  EXPECT_EQ(disconnected, DeviceStatus::kOk);

  EXPECT_EQ(moved.tenant, 0u);
  EXPECT_EQ(moved.response.status, DeviceStatus::kNoSession);
  EXPECT_FALSE(server.failover_pending(client.tenant));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.migrations, 0u);
  EXPECT_EQ(stats.migrations_aborted, 1u);
  EXPECT_EQ(stats.migrations_degraded, 0u);
  EXPECT_EQ(stats.failovers, 0u);
}

TEST(Migration, ConcurrentDisjointTenantMigrationsOverlap) {
  // Two tenants on disjoint (source, target) device pairs migrate at the
  // same moment from two threads. Nothing serializes them globally (the
  // provisioning exclusion is per device pair), so both must succeed with
  // zero loss.
  Env env;
  ServerConfig config;
  config.num_devices = 4;
  config.num_workers = 2;
  config.emulate_device_latency = true;
  config.device_latency_scale = 10.0;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(11600);
  std::array<TenantClient, 2> clients;
  for (std::size_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(clients[i].connect(server, env.ca.public_key(), 11601 + i));
    ASSERT_TRUE(clients[i].load(server, net));
  }
  ASSERT_NE(clients[0].device_index, clients[1].device_index);
  // Disjoint targets, untouched by either source.
  std::array<std::size_t, 2> targets{};
  std::size_t next_free = 0;
  for (std::size_t d = 0; d < 4 && next_free < 2; ++d)
    if (d != clients[0].device_index && d != clients[1].device_index)
      targets[next_free++] = d;
  ASSERT_EQ(next_free, 2u);

  std::atomic<int> failures{0};
  auto migrate_one = [&](std::size_t i) {
    constexpr std::size_t kParked = 8;
    std::vector<functional::Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < kParked; ++r) {
      inputs.push_back(random_input(net, 11610 + 16 * i + r));
      futures.push_back(server.submit_async(
          clients[i].tenant,
          clients[i].user->seal(tensor_bytes(inputs.back()))));
    }
    const auto moved = clients[i].start_migrate(server, targets[i]);
    if (moved.tenant != clients[i].tenant) {
      ++failures;
      return;
    }
    for (std::size_t r = 0; r < kParked; ++r) {
      if (futures[r].wait_for(std::chrono::seconds(30)) !=
          std::future_status::ready) {
        ++failures;
        return;
      }
      const InferenceResult result = futures[r].get();
      if (result.outcome != RequestOutcome::kOk) {
        ++failures;
        return;
      }
      const auto output = clients[i].user->open_output(result.sealed_output);
      if (!output || *output != host::reference_run(net, inputs[r])) {
        ++failures;
        return;
      }
    }
    if (!clients[i].finish_migrate(server, moved)) ++failures;
  };

  std::thread t0(migrate_one, 0);
  std::thread t1(migrate_one, 1);
  t0.join();
  t1.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().migrations, 2u);
  EXPECT_EQ(server.tenant_session(clients[0].tenant).first, targets[0]);
  EXPECT_EQ(server.tenant_session(clients[1].tenant).first, targets[1]);
}

// --- Hot spares --------------------------------------------------------------

TEST(HotSpares, PromotionRestoresAdmissionBudgetAndServesDisplacedTenants) {
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_spare_devices = 1;
  config.num_workers = 2;
  config.max_pending_bytes = 1 << 20;  // explicit budget → exact math
  InferenceServer server = env.make(config);

  // Spares are fabricated but invisible: not routable, not counted against
  // the admission budget.
  EXPECT_EQ(server.device_count(), 3u);
  EXPECT_EQ(server.primary_device_count(), 2u);
  EXPECT_EQ(server.standby_device_count(), 1u);
  EXPECT_EQ(server.routable_device_count(), 2u);
  EXPECT_EQ(server.admission_byte_budget(), std::size_t{1} << 20);

  const FuncNetwork net = small_cnn(11700);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11701));
  ASSERT_TRUE(client.load(server, net));
  EXPECT_LT(client.device_index, 2u) << "standby spare must never take traffic";
  const std::size_t doomed = client.device_index;
  const std::size_t survivor = 1 - doomed;

  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(client.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);
  ASSERT_EQ(server.replicate_model(content, survivor), DeviceStatus::kOk);

  // Kill a primary: the monitor fails the tenant over, then notices the
  // routable fleet fell below the floor and promotes the spare — pre-warmed
  // with the displaced tenant's sealed replica — restoring the full budget.
  server.faults().kill(doomed);
  ASSERT_TRUE(eventually([&] { return server.stats().spare_promotions == 1; },
                         30000))
      << "spare never promoted";
  EXPECT_TRUE(eventually([&] {
    return server.routable_device_count() == 2 &&
           server.admission_byte_budget() == (std::size_t{1} << 20);
  })) << "promotion must restore the admission byte budget (budget "
      << server.admission_byte_budget() << ")";
  EXPECT_EQ(server.standby_device_count(), 0u);
  // The spare was pre-warmed with the displaced tenant's model replica.
  EXPECT_TRUE(server.model_store().contains(content, server.device_binding(2)));

  ASSERT_TRUE(eventually([&] { return server.failover_pending(client.tenant); }));
  const auto resumed = client.reconnect(server);
  ASSERT_EQ(resumed.tenant, client.tenant);
  EXPECT_TRUE(resumed.model_restored);
  const functional::Tensor input = random_input(net, 11750);
  const InferenceResult result =
      server.submit(client.tenant, client.user->seal(tensor_bytes(input)));
  ASSERT_EQ(result.outcome, RequestOutcome::kOk) << outcome_name(result.outcome);
  const auto output = client.user->open_output(result.sealed_output);
  ASSERT_TRUE(output.has_value());
  EXPECT_EQ(*output, host::reference_run(net, input));
}

TEST(HotSpares, ReinstateWithPromotedSpareNeverOverscalesBudget) {
  // Regression pin: the admission budget divides by the *primary* fleet and
  // caps at the configured value. Reinstating the failed primary while the
  // promoted spare is routable gives routable > primary — the budget must
  // restore to exactly the full-fleet value, never 1.5× it.
  Env env;
  ServerConfig config;
  config.num_devices = 2;
  config.num_spare_devices = 1;
  config.num_workers = 1;
  config.max_pending_bytes = 1 << 20;
  InferenceServer server = env.make(config);

  server.faults().kill(0);
  ASSERT_TRUE(eventually([&] { return server.stats().spare_promotions == 1; },
                         30000));
  ASSERT_TRUE(eventually([&] { return server.routable_device_count() == 2; }));

  server.faults().revive(0);
  ASSERT_EQ(server.reinstate_device(0), DeviceStatus::kOk);
  EXPECT_EQ(server.routable_device_count(), 3u);
  EXPECT_EQ(server.admission_byte_budget(), std::size_t{1} << 20)
      << "budget must cap at the configured full-fleet value";
}

TEST(Provisioning, TeardownDuringReplicationNeverLeaksPairLocks) {
  // Regression pin: killing a device and disconnecting the sealing tenant
  // while replications are in flight must leave every per-device
  // provisioning lock released — later re-wraps between any pair (including
  // ones involving the reinstated device) complete instead of deadlocking.
  Env env;
  ServerConfig config;
  config.num_devices = 3;
  config.num_workers = 1;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(11800);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 11801));
  ASSERT_TRUE(client.load(server, net));
  const std::size_t home = client.device_index;
  store::ContentId content{};
  ASSERT_EQ(server.seal_tenant_model(client.tenant,
                                     host::serialize_descriptor(net), content),
            DeviceStatus::kOk);

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      while (!stop.load(std::memory_order_relaxed)) {
        // Erase + re-replicate in a loop so the handshake actually runs
        // (a contains() hit short-circuits it).
        const std::size_t target = (home + 1 + t % 2) % 3;
        server.replicate_model(content, target);
        server.model_store().erase(content, server.device_binding(target));
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.faults().kill(home);  // source dies mid-storm
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  server.disconnect(client.tenant);  // teardown races the replications
  stop.store(true, std::memory_order_relaxed);
  for (auto& thread : threads) thread.join();

  // Every pair lock must be free: a fresh tenant can seal and fan its model
  // out across the surviving pair, and to the reinstated device, without
  // wedging. (A leaked provision_mu would hang this and trip the timeout.)
  server.faults().revive(home);
  ASSERT_EQ(server.reinstate_device(home), DeviceStatus::kOk);
  TenantClient fresh;
  ASSERT_TRUE(fresh.connect(server, env.ca.public_key(), 11820));
  ASSERT_TRUE(fresh.load(server, net));
  store::ContentId fresh_content{};
  ASSERT_EQ(server.seal_tenant_model(fresh.tenant,
                                     host::serialize_descriptor(net),
                                     fresh_content),
            DeviceStatus::kOk);
  for (std::size_t d = 0; d < 3; ++d)
    EXPECT_EQ(server.replicate_model(fresh_content, d), DeviceStatus::kOk)
        << "replication to device " << d << " wedged or failed";
}

// --- Chaos: the migration storm acceptance workload --------------------------

TEST(Chaos, MigrationStormUnderLoadAndFaultsResolvesEveryFuture) {
  // The acceptance invariant, run under ThreadSanitizer in CI: 8 tenants
  // submit Poisson-ish load from 8 threads while each repeatedly migrates
  // itself between devices, a fault thread injects transient bursts, and one
  // device is killed mid-storm. 100% of futures must resolve, every kOk
  // output must be bit-identical to the single-device golden, and the
  // admission counters must drain to zero.
  constexpr std::size_t kTenants = 8;
  constexpr std::size_t kRounds = 6;
  constexpr std::size_t kPerRound = 4;
  Env env;
  ServerConfig config;
  config.num_devices = 3;
  config.num_workers = 4;
  config.max_pending_per_tenant = 64;
  config.emulate_device_latency = true;
  config.device_latency_scale = 10.0;
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(12000);
  std::array<TenantClient, kTenants> clients;
  for (std::size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(clients[i].connect(server, env.ca.public_key(), 12010 + i));
    ASSERT_TRUE(clients[i].load(server, net));
    // Every tenant records a sealed replica so a degraded migration can
    // always resume with its model restored; replicas fan out to the fleet
    // up front (content-addressed: 8 seals dedup to one blob per device).
    store::ContentId content{};
    ASSERT_EQ(server.seal_tenant_model(clients[i].tenant,
                                       host::serialize_descriptor(net),
                                       content),
              DeviceStatus::kOk);
    for (std::size_t d = 0; d < 3; ++d)
      ASSERT_EQ(server.replicate_model(content, d), DeviceStatus::kOk);
  }

  std::atomic<std::size_t> submitted{0};
  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> hung{0};
  std::atomic<std::size_t> corrupt{0};
  std::atomic<std::size_t> unexpected{0};
  std::atomic<std::size_t> completed_migrations{0};

  struct Pending {
    std::future<InferenceResult> future;
    functional::Tensor input;
  };

  auto tenant_main = [&](std::size_t index) {
    TenantClient& client = clients[index];
    Xoshiro256 rng(12100 + index);
    std::vector<Pending> outstanding;
    // Harvest every outstanding future. Must run BEFORE any re-key: kOk
    // outputs are sealed under the keys their requests were submitted with.
    auto harvest = [&] {
      for (Pending& pending : outstanding) {
        if (pending.future.wait_for(std::chrono::seconds(30)) !=
            std::future_status::ready) {
          ++hung;
          continue;
        }
        const InferenceResult result = pending.future.get();
        ++resolved;
        switch (result.outcome) {
          case RequestOutcome::kOk: {
            const auto output = client.user->open_output(result.sealed_output);
            if (!output || *output != host::reference_run(net, pending.input))
              ++corrupt;
            break;
          }
          case RequestOutcome::kDeviceFailover:
          case RequestOutcome::kTimeout:
          case RequestOutcome::kQueueFull:
          case RequestOutcome::kBackpressure:
          case RequestOutcome::kNoTenant:
          case RequestOutcome::kNoModel:
            break;
          case RequestOutcome::kDeviceError:
            if (result.device_status != DeviceStatus::kNoSession) ++unexpected;
            break;
          default:
            ++unexpected;
        }
      }
      outstanding.clear();
    };

    for (std::size_t round = 0; round < kRounds; ++round) {
      for (std::size_t r = 0; r < kPerRound; ++r) {
        Pending pending{
            {}, random_input(net, 12200 + 64 * index + 8 * round + r)};
        pending.future = server.submit_async(
            client.tenant, client.user->seal(tensor_bytes(pending.input)));
        ++submitted;
        outstanding.push_back(std::move(pending));
        // Poisson-ish arrivals: exponential-ish gaps via a geometric coin.
        if (rng.next_below(2) == 0)
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (round % 2 == 1) {
        // Migrate self to a random *other* device. The replay resolves
        // everything outstanding before the call returns; harvest under the
        // old keys, then re-key.
        const std::size_t here = server.tenant_session(client.tenant).first;
        const std::size_t target =
            (here + 1 + rng.next_below(2)) % config.num_devices;
        const auto moved = client.start_migrate(server, target);
        harvest();
        if (moved.tenant == client.tenant) {
          ++completed_migrations;
          if (!client.finish_migrate(server, moved)) return;
        } else if (server.failover_pending(client.tenant)) {
          // Source died mid-move: the crash path took over. Resume.
          const auto resumed = client.reconnect(server);
          if (resumed.tenant == 0) return;  // no capacity left — done
          if (!resumed.model_restored && !client.load(server, net)) return;
        }
        // Aborted with the source alive: keys unchanged, keep submitting.
      }
    }
    harvest();
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i)
    threads.emplace_back(tenant_main, i);

  // Fault storm: transient integrity bursts, then one fail-stop death.
  std::thread chaos([&] {
    Xoshiro256 rng(12300);
    for (int burst = 0; burst < 4; ++burst) {
      std::this_thread::sleep_for(std::chrono::milliseconds(8));
      server.faults().script_integrity_burst(rng.next_below(3), 1);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    server.faults().kill(2);
  });
  for (auto& thread : threads) thread.join();
  chaos.join();

  EXPECT_EQ(hung.load(), 0u) << "futures hung during the migration storm";
  EXPECT_EQ(resolved.load(), submitted.load())
      << "every admitted request must resolve its promise";
  EXPECT_EQ(corrupt.load(), 0u)
      << "post-migration outputs must be bit-identical to the golden";
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_GE(completed_migrations.load(), 1u)
      << "the storm never completed a migration — not exercising the tentpole";
  EXPECT_TRUE(eventually([&] {
    return server.pending_requests() == 0 && server.pending_bytes() == 0;
  }));
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.migrations, completed_migrations.load());

  // Post-storm: every still-live tenant serves bit-identical outputs on
  // whatever device it ended up on.
  std::size_t live = 0;
  for (std::size_t i = 0; i < kTenants; ++i) {
    if (clients[i].tenant == 0) continue;
    const functional::Tensor input = random_input(net, 12400 + i);
    const InferenceResult result = server.submit(
        clients[i].tenant, clients[i].user->seal(tensor_bytes(input)));
    if (result.outcome != RequestOutcome::kOk) continue;
    ++live;
    const auto output = clients[i].user->open_output(result.sealed_output);
    ASSERT_TRUE(output.has_value()) << "tenant " << i;
    EXPECT_EQ(*output, host::reference_run(net, input)) << "tenant " << i;
  }
  EXPECT_GE(live, 1u) << "no tenant survived the storm";
}

}  // namespace
}  // namespace guardnn::serving
