// Fleet-scale serving control-plane tests: the sharded routing table's
// submit hot path under wide concurrency (64 tenants x 8 workers — the
// ThreadSanitizer acceptance workload for "no global lock on submit"),
// two-level admission control (per-tenant quota vs fleet byte budget),
// open-loop overload semantics (burst past the quota, retry the same sealed
// record, FIFO of the admitted prefix, clean drain), and teardown under
// load (every queued promise resolves; admission counters return to zero).
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
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
    b = static_cast<u8>(static_cast<i8>(static_cast<int>(rng.next_below(256)) - 128));
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
        ca_public, Bytes{static_cast<u8>(seed), static_cast<u8>(seed >> 8), 0x55});
    const crypto::AffinePoint share = user->begin_session();
    const auto connected = server.connect(share, /*integrity=*/true);
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

struct Env {
  crypto::HmacDrbg ca_drbg{Bytes{0x95}};
  crypto::ManufacturerCa ca{ca_drbg};

  InferenceServer make(ServerConfig config) {
    return InferenceServer(ca, config, Bytes{0x96, 0x97});
  }
};

TEST(ShardedRouting, ShardCountDerivesFromWorkersAndRoundsToPowerOfTwo) {
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 8;
  // Default: max(16, 4 x workers) stripes, so stripes outnumber workers.
  EXPECT_EQ(env.make(config).shard_count(), 32u);
  config.num_workers = 1;
  EXPECT_EQ(env.make(config).shard_count(), 16u);
  config.num_shards = 5;  // explicit counts round up to a power of two
  EXPECT_EQ(env.make(config).shard_count(), 8u);
}

TEST(ShardedRouting, SixtyFourTenantsEightWorkersConcurrentSubmits) {
  // The acceptance workload for "no global mutex on the submit hot path":
  // 64 tenants (filling 4 devices' 16-slot session tables) submit from 64
  // client threads against 8 workers. Run under ThreadSanitizer in CI, this
  // exercises every shard transition concurrently: striped enqueue, the
  // device-bound ready queues and their per-queue wakeups, and the plan
  // cache (all tenants serve the same architecture).
  constexpr std::size_t kTenants = 64;
  constexpr std::size_t kRequests = 4;
  Env env;
  ServerConfig config;
  config.num_devices = 4;
  config.num_workers = 8;
  config.max_pending_per_tenant = 64;
  InferenceServer server = env.make(config);
  ASSERT_GE(server.shard_count(), 32u);

  const FuncNetwork net = small_cnn(4000);

  // Connect and load serially: 64 tenants exactly fill the 4 devices'
  // 16-slot session tables, and a concurrent connect storm would trip idle
  // eviction against tenants that merely haven't submitted yet. The lock
  // under test is the *submit* path, exercised below from 64 threads.
  std::vector<TenantClient> clients(kTenants);
  for (std::size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(clients[i].connect(server, env.ca.public_key(), 4100 + i))
        << "tenant " << i;
    ASSERT_TRUE(clients[i].load(server, net)) << "tenant " << i;
  }

  std::mutex failures_mu;
  std::vector<std::string> failures;
  auto fail = [&](std::string message) {
    std::lock_guard<std::mutex> lock(failures_mu);
    failures.push_back(std::move(message));
  };

  auto tenant_main = [&](std::size_t index) {
    TenantClient& client = clients[index];
    std::vector<functional::Tensor> inputs;
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < kRequests; ++r) {
      inputs.push_back(random_input(net, 8000 + 16 * index + r));
      futures.push_back(server.submit_async(
          client.tenant, client.user->seal(tensor_bytes(inputs.back()))));
    }
    for (std::size_t r = 0; r < kRequests; ++r) {
      InferenceResult result = futures[r].get();
      if (result.outcome != RequestOutcome::kOk)
        return fail("tenant " + std::to_string(index) + " request " +
                    std::to_string(r) + ": " + outcome_name(result.outcome));
      const auto output = client.user->open_output(result.sealed_output);
      if (!output)
        return fail("tenant " + std::to_string(index) + " request " +
                    std::to_string(r) + ": output did not open");
      if (*output != host::reference_run(net, inputs[r]))
        return fail("tenant " + std::to_string(index) + " request " +
                    std::to_string(r) + ": output mismatch");
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i) threads.emplace_back(tenant_main, i);
  for (auto& thread : threads) thread.join();

  for (const std::string& message : failures) ADD_FAILURE() << message;
  ASSERT_TRUE(failures.empty());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, kTenants * kRequests);
  EXPECT_EQ(stats.rejected, 0u);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

TEST(AdmissionControl, HotTenantHitsOwnQuotaQuietTenantUnaffected) {
  // Regression: admission used to be one fleet-wide pending-request cap, so
  // a single hot tenant filling the queue starved every other tenant into
  // kQueueFull. The quota is per-tenant now: the hot tenant is rejected
  // against its own budget and a quiet tenant's single request sails through.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.max_pending_per_tenant = 4;
  config.emulate_device_latency = true;
  config.device_latency_scale = 50.0;  // ~6 ms emulated service per request
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(4200);
  TenantClient hot, quiet;
  ASSERT_TRUE(hot.connect(server, env.ca.public_key(), 4201));
  ASSERT_TRUE(quiet.connect(server, env.ca.public_key(), 4202));
  ASSERT_TRUE(hot.load(server, net));
  ASSERT_TRUE(quiet.load(server, net));

  // The hot tenant bursts far past its quota with no retry discipline. (Its
  // own channel desyncs after the first drop — sealed records after a
  // rejected one arrive with a sequence gap and answer kDeviceError — which
  // is the tenant's own problem, not its neighbors'.)
  std::vector<std::future<InferenceResult>> burst;
  for (std::size_t r = 0; r < 32; ++r)
    burst.push_back(server.submit_async(
        hot.tenant, hot.user->seal(tensor_bytes(random_input(net, 4300 + r)))));

  // The quiet tenant submits one request mid-burst: it must be admitted
  // (never kQueueFull/kBackpressure) and complete correctly.
  const functional::Tensor quiet_input = random_input(net, 4400);
  InferenceResult quiet_result =
      server.submit(quiet.tenant, quiet.user->seal(tensor_bytes(quiet_input)));
  ASSERT_EQ(quiet_result.outcome, RequestOutcome::kOk)
      << outcome_name(quiet_result.outcome)
      << " — hot tenant starved the quiet tenant out of admission";
  const auto quiet_output = quiet.user->open_output(quiet_result.sealed_output);
  ASSERT_TRUE(quiet_output.has_value());
  EXPECT_EQ(*quiet_output, host::reference_run(net, quiet_input));

  u64 hot_rejected = 0;
  for (auto& future : burst) {
    const InferenceResult result = future.get();
    if (result.outcome == RequestOutcome::kQueueFull) ++hot_rejected;
    EXPECT_NE(result.outcome, RequestOutcome::kShutdown);
  }
  EXPECT_GE(hot_rejected, 1u) << "burst of 32 against quota 4 never rejected";
  EXPECT_EQ(server.stats().rejected, hot_rejected)
      << "stats_.rejected must count exactly the kQueueFull answers";
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

TEST(AdmissionControl, BackpressureIsSoftDistinctAndRetryable) {
  // The fleet byte budget answers kBackpressure — a *different* signal from
  // the per-tenant kQueueFull — and it is soft: retrying the *same* sealed
  // record later succeeds with the channel intact (re-sealing would gap the
  // sequence numbers).
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.max_pending_per_tenant = 64;
  config.max_pending_bytes = 1;  // any queued request exhausts the budget
  config.emulate_device_latency = true;
  config.device_latency_scale = 2000.0;  // ~0.24 s emulated service
  InferenceServer server = env.make(config);
  EXPECT_EQ(server.admission_byte_budget(), 1u);

  const FuncNetwork net = small_cnn(4500);
  TenantClient pinner, probe;
  ASSERT_TRUE(pinner.connect(server, env.ca.public_key(), 4501));
  ASSERT_TRUE(probe.connect(server, env.ca.public_key(), 4502));
  ASSERT_TRUE(pinner.load(server, net));
  ASSERT_TRUE(probe.load(server, net));

  // Pin the single worker inside a long emulated batch, so the probe's
  // queue ahead is deterministic.
  std::future<InferenceResult> pin = server.submit_async(
      pinner.tenant, pinner.user->seal(tensor_bytes(random_input(net, 4510))));
  while (server.pending_requests() != 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  const functional::Tensor in1 = random_input(net, 4511);
  const functional::Tensor in2 = random_input(net, 4512);
  const crypto::SealedRecord rec1 = probe.user->seal(tensor_bytes(in1));
  const crypto::SealedRecord rec2 = probe.user->seal(tensor_bytes(in2));

  // First request: the fleet queue is empty of bytes, so the progress
  // guarantee admits it even though it alone overflows the 1-byte budget.
  std::future<InferenceResult> first = server.submit_async(probe.tenant, rec1);
  // Second request: rec1 is still queued (the worker is pinned), so the
  // budget is exhausted — soft backpressure, not a quota reject.
  InferenceResult second = server.submit(probe.tenant, rec2);
  ASSERT_EQ(second.outcome, RequestOutcome::kBackpressure)
      << outcome_name(second.outcome);
  const ServerStats mid = server.stats();
  EXPECT_GE(mid.backpressured, 1u);
  EXPECT_EQ(mid.rejected, 0u)
      << "fleet backpressure must not be conflated with per-tenant kQueueFull";

  // Retry the SAME record until the queue drains; the channel must still be
  // in sequence and the result correct.
  InferenceResult retried;
  for (int attempt = 0; attempt < 2000; ++attempt) {
    retried = server.submit(probe.tenant, rec2);
    if (retried.outcome != RequestOutcome::kBackpressure) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(retried.outcome, RequestOutcome::kOk) << outcome_name(retried.outcome);

  // The user-side channel is sequence-strict on receive too: outputs open
  // in FIFO order, rec1's before rec2's.
  const InferenceResult first_result = first.get();
  ASSERT_EQ(first_result.outcome, RequestOutcome::kOk);
  const auto out1 = probe.user->open_output(first_result.sealed_output);
  ASSERT_TRUE(out1.has_value());
  EXPECT_EQ(*out1, host::reference_run(net, in1));
  const auto out2 = probe.user->open_output(retried.sealed_output);
  ASSERT_TRUE(out2.has_value());
  EXPECT_EQ(*out2, host::reference_run(net, in2));
  EXPECT_EQ(pin.get().outcome, RequestOutcome::kOk);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

TEST(OverloadSemantics, BurstPastQuotaPreservesFifoAndDrainsClean) {
  // Open-loop burst far past the per-tenant quota, with the documented
  // client discipline: a rejected submission is retried with the *same*
  // sealed record. Every request must eventually complete, in FIFO order
  // (each output must match the reference for *its* input — and the secure
  // channel's strict sequence numbers would refuse any reorder outright),
  // stats_.rejected must count exactly the observed rejections, and the
  // admission counters must drain to zero.
  constexpr std::size_t kBurst = 48;
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 2;
  config.max_pending_per_tenant = 8;
  config.emulate_device_latency = true;
  config.device_latency_scale = 20.0;  // ~2.4 ms emulated service per request
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(4600);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 4601));
  ASSERT_TRUE(client.load(server, net));

  std::vector<functional::Tensor> inputs;
  std::vector<std::future<InferenceResult>> futures(kBurst);
  std::vector<InferenceResult> results(kBurst);
  std::vector<bool> already_done(kBurst, false);
  u64 observed_rejects = 0;
  for (std::size_t r = 0; r < kBurst; ++r) {
    inputs.push_back(random_input(net, 4700 + r));
    const crypto::SealedRecord record = client.user->seal(tensor_bytes(inputs[r]));
    for (;;) {
      std::future<InferenceResult> future =
          server.submit_async(client.tenant, record);
      // Rejections resolve immediately; an admitted request's future stays
      // pending until a worker serves it (the emulated latency guarantees
      // that window).
      if (future.wait_for(std::chrono::seconds(0)) ==
          std::future_status::ready) {
        InferenceResult result = future.get();
        if (result.outcome == RequestOutcome::kQueueFull) {
          ++observed_rejects;
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          continue;  // retry the same record — never re-seal
        }
        results[r] = std::move(result);
        already_done[r] = true;
        break;
      }
      futures[r] = std::move(future);
      break;
    }
  }

  for (std::size_t r = 0; r < kBurst; ++r) {
    if (!already_done[r]) results[r] = futures[r].get();
    ASSERT_EQ(results[r].outcome, RequestOutcome::kOk)
        << "request " << r << ": " << outcome_name(results[r].outcome);
    const auto output = client.user->open_output(results[r].sealed_output);
    ASSERT_TRUE(output.has_value()) << "request " << r;
    EXPECT_EQ(*output, host::reference_run(net, inputs[r]))
        << "request " << r << ": admitted prefix broke per-tenant FIFO";
  }

  EXPECT_GE(observed_rejects, 1u)
      << "a 48-burst against quota 8 at ~2.4 ms/request never overflowed";
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.rejected, observed_rejects);
  EXPECT_EQ(stats.requests, kBurst);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

TEST(TeardownUnderLoad, DisconnectResolvesEveryQueuedPromise) {
  // Regression: disconnect() used to leave requests queued behind an
  // in-flight batch to fail device-side (kDeviceError via kNoSession) and
  // could leave the admission counters charged for work that would never
  // run. Teardown now resolves every still-queued request with kNoTenant
  // and returns its admission charge.
  Env env;
  ServerConfig config;
  config.num_devices = 1;
  config.num_workers = 1;
  config.max_pending_per_tenant = 64;
  config.emulate_device_latency = true;
  config.device_latency_scale = 200.0;  // ~24 ms emulated service per request
  InferenceServer server = env.make(config);

  const FuncNetwork net = small_cnn(4800);
  TenantClient client;
  ASSERT_TRUE(client.connect(server, env.ca.public_key(), 4801));
  ASSERT_TRUE(client.load(server, net));

  constexpr std::size_t kInFlight = 24;
  std::vector<std::future<InferenceResult>> futures;
  for (std::size_t r = 0; r < kInFlight; ++r)
    futures.push_back(server.submit_async(
        client.tenant, client.user->seal(tensor_bytes(random_input(net, 4810 + r)))));

  // Let the worker own the first batch (8 requests, ~0.2 s emulated), then
  // tear the tenant down with at least 16 requests still queued.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(server.disconnect(client.tenant), DeviceStatus::kOk);

  std::size_t ok = 0, orphaned = 0;
  for (auto& future : futures) {
    const InferenceResult result = future.get();
    switch (result.outcome) {
      case RequestOutcome::kOk:
        ++ok;
        break;
      case RequestOutcome::kNoTenant:
        ++orphaned;
        break;
      case RequestOutcome::kDeviceError:
        // Narrow window: the worker popped a batch right before the session
        // closed; the device answers kNoSession for it. Acceptable — the
        // promise still resolves — but any other device error is a bug.
        EXPECT_EQ(result.device_status, DeviceStatus::kNoSession);
        break;
      default:
        ADD_FAILURE() << "unexpected outcome " << outcome_name(result.outcome);
    }
  }
  EXPECT_GE(orphaned, 1u)
      << "disconnect with a deep queue must orphan the tail as kNoTenant";
  // Admission counters must not go stale on teardown: both return to zero
  // even though most requests never reached a worker.
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
  // And the device slot is genuinely free again.
  TenantClient next;
  ASSERT_TRUE(next.connect(server, env.ca.public_key(), 4802));
  ASSERT_TRUE(next.load(server, net));
  EXPECT_EQ(server.submit(next.tenant,
                          next.user->seal(tensor_bytes(random_input(net, 4820))))
                .outcome,
            RequestOutcome::kOk);
}

TEST(TeardownUnderLoad, StaggeredDisconnectsUnderConcurrentSubmissions) {
  // TSan stress: 8 tenants keep submitting while the control plane
  // disconnects them one by one. Every future must resolve (no promise may
  // be dropped — a dropped promise throws broken_promise at .get()), and
  // the admission counters must be zero once the dust settles.
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

  const FuncNetwork net = small_cnn(4900);
  std::array<TenantClient, kTenants> clients;
  for (std::size_t i = 0; i < kTenants; ++i) {
    ASSERT_TRUE(clients[i].connect(server, env.ca.public_key(), 4910 + i));
    ASSERT_TRUE(clients[i].load(server, net));
  }

  std::atomic<std::size_t> resolved{0};
  std::atomic<std::size_t> unexpected{0};
  auto tenant_main = [&](std::size_t index) {
    std::vector<std::future<InferenceResult>> futures;
    for (std::size_t r = 0; r < kPerTenant; ++r) {
      futures.push_back(server.submit_async(
          clients[index].tenant,
          clients[index].user->seal(tensor_bytes(random_input(net, 5000 + r)))));
      if (r % 4 == 3)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    for (auto& future : futures) {
      const InferenceResult result = future.get();
      ++resolved;
      switch (result.outcome) {
        case RequestOutcome::kOk:
        case RequestOutcome::kNoTenant:
        case RequestOutcome::kQueueFull:
          break;
        case RequestOutcome::kDeviceError:
          if (result.device_status != DeviceStatus::kNoSession) ++unexpected;
          break;
        default:
          ++unexpected;
      }
    }
  };

  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kTenants; ++i) threads.emplace_back(tenant_main, i);
  // Stagger disconnects through the middle of the submission storm.
  for (std::size_t i = 0; i < kTenants; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    server.disconnect(clients[i].tenant);  // status intentionally ignored:
    // a tenant idle-evicted or already drained answers kNoSession here.
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(resolved.load(), kTenants * kPerTenant)
      << "every submitted request must resolve its promise";
  EXPECT_EQ(unexpected.load(), 0u);
  EXPECT_EQ(server.pending_requests(), 0u);
  EXPECT_EQ(server.pending_bytes(), 0u);
}

}  // namespace
}  // namespace guardnn::serving
