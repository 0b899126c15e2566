#include "fleet.h"

#include <cstdio>

#include "common/rng.h"
#include "host/user_client.h"
#include "traffic.h"

namespace fleetbench {

namespace {

using accel::DeviceStatus;
using serving::InferenceServer;

constexpr std::size_t kWarmupRequests = 2;

bool fail(const char* what, serving::TenantId tenant) {
  std::fprintf(stderr, "%s failed (tenant %llu)\n", what,
               static_cast<unsigned long long>(tenant));
  return false;
}

/// Submits one input and checks the output against its reference.
bool verified_request(InferenceServer& server, Client& client,
                      const Model& model, std::size_t input) {
  auto future = server.submit_async(client.tenant,
                                    client.user->seal(model.inputs[input]));
  const auto result = await_result(future);
  return result && output_matches(*client.user, *result, model.expected[input]);
}

}  // namespace

bool control_cycle(Fleet& fleet, const World& world, const Model& model,
                   ControlStats& out) {
  const u64 cycle = out.cycles;
  InferenceServer& server = *fleet.server;
  const serving::ModelHandle& handle = fleet.control_handle;
  Xoshiro256 rng(world.sub_seed(kControlUserStream, 1000 + cycle));
  const auto pick_input = [&] {
    return rng.next_below(model.inputs.size());
  };
  // Times one control call, records its sample and span, counts it as
  // attempted, and reports a failure.
  const auto step = [&](const char* name, serving::TenantId tenant,
                        std::vector<double>& sink, auto&& call) {
    ++out.attempted;
    const long long start = now_ns();
    const bool ok = call();
    const long long end = now_ns();
    sink.push_back(ms_between(start, end));
    out.spans.push_back(CallSpan{name, start, end, tenant});
    return ok || fail(name, tenant);
  };
  // One request on `client`'s session, checked against the reference.
  const auto check = [&](Client& client, const char* after) {
    ++out.attempted;
    return verified_request(server, client, model, pick_input()) ||
           fail(after, client.tenant);
  };

  Client owner;
  Client restored;
  store::ContentId content{};
  const bool ok = [&] {
    if (!step("connect", 0, out.connect_ms, [&] {
          return connect_client(server, world, kControlUserStream, 2 * cycle,
                                owner);
        }))
      return false;
    if (!step("load_model", owner.tenant, out.load_ms, [&] {
          const crypto::SealedRecord weights =
              owner.user->seal(handle.plan->weight_blob);
          return server.load_model(owner.tenant, handle, weights) ==
                 DeviceStatus::kOk;
        }))
      return false;
    if (!step("seal_tenant_model", owner.tenant, out.checkpoint_ms, [&] {
          return server.seal_tenant_model(owner.tenant, model.descriptor,
                                          content) == DeviceStatus::kOk;
        }))
      return false;
    const std::size_t other = (owner.device + 1) % server.device_count();
    if (!step("replicate_model", owner.tenant, out.replicate_ms, [&] {
          return server.replicate_model(content, other) == DeviceStatus::kOk;
        }))
      return false;
    // Live migration with a hot window: two requests sealed under the old
    // session keys are in flight when the move starts; their outputs must
    // still open under the old keys before the user re-keys.
    std::size_t inputs[2];
    std::future<serving::InferenceResult> hot[2];
    for (int i = 0; i < 2; ++i) {
      ++out.attempted;
      inputs[i] = pick_input();
      hot[i] = server.submit_async(owner.tenant,
                                   owner.user->seal(model.inputs[inputs[i]]));
    }
    if (!step("migrate_tenant", owner.tenant, out.migrate_ms, [&] {
          const auto moved = server.migrate_tenant(
              owner.tenant, other, owner.user->begin_session(), true);
          bool good = moved.tenant != 0;
          for (int i = 0; i < 2; ++i) {
            const auto result = await_result(hot[i]);
            good = good && result &&
                   output_matches(*owner.user, *result,
                                  model.expected[inputs[i]]);
          }
          owner.device = moved.device_index;
          return good &&
                 owner.user->attest_device(server.get_pk(moved.device_index)) &&
                 owner.user->complete_session(moved.response);
        }))
      return false;
    if (!check(owner, "request after migration")) return false;
    if (!step("connect", 0, out.connect_ms, [&] {
          return connect_client(server, world, kControlUserStream,
                                2 * cycle + 1, restored);
        }))
      return false;
    if (!step("load_model_from_store", restored.tenant, out.restore_ms, [&] {
          return server.load_model_from_store(restored.tenant, content,
                                              handle) == DeviceStatus::kOk;
        }))
      return false;
    return check(restored, "request after restore");
  }();
  bool disconnected = true;
  for (Client* client : {&owner, &restored}) {
    if (client->tenant == 0) continue;
    ++out.attempted;
    if (server.disconnect(client->tenant) != DeviceStatus::kOk)
      disconnected = fail("disconnect", client->tenant);
  }
  // Drop every replica so the next cycle's replicate is a real re-wrap and
  // the store stays bounded.
  for (const store::BindingId& binding :
       server.model_store().bindings(content))
    server.model_store().erase(content, binding);
  if (ok && disconnected) {
    ++out.cycles;
    return true;
  }
  ++out.failed;
  return false;
}

std::unique_ptr<Fleet> build_fleet(const World& world,
                                   const WorkloadSpec& spec,
                                   const Model& serve, const Model& control,
                                   std::size_t trace_capacity) {
  serving::ServerConfig config;
  config.num_devices = 2;
  config.num_workers = 2;
  config.emulate_device_latency = false;
  config.trace_capacity = trace_capacity;
  auto fleet = std::make_unique<Fleet>();
  fleet->server = std::make_unique<InferenceServer>(
      world.ca, config, world.entropy(kFleetStream, 0));
  InferenceServer& server = *fleet->server;
  fleet->serve_handle = server.register_model(serve.net);
  fleet->control_handle = server.register_model(control.net);
  fleet->clients.resize(spec.tenants);
  for (std::size_t i = 0; i < spec.tenants; ++i) {
    Client& client = fleet->clients[i];
    if (!connect_client(server, world, kTrafficUserStream, i, client)) {
      fail("set-up connect", 0);
      return nullptr;
    }
    const Bytes& weights = fleet->serve_handle.plan->weight_blob;
    if (server.load_model(client.tenant, fleet->serve_handle,
                          client.user->seal(weights)) != DeviceStatus::kOk) {
      fail("set-up load_model", client.tenant);
      return nullptr;
    }
  }
  for (std::size_t w = 0; w < kWarmupRequests; ++w)
    for (Client& client : fleet->clients)
      if (!verified_request(server, client, serve, w % serve.inputs.size())) {
        fail("warm-up request", client.tenant);
        return nullptr;
      }
  return fleet;
}

}  // namespace fleetbench
