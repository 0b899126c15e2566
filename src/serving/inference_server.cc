#include "serving/inference_server.h"

#include <algorithm>
#include <condition_variable>

#include "accel/microcontroller.h"
#include "host/model_codec.h"

namespace guardnn::serving {

/// Max requests a worker drains from one tenant per wakeup.
constexpr std::size_t kMaxBatch = 8;
/// Window the derived byte budget covers: the fleet admits at most the bytes
/// it can ingest within this many modeled milliseconds.
constexpr double kBackpressureWindowMs = 5.0;
/// Sealed models a freshly promoted spare is pre-warmed with, via the
/// attested re-wrap: displaced (failover-pending) tenants' replicas first,
/// then store popularity order (ModelStore::hot_contents).
constexpr std::size_t kSparePrewarmModels = 4;
/// Health/failover event log capacity (newest entries kept).
constexpr std::size_t kEventLogCapacity = 1024;

const char* outcome_name(RequestOutcome outcome) {
  switch (outcome) {
    case RequestOutcome::kOk: return "ok";
    case RequestOutcome::kDeviceError: return "device-error";
    case RequestOutcome::kNoTenant: return "no-tenant";
    case RequestOutcome::kNoModel: return "no-model";
    case RequestOutcome::kQueueFull: return "queue-full";
    case RequestOutcome::kBackpressure: return "backpressure";
    case RequestOutcome::kShutdown: return "shutdown";
    case RequestOutcome::kTimeout: return "timeout";
    case RequestOutcome::kDeviceFailover: return "device-failover";
  }
  return "unknown";
}

const char* health_name(DeviceHealth health) {
  switch (health) {
    case DeviceHealth::kHealthy: return "healthy";
    case DeviceHealth::kDegraded: return "degraded";
    case DeviceHealth::kQuarantined: return "quarantined";
    case DeviceHealth::kDead: return "dead";
  }
  return "unknown";
}

std::size_t InferenceServer::derived_shard_count(const ServerConfig& config) {
  if (config.num_shards) return config.num_shards;
  const std::size_t workers = std::max<std::size_t>(1, config.num_workers);
  return std::max<std::size_t>(16, 4 * workers);
}

std::size_t InferenceServer::byte_budget(const ServerConfig& config,
                                         std::size_t routable_devices) {
  // The denominator is the *primary* fleet, not the device count: an
  // unpromoted spare contributes no ingest bandwidth, so a full-strength
  // fleet with spares standing by keeps its full budget, and a promoted
  // spare restores budget a quarantine took away (capped at the configured
  // full-strength value).
  const std::size_t primary = std::max<std::size_t>(1, config.num_devices);
  if (config.max_pending_bytes)
    return std::min(config.max_pending_bytes,
                    config.max_pending_bytes * routable_devices / primary);
  // Wire the fleet budget to the modeled device ingest bandwidth: queued
  // sealed inputs are exactly what the MicroBlaze import path must move.
  const accel::MicrocontrollerModel model;
  return AdmissionController::derive_byte_budget(
      routable_devices, model.import_gbs, kBackpressureWindowMs);
}

InferenceServer::InferenceServer(const crypto::ManufacturerCa& ca,
                                 const ServerConfig& config, BytesView entropy)
    : config_(config),
      table_(derived_shard_count(config)),
      admission_(
          config.max_pending_per_tenant,
          byte_budget(config, std::max<std::size_t>(1, config.num_devices))),
      trace_(std::max<std::size_t>(1, config.trace_capacity)),
      events_(kEventLogCapacity),
      ins_(make_instruments(metrics_)),
      faults_(std::max<std::size_t>(1, config.num_devices) +
              config.num_spare_devices),
      model_store_(config.model_store_dir.empty()
                       ? nullptr
                       : std::make_unique<store::DirectoryBackend>(
                             config.model_store_dir)) {
  const std::size_t n_primary = std::max<std::size_t>(1, config_.num_devices);
  // Spares are fabricated like primaries (identity, DRAM partition, fault
  // slot) but start standby: never routable until the monitor promotes them.
  const std::size_t n_devices = n_primary + config_.num_spare_devices;
  primary_devices_ = n_primary;
  const std::size_t n_workers = std::max<std::size_t>(1, config_.num_workers);
  devices_.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i) {
    // Per-device entropy: the shared seed plus the fleet index, so every
    // device fabricates a distinct identity key.
    Bytes seed(entropy.begin(), entropy.end());
    seed.push_back(static_cast<u8>('d'));
    seed.push_back(static_cast<u8>(i));
    devices_.push_back(std::make_unique<DeviceNode>(
        "serve-dev-" + std::to_string(i), ca, seed));
    if (i >= n_primary)
      devices_.back()->standby.store(true, std::memory_order_relaxed);
  }
  // Per-stripe queue histograms and per-device request counters: the labeled
  // handles are resolved once here so the worker hot path never touches the
  // registry mutex (one relaxed RMW per record, like every other counter).
  const std::size_t n_shards = table_.shard_count();
  shard_depth_.reserve(n_shards);
  shard_sojourn_.reserve(n_shards);
  for (std::size_t k = 0; k < n_shards; ++k) {
    const obs::Labels labels{{"shard", std::to_string(k)}};
    shard_depth_.push_back(&metrics_.histogram("serving_shard_depth", labels));
    shard_sojourn_.push_back(
        &metrics_.histogram("serving_shard_sojourn_ms", labels));
  }
  device_requests_.reserve(n_devices);
  for (std::size_t i = 0; i < n_devices; ++i)
    device_requests_.push_back(&metrics_.counter(
        "serving_device_requests_total", {{"device", std::to_string(i)}}));
  model_store_.bind_metrics(metrics_);
  // Request tracing is armed by GUARDNN_TRACE=1 (or trace().set_enabled());
  // disabled, each submit pays one relaxed load.
  trace_.arm_from_env();
  for (std::size_t g = 0; g < std::min(n_workers, n_devices); ++g)
    ready_.emplace_back();
  monitor_ = std::jthread([this](std::stop_token stop) { monitor_loop(stop); });
  workers_.reserve(n_workers);
  for (std::size_t i = 0; i < n_workers; ++i) {
    ReadyQueue& queue = ready_[i % ready_.size()];
    workers_.emplace_back(
        [this, &queue](std::stop_token stop) { worker_loop(stop, queue); });
  }
}

InferenceServer::~InferenceServer() {
  // Stop the monitor before draining: no failover may run concurrently with
  // the kShutdown sweep below, or a promise could be claimed twice.
  monitor_.request_stop();
  if (monitor_.joinable()) monitor_.join();
  for (auto& worker : workers_) worker.request_stop();
  // One wake per worker on every queue, so every blocked acquire() returns.
  for (ReadyQueue& queue : ready_)
    queue.pushed.release(static_cast<std::ptrdiff_t>(workers_.size()));
  workers_.clear();  // joins

  // Fail whatever the workers never picked up. Disconnected tenants are no
  // longer in the shard maps but may still sit in ready queues with queued
  // requests; drain clears the deque, so a tenant reachable both ways is
  // drained once.
  table_.for_each_shard_locked([this](Shard& shard) {
    for (auto& [id, tenant] : shard.tenants)
      drain(tenant->pending, RequestOutcome::kShutdown);
  });
  for (ReadyQueue& queue : ready_)
    for (auto& tenant : queue.tenants)
      drain(tenant->pending, RequestOutcome::kShutdown);
}

InferenceServer::Instruments InferenceServer::make_instruments(
    obs::MetricRegistry& registry) {
  return Instruments{
      registry.counter("serving_requests_total"),
      registry.counter("serving_batches_total"),
      registry.counter("serving_admission_total", {{"decision", "admit"}}),
      registry.counter("serving_admission_total", {{"decision", "queue_full"}}),
      registry.counter("serving_admission_total",
                       {{"decision", "backpressure"}}),
      registry.counter("serving_evicted_total"),
      registry.counter("serving_replications_total"),
      registry.counter("serving_failovers_total"),
      registry.counter("serving_quarantines_total"),
      registry.counter("serving_retries_total"),
      registry.counter("serving_timeouts_total"),
      registry.counter("serving_plan_cache_total", {{"result", "hit"}}),
      registry.counter("serving_plan_cache_total", {{"result", "miss"}}),
      registry.counter("serving_migrations_total", {{"result", "ok"}}),
      registry.counter("serving_migrations_total", {{"result", "aborted"}}),
      registry.counter("serving_migrations_total", {{"result", "failover"}}),
      registry.counter("spare_promotions_total"),
      registry.histogram("serving_queue_ms"),
      registry.histogram("serving_service_ms"),
      registry.histogram("serving_e2e_ms"),
      registry.histogram("serving_batch_size"),
      registry.histogram("serving_failover_ms"),
      registry.histogram("serving_reconnect_ms"),
      registry.histogram("serving_migration_drain_ms"),
      registry.histogram("serving_migration_blackout_ms"),
  };
}

void InferenceServer::resolve_one(Request& request, InferenceResult result) {
  trace_.record(request.trace_id, obs::SpanKind::kResolve, /*tenant=*/0,
                obs::kSpanNoDevice, static_cast<u8>(result.outcome));
  request.promise.set_value(std::move(result));
}

void InferenceServer::drain(std::deque<Request>& requests,
                            RequestOutcome outcome) {
  if (requests.empty()) return;
  std::size_t bytes = 0;
  for (const Request& request : requests) bytes += request.charged_bytes;
  admission_.release(requests.size(), bytes);
  if (outcome == RequestOutcome::kTimeout) ins_.timeouts.inc(requests.size());
  for (Request& request : requests) {
    InferenceResult result;
    result.outcome = outcome;
    if (outcome == RequestOutcome::kDeviceFailover)
      result.device_status = accel::DeviceStatus::kUnavailable;
    resolve_one(request, std::move(result));
  }
  requests.clear();
}

accel::GetPkResponse InferenceServer::get_pk(std::size_t device_index) {
  DeviceNode& node = *devices_.at(device_index);
  std::lock_guard<std::mutex> busy(node.busy);
  return node.device.get_pk();
}

template <typename Command>
accel::DeviceStatus InferenceServer::device_call(std::size_t device_index,
                                                 Command&& command) {
  DeviceNode& node = *devices_[device_index];
  std::lock_guard<std::mutex> busy(node.busy);
  const accel::DeviceStatus gate = fault_gate(device_index);
  if (gate != accel::DeviceStatus::kOk) return gate;
  return command(node.device);
}

accel::InitSessionResponse InferenceServer::open_session(
    std::size_t device_index, const crypto::AffinePoint& user_ephemeral,
    bool integrity, const std::function<void(accel::SessionId)>& admit) {
  // The eviction retry loops because a concurrent connect may steal a freed
  // slot; each iteration evicts another idle tenant, so it is bounded by the
  // table size and stops when no victim remains.
  while (true) {
    accel::InitSessionResponse response;
    const accel::DeviceStatus status =
        device_call(device_index, [&](accel::GuardNnDevice& device) {
          response = device.init_session(user_ephemeral, integrity);
          if (response.status == accel::DeviceStatus::kOk)
            admit(response.session_id);
          return response.status;
        });
    response.status = status;
    if (status != accel::DeviceStatus::kNoResources ||
        !config_.evict_idle_sessions || !evict_idle_tenant(device_index))
      return response;
  }
}

InferenceServer::ConnectResult InferenceServer::connect(
    const crypto::AffinePoint& user_ephemeral, bool integrity) {
  ConnectResult result;
  // Least-loaded placement across the *routable* fleet (atomic counters —
  // no lock). Quarantined and dead devices never receive new tenants. A
  // device that dies under us (the gate answers kUnavailable and it is no
  // longer routable) re-picks a surviving device instead of failing the
  // connect.
  while (true) {
    const std::size_t best = pick_routable_device();
    if (best == devices_.size()) {
      result.response.status = accel::DeviceStatus::kUnavailable;
      return result;
    }
    result.device_index = best;
    result.response = open_session(
        best, user_ephemeral, integrity, [&](accel::SessionId session) {
          const TenantId id =
              next_tenant_.fetch_add(1, std::memory_order_relaxed);
          auto entry = make_tenant(id, best, session);
          Shard& shard = table_.shard_for(id);
          {
            std::lock_guard<std::mutex> lock(shard.mu);
            shard.tenants.emplace(id, std::move(entry));
            devices_[best]->tenant_count.fetch_add(
                1, std::memory_order_relaxed);
          }
          result.tenant = id;
        });
    if (result.response.status != accel::DeviceStatus::kUnavailable ||
        routable(best))
      return result;
  }
}

InferenceServer::ConnectResult InferenceServer::reconnect(
    TenantId tenant, const crypto::AffinePoint& user_ephemeral,
    bool integrity) {
  const Clock::time_point start = Clock::now();
  ConnectResult result;
  // The closed entry a failover left behind is the record: its model fields
  // name the sealed replica to restore.
  Shard& shard = table_.shard_for(tenant);
  std::shared_ptr<Tenant> closed;
  std::optional<store::ContentId> content;
  std::optional<crypto::Sha256Digest> hash;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tenants.find(tenant);
    if (it != shard.tenants.end() && !it->second->open) {
      closed = it->second;
      content = closed->model_content;
      hash = closed->model_hash;
    }
  }
  if (!closed) {
    result.response.status = accel::DeviceStatus::kNoSession;
    return result;
  }
  // A migration whose source is dead: land where the replica already sits.
  const std::size_t target = pick_routable_device(content);
  if (target == devices_.size()) {
    result.response.status = accel::DeviceStatus::kUnavailable;
    return result;
  }
  ModelHandle model;
  if (content && hash) {
    model.hash = *hash;
    model.net = cached_net(*hash);
  }
  // A model that cannot be moved is left behind: the tenant resumes
  // model-less and reloads it over the fresh channel. A gate refusal is
  // retryable: call reconnect() again.
  const std::shared_ptr<Tenant> fresh = rebuild_tenant(
      tenant, target, user_ephemeral, integrity,
      model.net ? &*content : nullptr, model, /*model_required=*/false,
      /*trace_id=*/0, result);
  if (!fresh) return result;
  accel::DeviceStatus flip;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    flip = flip_locked(shard, closed, fresh);
  }
  if (flip != accel::DeviceStatus::kOk) {
    close_session(target, fresh->session);
    result = ConnectResult{};
    result.response.status = flip;
    return result;
  }
  result.tenant = tenant;
  ins_.reconnect_ms.record(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  events_.record("reconnect", "tenant " + std::to_string(tenant) +
                                  " on device " +
                                  std::to_string(result.device_index) +
                                  (result.model_restored ? " (model restored)"
                                                         : ""));
  return result;
}

std::shared_ptr<InferenceServer::Tenant> InferenceServer::rebuild_tenant(
    TenantId tenant, std::size_t target,
    const crypto::AffinePoint& user_ephemeral, bool integrity,
    const store::ContentId* content, const ModelHandle& model,
    bool model_required, u64 trace_id, ConnectResult& result) {
  result.device_index = target;
  // 1 — re-wrap the replica to the target when it lacks one.
  accel::DeviceStatus status = accel::DeviceStatus::kOk;
  if (content) {
    status = replicate_model(*content, target);
    if (status != accel::DeviceStatus::kOk && model_required) {
      result.response.status = status;
      return nullptr;
    }
    if (status == accel::DeviceStatus::kOk)
      trace_.record(trace_id, obs::SpanKind::kMigrate, tenant,
                    static_cast<u32>(target), 2);
  }
  // 2 — a fresh session with the user's *new* ECDHE share (a session cannot
  // move between devices; its keys live in SRAM). The tenant is built under
  // the same busy hold, so it records the generation the session opened on.
  std::shared_ptr<Tenant> fresh;
  result.response = open_session(
      target, user_ephemeral, integrity, [&](accel::SessionId session) {
        fresh = make_tenant(tenant, target, session);
      });
  if (result.response.status != accel::DeviceStatus::kOk) return nullptr;
  trace_.record(trace_id, obs::SpanKind::kMigrate, tenant,
                static_cast<u32>(target), 3);
  // 3 — the restore step, unless the re-wrap left the model behind.
  if (content && status == accel::DeviceStatus::kOk) {
    status = restore_model(*fresh, *content, model);
    if (status != accel::DeviceStatus::kOk && model_required) {
      close_session(target, fresh->session);
      result.response.status = status;
      return nullptr;
    }
    result.model_restored = status == accel::DeviceStatus::kOk;
  }
  return fresh;
}

accel::DeviceStatus InferenceServer::flip_locked(
    Shard& shard, const std::shared_ptr<Tenant>& current,
    const std::shared_ptr<Tenant>& fresh) {
  auto it = shard.tenants.find(fresh->id);
  if (it == shard.tenants.end() || it->second != current)
    return accel::DeviceStatus::kNoSession;
  DeviceNode& target = *devices_[fresh->device_index];
  if (!routable(fresh->device_index) ||
      target.device.device_generation() != fresh->generation)
    return accel::DeviceStatus::kUnavailable;
  if (current->open) {
    // A live migration source: retired here, its session closed by the
    // caller. A failed-over entry was already closed and uncounted.
    current->open = false;
    current->scheduled = false;
    current->draining = false;
    devices_[current->device_index]->tenant_count.fetch_sub(
        1, std::memory_order_relaxed);
  }
  it->second = fresh;
  target.tenant_count.fetch_add(1, std::memory_order_relaxed);
  return accel::DeviceStatus::kOk;
}

InferenceServer::ConnectResult InferenceServer::migrate_tenant(
    TenantId tenant, std::size_t target_device,
    const crypto::AffinePoint& user_ephemeral, bool integrity) {
  ConnectResult result;
  if (target_device >= devices_.size()) {
    result.response.status = accel::DeviceStatus::kBadOperand;
    return result;
  }
  if (!routable(target_device)) {
    result.response.status = accel::DeviceStatus::kUnavailable;
    return result;
  }
  Shard& shard = table_.shard_for(tenant);
  std::shared_ptr<Tenant> entry;

  // Phase 1 — mark draining. From here on submits keep admitting but park in
  // the FIFO; workers never pick the tenant up again (submit_async and the
  // run_batch tail both check `draining`).
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tenants.find(tenant);
    if (it == shard.tenants.end() || !it->second->open ||
        it->second->draining) {
      result.response.status = accel::DeviceStatus::kNoSession;
      return result;
    }
    if (it->second->device_index == target_device) {
      result.response.status = accel::DeviceStatus::kBadOperand;
      return result;
    }
    entry = it->second;
    entry->draining = true;
  }
  const Clock::time_point mark = Clock::now();
  const std::size_t source_device = entry->device_index;
  const u64 mtid = trace_.begin_trace();
  trace_.record(mtid, obs::SpanKind::kMigrate, tenant,
                static_cast<u32>(source_device), 0);
  std::shared_ptr<Tenant> fresh;  // target-bound, once rebuilt

  // Every failure path after the mark funnels through here. If the tenant is
  // still open the migration aborts cleanly: the tenant un-drains and
  // resumes on the source with nothing lost. Otherwise fail_over_tenant,
  // disconnect or reset_device flipped `open` under us; we are its owner, so
  // we drain whatever it could not. Only a failover (the source died or its
  // session was wounded) degrades the move to the crash-failover story; a
  // disconnect or reset is an ordinary abort.
  const auto abort_migration =
      [&](accel::DeviceStatus status) -> ConnectResult {
    bool closed = false;
    bool wake = false;
    std::deque<Request> orphaned;
    RequestOutcome orphan_outcome = RequestOutcome::kNoTenant;
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (entry->open) {
        entry->draining = false;
        entry->scheduled = false;
        if (!entry->pending.empty()) {
          entry->scheduled = true;
          wake = true;
        }
      } else {
        closed = true;
        orphan_outcome = entry->teardown_outcome;
        orphaned.swap(entry->pending);
        entry->scheduled = false;
      }
    }
    if (wake) make_ready(entry);
    drain(orphaned, orphan_outcome);
    // Give the rebuilt target session back (keys zeroized).
    if (fresh) close_session(target_device, fresh->session);
    const bool degraded = orphan_outcome == RequestOutcome::kDeviceFailover;
    if (degraded)
      ins_.migrations_failover.inc();
    else
      ins_.migrations_aborted.inc();
    trace_.record(mtid, obs::SpanKind::kMigrate, tenant,
                  static_cast<u32>(target_device), degraded ? 0xff : 0xfe);
    events_.record("migrate",
                   "tenant " + std::to_string(tenant) + " -> device " +
                       std::to_string(target_device) +
                       (degraded ? " degraded to failover" : " aborted"));
    ConnectResult aborted;
    aborted.device_index = target_device;
    aborted.response.status = degraded ? accel::DeviceStatus::kUnavailable
                              : closed ? accel::DeviceStatus::kNoSession
                                       : status;
    return aborted;
  };

  // Phase 2 — wait for the in-flight batch, then claim the tenant exactly
  // like a worker would. Once draining, no worker re-claims it, so from the
  // claim onward `scheduled == true` means "the migrating thread owns it".
  {
    bool claimed = false;
    bool lost = false;
    while (!claimed && !lost) {
      {
        std::lock_guard<std::mutex> lock(shard.mu);
        if (!entry->open) {
          lost = true;
        } else if (!entry->scheduled) {
          entry->scheduled = true;
          claimed = true;
        }
      }
      if (!claimed && !lost)
        std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    if (lost) return abort_migration(accel::DeviceStatus::kUnavailable);
  }
  ins_.migration_drain_ms.record(
      std::chrono::duration<double, std::milli>(Clock::now() - mark).count());

  // Phase 3 — seal the model on the source, unless a replica is recorded
  // (inference never mutates weights, so a recorded one is still current).
  // A model-less tenant (plan == nullptr — its FIFO is necessarily empty,
  // submits answer kNoModel) migrates as a pure session move.
  std::shared_ptr<const host::ExecutionPlan> source_plan;
  std::optional<crypto::Sha256Digest> hash;
  std::optional<store::ContentId> content;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    source_plan = entry->plan;
    hash = entry->model_hash;
    content = entry->model_content;
  }
  ModelHandle model;
  const bool moves_model = source_plan && hash;
  if (moves_model) {
    model.hash = *hash;
    model.net = cached_net(*hash);
    if (!model.net) return abort_migration(accel::DeviceStatus::kBadOperand);
    if (!content) {
      store::ContentId sealed{};
      const accel::DeviceStatus status = seal_tenant_model(
          tenant, host::serialize_descriptor(*model.net), sealed);
      if (status != accel::DeviceStatus::kOk) return abort_migration(status);
      content = sealed;
    }
    trace_.record(mtid, obs::SpanKind::kMigrate, tenant,
                  static_cast<u32>(source_device), 1);
  }

  // Phases 4–5 — the rebuild step, off to the side. HostScheduler binds a
  // device reference at construction, so the flip replaces the table entry
  // wholesale instead of mutating the source-bound one.
  fresh = rebuild_tenant(tenant, target_device, user_ephemeral, integrity,
                         moves_model ? &*content : nullptr, model,
                         /*model_required=*/true, mtid, result);
  if (!fresh) return abort_migration(result.response.status);

  // Phase 6 — replay every parked record on the *source* session, in FIFO
  // order: parked records are sealed under the old channel keys, and only
  // the source can open them. run_batch gives the full fault semantics
  // (bounded transient retries, deadline expiry, kDeath → failover) for
  // free; its draining tail returns ownership here after each batch. The
  // flip (flip_locked) happens in the same critical section that observes
  // the FIFO empty; a source torn down under us never flips.
  accel::DeviceStatus flip = accel::DeviceStatus::kUnavailable;
  while (true) {
    {
      std::lock_guard<std::mutex> lock(shard.mu);
      if (!entry->open) break;
      if (entry->pending.empty()) {
        flip = flip_locked(shard, entry, fresh);
        break;
      }
      entry->scheduled = true;
    }
    run_batch(entry);
  }
  if (flip != accel::DeviceStatus::kOk)
    return abort_migration(accel::DeviceStatus::kUnavailable);
  ins_.migration_blackout_ms.record(
      std::chrono::duration<double, std::milli>(Clock::now() - mark).count());

  // Phase 7 — retire the source session (keys zeroized device-side; a dead
  // source took them down with its SRAM) and publish the move.
  close_session(source_device, entry->session);
  ins_.migrations_ok.inc();
  trace_.record(mtid, obs::SpanKind::kMigrate, tenant,
                static_cast<u32>(target_device), 4);
  events_.record("migrate", "tenant " + std::to_string(tenant) + " device " +
                                std::to_string(source_device) + " -> " +
                                std::to_string(target_device) +
                                (result.model_restored ? " (model moved)"
                                                       : ""));
  result.tenant = tenant;
  result.device_index = target_device;
  return result;
}

std::shared_ptr<InferenceServer::Tenant> InferenceServer::retire(
    TenantId tenant, RequestOutcome outcome,
    const std::function<std::shared_ptr<Tenant>(Shard&)>& pick) {
  Shard& shard = table_.shard_for(tenant);
  std::shared_ptr<Tenant> entry;
  std::deque<Request> orphaned;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    entry = pick(shard);
    if (!entry) return nullptr;
    entry->open = false;
    entry->teardown_outcome = outcome;
    if (!entry->scheduled) orphaned.swap(entry->pending);
    // A failed-over entry stays, closed, as the record reconnect() rebuilds
    // from; every other teardown drops it.
    if (outcome != RequestOutcome::kDeviceFailover) shard.tenants.erase(tenant);
    // Counted in the same critical section as the erase: reset_device's
    // purge takes this lock before it stores 0, so the decrement cannot
    // land after that store and wrap the count.
    devices_[entry->device_index]->tenant_count.fetch_sub(
        1, std::memory_order_relaxed);
  }
  drain(orphaned, outcome);
  return entry;
}

accel::DeviceStatus InferenceServer::close_session(std::size_t device_index,
                                                   accel::SessionId session) {
  if (faults_.dead(device_index)) return accel::DeviceStatus::kUnavailable;
  DeviceNode& node = *devices_[device_index];
  std::lock_guard<std::mutex> busy(node.busy);
  return node.device.close_session(session);
}

accel::DeviceStatus InferenceServer::disconnect(TenantId tenant) {
  const std::shared_ptr<Tenant> entry = retire(
      tenant, RequestOutcome::kNoTenant,
      [&](Shard& shard) -> std::shared_ptr<Tenant> {
        auto it = shard.tenants.find(tenant);
        if (it == shard.tenants.end()) return nullptr;
        if (it->second->open) return it->second;
        // A closed entry is a pending reconnect: disconnecting abandons it.
        shard.tenants.erase(it);
        return nullptr;
      });
  if (!entry) return accel::DeviceStatus::kNoSession;
  return close_session(entry->device_index, entry->session);
}

crypto::Sha256Digest InferenceServer::model_hash(const host::FuncNetwork& net) {
  crypto::Sha256 hasher;
  auto absorb_int = [&](i64 v) {
    u8 bytes[8];
    store_be64(bytes, static_cast<u64>(v));
    hasher.update(BytesView(bytes, 8));
  };
  absorb_int(net.in_c);
  absorb_int(net.in_h);
  absorb_int(net.in_w);
  absorb_int(net.bits);
  absorb_int(static_cast<i64>(net.layers.size()));
  for (const host::FuncLayer& layer : net.layers) {
    absorb_int(static_cast<i64>(layer.kind));
    absorb_int(layer.out_c);
    absorb_int(layer.kernel);
    absorb_int(layer.stride);
    absorb_int(layer.pad);
    absorb_int(layer.requant_shift);
    absorb_int(layer.input2_layer);
    absorb_int(static_cast<i64>(layer.weights.size()));
    hasher.update(layer.weights);
  }
  return hasher.finalize();
}

std::shared_ptr<const host::ExecutionPlan> InferenceServer::plan_for(
    const crypto::Sha256Digest& hash, const host::FuncNetwork& net,
    u64 generation) {
  const std::pair<crypto::Sha256Digest, u64> key{hash, generation};
  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto it = plan_cache_.find(key);
    if (it != plan_cache_.end()) {
      ins_.plan_hits.inc();
      return it->second;
    }
  }
  ins_.plan_misses.inc();
  // Compile outside the cache lock; a racing duplicate compile is harmless
  // (first insert wins, both plans are identical).
  auto plan = std::make_shared<const host::ExecutionPlan>(
      host::HostScheduler::compile(net));
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto [it, inserted] = plan_cache_.emplace(key, std::move(plan));
  return it->second;
}

std::shared_ptr<const host::ExecutionPlan> InferenceServer::resolve_plan(
    const ModelHandle& model, u64 generation) {
  if (model.generation == generation || !model.net) return model.plan;
  return plan_for(model.hash, *model.net, generation);
}

ModelHandle InferenceServer::register_model(const host::FuncNetwork& net) {
  ModelHandle handle;
  handle.hash = model_hash(net);
  // One shared FuncNetwork per distinct model: handles only need it on the
  // rare recompile-after-reset path, so they share a cached copy instead of
  // each holding a private duplicate of the weights. The (large) copy is
  // made outside plan_mu_; a racing duplicate is dropped, first insert wins.
  handle.net = cached_net(handle.hash);
  if (!handle.net) {
    auto copy = std::make_shared<const host::FuncNetwork>(net);
    std::lock_guard<std::mutex> lock(plan_mu_);
    auto [it, inserted] = net_cache_.emplace(handle.hash, std::move(copy));
    handle.net = it->second;
  }
  // Register against the fleet's newest generation; load_model recompiles
  // transparently for devices that reset later.
  handle.generation = 1;
  for (const auto& node : devices_)
    handle.generation =
        std::max(handle.generation, node->device.device_generation());
  handle.plan = plan_for(handle.hash, net, handle.generation);
  return handle;
}

std::shared_ptr<const host::FuncNetwork> InferenceServer::cached_net(
    const crypto::Sha256Digest& hash) {
  std::lock_guard<std::mutex> lock(plan_mu_);
  auto it = net_cache_.find(hash);
  return it == net_cache_.end() ? nullptr : it->second;
}

void InferenceServer::prune_plans(bool routable_only) {
  u64 min_generation = ~u64{0};
  for (std::size_t i = 0; i < devices_.size(); ++i)
    if (!routable_only || routable(i))
      min_generation =
          std::min(min_generation, devices_[i]->device.device_generation());
  if (min_generation == ~u64{0}) return;
  std::lock_guard<std::mutex> lock(plan_mu_);
  for (auto it = plan_cache_.begin(); it != plan_cache_.end();) {
    it = it->first.second < min_generation ? plan_cache_.erase(it)
                                           : std::next(it);
  }
}

std::shared_ptr<InferenceServer::Tenant> InferenceServer::make_tenant(
    TenantId tenant, std::size_t device_index, accel::SessionId session) {
  auto entry = std::make_shared<Tenant>(tenant, devices_[device_index]->device,
                                        device_index, session);
  entry->requests_counter = &metrics_.counter(
      "serving_tenant_requests_total", {{"tenant", std::to_string(tenant)}});
  return entry;
}

std::shared_ptr<InferenceServer::Tenant> InferenceServer::find_tenant(
    TenantId tenant) {
  Shard& shard = table_.shard_for(tenant);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tenants.find(tenant);
  if (it == shard.tenants.end() || !it->second->open) return nullptr;
  return it->second;
}

accel::DeviceStatus InferenceServer::load_model(
    TenantId tenant, const ModelHandle& model,
    const crypto::SealedRecord& sealed_weights) {
  if (!model.valid()) return accel::DeviceStatus::kBadOperand;
  const std::shared_ptr<Tenant> entry = find_tenant(tenant);
  if (!entry) return accel::DeviceStatus::kNoSession;
  const std::shared_ptr<const host::ExecutionPlan> plan =
      resolve_plan(model, entry->generation);
  if (!plan) return accel::DeviceStatus::kBadOperand;
  const accel::DeviceStatus status =
      device_call(entry->device_index, [&](accel::GuardNnDevice& device) {
        return device.set_weight(entry->session, sealed_weights,
                                 plan->weight_base);
      });
  if (status != accel::DeviceStatus::kOk) return status;
  Shard& shard = table_.shard_for(tenant);
  std::lock_guard<std::mutex> lock(shard.mu);
  entry->plan = plan;
  entry->model_hash = model.hash;
  // A replica sealed before this load holds the old weights: migrate and
  // reconnect must not move it.
  entry->model_content.reset();
  entry->last_activity = Clock::now();
  return status;
}

accel::DeviceStatus InferenceServer::seal_tenant_model(
    TenantId tenant, BytesView descriptor, store::ContentId& content_out) {
  const std::shared_ptr<Tenant> entry = find_tenant(tenant);
  if (!entry) return accel::DeviceStatus::kNoSession;
  std::shared_ptr<const host::ExecutionPlan> plan;
  {
    Shard& shard = table_.shard_for(tenant);
    std::lock_guard<std::mutex> lock(shard.mu);
    plan = entry->plan;
  }
  if (!plan) return accel::DeviceStatus::kBadOperand;

  store::SealedBlob blob;
  const accel::DeviceStatus status =
      device_call(entry->device_index, [&](accel::GuardNnDevice& device) {
        return device.seal_model(entry->session, plan->weight_base,
                                 plan->weight_blob.size(), descriptor, blob);
      });
  if (status != accel::DeviceStatus::kOk) return status;
  const std::optional<store::ContentId> content = model_store_.put(blob);
  if (!content) return accel::DeviceStatus::kBadOperand;
  content_out = *content;
  {
    // Remember the replica: this is what failover restores from (a tenant
    // without one loses its model with the device and must re-upload).
    Shard& shard = table_.shard_for(tenant);
    std::lock_guard<std::mutex> lock(shard.mu);
    entry->model_content = *content;
    entry->last_activity = Clock::now();
  }
  return accel::DeviceStatus::kOk;
}

accel::DeviceStatus InferenceServer::replicate_model(
    const store::ContentId& content, std::size_t target_device) {
  if (target_device >= devices_.size()) return accel::DeviceStatus::kBadOperand;
  DeviceNode& target = *devices_[target_device];
  if (model_store_.contains(content, target.device.store_binding()))
    return accel::DeviceStatus::kOk;

  // The first *routable* fleet device that already holds a replica: a dead
  // device's replica is cryptographically stranded (the export path needs
  // the device's store key), and a quarantined one is not trusted to answer.
  std::size_t source_device = 0;
  while (source_device < devices_.size() &&
         (source_device == target_device || !routable(source_device) ||
          !model_store_.contains(
              content, devices_[source_device]->device.store_binding())))
    ++source_device;
  if (source_device == devices_.size()) return accel::DeviceStatus::kBadOperand;
  DeviceNode& source = *devices_[source_device];

  // One re-wrap handshake at a time *per device*: each device holds a single
  // pending provisioning ephemeral, so interleaved replications touching the
  // same device would clobber it — but disjoint device pairs are
  // independent and proceed concurrently (std::scoped_lock avoids deadlock
  // for any acquisition order of the two mutexes).
  std::scoped_lock provision(target.provision_mu, source.provision_mu);
  // Re-check under the exclusion: a racing replication to the same target
  // may have completed while we waited.
  if (model_store_.contains(content, target.device.store_binding()))
    return accel::DeviceStatus::kOk;
  const std::optional<store::SealedBlob> blob =
      model_store_.get(content, source.device.store_binding());
  if (!blob) return accel::DeviceStatus::kBadOperand;

  // Three-step attested re-wrap: three host→device commands, so the device
  // busy locks are taken one at a time (never nested).
  accel::ProvisionRequest request;
  accel::DeviceStatus status =
      device_call(target_device, [&](accel::GuardNnDevice& device) {
        return device.provision_begin(request);
      });
  if (status != accel::DeviceStatus::kOk) return status;
  store::SealedBlob wrapped;
  accel::ProvisionGrant grant;
  status = device_call(source_device, [&](accel::GuardNnDevice& device) {
    return device.export_for_device(*blob, request, wrapped, grant);
  });
  if (status != accel::DeviceStatus::kOk) return status;
  store::SealedBlob rebound;
  status = device_call(target_device, [&](accel::GuardNnDevice& device) {
    return device.provision_finish(wrapped, grant, rebound);
  });
  if (status != accel::DeviceStatus::kOk) return status;
  if (!model_store_.put(rebound)) return accel::DeviceStatus::kBadOperand;
  ins_.replications.inc();
  return accel::DeviceStatus::kOk;
}

accel::DeviceStatus InferenceServer::unseal_stored_model(
    std::size_t device_index, accel::SessionId session,
    const store::ContentId& content, const host::ExecutionPlan& plan,
    const std::shared_ptr<const host::FuncNetwork>& net) {
  const std::optional<store::SealedBlob> blob =
      model_store_.get(content, devices_[device_index]->device.store_binding());
  if (!blob) return accel::DeviceStatus::kBadOperand;
  Bytes descriptor;
  const accel::DeviceStatus status =
      device_call(device_index, [&](accel::GuardNnDevice& device) {
        return device.unseal_model(session, *blob, plan.weight_base,
                                   descriptor);
      });
  if (status != accel::DeviceStatus::kOk) return status;
  const std::optional<host::ParsedDescriptor> parsed =
      host::parse_descriptor(descriptor);
  if (!parsed || !net) return accel::DeviceStatus::kBadOperand;
  const host::FuncNetwork& got = parsed->net;
  bool matches = got.in_c == net->in_c && got.in_h == net->in_h &&
                 got.in_w == net->in_w && got.bits == net->bits &&
                 got.layers.size() == net->layers.size();
  for (std::size_t i = 0; matches && i < got.layers.size(); ++i) {
    const host::FuncLayer& a = got.layers[i];
    const host::FuncLayer& b = net->layers[i];
    matches = a.kind == b.kind && a.out_c == b.out_c && a.kernel == b.kernel &&
              a.stride == b.stride && a.pad == b.pad &&
              a.requant_shift == b.requant_shift &&
              a.input2_layer == b.input2_layer;
  }
  return matches ? accel::DeviceStatus::kOk : accel::DeviceStatus::kBadOperand;
}

accel::DeviceStatus InferenceServer::load_model_from_store(
    TenantId tenant, const store::ContentId& content, const ModelHandle& model) {
  if (!model.valid()) return accel::DeviceStatus::kBadOperand;
  const std::shared_ptr<Tenant> entry = find_tenant(tenant);
  if (!entry) return accel::DeviceStatus::kNoSession;

  // Hot-model replication on demand: a tenant placed on a device that does
  // not yet hold the model pulls a replica over the attested re-wrap path.
  const accel::DeviceStatus status =
      replicate_model(content, entry->device_index);
  if (status != accel::DeviceStatus::kOk) return status;
  return restore_model(*entry, content, model);
}

accel::DeviceStatus InferenceServer::restore_model(
    Tenant& entry, const store::ContentId& content, const ModelHandle& model) {
  const std::shared_ptr<const host::ExecutionPlan> plan =
      resolve_plan(model, entry.generation);
  if (!plan) return accel::DeviceStatus::kBadOperand;
  const accel::DeviceStatus status = unseal_stored_model(
      entry.device_index, entry.session, content, *plan, model.net);
  if (status != accel::DeviceStatus::kOk) return status;
  Shard& shard = table_.shard_for(entry.id);
  std::lock_guard<std::mutex> lock(shard.mu);
  entry.plan = plan;
  entry.model_hash = model.hash;
  entry.model_content = content;
  entry.last_activity = Clock::now();
  return status;
}

accel::DeviceStatus InferenceServer::reset_device(std::size_t index) {
  if (index >= devices_.size()) return accel::DeviceStatus::kBadOperand;
  DeviceNode& node = *devices_[index];
  accel::DeviceStatus status;
  std::deque<Request> orphaned;
  {
    // busy is held across both the device reset and the tenant purge, and
    // connect() registers tenants under the same lock — so no tenant can be
    // admitted in between and survive with a wiped session. The reset comes
    // first: a migration flip checks the generation under its shard lock,
    // so it either sees the bump and aborts or lands before the purge
    // reaches its shard. (busy -> shard nesting is the sanctioned order;
    // nothing acquires busy while holding a shard mutex.) Purged tenants'
    // queued requests resolve kNoTenant: owned ones (worker or migration)
    // when the owner next looks, unowned ones here. Closed entries are
    // pending reconnects, whose sessions died with the device already: they
    // survive the reset, so a reinstated device strands no one.
    std::lock_guard<std::mutex> busy(node.busy);
    status = node.device.reset();
    table_.for_each_shard_locked([&](Shard& shard) {
      for (auto it = shard.tenants.begin(); it != shard.tenants.end();) {
        if (it->second->device_index == index && it->second->open) {
          it->second->open = false;
          if (!it->second->scheduled) {
            for (Request& request : it->second->pending)
              orphaned.push_back(std::move(request));
            it->second->pending.clear();
          }
          it = shard.tenants.erase(it);
        } else {
          ++it;
        }
      }
    });
    node.tenant_count.store(0, std::memory_order_relaxed);
  }
  drain(orphaned, RequestOutcome::kNoTenant);
  // Periodic resets must not accumulate dead (hash, generation) entries.
  prune_plans(/*routable_only=*/false);
  return status;
}

bool InferenceServer::evict_idle_tenant(std::size_t device_index) {
  // Bounded retry: between picking the LRU candidate and re-locking its
  // shard, the candidate may have been submitted to, evicted by a racing
  // connect, or disconnected.
  for (int attempt = 0; attempt < 64; ++attempt) {
    std::shared_ptr<Tenant> victim;
    {
      // Scan one stripe at a time for the least-recently-active idle tenant
      // on this device. Cross-shard LRU is a snapshot, not a transaction —
      // good enough for an eviction heuristic.
      table_.for_each_shard_locked([&](Shard& shard) {
        for (const auto& [id, tenant] : shard.tenants) {
          if (tenant->device_index != device_index || !tenant->open) continue;
          // Busy or mid-migration tenants are never eviction victims (a
          // draining tenant's source session must survive until the flip).
          if (!tenant->pending.empty() || tenant->scheduled || tenant->draining)
            continue;
          if (!victim || tenant->last_activity < victim->last_activity)
            victim = tenant;
        }
      });
    }
    if (!victim) return false;
    if (!retire(victim->id, RequestOutcome::kNoTenant,
                [&](Shard& shard) -> std::shared_ptr<Tenant> {
                  auto it = shard.tenants.find(victim->id);
                  if (it == shard.tenants.end() || it->second != victim ||
                      !victim->open || !victim->pending.empty() ||
                      victim->scheduled || victim->draining)
                    return nullptr;
                  return victim;
                }))
      continue;  // raced — rescan
    ins_.evicted.inc();
    close_session(device_index, victim->session);
    return true;
  }
  return false;
}

std::future<InferenceResult> InferenceServer::immediate_result(
    u64 trace_id, TenantId tenant, RequestOutcome outcome) {
  std::promise<InferenceResult> promise;
  InferenceResult result;
  result.outcome = outcome;
  trace_.record(trace_id, obs::SpanKind::kResolve, tenant, obs::kSpanNoDevice,
                static_cast<u8>(outcome));
  promise.set_value(std::move(result));
  return promise.get_future();
}

std::future<InferenceResult> InferenceServer::submit_async(
    TenantId tenant, crypto::SealedRecord sealed_input, bool attest,
    double deadline_ms) {
  // Hot path: one shard mutex, two atomic RMWs (admission), and a queue
  // push only when the tenant turns ready. No process-global lock. (Tracing
  // disabled adds one relaxed load; every obs counter below is one relaxed
  // RMW.)
  const u64 trace_id = trace_.begin_trace();
  trace_.record(trace_id, obs::SpanKind::kSubmit, tenant, obs::kSpanNoDevice,
                0);
  const std::size_t shard_index = table_.shard_index(tenant);
  Shard& shard = table_.shard_at(shard_index);
  std::future<InferenceResult> future;
  std::shared_ptr<Tenant> ready;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.tenants.find(tenant);
    if (it == shard.tenants.end())
      return immediate_result(trace_id, tenant, RequestOutcome::kNoTenant);
    Tenant& entry = *it->second;
    // A closed entry is a failed-over tenant: the retryable outcome tells it
    // to reconnect().
    if (!entry.open)
      return immediate_result(trace_id, tenant, entry.teardown_outcome);
    if (!entry.plan)
      return immediate_result(trace_id, tenant, RequestOutcome::kNoModel);
    const std::size_t bytes = sealed_input.ciphertext.size();
    const u32 dev = static_cast<u32>(entry.device_index);
    switch (admission_.try_admit(entry.pending.size(), bytes)) {
      case AdmissionController::Decision::kTenantQuota:
        ins_.rejected.inc();
        trace_.record(trace_id, obs::SpanKind::kAdmit, tenant, dev,
                      static_cast<u8>(RequestOutcome::kQueueFull));
        return immediate_result(trace_id, tenant, RequestOutcome::kQueueFull);
      case AdmissionController::Decision::kBackpressure:
        ins_.backpressured.inc();
        trace_.record(trace_id, obs::SpanKind::kAdmit, tenant, dev,
                      static_cast<u8>(RequestOutcome::kBackpressure));
        return immediate_result(trace_id, tenant,
                                RequestOutcome::kBackpressure);
      case AdmissionController::Decision::kAdmit:
        ins_.admitted.inc();
        trace_.record(trace_id, obs::SpanKind::kAdmit, tenant, dev, 0);
        break;
    }
    Request request;
    request.sealed_input = std::move(sealed_input);
    request.attest = attest;
    request.charged_bytes = bytes;
    request.trace_id = trace_id;
    request.enqueued = Clock::now();
    const double effective =
        deadline_ms == 0.0 ? config_.default_deadline_ms : deadline_ms;
    if (effective > 0.0) {
      request.has_deadline = true;
      request.deadline =
          request.enqueued +
          std::chrono::duration_cast<Clock::duration>(
              std::chrono::duration<double, std::milli>(effective));
    }
    entry.last_activity = request.enqueued;
    future = request.promise.get_future();
    entry.pending.push_back(std::move(request));
    shard_depth_[shard_index]->record(
        static_cast<double>(entry.pending.size()));
    // A draining tenant keeps admitting (the request parks in the FIFO)
    // but is never handed to a worker: the migrating thread owns the
    // replay and flips the entry once the queue is quiescent.
    if (!entry.scheduled && !entry.draining) {
      entry.scheduled = true;
      ready = it->second;
    }
  }
  if (ready) make_ready(std::move(ready));
  return future;
}

void InferenceServer::process_one(Tenant& tenant, DeviceNode& node,
                                  const host::ExecutionPlan& plan,
                                  Request& request, InferenceResult& result) {
  accel::GuardNnDevice& device = node.device;
  const accel::SessionId sid = tenant.session;
  const u64 tid = request.trace_id;
  const u32 dev = static_cast<u32>(tenant.device_index);

  accel::DeviceStatus status =
      device.set_input(sid, request.sealed_input, plan.input_addr);
  trace_.record(tid, obs::SpanKind::kUnseal, tenant.id, dev,
                static_cast<u8>(status));
  if (status == accel::DeviceStatus::kOk) {
    tenant.scheduler.note_input();
    status = tenant.scheduler.execute(plan);
    trace_.record(tid, obs::SpanKind::kDevice, tenant.id, dev,
                  static_cast<u8>(status));
  }
  if (status == accel::DeviceStatus::kOk) {
    status = device.export_output(sid, plan.output_addr, plan.output_bytes,
                                  result.sealed_output);
    trace_.record(tid, obs::SpanKind::kSeal, tenant.id, dev,
                  static_cast<u8>(status));
  }
  if (status == accel::DeviceStatus::kOk && request.attest) {
    status = device.sign_output(sid, result.report);
    result.attested = status == accel::DeviceStatus::kOk;
  }
  result.device_status = status;
  result.outcome = status == accel::DeviceStatus::kOk
                       ? RequestOutcome::kOk
                       : RequestOutcome::kDeviceError;
}

void InferenceServer::make_ready(std::shared_ptr<Tenant> tenant) {
  ReadyQueue& queue = ready_[tenant->device_index % ready_.size()];
  {
    std::lock_guard<std::mutex> lock(queue.mu);
    queue.tenants.push_back(std::move(tenant));
  }
  queue.pushed.release();
}

void InferenceServer::worker_loop(std::stop_token stop, ReadyQueue& queue) {
  while (true) {
    // One token == one tenant in this queue (or a shutdown wake): every push
    // happens-before its release, and every consumer holds a token of its
    // own, so the pop below always finds an entry.
    queue.pushed.acquire();
    if (stop.stop_requested()) return;
    std::shared_ptr<Tenant> tenant;
    {
      std::lock_guard<std::mutex> lock(queue.mu);
      tenant = std::move(queue.tenants.front());
      queue.tenants.pop_front();
    }
    run_batch(tenant);
  }
}

void InferenceServer::run_batch(const std::shared_ptr<Tenant>& tenant) {
  Shard& shard = table_.shard_for(tenant->id);
  std::vector<Request> batch;
  std::shared_ptr<const host::ExecutionPlan> plan;
  {
    std::unique_lock<std::mutex> lock(shard.mu);
    if (!tenant->open) {
      // Torn down while we sat in the ready queue. teardown_outcome says
      // why: kNoTenant (disconnect/eviction/reset) or kDeviceFailover (the
      // health monitor failed the tenant over). Nothing executes, so the
      // whole FIFO resolves without counting as processed.
      std::deque<Request> orphaned;
      orphaned.swap(tenant->pending);
      const RequestOutcome outcome = tenant->teardown_outcome;
      tenant->scheduled = false;
      lock.unlock();
      drain(orphaned, outcome);
      return;
    }
    // Cross-tenant batching: drain up to kMaxBatch of this tenant's FIFO in
    // one wakeup. The tenant stays "scheduled" (owned by this worker) so no
    // other worker can reorder its secure-channel sequence numbers.
    while (!tenant->pending.empty() && batch.size() < kMaxBatch) {
      batch.push_back(std::move(tenant->pending.front()));
      tenant->pending.pop_front();
    }
    // Snapshot the plan under the shard lock: load_model may swap it
    // concurrently, and the batch must execute against one coherent plan.
    plan = tenant->plan;
  }
  std::size_t batch_bytes = 0;
  for (const Request& request : batch) batch_bytes += request.charged_bytes;
  admission_.release(batch.size(), batch_bytes);
  if (!batch.empty()) {
    ins_.batches.inc();
    ins_.requests.inc(batch.size());
    ins_.batch_size.record(static_cast<double>(batch.size()));
    if (tenant->requests_counter) tenant->requests_counter->inc(batch.size());
  }

  const Clock::time_point picked_up = Clock::now();
  std::vector<InferenceResult> results(batch.size());
  DeviceNode& node = *devices_[tenant->device_index];
  const std::size_t dev = tenant->device_index;
  if (!batch.empty()) {
    device_requests_[dev]->inc(batch.size());
    // Per-shard sojourn (enqueue → pickup) + the pickup span for each traced
    // request in the batch.
    const std::size_t shard_index = table_.shard_index(tenant->id);
    using MsDouble = std::chrono::duration<double, std::milli>;
    for (const Request& request : batch) {
      shard_sojourn_[shard_index]->record(
          MsDouble(picked_up - request.enqueued).count());
      trace_.record(request.trace_id, obs::SpanKind::kPickup, tenant->id,
                    static_cast<u32>(dev), 0);
    }
  }
  // When the loop below aborts, [abort_from, batch.size()) and — for
  // kTimeout/kDeviceFailover — everything still queued behind the batch
  // resolve with abort_outcome, keeping the per-tenant FIFO gapless (the
  // secure channel's strict sequence numbers forbid skipping a request).
  RequestOutcome abort_outcome = RequestOutcome::kOk;
  accel::DeviceStatus abort_status = accel::DeviceStatus::kOk;
  std::size_t abort_from = batch.size();
  bool wound = false;  // device died / completion lost → tenant fails over
  {
    // The accelerator executes one command stream at a time.
    std::lock_guard<std::mutex> busy(node.busy);
    const double modeled_before = node.device.elapsed_ms();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].expired(Clock::now())) {
        abort_outcome = RequestOutcome::kTimeout;
        abort_from = i;
        break;
      }
      FaultInjector::Decision decision = faults_.on_call(dev);
      // Transient-fault retry: the record was never consumed, so retrying
      // the *same* record is sequence-safe. Bounded attempts with doubling
      // backoff; a still-failing device costs the client kTimeout, not a
      // wedged worker.
      std::size_t attempt = 0;
      bool transient_gave_up = false;
      while (decision.kind == FaultKind::kIntegrity) {
        record_device_failure(dev);
        if (attempt >= config_.transient_retries ||
            batch[i].expired(Clock::now())) {
          transient_gave_up = true;
          break;
        }
        ++attempt;
        ins_.retries.inc();
        const double backoff_ms =
            config_.retry_backoff_ms *
            static_cast<double>(u64{1} << (attempt - 1));
        if (backoff_ms > 0)
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms));
        decision = faults_.on_call(dev);
      }
      if (transient_gave_up) {
        abort_outcome = RequestOutcome::kTimeout;
        abort_status = accel::DeviceStatus::kIntegrityFailure;
        abort_from = i;
        break;
      }
      if (decision.kind == FaultKind::kDeath) {
        // Fail-stop: the session keys died with the SRAM. Nothing queued on
        // this tenant can ever execute — fail the whole FIFO over.
        note_device_dead(dev);
        abort_outcome = RequestOutcome::kDeviceFailover;
        abort_status = accel::DeviceStatus::kUnavailable;
        abort_from = i;
        wound = true;
        break;
      }
      if (decision.kind == FaultKind::kLatency && decision.latency_ms > 0) {
        // Injected wedge: sleep it off, but never past the deadline — a
        // wedged device resolves kTimeout instead of blocking the worker
        // for the full wedge.
        const auto delay = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double, std::milli>(decision.latency_ms));
        const Clock::time_point now = Clock::now();
        if (batch[i].has_deadline && now + delay >= batch[i].deadline)
          std::this_thread::sleep_until(batch[i].deadline);
        else
          std::this_thread::sleep_for(delay);
        if (batch[i].expired(Clock::now())) {
          abort_outcome = RequestOutcome::kTimeout;
          abort_from = i;
          break;
        }
      }
      if (decision.kind == FaultKind::kDrop) {
        // The device executes the command but the completion is lost: its
        // to_user sender sequence advanced on an output nobody can ever
        // open, so the session is wounded even though the device survives.
        InferenceResult discarded;
        process_one(*tenant, node, *plan, batch[i], discarded);
        record_device_failure(dev);
        abort_outcome = RequestOutcome::kDeviceFailover;
        abort_status = accel::DeviceStatus::kUnavailable;
        abort_from = i;
        wound = true;
        break;
      }
      process_one(*tenant, node, *plan, batch[i], results[i]);
      if (results[i].outcome == RequestOutcome::kOk)
        record_device_success(dev);
      else if (results[i].device_status != accel::DeviceStatus::kNoSession)
        // kNoSession is the device correctly refusing a session that a
        // concurrent disconnect/eviction closed under us — a control-plane
        // race, not device sickness. Counting it toward the health machine
        // could quarantine a healthy device mid-teardown-storm and fail
        // over every innocent tenant resident on it.
        record_device_failure(dev);
    }
    if (config_.emulate_device_latency) {
      const double modeled_ms = (node.device.elapsed_ms() - modeled_before) *
                                config_.device_latency_scale;
      if (modeled_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(modeled_ms));
    }
  }

  const Clock::time_point done = Clock::now();
  for (std::size_t i = 0; i < abort_from; ++i) {
    using MsDouble = std::chrono::duration<double, std::milli>;
    results[i].queue_ms = MsDouble(picked_up - batch[i].enqueued).count();
    results[i].service_ms = MsDouble(done - picked_up).count();
    ins_.queue_ms.record(results[i].queue_ms);
    ins_.service_ms.record(results[i].service_ms);
    if (results[i].outcome == RequestOutcome::kOk)
      ins_.e2e_ms.record(results[i].queue_ms + results[i].service_ms);
    resolve_one(batch[i], std::move(results[i]));
  }
  if (abort_outcome == RequestOutcome::kTimeout)
    ins_.timeouts.inc(batch.size() - abort_from);
  // A wounded session tears the tenant down before the tail below, so the
  // drain resolves with teardown_outcome == kDeviceFailover and a failover
  // record is registered for reconnect().
  if (wound) fail_over_tenant(tenant);

  std::deque<Request> orphaned;
  RequestOutcome orphan_outcome = RequestOutcome::kNoTenant;
  bool wake = false;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    tenant->last_activity = done;
    if (!tenant->open) {
      orphaned.swap(tenant->pending);
      orphan_outcome = tenant->teardown_outcome;
      tenant->scheduled = false;
    } else if (abort_outcome == RequestOutcome::kTimeout) {
      // Deadline/retry-budget expiry drains the tenant's whole FIFO: the
      // channel stays gapless and the client retries the same records in
      // order.
      orphaned.swap(tenant->pending);
      orphan_outcome = RequestOutcome::kTimeout;
      tenant->scheduled = false;
    } else if (!tenant->pending.empty() && !tenant->draining) {
      wake = true;
    } else {
      // Empty queue — or a draining tenant, whose ownership must return to
      // the migrating thread between replay batches instead of a worker.
      tenant->scheduled = false;
    }
  }
  // The aborted requests resolve only after the FIFO behind them left the
  // tenant above: a client that sees its timeout and resubmits must reach a
  // fresh FIFO, not the one this expiry drains.
  for (std::size_t i = abort_from; i < batch.size(); ++i) {
    InferenceResult result;
    result.outcome = abort_outcome;
    result.device_status = abort_status;
    using MsDouble = std::chrono::duration<double, std::milli>;
    result.queue_ms = MsDouble(picked_up - batch[i].enqueued).count();
    result.service_ms = MsDouble(done - picked_up).count();
    resolve_one(batch[i], std::move(result));
  }
  if (wake) make_ready(tenant);
  drain(orphaned, orphan_outcome);
}

// --- Fault tolerance / health ------------------------------------------------

std::size_t InferenceServer::pick_routable_device(
    const std::optional<store::ContentId>& content) const {
  std::size_t best = devices_.size();
  std::pair<bool, std::size_t> best_rank;
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    if (!routable(i)) continue;
    // Replica holders first, then the lighter load.
    const std::pair<bool, std::size_t> rank{
        !(content && model_store_.contains(
                         *content, devices_[i]->device.store_binding())),
        devices_[i]->tenant_count.load(std::memory_order_relaxed)};
    if (best == devices_.size() || rank < best_rank) {
      best = i;
      best_rank = rank;
    }
  }
  return best;
}

std::size_t InferenceServer::routable_device_count() const {
  std::size_t count = 0;
  for (std::size_t i = 0; i < devices_.size(); ++i)
    if (routable(i)) ++count;
  return count;
}

std::size_t InferenceServer::standby_device_count() const {
  std::size_t count = 0;
  for (const auto& node : devices_)
    if (node->standby.load(std::memory_order_acquire)) ++count;
  return count;
}

void InferenceServer::maybe_promote_spares() {
  // The fleet tries to stay at full primary strength.
  while (routable_device_count() < primary_devices_) {
    std::size_t spare = devices_.size();
    for (std::size_t i = primary_devices_; i < devices_.size(); ++i) {
      if (devices_[i]->standby.load(std::memory_order_acquire) &&
          !faults_.dead(i) && device_health(i) == DeviceHealth::kHealthy) {
        spare = i;
        break;
      }
    }
    if (spare == devices_.size()) return;  // no promotable spare left
    DeviceNode& node = *devices_[spare];
    // Pre-warm before the spare takes traffic: the displaced
    // (failover-pending) tenants' sealed replicas first — they are who the
    // promotion exists for — then store popularity order.
    std::vector<store::ContentId> warm;
    table_.for_each_shard_locked([&](Shard& shard) {
      for (const auto& [id, tenant] : shard.tenants)
        if (!tenant->open && tenant->model_content)
          warm.push_back(*tenant->model_content);
    });
    for (const store::ContentId& content :
         model_store_.hot_contents(kSparePrewarmModels))
      warm.push_back(content);
    std::size_t warmed = 0;
    std::vector<store::ContentId> attempted;
    for (const store::ContentId& content : warm) {
      if (warmed >= kSparePrewarmModels) break;
      if (std::find(attempted.begin(), attempted.end(), content) !=
          attempted.end())
        continue;
      attempted.push_back(content);
      if (replicate_model(content, spare) == accel::DeviceStatus::kOk)
        ++warmed;
    }
    node.standby.store(false, std::memory_order_release);
    ins_.spare_promotions.inc();
    events_.record("promote", "spare device " + std::to_string(spare) +
                                  " promoted (" + std::to_string(warmed) +
                                  " models pre-warmed)");
    // The spare is routable now: the byte budget climbs back toward the
    // full-primary-fleet value.
    rescale_admission();
  }
}

bool InferenceServer::failover_pending(TenantId tenant) const {
  const Shard& shard = table_.shard_for(tenant);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tenants.find(tenant);
  return it != shard.tenants.end() && !it->second->open;
}

accel::DeviceStatus InferenceServer::fault_gate(std::size_t device_index) {
  const FaultInjector::Decision decision = faults_.on_call(device_index);
  switch (decision.kind) {
    case FaultKind::kNone:
      return accel::DeviceStatus::kOk;
    case FaultKind::kDeath:
      note_device_dead(device_index);
      return accel::DeviceStatus::kUnavailable;
    case FaultKind::kDrop:
      // Control-plane command lost in flight: it never executed (there is
      // no session state to wound), the caller just never hears back.
      record_device_failure(device_index);
      return accel::DeviceStatus::kUnavailable;
    case FaultKind::kIntegrity:
      record_device_failure(device_index);
      return accel::DeviceStatus::kIntegrityFailure;
    case FaultKind::kLatency:
      if (decision.latency_ms > 0)
        std::this_thread::sleep_for(
            std::chrono::duration<double, std::milli>(decision.latency_ms));
      return accel::DeviceStatus::kOk;
  }
  return accel::DeviceStatus::kOk;
}

void InferenceServer::record_device_success(std::size_t device_index) {
  DeviceNode& node = *devices_[device_index];
  node.consecutive_failures.store(0, std::memory_order_relaxed);
  // A degraded device heals itself on success; quarantined/dead ones only
  // come back through reinstate_device().
  u8 expected = static_cast<u8>(DeviceHealth::kDegraded);
  if (node.health.compare_exchange_strong(
          expected, static_cast<u8>(DeviceHealth::kHealthy),
          std::memory_order_acq_rel, std::memory_order_relaxed))
    note_health_transition(device_index, DeviceHealth::kDegraded,
                           DeviceHealth::kHealthy, "call succeeded");
}

void InferenceServer::record_device_failure(std::size_t device_index) {
  DeviceNode& node = *devices_[device_index];
  const u32 failures =
      node.consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
  u8 current = node.health.load(std::memory_order_acquire);
  if (current == static_cast<u8>(DeviceHealth::kDead) ||
      current == static_cast<u8>(DeviceHealth::kQuarantined))
    return;
  if (config_.quarantine_after &&
      failures >= static_cast<u32>(config_.quarantine_after)) {
    // Only the transition's winner counts the quarantine and hands the
    // device to the monitor (down_pending) — racing failures are no-ops.
    if (node.health.compare_exchange_strong(
            current, static_cast<u8>(DeviceHealth::kQuarantined),
            std::memory_order_acq_rel, std::memory_order_relaxed)) {
      ins_.quarantines.inc();
      note_health_transition(device_index,
                             static_cast<DeviceHealth>(current),
                             DeviceHealth::kQuarantined,
                             "consecutive failures");
      node.down_pending.store(true, std::memory_order_release);
    }
  } else if (failures >= static_cast<u32>(config_.degrade_after) &&
             current == static_cast<u8>(DeviceHealth::kHealthy)) {
    if (node.health.compare_exchange_strong(
            current, static_cast<u8>(DeviceHealth::kDegraded),
            std::memory_order_acq_rel, std::memory_order_relaxed))
      note_health_transition(device_index, DeviceHealth::kHealthy,
                             DeviceHealth::kDegraded, "consecutive failures");
  }
}

void InferenceServer::note_device_dead(std::size_t device_index) {
  DeviceNode& node = *devices_[device_index];
  const u8 previous = node.health.exchange(
      static_cast<u8>(DeviceHealth::kDead), std::memory_order_acq_rel);
  if (previous != static_cast<u8>(DeviceHealth::kDead)) {
    note_health_transition(device_index, static_cast<DeviceHealth>(previous),
                           DeviceHealth::kDead, "fail-stop");
    node.down_pending.store(true, std::memory_order_release);
  }
}

bool InferenceServer::fail_over_tenant(const std::shared_ptr<Tenant>& tenant) {
  const Clock::time_point start = Clock::now();
  // retire keeps the closed entry in its shard: its model fields are what
  // reconnect() restores from.
  if (!retire(tenant->id, RequestOutcome::kDeviceFailover,
              [&](Shard&) { return tenant->open ? tenant : nullptr; }))
    return false;  // raced with disconnect/reset/failover
  ins_.failovers.inc();
  events_.record("failover", "tenant " + std::to_string(tenant->id) +
                                 " off device " +
                                 std::to_string(tenant->device_index));
  // A quarantined (still answering) device gets its slot zeroized.
  close_session(tenant->device_index, tenant->session);
  ins_.failover_ms.record(
      std::chrono::duration<double, std::milli>(Clock::now() - start).count());
  return true;
}

void InferenceServer::handle_device_down(std::size_t device_index) {
  // Multi-pass by design (the lock-ordering rule in the header): collect
  // victims under shard locks, then tear each down with no lock held.
  std::vector<std::shared_ptr<Tenant>> victims;
  table_.for_each_shard_locked([&](Shard& shard) {
    for (const auto& [id, tenant] : shard.tenants)
      if (tenant->device_index == device_index && tenant->open)
        victims.push_back(tenant);
  });
  for (const auto& tenant : victims) fail_over_tenant(tenant);
  rescale_admission();
  // The quarantined/dead device's generations would otherwise pin plans
  // until a reset.
  prune_plans(/*routable_only=*/true);
}

void InferenceServer::rescale_admission() {
  admission_.set_byte_budget(byte_budget(config_, routable_device_count()));
}

void InferenceServer::reap_deadlines() {
  const Clock::time_point now = Clock::now();
  std::deque<Request> orphaned;
  table_.for_each_shard_locked([&](Shard& shard) {
    for (const auto& [id, tenant] : shard.tenants) {
      // Scheduled tenants are owned: their worker runs the same deadline
      // check at pickup. Only unowned queues are reaped here. The whole
      // FIFO drains with the expired head — skipping just the head would
      // gap the channel sequence.
      if (!tenant->open || tenant->scheduled || tenant->pending.empty())
        continue;
      if (!tenant->pending.front().expired(now)) continue;
      for (Request& request : tenant->pending)
        orphaned.push_back(std::move(request));
      tenant->pending.clear();
    }
  });
  drain(orphaned, RequestOutcome::kTimeout);
}

void InferenceServer::monitor_loop(std::stop_token stop) {
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double, std::milli>(
          config_.monitor_interval_ms > 0 ? config_.monitor_interval_ms : 1.0));
  // The wait wakes on the stop token, so the destructor never waits out an
  // interval.
  std::mutex idle_mu;
  std::condition_variable_any idle;
  std::unique_lock<std::mutex> idle_lock(idle_mu);
  while (!idle.wait_for(idle_lock, stop, interval,
                        [&stop] { return stop.stop_requested(); })) {
    for (std::size_t i = 0; i < devices_.size(); ++i) {
      // Fail-stop detection: a device the injector killed outside any call
      // (faults().kill(i)) is noticed here even if nothing touched it since.
      if (faults_.dead(i) &&
          device_health(i) != DeviceHealth::kDead)
        note_device_dead(i);
      if (devices_[i]->down_pending.exchange(false, std::memory_order_acq_rel))
        handle_device_down(i);
    }
    if (config_.num_spare_devices) maybe_promote_spares();
    reap_deadlines();
  }
}

accel::DeviceStatus InferenceServer::reinstate_device(std::size_t index) {
  if (index >= devices_.size()) return accel::DeviceStatus::kBadOperand;
  if (faults_.dead(index)) return accel::DeviceStatus::kUnavailable;
  // Reset like a replaced card: generation bump, session table zeroized,
  // stale tenants purged — a plan or session from before the failure can
  // never leak into the reinstated device.
  const accel::DeviceStatus status = reset_device(index);
  if (status != accel::DeviceStatus::kOk) return status;
  DeviceNode& node = *devices_[index];
  node.consecutive_failures.store(0, std::memory_order_relaxed);
  node.down_pending.store(false, std::memory_order_relaxed);
  const u8 previous = node.health.exchange(
      static_cast<u8>(DeviceHealth::kHealthy), std::memory_order_acq_rel);
  if (previous != static_cast<u8>(DeviceHealth::kHealthy))
    note_health_transition(index, static_cast<DeviceHealth>(previous),
                           DeviceHealth::kHealthy, "reinstated");
  rescale_admission();
  return accel::DeviceStatus::kOk;
}

ServerStats InferenceServer::stats() const {
  // Reads the same obs::Counter cells the data plane increments and
  // telemetry() exports — one source of truth, two views.
  ServerStats out;
  out.requests = ins_.requests.value();
  out.batches = ins_.batches.value();
  out.rejected = ins_.rejected.value();
  out.backpressured = ins_.backpressured.value();
  out.evicted = ins_.evicted.value();
  out.replications = ins_.replications.value();
  out.failovers = ins_.failovers.value();
  out.quarantines = ins_.quarantines.value();
  out.retries = ins_.retries.value();
  out.timeouts = ins_.timeouts.value();
  out.migrations = ins_.migrations_ok.value();
  out.migrations_aborted = ins_.migrations_aborted.value();
  out.migrations_degraded = ins_.migrations_failover.value();
  out.spare_promotions = ins_.spare_promotions.value();
  return out;
}

void InferenceServer::note_health_transition(std::size_t device_index,
                                             DeviceHealth from,
                                             DeviceHealth to,
                                             const char* cause) {
  // Rare control-plane event: the registry-mutex lookup is fine here.
  metrics_
      .counter("serving_health_transitions_total",
               {{"device", std::to_string(device_index)},
                {"to", health_name(to)}})
      .inc();
  events_.record("health", "device " + std::to_string(device_index) + ": " +
                               health_name(from) + " -> " + health_name(to) +
                               " (" + cause + ")");
}

obs::TelemetrySnapshot InferenceServer::telemetry() const {
  // Live gauges are sampled into the registry at export time; everything
  // else (counters, histograms) is already there, incremented by the data
  // plane.
  metrics_.gauge("serving_pending_requests")
      .set(static_cast<double>(admission_.pending_requests()));
  metrics_.gauge("serving_pending_bytes")
      .set(static_cast<double>(admission_.pending_bytes()));
  metrics_.gauge("serving_admission_byte_budget")
      .set(static_cast<double>(admission_.byte_budget()));
  metrics_.gauge("serving_routable_devices")
      .set(static_cast<double>(routable_device_count()));
  metrics_.gauge("serving_standby_devices")
      .set(static_cast<double>(standby_device_count()));
  for (std::size_t i = 0; i < devices_.size(); ++i) {
    const obs::Labels labels{{"device", std::to_string(i)}};
    const DeviceNode& node = *devices_[i];
    metrics_.gauge("device_health", labels)
        .set(static_cast<double>(node.health.load(std::memory_order_relaxed)));
    metrics_.gauge("device_tenants", labels)
        .set(static_cast<double>(
            node.tenant_count.load(std::memory_order_relaxed)));
    const accel::MpuByteCounters& mpu = node.device.mpu_byte_counters();
    metrics_.gauge("device_mpu_encrypted_bytes", labels)
        .set(static_cast<double>(
            mpu.bytes_encrypted.load(std::memory_order_relaxed)));
    metrics_.gauge("device_mpu_macd_bytes", labels)
        .set(static_cast<double>(
            mpu.bytes_macd.load(std::memory_order_relaxed)));
  }
  obs::TelemetrySnapshot out;
  out.metrics = metrics_.snapshot();
  out.events = events_.snapshot();
  out.spans = trace_.snapshot();
  out.spans_recorded = trace_.recorded();
  return out;
}

std::pair<std::size_t, accel::SessionId> InferenceServer::tenant_session(
    TenantId tenant) const {
  const auto& shard = table_.shard_for(tenant);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.tenants.find(tenant);
  if (it == shard.tenants.end() || !it->second->open)
    return {0, accel::kInvalidSession};
  return {it->second->device_index, it->second->session};
}

}  // namespace guardnn::serving
