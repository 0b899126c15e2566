// Multi-tenant secure inference server.
//
// The untrusted serving stack the paper's deployment story implies: one
// process terminates many remote users' GuardNN protocol sessions and
// multiplexes them onto a small fleet of GuardNN devices. The server is part
// of the *untrusted* host — it never sees a key or a plaintext; every secret
// stays inside the devices' session tables, and every tenant still gets the
// full end-to-end guarantees (channel MACs, per-session K_MEnc, disjoint DRAM
// partitions, remote attestation) no matter how the server schedules work.
//
// Architecture:
//   * a device fleet (each device owns its UntrustedMemory, a busy lock that
//     models "the accelerator executes one batch at a time", and a
//     provisioning lock scoping the one-pending-ephemeral re-wrap handshake
//     to that device — disjoint device pairs replicate concurrently);
//   * a striped session/routing table (shard_table.h): tenants hash to one
//     of a power-of-two set of shards, each with its own mutex and tenant
//     map; the stripes only spread submit-lock traffic;
//   * device-bound ready queues: G = min(workers, devices) queues, device d
//     and worker w on queues d % G and w % G. A worker pops only its own
//     queue, so it never waits on a device outside its group. One tenant is
//     owned by at most one worker at a time, so each tenant's secure-channel
//     sequence numbers stay in order while different tenants run concurrently;
//   * cross-tenant batching: a worker drains up to 8 queued requests of one
//     tenant per wakeup, amortizing queue/wake overhead; the per-request
//     data path is PR 2's batched encrypt_blocks() burst pipeline;
//   * two-level admission control (admission.h): a per-tenant queue quota
//     (hard kQueueFull — noisy neighbors only starve themselves) plus a
//     fleet-wide queued-byte budget derived from the modeled device ingest
//     bandwidth (soft kBackpressure — retry the same sealed record later);
//   * an ExecutionPlan cache keyed by model hash, so tenants serving the
//     same architecture share one compiled plan;
//   * optional device-latency emulation: the functional model computes on
//     the CPU in microseconds, but the modeled accelerator/MicroBlaze time
//     (LatencyAccumulator) is the *hardware* time — emulation sleeps it off
//     while holding the device lock, so the serving tests and
//     examples/fleet_dashboard exercise scheduling against realistic device
//     occupancy instead of simulation CPU time (fleetbench runs with it off);
//   * a fault-tolerance layer (fault.h + the health monitor below): every
//     device call crosses a FaultInjector gate (control-plane commands through
//     the one device_call seam), per-device health degrades on consecutive
//     failures (healthy → degraded → quarantined, or dead on
//     fail-stop), a monitor thread reaps per-request deadlines and fails
//     tenants over off dead/quarantined devices — every promise resolves,
//     the admission byte budget rescales to the surviving fleet, and a
//     reconnecting tenant lands on a routable device that holds its sealed
//     model replica, so it resumes without re-uploading weights.
//
// Failure model (docs/ARCHITECTURE.md "Failure model & recovery" has the
// full walkthrough): GuardNN sessions are fail-stop and their keys live in
// device SRAM, so fail-stop death is cryptographically unrecoverable — no
// server can decrypt a tenant's queued sealed records on another device,
// because the channel keys died with the session. What *is* recoverable
// without user involvement is the model: a sealed replica on a surviving
// device restores into a fresh session. Failover therefore resolves every
// affected future with the retryable kDeviceFailover and leaves the tenant
// closed in its shard; one reconnect() — a migration whose source is dead —
// rebuilds it with a fresh ECDHE handshake on a device holding the replica,
// after which new submissions flow against the restored weights.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <thread>
#include <vector>

#include <optional>

#include "host/scheduler.h"
#include "host/user_client.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serving/admission.h"
#include "serving/fault.h"
#include "serving/shard_table.h"
#include "store/model_store.h"

namespace guardnn::serving {

struct ServerConfig {
  std::size_t num_devices = 1;
  std::size_t num_workers = 1;
  /// Shard count for the tenant/routing table, rounded up to a power of
  /// two; spreads submit-lock traffic. 0 derives max(16, 4 × num_workers).
  std::size_t num_shards = 0;
  /// Per-tenant cap on queued-but-unprocessed requests. A tenant at its
  /// quota is rejected with kQueueFull; no other tenant is affected.
  std::size_t max_pending_per_tenant = 64;
  /// Fleet-wide budget of queued sealed-input bytes. 0 derives it from the
  /// modeled per-device ingest bandwidth (accel::MicrocontrollerModel
  /// import path): the fleet admits at most the bytes it can ingest within
  /// 5 modeled milliseconds. Crossing the budget answers kBackpressure — a
  /// soft signal, distinct from kQueueFull.
  std::size_t max_pending_bytes = 0;
  /// Sleep off the modeled device time while holding the device lock (see
  /// file header). OFF by default; the serving tests that need realistic
  /// device occupancy and examples/fleet_dashboard turn it on.
  bool emulate_device_latency = false;
  /// Scales the modeled device time when emulating.
  double device_latency_scale = 1.0;
  /// When a device's session table is full at connect, evict the
  /// least-recently-active *idle* tenant (no queued work) on that device and
  /// admit the waiting one. The evicted session is closed and zeroized
  /// device-side; the evicted tenant's next submit answers kNoTenant.
  bool evict_idle_sessions = true;
  /// Non-empty: back the server's sealed-model store with this directory
  /// (blobs survive a restart). Empty: in-memory store.
  std::string model_store_dir;

  // --- Live migration / hot spares -----------------------------------------

  /// Standby devices fabricated *in addition to* num_devices. A spare has a
  /// full identity and DRAM partition but carries no traffic (never
  /// routable) until the health monitor pre-warms and promotes it — when
  /// quarantine drops the routable fleet below num_devices. The admission
  /// byte budget is always scaled against the primary fleet, so an
  /// unpromoted spare costs nothing and a promoted one restores lost budget.
  std::size_t num_spare_devices = 0;

  // --- Fault tolerance / health (see the file-header failure model) --------

  /// Consecutive device-call failures before a device is marked degraded
  /// (still routable, but new tenants prefer healthy devices).
  std::size_t degrade_after = 2;
  /// Consecutive failures before the device is quarantined: removed from
  /// routing, its tenants failed over, the admission budget rescaled, and
  /// its plan-cache generations pruned. 0 disables quarantine.
  std::size_t quarantine_after = 6;
  /// Bounded same-record retry budget for transient device faults (the
  /// record was never consumed, so the channel sequence is intact).
  std::size_t transient_retries = 3;
  /// Base backoff between transient retries; doubles per attempt.
  double retry_backoff_ms = 0.2;
  /// Default per-request deadline, enqueue → completion. An expired request
  /// resolves kTimeout *before* its sealed record is consumed, together
  /// with everything queued behind it (retry the same records, in order).
  /// 0 = no deadline; submit_async can override per request.
  double default_deadline_ms = 0.0;
  /// Health-monitor period: deadline reaping, fail-stop detection, and
  /// tenant failover all run on this cadence.
  double monitor_interval_ms = 1.0;

  // --- Observability -------------------------------------------------------

  /// Span ring capacity for request tracing (obs/trace.h). Tracing is armed
  /// by GUARDNN_TRACE=1 or trace().set_enabled(true); while disabled the
  /// per-request cost is one relaxed load.
  std::size_t trace_capacity = 1 << 17;
};

/// Per-device health as seen by the serving control plane. Healthy and
/// degraded devices are routable; quarantined and dead ones are not.
enum class DeviceHealth : u8 {
  kHealthy,
  kDegraded,     ///< Consecutive failures crossed degrade_after.
  kQuarantined,  ///< Crossed quarantine_after: out of routing, tenants
                 ///< failed over. Admin may reinstate_device().
  kDead,         ///< Fail-stop: the device stopped answering. Session keys
                 ///< are gone with the SRAM; only reinstate after replacing
                 ///< ("reviving") the device.
};

const char* health_name(DeviceHealth health);

enum class RequestOutcome : u8 {
  kOk,
  kDeviceError,    ///< The device refused an instruction; see device_status.
  kNoTenant,       ///< Unknown, disconnected, or torn-down tenant.
  kNoModel,        ///< Tenant never loaded a model.
  kQueueFull,      ///< The tenant's own queue quota is exhausted (hard).
  kBackpressure,   ///< Fleet byte budget exhausted (soft — retry the same
                   ///< sealed record; re-sealing would gap the channel).
  kShutdown,       ///< Server destroyed while the request was queued.
  kTimeout,        ///< Deadline expired (or the bounded transient-fault
                   ///< retry budget ran out) before the device consumed the
                   ///< record. The tenant's whole queue drains this way so
                   ///< the channel stays gapless: retry the same sealed
                   ///< records, in order.
  kDeviceFailover, ///< The tenant's device died (or its session was wounded
                   ///< by a lost completion). The session keys are gone;
                   ///< retryable via reconnect(): re-handshake, then re-seal
                   ///< under the new session. A sealed model replica is
                   ///< restored server-side — weights need no re-upload.
};

const char* outcome_name(RequestOutcome outcome);

struct InferenceResult {
  RequestOutcome outcome = RequestOutcome::kOk;
  accel::DeviceStatus device_status = accel::DeviceStatus::kOk;
  /// Output sealed for the tenant (only the tenant's user can open it).
  crypto::SealedRecord sealed_output;
  /// Attestation report; populated when the request asked for one.
  accel::SignOutputResponse report{};
  bool attested = false;
  double queue_ms = 0.0;    ///< enqueue → worker pickup
  double service_ms = 0.0;  ///< worker pickup → completion (incl. emulation)
};

/// A compiled model, shared across every tenant serving the same
/// architecture+weights. `hash` is the logical cache key (SHA-256 over the
/// network structure and the packed weight blob); compiled plans are cached
/// per (hash, device generation) so a plan from before a device reset is
/// never replayed onto the re-provisioned device.
struct ModelHandle {
  crypto::Sha256Digest hash{};
  /// The registered architecture (kept so the server can recompile the plan
  /// for a later device generation without the caller re-registering).
  std::shared_ptr<const host::FuncNetwork> net;
  /// Plan compiled for `generation`; load_model recompiles transparently
  /// when the tenant's device has moved past it.
  std::shared_ptr<const host::ExecutionPlan> plan;
  u64 generation = 0;
  bool valid() const { return plan != nullptr; }
};

/// Snapshot view over the server's metric registry (the registry is the
/// single source of truth: stats() reads the same obs::Counter cells that
/// telemetry() exports, so the two can never drift). Each field is an
/// independent relaxed load — per-field coherent (monotonic, never torn)
/// under concurrent failover, not a cross-field transaction.
struct ServerStats {
  u64 requests = 0;       ///< Requests processed by workers.
  u64 batches = 0;        ///< Worker wakeups that processed >= 1 request.
  u64 rejected = 0;       ///< Hard per-tenant-quota rejections (kQueueFull).
  u64 backpressured = 0;  ///< Soft fleet-budget rejections (kBackpressure).
  u64 evicted = 0;        ///< Idle sessions evicted to admit a new tenant.
  u64 replications = 0;   ///< Cross-device model re-wraps performed.
  u64 failovers = 0;      ///< Tenants torn down with kDeviceFailover and
                          ///< left failover-pending for reconnect().
  u64 quarantines = 0;    ///< Devices that crossed the quarantine threshold.
  u64 retries = 0;        ///< Bounded same-record retries of transient faults.
  u64 timeouts = 0;       ///< Requests resolved kTimeout (deadline or retry
                          ///< budget exhausted; record never consumed).
  u64 migrations = 0;           ///< Completed live migrations (zero loss).
  u64 migrations_aborted = 0;   ///< Migrations aborted (target failed);
                                ///< tenant resumed on the source untouched.
  u64 migrations_degraded = 0;  ///< Migrations whose source died mid-move;
                                ///< degraded to the crash-failover path.
  u64 spare_promotions = 0;     ///< Standby devices promoted into routing.
};

/// Multi-tenant secure inference server (see the file header for the
/// architecture).
///
/// Thread safety: every public method may be called from any thread
/// concurrently. Control-plane calls serialize on the tenant's table shard
/// plus the per-device busy/provisioning locks; data-plane submissions
/// enqueue under one shard lock (plus a device queue lock when the tenant
/// turns ready) and are executed by the worker pool (per-tenant FIFO order
/// is preserved, cross-tenant execution is concurrent). No process-global
/// mutex exists on the submit path.
/// Introspection accessors return references to device-owned state and are
/// meant for single-threaded test drivers.
///
/// Error model: control-plane methods return the accel::DeviceStatus of the
/// underlying device instruction (kNoSession for unknown/disconnected
/// tenants, kBadOperand for invalid indices/handles); data-plane results
/// carry a RequestOutcome plus the failing DeviceStatus. Requests still
/// queued when their tenant is torn down (disconnect, eviction, device
/// reset) resolve with kNoTenant — never silently dropped.
class InferenceServer {
 public:
  /// Builds the device fleet ("fabrication": each device gets an identity
  /// certified by `ca`) and starts the worker pool.
  ///
  /// Preconditions: `config.num_devices >= 1`, `config.num_workers >= 1`,
  /// `entropy` non-empty (seeds every device DRBG). When
  /// `config.model_store_dir` is non-empty the directory is created on
  /// demand and re-indexed (see store::DirectoryBackend).
  InferenceServer(const crypto::ManufacturerCa& ca, const ServerConfig& config,
                  BytesView entropy);
  /// Stops the workers; queued requests complete with
  /// RequestOutcome::kShutdown before the devices are torn down.
  ~InferenceServer();

  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  // --- Control plane (synchronous) -----------------------------------------

  /// Total fabricated devices: primaries + standby spares.
  std::size_t device_count() const { return devices_.size(); }
  /// Primary fleet size (admission budgets scale against this, not the
  /// total: an unpromoted spare contributes no ingest bandwidth).
  std::size_t primary_device_count() const { return primary_devices_; }
  /// Spares still standing by (fabricated spares minus promotions).
  std::size_t standby_device_count() const;

  /// GetPK for the device a new tenant would land on — or any device, for a
  /// user that wants to pre-verify the fleet.
  ///
  /// Precondition: `device_index < device_count()` (throws
  /// std::out_of_range otherwise).
  accel::GetPkResponse get_pk(std::size_t device_index);

  struct ConnectResult {
    TenantId tenant = 0;  ///< 0 when the connect failed.
    std::size_t device_index = 0;
    accel::InitSessionResponse response;
    /// reconnect() and migrate_tenant(): the tenant's sealed model replica
    /// was restored on the new device — submissions work without re-upload.
    bool model_restored = false;
  };

  /// Runs InitSession on the least-loaded *routable* (healthy or degraded)
  /// device and registers a tenant. The caller forwards `response` to the
  /// user's complete_session().
  ///
  /// Returns `tenant == 0` with `response.status` set when every session
  /// table is full (after idle eviction, when enabled), the device rejects
  /// the handshake, or no routable device remains (kUnavailable); no tenant
  /// is registered in that case.
  ConnectResult connect(const crypto::AffinePoint& user_ephemeral,
                        bool integrity);

  /// Failover resume: re-admits a tenant whose device died or was
  /// quarantined (its futures resolved kDeviceFailover). It runs
  /// migrate_tenant's steps 3–6 with a dead source, on the least-loaded
  /// routable device that holds the tenant's sealed replica (any routable
  /// device when none does): a fresh session — `user_ephemeral` is the
  /// user's *new* ECDHE share; the old keys died with the device — with
  /// the model restored, so `model_restored` comes back true and
  /// submissions immediately work (a model that cannot be moved is left
  /// behind for the user to reload), then the flip. Until the flip,
  /// submits answer kDeviceFailover. The TenantId is preserved.
  ///
  /// Returns `tenant == 0` with `response.status` kNoSession when no
  /// failover is pending for this id (or a concurrent reconnect or
  /// disconnect won), or kUnavailable when no routable device remains or
  /// the target went down or was reset before the flip (the tenant stays
  /// failover-pending).
  ConnectResult reconnect(TenantId tenant,
                          const crypto::AffinePoint& user_ephemeral,
                          bool integrity);

  /// Planned, zero-loss live migration: moves `tenant` onto `target_device`
  /// without dropping a single admitted request (contrast with the crash
  /// path, where the session keys die and queued records are lost).
  ///
  /// The sequence (docs/ARCHITECTURE.md §7 "Planned migration vs crash
  /// failover" walks it with a state diagram):
  ///   1. mark the tenant *draining*: new submits are still admitted and
  ///      parked in the FIFO, but workers stop being scheduled for it;
  ///   2. wait for the in-flight batch to resolve, then claim the tenant
  ///      like a worker would;
  ///   3. seal the loaded model on the source (reusing the recorded replica
  ///      when one exists — inference never mutates weights); the rebuild
  ///      step that reconnect() shares re-wraps it to the target over the
  ///      attested 3-step provisioning handshake when the target lacks it;
  ///   4. InitSession on the target with `user_ephemeral` — the user's
  ///      *fresh* ECDHE share (a session cannot move between devices; its
  ///      keys live in SRAM) — and restore the replica into it;
  ///   5. replay every parked record on the *source* session, in FIFO
  ///      order: parked records are sealed under the old channel keys, and
  ///      the source session is still alive, so the channel sequence is
  ///      preserved exactly;
  ///   6. atomically flip the routing-table entry to the target-bound
  ///      session in the same critical section that observes the FIFO
  ///      empty — if the target is still routable at the generation its
  ///      session opened on — close the source session, and return.
  ///
  /// The caller must stop sealing new requests under the old keys before
  /// calling (the old session's last records must be in flight or parked),
  /// and feeds `response` to the user's complete_session() to derive the new
  /// channel keys. Requests submitted after the flip execute on the target.
  ///
  /// Fault interplay: if the *source* dies mid-migration the tenant degrades
  /// to the crash path (tenant == 0, parked futures resolve kDeviceFailover,
  /// the tenant is left failover-pending); if the *target* dies or rejects,
  /// the migration aborts and the tenant resumes on the source
  /// untouched (tenant == 0, status from the failing step, no future lost).
  /// A tenant disconnected (or whose source is reset) mid-move is not a
  /// failure: the migration aborts and parked futures resolve kNoTenant.
  ///
  /// Errors: kNoSession (unknown tenant, a migration already draining it,
  /// or the tenant disconnected or its source reset mid-move), kBadOperand
  /// (bad target index, or target == source), kUnavailable (target not
  /// routable / died mid-move, or the source died mid-move).
  ConnectResult migrate_tenant(TenantId tenant, std::size_t target_device,
                               const crypto::AffinePoint& user_ephemeral,
                               bool integrity);

  /// CloseSession for the tenant's session (keys zeroized device-side) and
  /// retire the tenant. Requests still queued and not yet owned by a worker
  /// resolve with kNoTenant immediately; a worker that owns the tenant
  /// drains the remainder as kNoTenant at its next pickup.
  ///
  /// Returns kNoSession for an unknown or already-disconnected tenant;
  /// otherwise the device's CloseSession status.
  accel::DeviceStatus disconnect(TenantId tenant);

  /// Compiles a network into an ExecutionPlan, deduplicated by model hash:
  /// the second tenant serving the same model reuses the cached plan.
  ModelHandle register_model(const host::FuncNetwork& net);

  /// Hash used by the plan cache (structure + packed weights).
  static crypto::Sha256Digest model_hash(const host::FuncNetwork& net);

  /// Imports the tenant's sealed weight blob and pins the plan used by
  /// subsequent submissions. The blob must be the plan's weight_blob sealed
  /// by the tenant's user. Forgets any replica sealed before the load, so a
  /// later migration seals the new weights and a reconnect resumes without
  /// a model.
  ///
  /// Errors: kNoSession (unknown tenant), kBadOperand (invalid handle),
  /// kBadRecord (channel authentication failed — the record was not sealed
  /// by this tenant's user, or was replayed), or any SetWeight status.
  accel::DeviceStatus load_model(TenantId tenant, const ModelHandle& model,
                                 const crypto::SealedRecord& sealed_weights);

  // --- Sealed model store / fleet replication ------------------------------
  // A tenant's loaded model can be sealed to the server's content-addressed
  // store and later provisioned to *other* devices in the fleet via the
  // attested re-wrap protocol — this is how a hot model escapes the
  // pinned-at-connect placement: a tenant landing on any device can be
  // served once the model is replicated there, without its weights ever
  // being visible to the server.

  /// Seals the tenant's currently loaded model on its device into the store
  /// (the fused SealModel pipeline: one MPU walk, in-place blob encryption).
  /// `descriptor` is the public architecture metadata to embed (typically
  /// host::serialize_descriptor of the registered network).
  ///
  /// Errors: kNoSession (unknown tenant), kBadOperand (no model loaded, or
  /// the blob failed the store's round-trip check), kIntegrityFailure (the
  /// session's weight region failed MAC verification — session is dead).
  /// On success `content_out` names the stored replica.
  accel::DeviceStatus seal_tenant_model(TenantId tenant, BytesView descriptor,
                                        store::ContentId& content_out);

  /// Ensures `target_device` holds a device-bound replica of `content`,
  /// re-wrapping from any fleet device that already has one. kOk when the
  /// replica already exists; kBadOperand when no device holds the model.
  ///
  /// The exclusion is scoped to the two devices involved (a device holds
  /// one pending provisioning ephemeral): replications between disjoint
  /// device pairs proceed concurrently.
  accel::DeviceStatus replicate_model(const store::ContentId& content,
                                      std::size_t target_device);

  /// Loads a stored model into the tenant's session (UnsealModel on its
  /// device), auto-replicating to that device first when needed. Pins the
  /// plan like load_model.
  accel::DeviceStatus load_model_from_store(TenantId tenant,
                                            const store::ContentId& content,
                                            const ModelHandle& model);

  store::ModelStore& model_store() { return model_store_; }
  const store::BindingId& device_binding(std::size_t index) const {
    return devices_.at(index)->device.store_binding();
  }

  /// Admin: reset one device ("reboot"). Every tenant on it is disconnected
  /// (queued work resolves kNoTenant), the device's sessions are zeroized
  /// and its generation bumps — cached plans for the old generation are
  /// never reused.
  accel::DeviceStatus reset_device(std::size_t index);

  // --- Fault tolerance / health --------------------------------------------

  /// The fault-injection boundary in front of every device (tests,
  /// examples/fleet_dashboard and the deep-fuzz job script faults through
  /// it; see fault.h).
  FaultInjector& faults() { return faults_; }

  DeviceHealth device_health(std::size_t index) const {
    return static_cast<DeviceHealth>(
        devices_[index]->health.load(std::memory_order_acquire));
  }
  /// Devices currently routable (healthy or degraded, and answering).
  std::size_t routable_device_count() const;

  /// Admin: return a quarantined (or revived) device to rotation. The
  /// device is reset first — generation bump, sessions zeroized — exactly
  /// like a replaced card; the admission budget rescales back up.
  /// Returns kUnavailable while the device is still dead (revive it via
  /// faults() first — or physically, in a real fleet).
  accel::DeviceStatus reinstate_device(std::size_t index);

  /// True while `tenant` is torn down awaiting reconnect() (its device died
  /// or was quarantined): its shard holds it as a closed entry.
  bool failover_pending(TenantId tenant) const;

  // --- Data plane ----------------------------------------------------------

  /// Queues one inference (sealed input → sealed output). Per-tenant FIFO
  /// order; cross-tenant concurrency up to the worker/device fleet size.
  ///
  /// Hot path: one shard mutex + two atomic RMWs (plus a device queue push
  /// when the tenant turns ready) — no process-global lock. Admission
  /// failures (kQueueFull/kBackpressure) do not consume the record: retry
  /// the same SealedRecord later.
  ///
  /// `deadline_ms` bounds enqueue → completion: 0 uses
  /// ServerConfig::default_deadline_ms, negative disables the deadline for
  /// this request. Expiry resolves kTimeout before the record is consumed
  /// (see RequestOutcome::kTimeout), so a wedged device costs the client a
  /// bounded wait, never a hung future.
  std::future<InferenceResult> submit_async(TenantId tenant,
                                            crypto::SealedRecord sealed_input,
                                            bool attest = false,
                                            double deadline_ms = 0.0);

  /// Synchronous convenience wrapper.
  InferenceResult submit(TenantId tenant, crypto::SealedRecord sealed_input,
                         bool attest = false, double deadline_ms = 0.0) {
    return submit_async(tenant, std::move(sealed_input), attest, deadline_ms)
        .get();
  }

  ServerStats stats() const;

  // --- Observability -------------------------------------------------------

  /// One coherent telemetry export: every registry metric (with live gauges
  /// — pending bytes/requests, per-device health and MPU byte counters,
  /// store size — sampled at the moment of the call), the health/failover
  /// event log, and the span ring. Feed it to obs::to_json /
  /// obs::to_prometheus; docs/ARCHITECTURE.md §8 catalogs the metric names.
  obs::TelemetrySnapshot telemetry() const;

  /// The request-trace collector. Armed from GUARDNN_TRACE at construction;
  /// benches/tests may set_enabled(true) at runtime. Only requests submitted
  /// *while enabled* record spans (a request minted under disabled tracing
  /// carries trace id 0 for its whole life).
  obs::TraceCollector& trace() { return trace_; }
  const obs::TraceCollector& trace() const { return trace_; }

  /// The server's metric registry (private to this server instance so
  /// several fleets in one process never collide; use find_metric over
  /// telemetry() for reads).
  obs::MetricRegistry& metrics() { return metrics_; }

  // --- Introspection (trusted-side / adversarial test hooks) ---------------

  /// The raw device — the isolation tests drive it directly, playing the
  /// malicious host that bypasses the server's bookkeeping.
  accel::GuardNnDevice& device(std::size_t index) {
    return devices_[index]->device;
  }
  /// The device's untrusted DRAM, for plaintext-leak scans.
  accel::UntrustedMemory& device_memory(std::size_t index) {
    return devices_[index]->memory;
  }
  /// The tenant's device index and session id (kInvalidSession if unknown).
  std::pair<std::size_t, accel::SessionId> tenant_session(TenantId tenant) const;

  /// Routing-table stripes (power of two; see ServerConfig::num_shards).
  std::size_t shard_count() const { return table_.shard_count(); }
  /// Requests admitted but not yet picked up by a worker, fleet-wide.
  std::size_t pending_requests() const { return admission_.pending_requests(); }
  /// Queued sealed-input bytes counted against the fleet byte budget.
  std::size_t pending_bytes() const { return admission_.pending_bytes(); }
  /// The fleet byte budget in force (configured or bandwidth-derived).
  std::size_t admission_byte_budget() const { return admission_.byte_budget(); }

 private:
  using Clock = std::chrono::steady_clock;

  struct Request {
    crypto::SealedRecord sealed_input;
    bool attest = false;
    /// Ciphertext bytes charged against the fleet byte budget at admission.
    std::size_t charged_bytes = 0;
    /// Nonzero only when tracing was enabled at submit (obs/trace.h); rides
    /// the request so every stage (pickup, device, resolve) spans under the
    /// same id.
    u64 trace_id = 0;
    std::promise<InferenceResult> promise;
    Clock::time_point enqueued;
    /// Absolute deadline; meaningful only when has_deadline.
    Clock::time_point deadline;
    bool has_deadline = false;

    bool expired(Clock::time_point now) const {
      return has_deadline && now >= deadline;
    }
  };

  struct DeviceNode {
    accel::UntrustedMemory memory;
    accel::GuardNnDevice device;
    /// Held while a batch executes: the accelerator runs one command stream
    /// at a time, and emulated device latency is slept off under it.
    std::mutex busy;
    /// Scopes the attested re-wrap handshake to this device: it holds one
    /// pending provisioning ephemeral, so two replications touching it
    /// serialize — but pairs of *other* devices do not (std::scoped_lock
    /// over source+target; see replicate_model).
    std::mutex provision_mu;
    /// Tenants routed here. Changed only in the shard critical section that
    /// adds or erases a tenant, and zeroed by reset_device after its purge.
    std::atomic<std::size_t> tenant_count{0};
    /// DeviceHealth, advanced lock-free by whoever observes a device call's
    /// result; the monitor thread does the heavyweight transition work.
    std::atomic<u8> health{static_cast<u8>(DeviceHealth::kHealthy)};
    std::atomic<u32> consecutive_failures{0};
    /// Set on the transition to quarantined/dead; the monitor consumes it
    /// (tenant failover, budget rescale, plan-cache prune).
    std::atomic<bool> down_pending{false};
    /// Hot spare, standing by: never routable until the monitor promotes it
    /// (flips this false) because the routable fleet fell below the floor.
    std::atomic<bool> standby{false};

    DeviceNode(std::string id, const crypto::ManufacturerCa& ca,
               BytesView entropy)
        : device(std::move(id), ca, memory, entropy) {}
  };

  struct Tenant {
    TenantId id = 0;
    std::size_t device_index = 0;
    accel::SessionId session = accel::kInvalidSession;
    /// Per-tenant VN mirror + instruction issue, bound to the session.
    host::HostScheduler scheduler;
    std::shared_ptr<const host::ExecutionPlan> plan;
    std::deque<Request> pending;
    bool scheduled = false;  ///< In a ready queue, or worker/migration-owned.
    bool open = true;
    /// Live migration in progress: submits still admit (and park in
    /// `pending`), but the tenant is never pushed to a ready queue — the
    /// migrating thread owns the replay. Cleared by abort; a flipped entry
    /// is replaced wholesale, never un-drained.
    bool draining = false;
    /// Outcome the worker uses when draining a closed tenant's queue.
    /// kNoTenant for ordinary teardown (disconnect, eviction, reset), which
    /// drops the entry; kDeviceFailover when the tenant failed over, whose
    /// closed entry stays as the record reconnect() restores from.
    RequestOutcome teardown_outcome = RequestOutcome::kNoTenant;
    /// Model bookkeeping: what the tenant had loaded, and the sealed replica
    /// (if any) a migration or reconnect() restores. Written under the shard
    /// lock by load_model (which clears the replica), seal_tenant_model and
    /// restore_model.
    std::optional<crypto::Sha256Digest> model_hash;
    std::optional<store::ContentId> model_content;
    /// Last time this tenant touched the server (connect, load, submit,
    /// batch completion) — the LRU clock for idle eviction.
    Clock::time_point last_activity;
    /// Per-tenant request counter (serving_tenant_requests_total{tenant=N}),
    /// created once at connect so the worker hot path is one relaxed inc.
    obs::Counter* requests_counter = nullptr;
    /// Device generation `session` opened on (see make_tenant): restores
    /// compile for it, and a flip needs the device still at it.
    u64 generation = 0;

    Tenant(TenantId tenant_id, accel::GuardNnDevice& device,
           std::size_t dev_index, accel::SessionId sid)
        : id(tenant_id),
          device_index(dev_index),
          session(sid),
          scheduler(device, sid),
          last_activity(Clock::now()),
          generation(device.device_generation()) {}
  };

  using Shard = TableShard<Tenant>;

  /// A device group's ready queue (see the file header). `mu` is a leaf.
  struct ReadyQueue {
    std::mutex mu;
    std::deque<std::shared_ptr<Tenant>> tenants;
    std::counting_semaphore<> pushed{0};  ///< Released once per push.
  };
  /// The only producer; the caller set `scheduled` under the shard lock.
  void make_ready(std::shared_ptr<Tenant> tenant);
  void worker_loop(std::stop_token stop, ReadyQueue& queue);
  void run_batch(const std::shared_ptr<Tenant>& tenant);
  void process_one(Tenant& tenant, DeviceNode& node,
                   const host::ExecutionPlan& plan, Request& request,
                   InferenceResult& result);
  /// Records the terminal resolve span (when traced) and fulfills the
  /// promise. Every promise the server resolves goes through here, so a
  /// traced request always ends in exactly one kResolve span.
  void resolve_one(Request& request, InferenceResult result);
  std::future<InferenceResult> immediate_result(u64 trace_id, TenantId tenant,
                                                RequestOutcome outcome);
  /// The queue drain: returns the admission charge of `requests` (admitted,
  /// never picked up), counts them as timeouts when `outcome` is kTimeout,
  /// and resolves each with `outcome` (no device involved).
  void drain(std::deque<Request>& requests, RequestOutcome outcome);

  /// Looks up a live tenant (shard lock taken and released inside).
  std::shared_ptr<Tenant> find_tenant(TenantId tenant);

  /// Evicts the least-recently-active idle tenant on `device_index` (session
  /// closed + zeroized device-side). False when every tenant there is busy.
  bool evict_idle_tenant(std::size_t device_index);

  /// The device-command seam, the only way a control-plane command reaches
  /// a device: takes its busy lock, makes exactly one fault_gate decision
  /// and, if that lets the call through, runs `command` under the same hold
  /// (defined in the .cc, its only user).
  template <typename Command>
  accel::DeviceStatus device_call(std::size_t device_index, Command&& command);
  /// InitSession with the bounded idle-eviction retry. `admit` takes the new
  /// session under the same busy hold, so reset_device cannot interleave.
  accel::InitSessionResponse open_session(
      std::size_t device_index, const crypto::AffinePoint& user_ephemeral,
      bool integrity, const std::function<void(accel::SessionId)>& admit);
  /// UnsealModel of stored `content` into `session`, then the check that the
  /// unsealed (public) descriptor has `net`'s structure: a mismatched pair
  /// must not serve garbage under a wrong-layout plan.
  accel::DeviceStatus unseal_stored_model(
      std::size_t device_index, accel::SessionId session,
      const store::ContentId& content, const host::ExecutionPlan& plan,
      const std::shared_ptr<const host::FuncNetwork>& net);
  /// The one restore step, of load_model_from_store and rebuild_tenant: the
  /// plan for `entry`'s generation, unseal_stored_model into its session,
  /// then its model fields. The replica must be on `entry`'s device.
  accel::DeviceStatus restore_model(Tenant& entry,
                                    const store::ContentId& content,
                                    const ModelHandle& model);
  /// The rebuild step of migrate_tenant and reconnect: a tenant bound to a
  /// fresh session on `target`, built off to the side for the caller to
  /// flip in. Re-wraps the replica `content` (nullptr: no model) when the
  /// target lacks it, runs open_session, then restore_model with `model`
  /// (a handle with no plan compiles for the target). Fills `result`.
  /// Returns nullptr, holding no target session, when the session cannot
  /// open, or when `model_required` and the model cannot move; otherwise
  /// such a model is left behind. `trace_id` tags the kMigrate phase spans.
  std::shared_ptr<Tenant> rebuild_tenant(
      TenantId tenant, std::size_t target,
      const crypto::AffinePoint& user_ephemeral, bool integrity,
      const store::ContentId* content, const ModelHandle& model,
      bool model_required, u64 trace_id, ConnectResult& result);
  /// The flip of migrate_tenant and reconnect, under `shard`'s lock:
  /// replaces `current` with `fresh` and moves the device counts.
  /// kNoSession when `current` is no longer the entry; kUnavailable when
  /// `fresh`'s device is unroutable or past the generation its session
  /// opened on (reset_device bumps it before its purge, under one busy
  /// hold, so a racing reset either fails the flip or purges its result).
  accel::DeviceStatus flip_locked(Shard& shard,
                                  const std::shared_ptr<Tenant>& current,
                                  const std::shared_ptr<Tenant>& fresh);
  /// The retire path: under the shard lock, flips the entry `pick` selects
  /// closed with `outcome`, erases it (a failed-over entry stays) and drops
  /// its device's tenant_count; then drains the queue unless a worker or
  /// migration owns it. nullptr: none picked.
  std::shared_ptr<Tenant> retire(
      TenantId tenant, RequestOutcome outcome,
      const std::function<std::shared_ptr<Tenant>(Shard&)>& pick);
  /// CloseSession; kUnavailable without a call when the device is dead.
  accel::DeviceStatus close_session(std::size_t device_index,
                                    accel::SessionId session);
  /// Call inside an open_session admit, so Tenant::generation is the
  /// session's.
  std::shared_ptr<Tenant> make_tenant(TenantId tenant, std::size_t device_index,
                                      accel::SessionId session);
  std::shared_ptr<const host::FuncNetwork> cached_net(
      const crypto::Sha256Digest& hash);
  /// Drops plans compiled for generations no (routable) device can reach.
  void prune_plans(bool routable_only);

  /// Plan cache lookup/compile for one (model, device generation) pair.
  std::shared_ptr<const host::ExecutionPlan> plan_for(
      const crypto::Sha256Digest& hash, const host::FuncNetwork& net,
      u64 generation);

  /// Resolves the plan a tenant at device `generation` must execute for
  /// `model`, recompiling when the handle was compiled for another one.
  std::shared_ptr<const host::ExecutionPlan> resolve_plan(
      const ModelHandle& model, u64 generation);

  static std::size_t derived_shard_count(const ServerConfig& config);
  /// The admission byte budget with `routable_devices` of the primary fleet
  /// up (configured, or derived from the modeled ingest bandwidth).
  static std::size_t byte_budget(const ServerConfig& config,
                                 std::size_t routable_devices);

  // --- Fault tolerance internals -------------------------------------------
  // Lock ordering: a shard mutex and plan_mu_ are never held together
  // (busy → shard nesting is the one sanctioned pair, inherited from
  // run_batch). handle_device_down works in passes: collect victims under
  // shard locks, then tear each down and drain/resolve with no lock held.

  /// Monitor thread: fail-stop detection, down-device handling (tenant
  /// failover + budget rescale + plan prune) and deadline reaping.
  void monitor_loop(std::stop_token stop);
  void record_device_success(std::size_t device_index);
  void record_device_failure(std::size_t device_index);
  /// Marks a device dead (fail-stop observed); the monitor does the rest.
  void note_device_dead(std::size_t device_index);
  /// Tears down every tenant on a dead/quarantined device: futures resolve
  /// kDeviceFailover, each tenant is left failover-pending, the budget
  /// rescales.
  void handle_device_down(std::size_t device_index);
  /// One tenant's failover teardown (open → closed and kept in its shard,
  /// pending drained with kDeviceFailover, session closed). Safe to race —
  /// only the caller that flips `open` does the bookkeeping. Returns
  /// whether this call did the transition. Caller must hold no lock.
  bool fail_over_tenant(const std::shared_ptr<Tenant>& tenant);
  /// Rescales the admission byte budget to the routable device count and
  /// prunes plan-cache generations no routable device can reach.
  void rescale_admission();
  /// Resolves expired deadlines of tenants no worker currently owns.
  void reap_deadlines();
  /// Monitor pass: while the routable fleet sits below the promotion floor
  /// and a healthy standby exists, pre-warm and promote it into routing.
  void maybe_promote_spares();
  bool routable(std::size_t device_index) const {
    const auto h = device_health(device_index);
    return (h == DeviceHealth::kHealthy || h == DeviceHealth::kDegraded) &&
           !faults_.dead(device_index) &&
           !devices_[device_index]->standby.load(std::memory_order_acquire);
  }
  /// Placement, read from the replica index: the least-loaded routable
  /// device that holds a replica of `content`, else the least-loaded
  /// routable device; devices_.size() when none remains.
  std::size_t pick_routable_device(
      const std::optional<store::ContentId>& content = std::nullopt) const;
  /// The control-plane fault gate: one injector decision before a device
  /// command, made only inside device_call. kOk = proceed; kUnavailable =
  /// death/drop (command lost); kIntegrityFailure = transient fault (record
  /// not consumed).
  accel::DeviceStatus fault_gate(std::size_t device_index);

  ServerConfig config_;
  std::vector<std::unique_ptr<DeviceNode>> devices_;
  /// Primary fleet size (devices_ holds primaries then spares). Admission
  /// budgets scale against this; spares only count once promoted.
  std::size_t primary_devices_ = 0;

  /// Striped tenant/routing table — the one lock every submit takes.
  ShardedTable<Tenant> table_;
  AdmissionController admission_;
  /// min(workers, devices) queues, indexed by device or worker mod size.
  std::deque<ReadyQueue> ready_;
  std::atomic<TenantId> next_tenant_{1};

  // --- Observability state ---------------------------------------------------
  // metrics_ is declared before ins_ (references into it) and before
  // model_store_ (bound to it in the ctor). Mutable: telemetry() is const
  // but samples live gauges into the registry at export time.

  mutable obs::MetricRegistry metrics_;
  obs::TraceCollector trace_;
  /// Timestamped health/failover edges (healthy→degraded→quarantined→dead,
  /// reinstatements, failovers), newest 1024 kept; exported via telemetry().
  obs::EventLog events_;

  /// Stable handles into metrics_ for everything the data plane increments —
  /// resolved once at construction so the hot path never touches the
  /// registry mutex. ServerStats is a snapshot view over these same cells.
  struct Instruments {
    obs::Counter& requests;
    obs::Counter& batches;
    obs::Counter& admitted;
    obs::Counter& rejected;
    obs::Counter& backpressured;
    obs::Counter& evicted;
    obs::Counter& replications;
    obs::Counter& failovers;
    obs::Counter& quarantines;
    obs::Counter& retries;
    obs::Counter& timeouts;
    obs::Counter& plan_hits;
    obs::Counter& plan_misses;
    obs::Counter& migrations_ok;        ///< serving_migrations_total{result=ok}
    obs::Counter& migrations_aborted;   ///< …{result=aborted}
    obs::Counter& migrations_failover;  ///< …{result=failover}
    obs::Counter& spare_promotions;     ///< spare_promotions_total
    obs::Histogram& queue_ms;     ///< enqueue → worker pickup
    obs::Histogram& service_ms;   ///< pickup → completion
    obs::Histogram& e2e_ms;       ///< enqueue → completion (ok requests)
    obs::Histogram& batch_size;   ///< requests per worker batch
    obs::Histogram& failover_ms;  ///< fail_over_tenant teardown duration
    obs::Histogram& reconnect_ms; ///< successful reconnect() duration
    obs::Histogram& migration_drain_ms;    ///< mark-draining → FIFO quiescent
    obs::Histogram& migration_blackout_ms; ///< mark-draining → routing flip
  };
  static Instruments make_instruments(obs::MetricRegistry& registry);
  Instruments ins_;

  /// Tenant FIFO depth / enqueue → pickup histograms labeled by routing
  /// stripe (serving_shard_{depth,sojourn_ms}{shard=K}), indexed by shard,
  /// created at construction. Pointers into metrics_-owned storage.
  std::vector<obs::Histogram*> shard_depth_;
  std::vector<obs::Histogram*> shard_sojourn_;
  /// Per-device request counters (serving_device_requests_total{device=K}).
  std::vector<obs::Counter*> device_requests_;

  /// Counts the transition edge and appends it to the event log. `cause` is
  /// a short reason ("call failed", "fail-stop", "reinstate", ...).
  void note_health_transition(std::size_t device_index, DeviceHealth from,
                              DeviceHealth to, const char* cause);

  FaultInjector faults_;

  std::mutex plan_mu_;
  /// Keyed on (model hash, device generation): a device reset invalidates
  /// every plan compiled for its earlier generations (reset_device prunes
  /// entries below the fleet's minimum generation).
  std::map<std::pair<crypto::Sha256Digest, u64>,
           std::shared_ptr<const host::ExecutionPlan>>
      plan_cache_;
  /// One shared FuncNetwork per registered model hash (ModelHandles
  /// reference it instead of copying the weights per handle).
  std::map<crypto::Sha256Digest, std::shared_ptr<const host::FuncNetwork>>
      net_cache_;

  store::ModelStore model_store_;

  /// Health monitor (see monitor_loop). The destructor stops and joins it
  /// explicitly before draining the workers, so no failover runs while the
  /// shutdown drain resolves queues.
  std::jthread monitor_;
  std::vector<std::jthread> workers_;  // last member: joins before teardown
};

}  // namespace guardnn::serving
