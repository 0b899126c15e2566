// Admission control for the serving data plane.
//
// Two independent limits replace the old flat `max_pending` request cap:
//
//   * a per-tenant queue quota — a tenant at its quota is hard-rejected
//     (kQueueFull) without touching any other tenant's budget, so a noisy
//     neighbor can never starve a well-behaved tenant out of the queue;
//   * a fleet-wide budget of queued sealed-input *bytes*, wired to the
//     modeled device ingest bandwidth (the MicroBlaze import path moves
//     ~3.2 GB/s per device; see accel::MicrocontrollerModel::import_gbs):
//     the budget is the number of bytes the fleet can ingest within a
//     fixed 5 ms window. Crossing it is *backpressure* — a soft,
//     retryable signal distinct from the hard per-tenant reject, telling
//     clients the fleet (not their own queue) is saturated. The budget is
//     *live*: the health monitor rescales it to the surviving device count
//     when devices die or are quarantined (set_byte_budget), so admission
//     never over-admits against ingest bandwidth that no longer exists.
//
// Both counters are atomics: the admission decision adds nothing but two
// relaxed RMWs to the submit hot path, which otherwise takes only its
// tenant's shard lock (see shard_table.h).
//
// A rejected submission is not consumed: the secure channel's strict
// sequence numbers mean the client must retry the *same* sealed record
// later (re-sealing a fresh one would leave a gap the device refuses).
#pragma once

#include <atomic>
#include <cstddef>

#include "common/types.h"

namespace guardnn::serving {

class AdmissionController {
 public:
  enum class Decision : u8 {
    kAdmit,
    kTenantQuota,   ///< The tenant's own queue is at quota (hard reject).
    kBackpressure,  ///< Fleet byte budget exhausted (soft, retryable).
  };

  /// `per_tenant_quota`: max queued requests per tenant (0 rejects all).
  /// `byte_budget`: fleet-wide cap on queued sealed-input bytes.
  AdmissionController(std::size_t per_tenant_quota, std::size_t byte_budget)
      : per_tenant_quota_(per_tenant_quota), byte_budget_(byte_budget) {}

  /// Byte budget implied by the modeled per-device ingest bandwidth: what
  /// `num_devices` devices drain in `window_ms` at `ingest_gbs` GB/s each.
  static std::size_t derive_byte_budget(std::size_t num_devices,
                                        double ingest_gbs, double window_ms) {
    const double bytes = static_cast<double>(num_devices) * ingest_gbs * 1e9 *
                         (window_ms / 1e3);
    return bytes < 1.0 ? 1 : static_cast<std::size_t>(bytes);
  }

  /// Decides one submission of `bytes` for a tenant that currently has
  /// `tenant_pending` queued requests; on kAdmit the counters are charged.
  /// Call under the tenant's shard lock (so `tenant_pending` stays exact);
  /// the fleet byte counter is global and only approximately fair across
  /// shards, which is fine — it is a bandwidth backstop, not an SLA.
  Decision try_admit(std::size_t tenant_pending, std::size_t bytes) {
    if (tenant_pending >= per_tenant_quota_) return Decision::kTenantQuota;
    const std::size_t before =
        pending_bytes_.fetch_add(bytes, std::memory_order_relaxed);
    // Progress guarantee: an empty fleet always admits, even a single
    // request bigger than the whole budget.
    if (before != 0 &&
        before + bytes > byte_budget_.load(std::memory_order_relaxed)) {
      pending_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
      return Decision::kBackpressure;
    }
    pending_requests_.fetch_add(1, std::memory_order_relaxed);
    return Decision::kAdmit;
  }

  /// Returns capacity when requests leave the queue (worker pickup, tenant
  /// teardown drain, shutdown).
  void release(std::size_t requests, std::size_t bytes) {
    if (requests) pending_requests_.fetch_sub(requests, std::memory_order_relaxed);
    if (bytes) pending_bytes_.fetch_sub(bytes, std::memory_order_relaxed);
  }

  std::size_t pending_requests() const {
    return pending_requests_.load(std::memory_order_relaxed);
  }
  std::size_t pending_bytes() const {
    return pending_bytes_.load(std::memory_order_relaxed);
  }
  std::size_t per_tenant_quota() const { return per_tenant_quota_; }
  std::size_t byte_budget() const {
    return byte_budget_.load(std::memory_order_relaxed);
  }

  /// Rescales the fleet byte budget in place (health monitor: a device died
  /// or was quarantined, or came back). Already-admitted bytes are not
  /// revoked — the queue drains through the new, smaller gate.
  void set_byte_budget(std::size_t budget) {
    byte_budget_.store(budget < 1 ? 1 : budget, std::memory_order_relaxed);
  }

 private:
  const std::size_t per_tenant_quota_;
  std::atomic<std::size_t> byte_budget_;
  std::atomic<std::size_t> pending_requests_{0};
  std::atomic<std::size_t> pending_bytes_{0};
};

}  // namespace guardnn::serving
