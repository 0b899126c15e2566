// Striped tenant/routing table for the fleet-scale serving control plane.
//
// The serving hot path (submit_async) must never take a process-global lock:
// with thousands of tenants and many worker threads, one mutex in front of
// the tenant map serializes every enqueue (the pre-sharding server measured
// ~4k req/s with exactly that bottleneck). ShardedTable stripes the map:
// tenants hash to one of a fixed power-of-two number of shards, each shard
// owning its own mutex and tenant map. A submit touches exactly one shard,
// so disjoint tenants contend only when they happen to share a stripe.
//
// The table is a pure routing table: it owns no scheduling policy (the
// device-bound ready queues live in inference_server.h) and no admission
// state (see admission.h). Callers lock `Shard::mu` themselves so multi-step
// transitions (admission check + enqueue + ready flag) stay atomic per shard.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace guardnn::serving {

using TenantId = u64;

/// SplitMix64 finalizer: tenant ids are sequential, so without mixing they
/// would stripe perfectly... onto consecutive shards, which is fine — but a
/// strong mix keeps the distribution uniform for any id-assignment policy
/// (e.g. ids that encode a device index in their low bits).
constexpr u64 mix_tenant_id(u64 x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// One stripe of the routing table. `tenants` is guarded by `mu`; callers
/// lock it directly (see file header).
template <typename TenantT>
struct TableShard {
  mutable std::mutex mu;
  /// Tenants whose id hashes to this stripe.
  std::unordered_map<TenantId, std::shared_ptr<TenantT>> tenants;
};

template <typename TenantT>
class ShardedTable {
 public:
  /// `shard_count_hint` is rounded up to a power of two (minimum 1).
  explicit ShardedTable(std::size_t shard_count_hint) {
    std::size_t n = 1;
    while (n < shard_count_hint) n <<= 1;
    shards_.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
      shards_.push_back(std::make_unique<TableShard<TenantT>>());
    mask_ = n - 1;
  }

  std::size_t shard_count() const { return shards_.size(); }

  std::size_t shard_index(TenantId id) const { return mix_tenant_id(id) & mask_; }
  TableShard<TenantT>& shard_for(TenantId id) {
    return *shards_[shard_index(id)];
  }
  const TableShard<TenantT>& shard_for(TenantId id) const {
    return *shards_[shard_index(id)];
  }
  TableShard<TenantT>& shard_at(std::size_t index) { return *shards_[index]; }

  /// Runs `fn(shard)` on every shard, locking one stripe at a time — for
  /// control-plane sweeps (eviction scans, device purges, shutdown drains)
  /// that must never hold the whole table.
  template <typename Fn>
  void for_each_shard_locked(Fn&& fn) {
    for (auto& shard : shards_) {
      std::lock_guard<std::mutex> lock(shard->mu);
      fn(*shard);
    }
  }

 private:
  std::vector<std::unique_ptr<TableShard<TenantT>>> shards_;
  std::size_t mask_ = 0;
};

}  // namespace guardnn::serving
