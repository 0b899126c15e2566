// Lightweight request tracing for the serving pipeline.
//
// A trace id is minted at InferenceServer::submit_async and rides inside the
// queued Request through admission → ready queue → worker batch → device call
// → crypto seal/unseal → promise resolution. Each stage appends one fixed-
// size SpanRecord to a ring buffer; an external reader (telemetry export,
// examples/fleet_dashboard's span-chain audit) reconstructs per-request
// chains by trace id.
//
// Cost discipline, mirroring FaultInjector:
//   * disabled (the default): begin_trace() is ONE relaxed atomic load and
//     returns 0; record() on a zero trace id returns before touching any
//     atomic. No allocation, no lock, no timestamp.
//   * enabled: record() takes a short mutex to claim a ring slot (spans are
//     emitted at batch granularity on the worker path, so this is never the
//     per-byte hot path; the mutex keeps the ring TSan-clean).
//
// Arming: GUARDNN_TRACE=1 in the environment (read by arm_from_env(), which
// InferenceServer calls at construction), or set_enabled(true) at runtime.
// Requests minted while disabled carry trace id 0 and never record spans,
// even if tracing is enabled mid-flight — chains are complete or absent,
// never half-recorded from the middle.
//
// The ring holds the most recent `capacity` spans; wraparound drops oldest
// first. Because a request's submit span is the oldest span of its chain,
// any chain whose submit span is still in the ring is complete.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <vector>

#include "common/types.h"

namespace guardnn::obs {

/// Pipeline stage a span marks. The vocabulary is the serving request path;
/// `code` in the record disambiguates outcomes within a stage.
enum class SpanKind : u8 {
  kSubmit = 0,   ///< submit_async entry; code unused.
  kAdmit,        ///< admission decision; code = admission/outcome code.
  kPickup,       ///< worker popped the request's tenant from its ready queue.
  kUnseal,       ///< device consumed the sealed input; code = DeviceStatus.
  kDevice,       ///< device execution finished; code = DeviceStatus.
  kSeal,         ///< output sealed + signed; code = DeviceStatus.
  kResolve,      ///< promise resolved; code = RequestOutcome. Terminal.
  kMigrate,      ///< live-migration phase edge (control plane, not part of a
                 ///< request chain); code = migration phase. Audits that walk
                 ///< request chains key on kSubmit roots and ignore these.
};

const char* span_kind_name(SpanKind kind);

/// No device involved (pre-admission rejects). Matches no real device index.
inline constexpr u32 kSpanNoDevice = 0xffffffffu;

struct SpanRecord {
  u64 trace_id = 0;
  u64 t_ns = 0;  ///< Nanoseconds since the collector's construction.
  u64 tenant = 0;
  u32 device = kSpanNoDevice;
  SpanKind kind = SpanKind::kSubmit;
  u8 code = 0;
};

class TraceCollector {
 public:
  explicit TraceCollector(std::size_t capacity = 1 << 17);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Arms from GUARDNN_TRACE ("1"/"on"/"true" → enabled). Returns enabled().
  bool arm_from_env();

  /// Mints a fresh nonzero trace id, or 0 when disabled (one relaxed load).
  u64 begin_trace();

  /// Appends a span. A zero trace id (minted while disabled) is a no-op
  /// before any atomic is touched.
  void record(u64 trace_id, SpanKind kind, u64 tenant, u32 device, u8 code);

  /// The ring contents, oldest → newest. At most capacity() spans.
  std::vector<SpanRecord> snapshot() const;

  /// Total spans ever recorded; exceeds capacity() once the ring has wrapped.
  u64 recorded() const;

  std::size_t capacity() const { return ring_.size(); }

 private:
  using Clock = std::chrono::steady_clock;

  std::atomic<bool> enabled_{false};
  std::atomic<u64> next_trace_{1};
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> ring_;  ///< Slot i holds span number (head_ - ...).
  u64 head_ = 0;                  ///< Total spans recorded; next slot = head_ % size.
};

}  // namespace guardnn::obs
