// Device fault injection for the serving fleet.
//
// GuardNN's trust model is fail-stop: a MAC or VN check failure kills the
// session, and a device that stops answering takes every key it held with it.
// The serving layer therefore has to assume devices *will* die, wedge, and
// misbehave under load — and the only way to test that machinery honestly is
// to make failure a first-class, scriptable input. The FaultInjector sits on
// the host side of every InferenceServer → GuardNnDevice call boundary (the
// exact seam where a real driver would observe command timeouts and PCIe
// errors) and decides, per call, whether the device answers normally or
// exhibits one of four faults:
//
//   * kDeath        — fail-stop device death. Permanent until revive(): every
//                     subsequent call on the device fails. Models power loss:
//                     the session-table SRAM (and every key in it) is gone,
//                     so sessions on the device are cryptographically
//                     unrecoverable (see inference_server.h "Failure model").
//   * kIntegrity    — a transient kIntegrityFailure answered at the call
//                     boundary *before* the device consumes the request's
//                     sealed record. Because the record was never consumed,
//                     retrying the same record preserves the secure channel's
//                     strict sequence numbers — the contract the server's
//                     bounded-backoff retry loop depends on.
//   * kLatency      — the call completes but takes `latency_ms` longer
//                     (a wedged interconnect / thermal-throttled part). The
//                     server's per-request deadlines turn an unbounded wedge
//                     into kTimeout instead of a blocked worker.
//   * kDrop         — the device executes the command but the completion is
//                     lost. The device-side channel state has advanced (an
//                     output was sealed and never delivered), so the session
//                     is wounded: the server must fail the tenant over even
//                     though the device survives.
//
// Faults are scripted per device (deterministic counters: "the next N
// data-plane calls fail") or probabilistic (seeded xoshiro per device, for
// the serving fault fuzz and the deep-fuzz job). The no-fault fast path is
// one relaxed atomic load per call — cheap enough to leave compiled into
// production builds.
//
// Env knob (read by env_seed; ServingFaultFuzz uses it as its soak seed):
//   GUARDNN_FAULT_SEED   seed for probabilistic faults (decimal or 0x hex)
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace guardnn::serving {

enum class FaultKind : u8 {
  kNone,
  kDeath,      ///< Fail-stop: the device never answers again.
  kIntegrity,  ///< Transient kIntegrityFailure, record not consumed.
  kLatency,    ///< Call completes after an injected delay.
  kDrop,       ///< Command executed, completion lost (session wounded).
};

const char* fault_kind_name(FaultKind kind);

class FaultInjector {
 public:
  /// Per-call fault probabilities for probabilistic mode. Probabilities are
  /// evaluated in the order death → drop → integrity → latency; at most one
  /// fault fires per call.
  struct Probabilities {
    double death = 0.0;
    double integrity = 0.0;
    double drop = 0.0;
    double latency = 0.0;
    double latency_ms = 0.0;
  };

  /// What one device call should do. `latency_ms` is only meaningful for
  /// kLatency (and is additive to any emulated device time).
  struct Decision {
    FaultKind kind = FaultKind::kNone;
    double latency_ms = 0.0;
  };

  explicit FaultInjector(std::size_t num_devices);

  // --- Scripted faults (tests, examples, admin tooling) --------------------

  /// Fail-stop death, effective immediately.
  void kill(std::size_t device);
  /// Fail-stop death armed to fire at the device's `calls`-th next call
  /// (1 = the very next one).
  void kill_after(std::size_t device, u64 calls);
  /// Un-kills a device ("replace the card"). The device object itself was
  /// never touched — but its sessions were torn down by the server's health
  /// monitor, so callers normally pair this with reinstate_device().
  void revive(std::size_t device);
  /// The next `count` data-plane calls answer kIntegrityFailure.
  void script_integrity_burst(std::size_t device, u64 count);
  /// The next `count` completions are dropped.
  void script_drop(std::size_t device, u64 count);
  /// The next `count` calls take `ms` extra milliseconds.
  void script_latency(std::size_t device, double ms, u64 count);
  /// Seeded probabilistic faults on one device (chaos / fuzz mode).
  void arm_random(std::size_t device, const Probabilities& p, u64 seed);
  /// Clears every scripted and probabilistic fault (dead stays dead).
  void clear(std::size_t device);

  /// GUARDNN_FAULT_SEED as a u64 (0x-prefixed hex or decimal); `fallback`
  /// when unset or unparseable.
  static u64 env_seed(u64 fallback);

  // --- Call-site hooks (InferenceServer) -----------------------------------

  /// One relaxed load: the common no-fault case never takes a lock.
  bool dead(std::size_t device) const {
    return devices_[device]->dead.load(std::memory_order_acquire);
  }

  /// Decides the fate of one device call. Scripted counters are consumed
  /// FIFO; probabilistic faults roll afterwards. Death decisions latch: once
  /// returned, dead() stays true until revive().
  Decision on_call(std::size_t device);

  std::size_t device_count() const { return devices_.size(); }

  /// Total faults injected so far (all devices, all kinds) — lets tests
  /// assert a scripted plan actually fired.
  u64 injected_count() const {
    return injected_.load(std::memory_order_relaxed);
  }

 private:
  struct PerDevice {
    std::atomic<bool> dead{false};
    /// Scripts or probabilities are armed; checked before taking `mu`.
    std::atomic<bool> armed{false};
    std::mutex mu;
    u64 kill_countdown = 0;  ///< 0 = not armed; 1 = die on the next call.
    u64 integrity_left = 0;
    u64 drop_left = 0;
    u64 latency_left = 0;
    double latency_ms = 0.0;
    bool random_armed = false;
    Probabilities prob;
    Xoshiro256 rng{0};
  };

  void set_armed(PerDevice& dev);

  std::vector<std::unique_ptr<PerDevice>> devices_;
  std::atomic<u64> injected_{0};
};

}  // namespace guardnn::serving
