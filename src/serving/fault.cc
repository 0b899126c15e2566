#include "serving/fault.h"

#include <cstdlib>

namespace guardnn::serving {

const char* fault_kind_name(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kDeath: return "death";
    case FaultKind::kIntegrity: return "integrity";
    case FaultKind::kLatency: return "latency";
    case FaultKind::kDrop: return "drop";
  }
  return "unknown";
}

FaultInjector::FaultInjector(std::size_t num_devices) {
  devices_.reserve(num_devices);
  for (std::size_t i = 0; i < num_devices; ++i)
    devices_.push_back(std::make_unique<PerDevice>());
}

void FaultInjector::set_armed(PerDevice& dev) {
  // Caller holds dev.mu. `armed` is a hint for the fast path; it stays set
  // while any script or probability remains.
  const bool armed = dev.kill_countdown || dev.integrity_left ||
                     dev.drop_left || dev.latency_left || dev.random_armed;
  dev.armed.store(armed, std::memory_order_release);
}

void FaultInjector::kill(std::size_t device) {
  devices_[device]->dead.store(true, std::memory_order_release);
  injected_.fetch_add(1, std::memory_order_relaxed);
}

void FaultInjector::kill_after(std::size_t device, u64 calls) {
  PerDevice& dev = *devices_[device];
  std::lock_guard<std::mutex> lock(dev.mu);
  dev.kill_countdown = calls ? calls : 1;
  set_armed(dev);
}

void FaultInjector::revive(std::size_t device) {
  devices_[device]->dead.store(false, std::memory_order_release);
}

void FaultInjector::script_integrity_burst(std::size_t device, u64 count) {
  PerDevice& dev = *devices_[device];
  std::lock_guard<std::mutex> lock(dev.mu);
  dev.integrity_left += count;
  set_armed(dev);
}

void FaultInjector::script_drop(std::size_t device, u64 count) {
  PerDevice& dev = *devices_[device];
  std::lock_guard<std::mutex> lock(dev.mu);
  dev.drop_left += count;
  set_armed(dev);
}

void FaultInjector::script_latency(std::size_t device, double ms, u64 count) {
  PerDevice& dev = *devices_[device];
  std::lock_guard<std::mutex> lock(dev.mu);
  dev.latency_left += count;
  dev.latency_ms = ms;
  set_armed(dev);
}

void FaultInjector::arm_random(std::size_t device, const Probabilities& p,
                               u64 seed) {
  PerDevice& dev = *devices_[device];
  std::lock_guard<std::mutex> lock(dev.mu);
  dev.prob = p;
  dev.rng = Xoshiro256(seed);
  dev.random_armed =
      p.death > 0 || p.integrity > 0 || p.drop > 0 || p.latency > 0;
  set_armed(dev);
}

void FaultInjector::clear(std::size_t device) {
  PerDevice& dev = *devices_[device];
  std::lock_guard<std::mutex> lock(dev.mu);
  dev.kill_countdown = 0;
  dev.integrity_left = 0;
  dev.drop_left = 0;
  dev.latency_left = 0;
  dev.random_armed = false;
  set_armed(dev);
}

FaultInjector::Decision FaultInjector::on_call(std::size_t device) {
  PerDevice& dev = *devices_[device];
  if (dev.dead.load(std::memory_order_acquire))
    return Decision{FaultKind::kDeath, 0.0};
  if (!dev.armed.load(std::memory_order_acquire)) return Decision{};

  Decision decision;
  {
    std::lock_guard<std::mutex> lock(dev.mu);
    if (dev.kill_countdown && --dev.kill_countdown == 0) {
      decision.kind = FaultKind::kDeath;
    } else if (dev.integrity_left) {
      --dev.integrity_left;
      decision.kind = FaultKind::kIntegrity;
    } else if (dev.drop_left) {
      --dev.drop_left;
      decision.kind = FaultKind::kDrop;
    } else if (dev.latency_left) {
      --dev.latency_left;
      decision.kind = FaultKind::kLatency;
      decision.latency_ms = dev.latency_ms;
    } else if (dev.random_armed) {
      const double roll = dev.rng.next_double();
      if (roll < dev.prob.death) {
        decision.kind = FaultKind::kDeath;
      } else if (roll < dev.prob.death + dev.prob.drop) {
        decision.kind = FaultKind::kDrop;
      } else if (roll < dev.prob.death + dev.prob.drop + dev.prob.integrity) {
        decision.kind = FaultKind::kIntegrity;
      } else if (roll <
                 dev.prob.death + dev.prob.drop + dev.prob.integrity +
                     dev.prob.latency) {
        decision.kind = FaultKind::kLatency;
        decision.latency_ms = dev.prob.latency_ms;
      }
    }
    set_armed(dev);
  }
  if (decision.kind == FaultKind::kDeath)
    dev.dead.store(true, std::memory_order_release);
  if (decision.kind != FaultKind::kNone)
    injected_.fetch_add(1, std::memory_order_relaxed);
  return decision;
}

u64 FaultInjector::env_seed(u64 fallback) {
  const char* env = std::getenv("GUARDNN_FAULT_SEED");
  if (!env || !*env) return fallback;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(env, &end, 0);
  if (end == env || (end && *end != '\0')) return fallback;
  return static_cast<u64>(parsed);
}

}  // namespace guardnn::serving
