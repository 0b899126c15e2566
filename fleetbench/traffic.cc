#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <deque>

#include "common/rng.h"
#include "host/user_client.h"

namespace fleetbench {

namespace {

using serving::InferenceResult;
using serving::RequestOutcome;

/// Granularity at which the open loop re-checks the in-flight requests of
/// other tenants while it blocks on the oldest one.
constexpr long long kPollNs = 100'000;
/// A request unresolved this long counts as hung and ends the run.
constexpr double kHangSeconds = 30.0;
constexpr std::size_t kNoRecord = static_cast<std::size_t>(-1);

bool refused(RequestOutcome outcome) {
  return outcome == RequestOutcome::kQueueFull ||
         outcome == RequestOutcome::kBackpressure;
}

/// A sealed request the server has not admitted yet.
struct Queued {
  crypto::SealedRecord record;
  std::size_t input = 0;
  long long sent = 0;  ///< Scheduled send (open loop) or seal (closed loop).
  std::size_t record_index = kNoRecord;
};

struct InFlight {
  std::future<InferenceResult> future;
  /// Set when the future had already resolved at submit.
  std::optional<InferenceResult> early;
  std::size_t input = 0;
  long long sent = 0;
  std::size_t record_index = kNoRecord;
};

struct Lane {
  Client* client = nullptr;
  std::size_t index = 0;
  std::deque<Queued> backlog;
  std::deque<InFlight> inflight;
  bool dead = false;  ///< A failed request broke its channel sequence.
};

std::vector<Lane> make_lanes(std::vector<Client>& fleet_clients,
                             const std::vector<std::size_t>& clients) {
  std::vector<Lane> lanes(clients.size());
  for (std::size_t i = 0; i < clients.size(); ++i) {
    lanes[i].client = &fleet_clients[clients[i]];
    lanes[i].index = clients[i];
  }
  return lanes;
}

bool resolved(std::future<InferenceResult>& future) {
  return future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

bool ready(InFlight& item) { return item.early || resolved(item.future); }

/// The lane whose front request was sent earliest, or nullptr when nothing
/// is in flight.
Lane* oldest_lane(std::vector<Lane>& lanes) {
  Lane* best = nullptr;
  for (Lane& lane : lanes)
    if (!lane.inflight.empty() &&
        (!best || lane.inflight.front().sent < best->inflight.front().sent))
      best = &lane;
  return best;
}

/// Submits the lane's backlog in order until the server refuses one. A
/// refused record stays at the head and is retried later: admission never
/// consumes it, and sending a later record first would break the channel's
/// sequence.
void submit_backlog(serving::InferenceServer& server, Lane& lane,
                    TrafficStats& out) {
  while (!lane.backlog.empty()) {
    Queued& head = lane.backlog.front();
    crypto::SealedRecord copy = head.record;
    const long long sub0 = now_ns();
    auto future = server.submit_async(lane.client->tenant, std::move(copy));
    const long long sub1 = now_ns();
    std::optional<InferenceResult> early;
    if (resolved(future)) {
      early = future.get();
      if (refused(early->outcome)) {
        ++out.refused;
        return;
      }
    }
    if (head.record_index < out.records.size()) {
      out.records[head.record_index].sub0 = sub0;
      out.records[head.record_index].sub1 = sub1;
    }
    lane.inflight.push_back(InFlight{std::move(future), std::move(early),
                                     head.input, head.sent,
                                     head.record_index});
    lane.backlog.pop_front();
  }
}

/// Seals `input` for the lane's user and queues it for submission.
void enqueue(Lane& lane, const Model& model, std::size_t input, long long sent,
             bool record, TrafficStats& out) {
  ++out.attempted;
  const long long seal0 = now_ns();
  crypto::SealedRecord sealed = lane.client->user->seal(model.inputs[input]);
  const long long seal1 = now_ns();
  std::size_t index = kNoRecord;
  if (record) {
    index = out.records.size();
    RequestRecord rec;
    rec.client = lane.index;
    rec.sched = sent;
    rec.seal0 = seal0;
    rec.seal1 = seal1;
    out.records.push_back(rec);
  }
  lane.backlog.push_back(Queued{std::move(sealed), input, sent, index});
}

/// Resolves the lane's front request: opens it under the user's keys and
/// compares it with the reference. Returns false on any failure.
bool harvest(Lane& lane, const Model& model, TrafficStats& out) {
  InFlight item = std::move(lane.inflight.front());
  lane.inflight.pop_front();
  const long long ready_ns = now_ns();
  const auto result = item.early ? std::move(item.early)
                                 : await_result(item.future, kHangSeconds);
  bool good = result && result->outcome == RequestOutcome::kOk;
  long long open0 = 0, open1 = 0;
  if (good) {
    open0 = now_ns();
    const auto output = lane.client->user->open_output(result->sealed_output);
    open1 = now_ns();
    good = output && *output == model.expected[item.input];
  }
  const long long done = now_ns();
  if (!good) {
    ++out.failed;
    lane.dead = true;
    if (!result)
      std::fprintf(stderr, "request of tenant %llu hung\n",
                   static_cast<unsigned long long>(lane.client->tenant));
    else
      std::fprintf(stderr, "request of tenant %llu failed: %s\n",
                   static_cast<unsigned long long>(lane.client->tenant),
                   serving::outcome_name(result->outcome));
    return false;
  }
  ++out.ok;
  out.last_done_ns = done;
  if (item.record_index < out.records.size()) {
    RequestRecord& rec = out.records[item.record_index];
    rec.ready = ready_ns;
    rec.open0 = open0;
    rec.open1 = open1;
    rec.done = done;
  }
  return true;
}

}  // namespace

void TrafficStats::merge(TrafficStats&& other) {
  attempted += other.attempted;
  refused += other.refused;
  ok += other.ok;
  failed += other.failed;
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  lag_ms.insert(lag_ms.end(), other.lag_ms.begin(), other.lag_ms.end());
  records.insert(records.end(), other.records.begin(), other.records.end());
  if (!start_ns || (other.start_ns && other.start_ns < start_ns))
    start_ns = other.start_ns;
  last_done_ns = std::max(last_done_ns, other.last_done_ns);
}

std::optional<InferenceResult> await_result(
    std::future<InferenceResult>& future, double timeout_s) {
  if (future.wait_for(std::chrono::duration<double>(timeout_s)) !=
      std::future_status::ready)
    return std::nullopt;
  return future.get();
}

void run_open_loop(serving::InferenceServer& server,
                   std::vector<Client>& fleet_clients,
                   const std::vector<std::size_t>& clients, const Model& model,
                   const OpenLoopPlan& plan, TrafficStats& out) {
  std::vector<Lane> lanes = make_lanes(fleet_clients, clients);
  Xoshiro256 rng(plan.seed);
  const double mean_gap_ns = 1e9 / plan.rate_rps;
  const auto gap = [&] {
    return static_cast<long long>(-std::log(1.0 - rng.next_double()) *
                                  mean_gap_ns);
  };
  out.start_ns = plan.start_ns;
  long long next = plan.start_ns + gap();
  while (true) {
    bool backlogged = false;
    for (Lane& lane : lanes) {
      while (!lane.inflight.empty() && ready(lane.inflight.front())) {
        const long long sent = lane.inflight.front().sent;
        if (harvest(lane, model, out))
          out.latency_ms.push_back(ms_between(sent, out.last_done_ns));
      }
      if (!lane.backlog.empty() && !lane.dead) {
        submit_backlog(server, lane, out);
        backlogged = backlogged || !lane.backlog.empty();
      }
    }
    const long long now = now_ns();
    if (next < plan.end_ns && now >= next) {
      Lane& lane = lanes[rng.next_below(lanes.size())];
      const std::size_t input = rng.next_below(model.inputs.size());
      const long long sched = next;
      next += gap();
      if (lane.dead) continue;
      out.lag_ms.push_back(ms_between(sched, now_ns()));
      enqueue(lane, model, input, sched, plan.record, out);
      submit_backlog(server, lane, out);
      continue;
    }
    Lane* oldest = oldest_lane(lanes);
    if (!oldest && !backlogged && next >= plan.end_ns) break;
    long long wake = now + kPollNs;
    if (next < plan.end_ns) wake = std::min(wake, next);
    if (!oldest) {
      sleep_until_ns(wake);
      continue;
    }
    if (ms_between(oldest->inflight.front().sent, now) > kHangSeconds * 1e3) {
      harvest(*oldest, model, out);  // reports the hang
      continue;
    }
    oldest->inflight.front().future.wait_until(
        Clock::time_point(std::chrono::duration_cast<Clock::duration>(
            std::chrono::nanoseconds(wake))));
  }
}

void run_closed_loop(serving::InferenceServer& server,
                     std::vector<Client>& fleet_clients,
                     const std::vector<std::size_t>& clients,
                     const Model& model, std::size_t window, long long end_ns,
                     u64 seed, TrafficStats& out) {
  std::vector<Lane> lanes = make_lanes(fleet_clients, clients);
  Xoshiro256 rng(seed);
  const auto send = [&](Lane& lane) {
    enqueue(lane, model, rng.next_below(model.inputs.size()), now_ns(),
            /*record=*/false, out);
    submit_backlog(server, lane, out);
  };
  out.start_ns = now_ns();
  for (Lane& lane : lanes)
    for (std::size_t i = 0; i < window; ++i) send(lane);
  while (true) {
    bool backlogged = false;
    for (Lane& lane : lanes) {
      if (lane.backlog.empty() || lane.dead) continue;
      submit_backlog(server, lane, out);
      backlogged = backlogged || !lane.backlog.empty();
    }
    Lane* lane = oldest_lane(lanes);
    if (!lane) {
      if (!backlogged) break;
      sleep_until_ns(now_ns() + kPollNs);
      continue;
    }
    if (harvest(*lane, model, out) && now_ns() < end_ns) send(*lane);
  }
}

}  // namespace fleetbench
