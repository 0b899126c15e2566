// GuardNN fleet benchmark: the secure inference path and the fleet control
// plane, end to end, with per-layer attribution.
//
//   fleetbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--trace-out <file>]
//
// Every workload runs a 2-device, 2-worker InferenceServer with device-
// latency emulation off, so every timing is real host work; the simulator's
// modeled device time is reported on its own (accel.modeled_ms_per_req) and
// never mixed in. Load comes from this process, at most two generator
// threads. The seed fixes weights, inputs and arrivals; the server only ever
// sees the generated, sealed inputs. Every output is opened by its user and
// compared byte for byte with host::reference_run; a failed, hung or wrong
// request is counted in `failed` and makes the run exit non-zero. A request
// refused at admission is retried with the same sealed record.
//
// Workloads (why each exists):
//   serve_tiny  16 tenants, bench_net (3x8x8, 1.5 KiB weights), open loop at
//               25k req/s (about half the closed-loop capacity), then a
//               closed-loop saturation phase. Host work per request is tens
//               of microseconds, so admission, the shard table, wakeups,
//               futures and per-instruction overhead dominate: serving-layer
//               changes show here, kernel and bulk-crypto changes do not.
//   serve_cnn   8 tenants, a 3x32x32 CNN (~260 KiB weights), open loop at
//               230 req/s, then closed loop. Milliseconds of int8 kernels and
//               MPU encrypt/MAC per request leave serving overhead under 1%:
//               the mirror image of serve_tiny.
//   fleet_ops   a control loop cycling an 8 MiB FC model through connect,
//               load, checkpoint, replicate, migrate (hot window of 2),
//               restore and disconnect every 1.5 s, beside 4 bystander
//               tenants sending bench_net traffic at 400 req/s. P-256 and the
//               fused seal/unseal dominate; connects and re-wraps hold a
//               device's busy lock, which bystander latency exposes.
// serve_tiny and serve_cnn run the same control cycle on their own model,
// alone, between their traffic phases, so every workload reports every
// metric.
//
// A run is five rounds of open loop, closed loop and (serve_*) control, so
// every metric samples the whole run: this host's vCPUs drop to ~1.3x slower
// for seconds at a time, and interleaving keeps such a stretch from moving
// one metric wholesale. End-to-end metrics: req_p50_ms (open loop, from each
// request's scheduled send to its verified output), goodput_rps (the best
// round's closed-loop completions per second), setup_s (median of three
// set-ups: fabrication, connects, model loads, warm-up), and the lower
// quartile of each control call (connect, checkpoint, replicate, migrate
// with its re-key, restore).
//
// The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1
// arms the server's span tracing and reports the per-layer metrics, checks
// that the request stages add up to the median request, and writes the
// spans to --trace-out at exit.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <thread>

#include "fleet.h"
#include "host/user_client.h"
#include "layers.h"
#include "obs/export.h"
#include "traffic.h"

namespace fleetbench {
namespace {

const WorkloadSpec kWorkloads[] = {
    {"serve_tiny", ModelKind::kTiny, 16, 25000.0, 8, ModelKind::kTiny, false},
    {"serve_cnn", ModelKind::kCnn, 8, 230.0, 4, ModelKind::kCnn, false},
    {"fleet_ops", ModelKind::kTiny, 4, 400.0, 8, ModelKind::kFc8m, true},
};

constexpr int kSetups = 3;
/// Measurement rounds; each runs an open-loop, a closed-loop and (serve_*)
/// a control slice.
constexpr int kRounds = 5;
/// Traced runs: share of --seconds for each of the two closed-loop slices
/// (untraced, traced) that measure the tracing overhead.
constexpr double kOverheadSlice = 0.05;
constexpr std::size_t kInputsPerModel = 32;
constexpr std::size_t kControlInputs = 4;
/// fleet_ops starts a control cycle every this many seconds of its open-loop
/// slices (back to back when a cycle overruns).
constexpr double kControlPeriodS = 1.5;
/// Control cycles serve_* run at least, over all rounds.
constexpr std::size_t kMinTailCycles = 6;
constexpr std::size_t kTraceCapacity = std::size_t{1} << 21;
/// Spans per traced request (submit, admit, pickup, unseal, device, seal,
/// resolve): the traced open loop is shortened so the ring never wraps.
constexpr double kSpansPerRequest = 7.0;
constexpr std::size_t kModeledProbeRequests = 16;
/// Traced requests whose spans are written to --trace-out.
constexpr std::size_t kTraceOutRequests = 5000;
/// The stage attribution must account for the traced median within this
/// share, and no stage may be more negative than the clock slack.
constexpr double kStageSumTolerance = 0.10;
constexpr double kClockSlackMs = 0.002;

struct Args {
  std::string workload;
  u64 seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::atof(value);
    } else if (key == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (key == "--trace-out") {
      args.trace_out = value;
    } else {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !have_seed || !(args.seconds > 0) ||
      argc % 2 == 0)
    return std::nullopt;
  return args;
}

class Metrics {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples) {
    entries_.push_back({name, value, unit, samples});
  }

  void print_table() const {
    for (const Entry& e : entries_)
      std::fprintf(stderr, "  %-28s %14.6g %-10s n=%zu\n", e.name.c_str(),
                   e.value, e.unit, e.samples);
  }

  std::string json() const {
    std::string out = "{";
    char buf[512];
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      std::snprintf(buf, sizeof buf,
                    "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", entries_[i].name.c_str(), entries_[i].value,
                    entries_[i].unit);
      out += buf;
    }
    return out + "}";
  }

 private:
  struct Entry {
    std::string name;
    double value;
    const char* unit;
    std::size_t samples;
  };
  std::vector<Entry> entries_;
};

long long after_s(long long from_ns, double seconds) {
  return from_ns + static_cast<long long>(seconds * 1e9);
}

/// Splits the traffic tenants over `threads` generator threads.
std::vector<std::vector<std::size_t>> split_clients(std::size_t tenants,
                                                    std::size_t threads) {
  std::vector<std::vector<std::size_t>> out(threads);
  for (std::size_t i = 0; i < tenants; ++i) out[i % threads].push_back(i);
  return out;
}

/// Runs `body(thread_index, stats)` on each generator thread and `meanwhile`
/// on the calling thread, then merges the generators' stats.
template <typename Body, typename Meanwhile>
TrafficStats on_generators(std::size_t threads, Body&& body,
                           Meanwhile&& meanwhile) {
  std::vector<TrafficStats> stats(threads);
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t)
      pool.emplace_back([&, t] { body(t, stats[t]); });
    meanwhile();
  }
  TrafficStats merged;
  for (TrafficStats& s : stats) merged.merge(std::move(s));
  return merged;
}

double goodput_rps(const TrafficStats& stats) {
  const double seconds = ms_between(stats.start_ns, stats.last_done_ns) * 1e-3;
  return seconds > 0 ? static_cast<double>(stats.ok) / seconds : 0.0;
}

/// The named histogram, or an empty one when the server never created it.
obs::HistogramSnapshot histogram(const obs::TelemetrySnapshot& snap,
                                 const char* name) {
  const obs::MetricSample* sample = obs::find_metric(snap, name);
  return sample ? sample->hist : obs::HistogramSnapshot{};
}

/// serving_admission_total for one admission decision.
u64 admissions(const obs::TelemetrySnapshot& snap, const char* decision) {
  const obs::MetricSample* sample = obs::find_metric(
      snap, "serving_admission_total", {{"decision", decision}});
  return sample ? sample->counter : 0;
}

/// What a cumulative server histogram gained over chosen intervals (the
/// open-loop slices), so closed-loop saturation does not leak in.
class HistogramDelta {
 public:
  void add(const obs::HistogramSnapshot& before,
           const obs::HistogramSnapshot& after) {
    std::map<double, u64> prior(before.buckets.begin(), before.buckets.end());
    for (const auto& [lower, count] : after.buckets) {
      const u64 gained = count - prior[lower];
      counts_[lower] += gained;
      count_ += gained;
    }
    sum_ += after.sum - before.sum;
  }

  u64 count() const { return count_; }
  double mean() const {
    return count_ ? sum_ / static_cast<double>(count_) : 0.0;
  }

  /// Bucket midpoint at rank ceil(q * count), like the server's percentiles.
  double quantile(double q) const {
    const u64 rank = std::max<u64>(
        1, static_cast<u64>(std::ceil(q * static_cast<double>(count_))));
    u64 seen = 0;
    for (const auto& [lower, count] : counts_) {
      seen += count;
      if (seen >= rank)
        return (lower + obs::Histogram::bucket_upper(
                            obs::Histogram::bucket_index(lower))) /
               2;
    }
    return 0.0;
  }

 private:
  std::map<double, u64> counts_;
  u64 count_ = 0;
  double sum_ = 0.0;
};

/// Chrome trace-event JSON of the benchmark's own call spans plus the server
/// spans of the first traced requests, on one clock.
void write_trace(const std::string& path,
                 const std::vector<RequestRecord>& records,
                 const std::vector<obs::SpanRecord>& server_spans,
                 const std::vector<CallSpan>& control_spans,
                 long long epoch_ns) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  const long long origin = records.empty() ? epoch_ns : records.front().sched;
  const auto us = [&](long long ns) {
    return static_cast<double>(ns - origin) * 1e-3;
  };
  bool first = true;
  char buf[256];
  const auto event = [&](const char* name, long long start, long long end,
                         int tid, u64 tenant) {
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,"
                  "\"pid\":1,\"tid\":%d,\"args\":{\"tenant\":%llu}}",
                  first ? "" : ",\n", name, us(start), us(end) - us(start), tid,
                  static_cast<unsigned long long>(tenant));
    out << buf;
    first = false;
  };
  out << "{\"traceEvents\":[\n";
  const long long last = records.size() > kTraceOutRequests
                             ? records[kTraceOutRequests].sched
                             : std::numeric_limits<long long>::max();
  for (std::size_t i = 0; i < records.size() && i < kTraceOutRequests; ++i) {
    const RequestRecord& r = records[i];
    event("seal", r.seal0, r.seal1, 1, r.client);
    event("submit_async", r.sub0, r.sub1, 1, r.client);
    if (r.open1) event("open_output", r.open0, r.open1, 1, r.client);
  }
  for (const CallSpan& span : control_spans)
    event(span.name, span.start_ns, span.end_ns, 2, span.tenant);
  for (const obs::SpanRecord& span : server_spans) {
    const long long t = static_cast<long long>(span.t_ns) + epoch_ns;
    if (t > last) continue;
    std::snprintf(buf, sizeof buf,
                  ",\n{\"name\":\"%s\",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,"
                  "\"pid\":2,\"tid\":%u,\"args\":{\"trace\":%llu,\"code\":%u}}",
                  obs::span_kind_name(span.kind), us(t), span.device,
                  static_cast<unsigned long long>(span.trace_id), span.code);
    out << (first ? buf + 2 : buf);
    first = false;
  }
  out << "\n]}\n";
}

int run(const Args& args) {
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads)
    if (args.workload == w.name) spec = &w;
  if (!spec) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const World world(args.seed);
  const Model serve = make_model(spec->serve_model,
                                 world.sub_seed(kModelStream, 0),
                                 kInputsPerModel);
  std::optional<Model> control_storage;
  if (spec->control_model != spec->serve_model)
    control_storage = make_model(spec->control_model,
                                 world.sub_seed(kModelStream, 1),
                                 kControlInputs);
  const Model& control = control_storage ? *control_storage : serve;

  // --- Set-up, repeated; the last fleet is the one measured --------------
  const std::size_t trace_capacity =
      args.trace ? kTraceCapacity : serving::ServerConfig{}.trace_capacity;
  std::vector<double> setup_s;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const long long start = now_ns();
    fleet = build_fleet(world, *spec, serve, control, trace_capacity);
    if (!fleet) return 1;
    setup_s.push_back(ms_between(start, now_ns()) * 1e-3);
  }
  serving::InferenceServer& server = *fleet->server;

  // --- Measurement: rounds of open loop, closed loop and control ----------
  // Interleaving spreads every metric's samples over the whole run, so a
  // burst of machine noise moves one round, not one metric.
  const double S = args.seconds;
  const bool alongside = spec->control_alongside;
  // fleet_ops: one open-loop generator, beside the control loop on this
  // thread; every closed loop uses both generator threads.
  const std::size_t open_threads = alongside ? 1 : 2;
  const std::size_t closed_threads = 2;
  double open_slice = (alongside ? 0.70 : 0.45) * S / kRounds;
  const double closed_slice = 0.30 * S / kRounds;
  const double control_slice = 0.25 * S / kRounds;
  if (args.trace)  // keep every traced open-loop span in the ring
    open_slice = std::min(
        open_slice, 0.5 * static_cast<double>(kTraceCapacity) /
                        (kSpansPerRequest * spec->open_rate_rps * kRounds));
  const auto open_groups = split_clients(spec->tenants, open_threads);
  const auto closed_groups = split_clients(spec->tenants, closed_threads);
  const auto closed_phase = [&](double seconds, u64 round) {
    const long long end = after_s(now_ns(), seconds);
    return on_generators(
        closed_threads,
        [&](std::size_t t, TrafficStats& out) {
          run_closed_loop(server, fleet->clients, closed_groups[t], serve,
                          spec->closed_window, end,
                          world.sub_seed(kClosedLoopStream, 2 * round + t),
                          out);
        },
        [] {});
  };

  ControlStats control_stats;
  bool control_ok = true;
  // fleet_ops: control cycles start every kControlPeriodS during the open-
  // loop slices, beside the bystanders. Paced, so a faster control plane
  // frees the devices for longer, which bystander latency then shows.
  const auto paced_control = [&](long long end_ns) {
    for (long long next = now_ns(); control_ok && next < end_ns;
         next = after_s(next, kControlPeriodS)) {
      sleep_until_ns(next);
      control_ok = control_cycle(*fleet, world, control, control_stats);
    }
  };

  TrafficStats open, closed;
  std::vector<double> round_goodput;
  HistogramDelta queue_ms, service_ms, batch_size;
  u64 admitted = 0, refused = 0;
  for (int round = 0; round < kRounds; ++round) {
    obs::TelemetrySnapshot before;
    if (args.trace) {
      before.metrics = server.metrics().snapshot();
      server.trace().set_enabled(true);
    }
    const long long open_start = now_ns() + 1'000'000;
    const long long open_end = after_s(open_start, open_slice);
    TrafficStats slice = on_generators(
        open_threads,
        [&](std::size_t t, TrafficStats& out) {
          OpenLoopPlan plan;
          plan.rate_rps = spec->open_rate_rps *
                          static_cast<double>(open_groups[t].size()) /
                          static_cast<double>(spec->tenants);
          plan.start_ns = open_start;
          plan.end_ns = open_end;
          plan.seed = world.sub_seed(kOpenLoopStream,
                                     2 * static_cast<u64>(round) + t);
          plan.record = args.trace;
          run_open_loop(server, fleet->clients, open_groups[t], serve, plan,
                        out);
        },
        [&] {
          if (alongside) paced_control(open_end);
        });
    open.merge(std::move(slice));
    if (args.trace) {
      server.trace().set_enabled(false);
      obs::TelemetrySnapshot after;
      after.metrics = server.metrics().snapshot();
      queue_ms.add(histogram(before, "serving_queue_ms"),
                   histogram(after, "serving_queue_ms"));
      service_ms.add(histogram(before, "serving_service_ms"),
                     histogram(after, "serving_service_ms"));
      batch_size.add(histogram(before, "serving_batch_size"),
                     histogram(after, "serving_batch_size"));
      admitted += admissions(after, "admit") - admissions(before, "admit");
      for (const char* decision : {"queue_full", "backpressure"})
        refused += admissions(after, decision) - admissions(before, decision);
    }

    TrafficStats saturated =
        closed_phase(closed_slice, static_cast<u64>(round));
    round_goodput.push_back(goodput_rps(saturated));
    closed.merge(std::move(saturated));

    if (!alongside) {
      const long long end = after_s(now_ns(), control_slice);
      const u64 min_cycles =
          (kMinTailCycles * (round + 1) + kRounds - 1) / kRounds;
      while (control_ok &&
             (control_stats.cycles < min_cycles || now_ns() < end))
        control_ok = control_cycle(*fleet, world, control, control_stats);
    }
  }
  std::vector<obs::SpanRecord> spans;
  double trace_overhead = 0;
  if (args.trace) {
    spans = server.trace().snapshot();
    if (server.trace().recorded() > server.trace().capacity())
      std::fprintf(stderr,
                   "trace ring wrapped; stage matching is unreliable\n");
    // Tracing cost: the same closed loop untraced, then traced.
    TrafficStats plain = closed_phase(kOverheadSlice * S, kRounds);
    server.trace().set_enabled(true);
    TrafficStats traced = closed_phase(kOverheadSlice * S, kRounds + 1);
    server.trace().set_enabled(false);
    trace_overhead = 1.0 - goodput_rps(traced) / goodput_rps(plain);
    plain.merge(std::move(traced));
    closed.attempted += plain.attempted;
    closed.failed += plain.failed;
  }

  const u64 attempted =
      open.attempted + closed.attempted + control_stats.attempted;
  u64 failed = open.failed + closed.failed + control_stats.failed;
  bool correct = failed == 0;
  Metrics metrics;
  if (!args.trace) {
    metrics.add("req_p50_ms", median(open.latency_ms), "ms",
                open.latency_ms.size());
    // The best round: a capacity loss lowers every round, while host noise
    // (vCPUs that run ~1.3x slower for seconds at a time) lowers only some.
    metrics.add("goodput_rps", quantile(round_goodput, 1.0), "1/s", closed.ok);
    metrics.add("setup_s", median(setup_s), "s", setup_s.size());
    // Control calls: lower quartiles. A vCPU of this host can run ~1.3x
    // slower for seconds at a time, which lands in the upper half of these
    // narrow distributions; the lower quartile is the call's cost on an
    // undisturbed CPU and stays put while that noise comes and goes.
    const auto call = [&](const char* name, const std::vector<double>& v) {
      metrics.add(name, quantile(v, 0.25), "ms", v.size());
    };
    call("connect_p25_ms", control_stats.connect_ms);
    call("checkpoint_p25_ms", control_stats.checkpoint_ms);
    call("replicate_p25_ms", control_stats.replicate_ms);
    call("migrate_p25_ms", control_stats.migrate_ms);
    call("restore_p25_ms", control_stats.restore_ms);
  } else {
    // Request stages, from the traced open loop.
    const StageSamples st =
        stage_breakdown(open.records, spans, fleet->clients);
    const auto stage = st.median_attribution();
    double stage_sum = 0, lowest = 0;
    for (double ms : stage) {
      stage_sum += ms;
      lowest = std::min(lowest, ms);
    }
    const double total = median(st.total_ms);
    const double ratio = total > 0 ? stage_sum / total : 0.0;
    // The attribution must account for the median request, and no stage may
    // come out negative (that would mean the two clocks are misaligned).
    const bool sums = !st.total_ms.empty() &&
                      std::abs(ratio - 1.0) <= kStageSumTolerance &&
                      lowest > -kClockSlackMs;
    std::fprintf(stderr,
                 "stage-sum check: stages account for %.3f of the median "
                 "request (%zu requests, lowest stage %.4f ms): %s\n",
                 ratio, st.total_ms.size(), lowest, sums ? "PASS" : "FAIL");
    correct = correct && sums;
    const std::size_t n = st.total_ms.size();
    const auto us = [&](Stage s) { return stage[s] * 1e3; };
    metrics.add("trace.req_p50_ms", total, "ms", n);
    metrics.add("trace.req_p99_ms", quantile(st.total_ms, 0.99), "ms", n);
    metrics.add("gen.lag_p99_ms", quantile(open.lag_ms, 0.99), "ms",
                open.lag_ms.size());
    metrics.add("host.seal_us", median(st.seal_call_us), "us", n);
    metrics.add("serving.submit_us", median(st.submit_call_us), "us", n);
    metrics.add("serving.admit_us", us(kSubmit), "us", n);
    metrics.add("serving.shard_queue_us", us(kQueue), "us", n);
    metrics.add("accel.unseal_us", us(kUnseal), "us", n);
    metrics.add("accel.execute_us", us(kExecute), "us", n);
    metrics.add("accel.export_us", us(kExport), "us", n);
    metrics.add("serving.resolve_us", us(kResolve), "us", n);
    metrics.add("serving.wake_us", us(kWake), "us", n);
    metrics.add("host.open_us", median(st.open_call_us), "us", n);
    // Server telemetry over the open-loop slices.
    metrics.add("serving.queue_ms", queue_ms.quantile(0.5), "ms",
                queue_ms.count());
    metrics.add("serving.service_ms", service_ms.quantile(0.5), "ms",
                service_ms.count());
    metrics.add("serving.batch_mean", batch_size.mean(), "requests",
                batch_size.count());
    metrics.add("serving.refused_frac",
                static_cast<double>(refused) /
                    static_cast<double>(std::max<u64>(1, admitted + refused)),
                "fraction", admitted + refused);
    metrics.add("obs.trace_overhead_frac", trace_overhead, "fraction",
                closed.ok);

    // Control-plane telemetry over the whole run.
    obs::TelemetrySnapshot end_snap;
    end_snap.metrics = server.metrics().snapshot();
    const auto blackout = histogram(end_snap, "serving_migration_blackout_ms");
    metrics.add("serving.migrate_blackout_ms", blackout.p50, "ms",
                blackout.count);
    const auto drain = histogram(end_snap, "serving_migration_drain_ms");
    metrics.add("serving.migrate_drain_ms", drain.p50, "ms", drain.count);
    metrics.add("control.load_ms", median(control_stats.load_ms), "ms",
                control_stats.load_ms.size());

    // Modeled device time and exact MPU bytes per request: one tenant,
    // sequential requests, nothing else running.
    Client& probe = fleet->clients.front();
    accel::GuardNnDevice& device = server.device(probe.device);
    const double modeled0 = device.elapsed_ms();
    const u64 enc0 = device.mpu_byte_counters().bytes_encrypted.load();
    const u64 mac0 = device.mpu_byte_counters().bytes_macd.load();
    for (std::size_t i = 0; i < kModeledProbeRequests; ++i) {
      auto future = server.submit_async(probe.tenant,
                                        probe.user->seal(serve.inputs[i]));
      const auto result = await_result(future);
      if (!result || !output_matches(*probe.user, *result, serve.expected[i]))
        ++failed;
    }
    const double k = static_cast<double>(kModeledProbeRequests);
    metrics.add("accel.modeled_ms_per_req",
                (device.elapsed_ms() - modeled0) / k, "modeled_ms",
                kModeledProbeRequests);
    const accel::MpuByteCounters& mpu = device.mpu_byte_counters();
    metrics.add("mpu.enc_bytes_per_req",
                static_cast<double>(mpu.bytes_encrypted.load() - enc0) / k,
                "bytes", kModeledProbeRequests);
    metrics.add("mpu.mac_bytes_per_req",
                static_cast<double>(mpu.bytes_macd.load() - mac0) / k, "bytes",
                kModeledProbeRequests);

    // The pure-kernel floor and the crypto primitives.
    functional::Tensor input(serve.net.in_c, serve.net.in_h, serve.net.in_w,
                             serve.net.bits);
    std::copy(serve.inputs[0].begin(), serve.inputs[0].end(),
              input.mutable_bytes().begin());
    std::vector<double> reference_ms;
    for (int i = 0; i < 15; ++i) {
      const long long start = now_ns();
      if (host::reference_run(serve.net, input) != serve.expected[0]) ++failed;
      reference_ms.push_back(ms_between(start, now_ns()));
    }
    metrics.add("host.reference_ms", median(reference_ms), "ms",
                reference_ms.size());
    const CryptoFloor floor = measure_crypto(world);
    metrics.add("crypto.ecdsa_sign_ms", floor.ecdsa_sign_ms, "ms", 7);
    metrics.add("crypto.ecdsa_verify_ms", floor.ecdsa_verify_ms, "ms", 7);
    metrics.add("crypto.ecdh_ms", floor.ecdh_ms, "ms", 7);
    metrics.add("crypto.xcrypt_gbps", floor.xcrypt_gbps, "GB/s", 5);
    metrics.add("crypto.cmac_gbps", floor.cmac_gbps, "GB/s", 5);

    correct = correct && failed == 0;
    if (!args.trace_out.empty())
      write_trace(args.trace_out, open.records, spans, control_stats.spans,
                  st.epoch_ns);
  }

  if (failed)  // the fleet's health/failover log explains most failures
    for (const obs::EventRecord& event : server.telemetry().events)
      std::fprintf(stderr, "event %.1f ms %s: %s\n", event.t_ms,
                   event.kind.c_str(), event.detail.c_str());
  std::fprintf(stderr,
               "%s seed %llu: %llu attempted, %llu failed, %llu refused and "
               "retried, %llu control cycles\n",
               spec->name, static_cast<unsigned long long>(args.seed),
               static_cast<unsigned long long>(attempted),
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(open.refused + closed.refused),
               static_cast<unsigned long long>(control_stats.cycles));
  metrics.print_table();
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      correct ? "true" : "false", static_cast<unsigned long long>(attempted),
      static_cast<unsigned long long>(failed), metrics.json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace fleetbench

int main(int argc, char** argv) {
  const auto args = fleetbench::parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: fleetbench --workload "
                 "<serve_tiny|serve_cnn|fleet_ops> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>]\n");
    return 2;
  }
  return fleetbench::run(*args);
}
