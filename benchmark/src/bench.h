#ifndef RADIX_BENCHMARK_BENCH_H_
#define RADIX_BENCHMARK_BENCH_H_

// Shared plumbing of the radix_bench workloads: arguments, the metric
// record a workload returns, seed derivation and the summary statistics
// every workload reports its samples with.

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "hardware/memory_hierarchy.h"

namespace radix::engine {
struct EngineStats;
}  // namespace radix::engine

namespace radix_bench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  /// Length of the timed part of the run; a workload splits it between its
  /// phases (the traced run splits it between replays).
  double seconds = 10;
  bool trace = false;
  /// Chrome trace-event JSON written at exit by a traced run ("" = none).
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run reports. `failed` counts queries whose Status was
/// not OK or whose checksum differed from the workload's reference;
/// `correct` is false when a reference check outside the timed loop failed
/// (a replay checksum, a cross-strategy reference) or anything failed.
struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Facts about the run that are not measurements: plan codes, query
  /// counts, which percentile the tail is.
  std::vector<std::pair<std::string, std::string>> context;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Note(std::string key, std::string value) {
    context.emplace_back(std::move(key), std::move(value));
  }
  /// Record one checked query outcome.
  void Count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Independent generator seed number `stream` of the run seed: every
/// generator and the serve schedule draw from their own stream, so adding a
/// stream never shifts another's data.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Steady-clock seconds since an arbitrary epoch.
double Now();

/// User + system CPU seconds of this process so far.
double CpuSeconds();

/// Peak resident set of this process (getrusage ru_maxrss), MiB.
double PeakRssMb();

/// Nearest-rank percentile (p in [0, 1]) of the samples.
double Percentile(std::vector<double> samples, double p);
double Median(std::vector<double> samples);

/// The highest of the tail percentiles p50 < p75 < p90 < p95 < p99 < p99.9
/// that leaves at least ten of `n` samples beyond it, so no single slow
/// query decides the tail. Workloads fix their tail percentile with this
/// from their planned sample count, so one run's percentile never differs
/// from another's.
double TailPercentileFor(size_t n);

/// "p75", "p99.9", ...
std::string PercentileName(double p);

/// Median seconds of `reps` calls of `fn` (each call timed alone).
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> s;
  for (int i = 0; i < reps; ++i) {
    const double t0 = Now();
    fn();
    s.push_back(Now() - t0);
  }
  return Median(std::move(s));
}

/// The hardware facts a result is only comparable under.
std::string HierarchySummary(const radix::hardware::MemoryHierarchy& hw);

/// Engine threads every workload runs with; the load the benchmark puts on
/// the machine is sized for 4 CPUs.
inline constexpr size_t kEngineThreads = 4;

/// Setups per run: setup_s is the median of at least this many setups.
inline constexpr int kSetups = 3;

class Trace;

/// The workloads. `trace` is null for the untraced run (end-to-end
/// metrics); a traced run fills it with spans and reports per-layer
/// metrics instead.
Result RunQ8m(const Args& args, bool streaming, Trace* trace);
Result RunChain(const Args& args, Trace* trace);
Result RunServe(const Args& args, Trace* trace);

/// CPU utilization of the engine's threads over an interval:
/// (user + sys) / (wall * kEngineThreads).
class CpuMeter {
 public:
  CpuMeter() : cpu0_(CpuSeconds()), wall0_(Now()) {}
  double Utilization() const {
    return (CpuSeconds() - cpu0_) /
           ((Now() - wall0_) * static_cast<double>(kEngineThreads));
  }

 private:
  double cpu0_;
  double wall0_;
};

/// One client, closed loop: `query()` runs one query and returns whether
/// it succeeded with the reference result. Runs until `seconds` have passed
/// and at least `min_queries` ran; returns per-query latencies in ms and
/// sets *wall_seconds.
template <typename QueryFn>
std::vector<double> ClosedLoop(double seconds, size_t min_queries,
                               QueryFn&& query, Result* r,
                               double* wall_seconds) {
  std::vector<double> lat;
  const double t0 = Now();
  while (lat.size() < min_queries || Now() - t0 < seconds) {
    const double q0 = Now();
    const bool ok = query();
    lat.push_back((Now() - q0) * 1e3);
    r->Count(ok);
  }
  *wall_seconds = Now() - t0;
  return lat;
}

/// The end-to-end metrics every workload reports from its untraced run:
/// latency p50 and tail, closed-loop throughput, peak RSS, median setup and
/// the failed fraction. `tail_name` says how the tail was taken ("p90",
/// ...); `timed_queries` is the latency sample count.
void AddEndToEnd(double p50_ms, double tail_ms, const std::string& tail_name,
                 size_t timed_queries, double throughput_qps,
                 const std::vector<double>& setup_s, Result* r);

/// AddEndToEnd for a closed loop's latencies (ms) over `wall_seconds`, with
/// the tail at percentile `tail_p`.
void AddClosedLoopEndToEnd(const std::vector<double>& latency_ms,
                           double tail_p, double wall_seconds,
                           const std::vector<double>& setup_s, Result* r);

/// Runs `setup()` — one full setup from data generation to warm-up,
/// returning its data-generation seconds — at least kSetups times and until
/// a second has passed, so a cheap setup gets enough repetitions for a
/// steady median. Appends each setup's and generation's seconds.
template <typename SetupFn>
void RepeatSetup(SetupFn&& setup, std::vector<double>* setup_s,
                 std::vector<double>* gen_s) {
  const double start = Now();
  for (int k = 0; k < 64 && (k < kSetups || Now() - start < 1.0); ++k) {
    const double t0 = Now();
    gen_s->push_back(setup());
    setup_s->push_back(Now() - t0);
  }
}

/// engine.plan_cache_hit_ratio: hits / (hits + misses) of Engine::Stats().
void AddPlanCacheHitRatio(const radix::engine::EngineStats& stats, Result* r);

/// Untraced latencies (ms) of the traced run's main loop.
struct TracedLatencies {
  /// Every untraced query of the loop.
  std::vector<double> plain;
  /// The untraced query that ran just before replay i.
  std::vector<double> before_replay;
};

/// The traced run's main loop, in two phases. `run(spanned, query)` runs
/// the workload's query once and returns its latency in ms; `replay(query)`
/// is the workload's layer-by-layer replay.
///
/// Phase 1 runs pairs of the query back to back, once with no spans and
/// once with spans around Prepare/Execute only, until `pair_seconds` have
/// passed and at least `min_pairs` (>= 2) ran. Pairs alternate which query
/// goes first, so drift hits both alike, and the overhead is the geometric
/// mean of the two orders' median spanned / plain ratios, minus 1: it is
/// reported as trace.overhead_frac. No replay runs between pairs, since
/// whichever query follows a replay pays for the memory it freed.
///
/// Phase 2 runs `replays` rounds of one untraced query followed by a
/// replay, so each replay has an untraced latency taken next to it.
template <typename RunFn, typename ReplayFn>
TracedLatencies TracedLoop(double pair_seconds, size_t min_pairs,
                           size_t replays, RunFn&& run, ReplayFn&& replay,
                           Result* r) {
  TracedLatencies out;
  std::vector<double> ratio[2];
  uint64_t query = 0;
  const double t0 = Now();
  for (size_t i = 0; i < min_pairs || Now() - t0 < pair_seconds; ++i) {
    double without = 0, with = 0;
    if (i % 2 == 0) {
      without = run(false, query++);
      with = run(true, query++);
    } else {
      with = run(true, query++);
      without = run(false, query++);
    }
    out.plain.push_back(without);
    ratio[i % 2].push_back(with / without);
  }
  r->Add("trace.overhead_frac",
         std::sqrt(Median(ratio[0]) * Median(ratio[1])) - 1.0, "ratio");
  for (size_t i = 0; i < replays; ++i) {
    out.before_replay.push_back(run(false, query++));
    out.plain.push_back(out.before_replay.back());
    replay(query++);
  }
  return out;
}

}  // namespace radix_bench

#endif  // RADIX_BENCHMARK_BENCH_H_
