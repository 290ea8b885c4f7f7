// serve_mix: one engine serving a mix of small queries to 4 client threads
// — 65% point (16K rows), 20% medium (64K rows, pi 2+2), 5% heavy varchar
// (16K rows), 10% plan-tree chain (64K/32K/64K rows). The inputs fit in
// cache, so the engine layer carries the work: plan cache, admission FIFO
// and the priority lane. The admission budget is twice the largest shape's
// modeled reservation.
//
// The run is a series of ~2.5 s rounds. Each starts with segment B: a
// closed loop, every client sending its next query when the previous
// returns, which measures the throughput under saturation (the reported
// throughput is the median of all rounds' quarter-second windows). Segment
// A follows: an open loop offered 45% of that round's throughput (~600-1000
// queries/s on a 4-CPU box): enough concurrent load that queries queue for
// admission and point queries overtake heavier ones on the priority lane.
// The rate follows the measured capacity rather than a constant because a
// shared 4-vCPU VM's speed can drift by 20-40% within minutes: at a fixed
// rate, or at one rate for the whole run, a slowdown pushes the offered
// load past capacity and the queue grows for the rest of the run. Latency
// counts from each query's scheduled send, so a stall charges every query
// queued behind it.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "engine/engine.h"
#include "join/partitioned_hash_join.h"
#include "ops/plan.h"
#include "ops/table.h"
#include "trace.h"
#include "workload/chain.h"
#include "workload/generator.h"

namespace radix_bench {

namespace {

namespace ops = radix::ops;
using radix::Status;
using radix::engine::Engine;
using radix::engine::QuerySpec;
using radix::workload::JoinWorkload;

/// Segment A's offered rate as a share of segment B's throughput.
constexpr double kOpenLoad = 0.45;
constexpr size_t kClients = 4;
constexpr size_t kPointRows = size_t{1} << 14;
constexpr size_t kMediumRows = size_t{1} << 16;
constexpr size_t kHeavyRows = size_t{1} << 14;
/// Segment A's share of each round (8 of every 13 seconds); the rest is
/// segment B.
constexpr double kOpenShare = 8.0 / 13.0;
/// Serving rounds last about this long.
constexpr double kRoundSeconds = 2.5;
/// p99 needs at least 1000 samples for ten beyond it: every round's
/// segment A runs at least this many queries.
constexpr size_t kMinOpenQueries = 1000;
/// Segment B's clients cycle through a schedule this long.
constexpr size_t kClosedSchedule = 4096;
/// Segment B counts completions per window of this many seconds.
constexpr double kQpsWindowSeconds = 0.25;

/// One shape of the mix and its reference result. Two-sided shapes set
/// (w, spec); the plan-tree shape sets (catalog, plan).
struct Shape {
  const char* name;
  const JoinWorkload* w = nullptr;
  QuerySpec spec;
  const ops::Catalog* catalog = nullptr;
  const ops::LogicalPlan* plan = nullptr;
  uint64_t checksum = 0;
  size_t rows = 0;
};

struct Data {
  JoinWorkload point, medium, heavy;
  radix::workload::ChainWorkload chain;
  ops::Catalog chain_catalog;
  ops::LogicalPlan chain_plan;
  std::vector<Shape> shapes;
};

JoinWorkload MakeJoin(size_t n, uint64_t seed, size_t varchar_cols) {
  radix::workload::JoinWorkloadSpec spec;
  spec.cardinality = n;
  spec.num_attrs = 4;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.varchar.num_cols = varchar_cols;
  return radix::workload::MakeJoinWorkload(spec);
}

std::unique_ptr<Data> Generate(uint64_t seed) {
  auto d = std::make_unique<Data>();
  d->point = MakeJoin(kPointRows, SubSeed(seed, 11), 0);
  d->medium = MakeJoin(kMediumRows, SubSeed(seed, 12), 0);
  d->heavy = MakeJoin(kHeavyRows, SubSeed(seed, 13), 1);
  radix::workload::ChainWorkloadSpec chain;
  chain.cardinalities = {kMediumRows, kMediumRows / 2, kMediumRows};
  chain.num_attrs = 4;
  chain.seed = SubSeed(seed, 14);
  d->chain = radix::workload::MakeChainWorkload(chain);
  d->chain_catalog = ops::CatalogFromChainWorkload(d->chain);
  ops::Predicate pred;
  pred.col = {0, 1, false};
  pred.op = ops::CmpOp::kLt;
  pred.value = radix::value_t{1} << 30;
  d->chain_plan.root = ops::Aggregate(
      ops::Join(ops::Join(ops::Select(ops::Scan(0), pred), ops::Scan(1), 0, 1),
                ops::Scan(2), 1, 2),
      {{2, 1, false}},
      {{ops::AggFn::kSum, {0, 1, false}}, {ops::AggFn::kCount, {}}});

  Shape point{"point", &d->point, QuerySpec{}};
  Shape medium{"medium", &d->medium, QuerySpec{}};
  medium.spec.pi_left = 2;
  medium.spec.pi_right = 2;
  Shape heavy{"varchar", &d->heavy, QuerySpec{}};
  heavy.spec.pi_varchar_right = 1;
  Shape tree{"plan_tree", nullptr, QuerySpec{}};
  tree.catalog = &d->chain_catalog;
  tree.plan = &d->chain_plan;
  d->shapes = {point, medium, heavy, tree};
  return d;
}

/// Shape index per schedule slot: 13/20 point, 4/20 medium, 1/20 varchar,
/// 2/20 plan tree.
std::vector<uint8_t> Schedule(uint64_t seed, size_t length) {
  static constexpr uint8_t kWeights[20] = {0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
                                           0, 0, 0, 1, 1, 1, 1, 2, 3, 3};
  radix::Rng rng(seed);
  std::vector<uint8_t> s(length);
  for (uint8_t& slot : s) slot = kWeights[rng.Below(20)];
  return s;
}

Status RunShape(const Engine& eng, const Shape& shape, uint64_t* checksum,
                size_t* rows) {
  if (shape.plan != nullptr) {
    radix::engine::PreparedPlan prepared;
    Status st = eng.Prepare(*shape.catalog, *shape.plan, &prepared);
    ops::PlanRun run;
    if (st.ok()) st = prepared.Execute(&run);
    *checksum = run.checksum;
    *rows = run.result_rows;
    return st;
  }
  radix::project::QueryRun run;
  Status st = eng.Prepare(*shape.w, shape.spec).Execute(&run);
  *checksum = run.checksum;
  *rows = run.result_cardinality;
  return st;
}

bool RunChecked(const Engine& eng, const Shape& shape) {
  uint64_t checksum = 0;
  size_t rows = 0;
  return RunShape(eng, shape, &checksum, &rows).ok() &&
         checksum == shape.checksum && rows == shape.rows;
}

/// Only Prepare the shape (plan-cache lookup or planning).
void PrepareShape(const Engine& eng, const Shape& shape) {
  if (shape.plan != nullptr) {
    radix::engine::PreparedPlan prepared;
    (void)eng.Prepare(*shape.catalog, *shape.plan, &prepared);
  } else {
    (void)eng.Prepare(*shape.w, shape.spec);
  }
}

radix::engine::EngineConfig Config(size_t threads, size_t admission_bytes) {
  radix::engine::EngineConfig cfg;
  cfg.num_threads = threads;
  // The point shape (and nothing larger) takes the priority lane.
  cfg.point_query_rows_threshold = kPointRows;
  cfg.admission_budget_bytes = admission_bytes;
  return cfg;
}

/// Twice the largest modeled reservation of any shape, planned on an
/// engine of the same configuration without a budget.
size_t AdmissionBudget(const Data& d) {
  Engine probe(Config(kEngineThreads, 0));
  size_t largest = 0;
  for (const Shape& s : d.shapes) {
    if (s.plan != nullptr) {
      radix::engine::PreparedPlan prepared;
      if (probe.Prepare(*s.catalog, *s.plan, &prepared).ok()) {
        largest = std::max(largest,
                           prepared.Explain().modeled_intermediate_bytes);
      }
    } else {
      largest = std::max(
          largest,
          probe.Prepare(*s.w, s.spec).Explain().modeled_intermediate_bytes);
    }
  }
  return 2 * largest;
}

struct Sample {
  uint8_t shape = 0;
  double latency_ms = 0;  ///< from the scheduled send to completion
  double late_ms = 0;     ///< actual send minus scheduled send
};

/// Segment A: `schedule.size()` queries at `rate_qps` from kClients
/// threads. Query i is due at start + i / rate; a client takes the next due
/// query, sleeps until its time, runs it and records latency from the due
/// time. Spans carry query id `first_id + i`.
std::vector<Sample> OpenLoop(const Engine& eng, const Data& d,
                             const std::vector<uint8_t>& schedule,
                             double rate_qps, Trace* trace, uint64_t first_id,
                             Result* r) {
  std::vector<Sample> samples(schedule.size());
  std::vector<char> ok(schedule.size(), 0);
  std::atomic<size_t> next{0};
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto step = std::chrono::duration<double>(1.0 / rate_qps);
  auto client = [&] {
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= schedule.size()) return;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(step * i);
      std::this_thread::sleep_until(due);
      const Clock::time_point sent = Clock::now();
      const Shape& shape = d.shapes[schedule[i]];
      if (trace != nullptr) {
        Trace::Span s(*trace, shape.name, first_id + i);
        ok[i] = RunChecked(eng, shape);
      } else {
        ok[i] = RunChecked(eng, shape);
      }
      const Clock::time_point done = Clock::now();
      samples[i] = {schedule[i],
                    std::chrono::duration<double, std::milli>(done - due).count(),
                    std::chrono::duration<double, std::milli>(sent - due).count()};
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  for (char good : ok) r->Count(good != 0);
  return samples;
}

/// Segment B: kClients closed-loop clients cycling through the schedule
/// for `seconds`; returns the queries completed per second in each
/// kQpsWindowSeconds window.
std::vector<double> ClosedLoopWindows(const Engine& eng, const Data& d,
                                      const std::vector<uint8_t>& schedule,
                                      double seconds, Result* r) {
  const size_t windows =
      std::max<size_t>(1, static_cast<size_t>(seconds / kQpsWindowSeconds));
  std::vector<std::atomic<uint64_t>> completed(windows);
  std::atomic<size_t> next{0};
  std::atomic<uint64_t> bad{0};
  std::atomic<uint64_t> done{0};
  const double t0 = Now();
  const double end = static_cast<double>(windows) * kQpsWindowSeconds;
  auto client = [&] {
    while (Now() - t0 < end) {
      const size_t i = next.fetch_add(1) % schedule.size();
      if (!RunChecked(eng, d.shapes[schedule[i]])) bad.fetch_add(1);
      done.fetch_add(1);
      const double at = Now() - t0;
      if (at < end) completed[static_cast<size_t>(at / kQpsWindowSeconds)]++;
    }
  };
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) clients.emplace_back(client);
  for (std::thread& t : clients) t.join();
  r->attempted += done.load();
  r->failed += bad.load();
  std::vector<double> qps;
  for (const auto& n : completed) {
    qps.push_back(static_cast<double>(n.load()) / kQpsWindowSeconds);
  }
  return qps;
}

std::vector<double> Latencies(const std::vector<Sample>& samples, int shape) {
  std::vector<double> out;
  for (const Sample& s : samples) {
    if (shape < 0 || s.shape == shape) out.push_back(s.latency_ms);
  }
  return out;
}

/// What the serving rounds measured.
struct Serving {
  /// Segment B's completions per second, every window of every round.
  std::vector<double> window_qps;
  /// Segment A's queries, every round.
  std::vector<Sample> samples;
  /// Each round's segment-A median and tail-percentile latency, ms.
  std::vector<double> round_p50_ms;
  std::vector<double> round_tail_ms;
  /// Segment A's offered rate per round.
  std::vector<double> rates;
  /// Engine::Stats() admission counters summed over the segment A rounds.
  uint64_t admitted = 0;
  uint64_t queued = 0;
  uint64_t queue_wait_nanos = 0;
};

/// `seconds` of serving in rounds of about kRoundSeconds: segment B for
/// 1 - kOpenShare of the round, then segment A for kOpenShare of it at
/// kOpenLoad of the throughput that round's segment B measured. Every
/// segment A starts with an empty queue, and its rate follows the capacity
/// of the last second: when the shared machine slows down, the offered load
/// stays near kOpenLoad instead of outrunning the engine for the rest of
/// the run.
Serving Serve(const Engine& eng, const Data& d, uint64_t seed, double seconds,
              Trace* trace, Result* r) {
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::lround(seconds / kRoundSeconds)));
  const double round_s = seconds / static_cast<double>(rounds);
  const std::vector<uint8_t> closed =
      Schedule(SubSeed(seed, 20), kClosedSchedule);
  Serving s;
  for (size_t k = 0; k < rounds; ++k) {
    const std::vector<double> w =
        ClosedLoopWindows(eng, d, closed, (1 - kOpenShare) * round_s, r);
    s.window_qps.insert(s.window_qps.end(), w.begin(), w.end());
    const double rate = kOpenLoad * Median(w);
    s.rates.push_back(rate);
    const std::vector<uint8_t> open = Schedule(
        SubSeed(seed, 21 + k),
        std::max(kMinOpenQueries,
                 static_cast<size_t>(kOpenShare * round_s * rate)));
    const radix::engine::AdmissionStats before = eng.Stats().admission;
    const std::vector<Sample> a =
        OpenLoop(eng, d, open, rate, trace, s.samples.size(), r);
    const radix::engine::AdmissionStats after = eng.Stats().admission;
    s.admitted += after.admitted - before.admitted;
    s.queued += after.queued - before.queued;
    s.queue_wait_nanos +=
        after.total_queue_wait_nanos - before.total_queue_wait_nanos;
    s.samples.insert(s.samples.end(), a.begin(), a.end());
    const std::vector<double> lat = Latencies(a, -1);
    s.round_p50_ms.push_back(Median(lat));
    s.round_tail_ms.push_back(
        Percentile(lat, TailPercentileFor(kMinOpenQueries)));
  }
  return s;
}

}  // namespace

Result RunServe(const Args& args, Trace* trace) {
  Result r;
  std::vector<double> setups, gens;
  std::unique_ptr<Data> d;
  std::unique_ptr<Engine> eng;
  size_t budget = 0;
  RepeatSetup(
      [&] {
        eng.reset();
        d.reset();
        const double t0 = Now();
        d = Generate(args.seed);
        const double gen = Now() - t0;
        budget = AdmissionBudget(*d);
        eng = std::make_unique<Engine>(Config(kEngineThreads, budget));
        for (const Shape& s : d->shapes) {
          uint64_t checksum = 0;
          size_t rows = 0;
          if (!RunShape(*eng, s, &checksum, &rows).ok()) r.correct = false;
        }
        return gen;
      },
      &setups, &gens);

  // References: every shape once on a separate serial engine; the
  // two-sided shapes are cross-checked under NSM pre-projection with a
  // naive hash join, a different algorithm end to end.
  {
    Engine ref(Config(1, 0));
    for (Shape& s : d->shapes) {
      if (!RunShape(ref, s, &s.checksum, &s.rows).ok() || s.rows == 0) {
        r.correct = false;
      }
      if (s.w == nullptr) continue;
      QuerySpec nsm = s.spec;
      nsm.strategy = radix::project::JoinStrategy::kNsmPreHash;
      radix::project::QueryRun run;
      if (!ref.Prepare(*s.w, nsm).Execute(&run).ok() ||
          run.checksum != s.checksum || run.result_cardinality != s.rows) {
        r.correct = false;
      }
    }
  }
  std::string plans;
  for (const Shape& s : d->shapes) {
    if (!plans.empty()) plans += " ";
    plans += s.name;
    plans += "=";
    if (s.plan != nullptr) {
      radix::engine::PreparedPlan prepared;
      if (eng->Prepare(*s.catalog, *s.plan, &prepared).ok()) {
        plans += prepared.Explain().plan_code;
      }
    } else {
      plans += eng->Prepare(*s.w, s.spec).Explain().plan_code;
    }
  }
  r.Note("plan_code", plans);
  r.Note("admission_budget_bytes", std::to_string(budget));
  r.Note("engine_hierarchy", HierarchySummary(eng->hierarchy()));

  // The traced run records one span per segment-A query.
  const CpuMeter cpu;
  const Serving served = Serve(*eng, *d, args.seed, args.seconds, trace, &r);
  const std::vector<Sample>& a = served.samples;
  std::vector<double> late;
  for (const Sample& q : a) late.push_back(q.late_ms);
  r.Note("open_loop_rate_qps", std::to_string(Median(served.rates)));
  r.Note("rounds", std::to_string(served.rates.size()));

  if (trace == nullptr) {
    r.Note("loadgen_late_ms_p99", std::to_string(Percentile(late, 0.99)));
    // p50 and tail are medians over rounds of each round's p50 and p99: a
    // burst of the shared machine that queues a round or two does not
    // decide them.
    AddEndToEnd(Median(served.round_p50_ms), Median(served.round_tail_ms),
                PercentileName(TailPercentileFor(kMinOpenQueries)) +
                    " per round, median of " +
                    std::to_string(served.round_tail_ms.size()),
                a.size(), Median(served.window_qps), setups, &r);
    return r;
  }

  Trace& tr = *trace;
  r.Add("process.cpu_util", cpu.Utilization(), "ratio");
  r.Add("engine.point_p50_ms", Median(Latencies(a, 0)), "ms");
  r.Add("engine.point_p99_ms", Percentile(Latencies(a, 0), 0.99), "ms");
  r.Add("engine.medium_p50_ms", Median(Latencies(a, 1)), "ms");
  r.Add("engine.varchar_p50_ms", Median(Latencies(a, 2)), "ms");
  r.Add("engine.plan_tree_p50_ms", Median(Latencies(a, 3)), "ms");
  r.Add("loadgen.late_ms_p99", Percentile(late, 0.99), "ms");
  AddPlanCacheHitRatio(eng->Stats(), &r);
  const double admitted =
      static_cast<double>(std::max<uint64_t>(1, served.admitted));
  r.Add("engine.admission_queued_frac",
        static_cast<double>(served.queued) / admitted, "ratio");
  r.Add("engine.admission_wait_ms",
        static_cast<double>(served.queue_wait_nanos) * 1e-6 / admitted, "ms");

  // Engine::Prepare alone, every shape equally often.
  std::vector<double> prepare_s;
  for (int i = 0; i < 100; ++i) {
    for (const Shape& s : d->shapes) {
      const double t0 = Now();
      PrepareShape(*eng, s);
      prepare_s.push_back(Now() - t0);
    }
  }
  r.Add("engine.prepare_us", Median(prepare_s) * 1e6, "us");
  r.Add("workload.gen_s", Median(gens), "s");

  // The medium shape's join alone, on the engine's pool.
  {
    radix::join::PartitionedHashJoinOptions jopts;
    jopts.pool = eng->pool();
    for (uint64_t q = 0; q < 50; ++q) {
      Trace::Span s(tr, "join.phj", q);
      const radix::join::JoinIndex index = radix::join::PartitionedHashJoin(
          d->medium.dsm_left.key().span(), d->medium.dsm_right.key().span(),
          eng->hierarchy(), jopts);
      if (index.size() != d->medium.expected_result_size) r.correct = false;
    }
    r.Add("join.phj_ms", Median(tr.SelfMsPerQuery("join.phj")), "ms");
  }

  // One closed-loop client through segment B's schedule, untraced vs
  // Prepare/Execute spans (queries 2k and 2k + 1, a pair, run schedule slot
  // k), then the same slots on a serial engine: the speedup of the mix's p50
  // from the engine's threads.
  const std::vector<uint8_t> schedule =
      Schedule(SubSeed(args.seed, 20), kClosedSchedule);
  auto timed = [&](const Engine& e, uint64_t q, bool spanned) {
    const Shape& shape = d->shapes[schedule[(q / 2) % schedule.size()]];
    const double q0 = Now();
    bool ok = false;
    if (spanned) {
      Trace::Span s(tr, "engine.query", q);
      ok = RunChecked(e, shape);
    } else {
      ok = RunChecked(e, shape);
    }
    r.Count(ok);
    return (Now() - q0) * 1e3;
  };
  const TracedLatencies lat = TracedLoop(
      0.15 * args.seconds, 500, 0,
      [&](bool spanned, uint64_t q) { return timed(*eng, q, spanned); },
      [](uint64_t) {}, &r);
  {
    Engine one(Config(1, budget));
    for (const Shape& s : d->shapes) {
      if (!RunChecked(one, s)) r.correct = false;
    }
    std::vector<double> serial;
    for (size_t k = 0; k < lat.plain.size(); ++k) {
      serial.push_back(timed(one, 2 * k, false));
    }
    r.Add("engine.speedup_4v1", Median(serial) / Median(lat.plain), "x");
  }
  return r;
}

}  // namespace radix_bench
