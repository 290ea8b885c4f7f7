// chain_1m: the operator-layer plan tree
//   sigma(t0.a1 < 2^30) |X| t1 |X| t2 -> group by t2.a1: sum(t0.a1), count
// over tables of 1M / 512K / 1M rows, prepared and executed through the
// engine each time. The engine keeps its default configuration with the
// detected hardware profile, so the edges plan whatever this machine's
// cache says (u/u+u/u under a large shared L3): ops/ does most of the work —
// drains, per-edge gathers, select and aggregate — and neither the
// QuerySpec path nor streaming runs.
//
// Traced run: T(x) is the time of ops::Optimize + ops::ExecutePlan on the
// prefix subtree x (rooted at a count(*) aggregate, since a plan root must
// be a project or aggregate) on the engine's pool; operator times are the
// differences of successive prefixes.

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "join/partitioned_hash_join.h"
#include "ops/executor.h"
#include "ops/optimizer.h"
#include "ops/plan.h"
#include "ops/reference.h"
#include "ops/table.h"
#include "trace.h"
#include "workload/chain.h"

namespace radix_bench {

namespace {

namespace ops = radix::ops;
using radix::value_t;
using radix::engine::Engine;

constexpr int kWarmupQueries = 2;
/// p90 is the highest percentile with ten samples beyond it at 100-149
/// queries; 150 leaves room.
constexpr size_t kMinTimedQueries = 150;
/// PayloadValue is uniform over [0, 2^31): the midpoint keeps ~half of t0.
constexpr value_t kSelectBound = value_t{1} << 30;

radix::engine::EngineConfig Config(size_t threads) {
  radix::engine::EngineConfig cfg;
  cfg.num_threads = threads;
  return cfg;
}

ops::Predicate SelectPredicate() {
  ops::Predicate pred;
  pred.col = {0, 1, false};
  pred.op = ops::CmpOp::kLt;
  pred.value = kSelectBound;
  return pred;
}

/// The prefixes of the chain: 0 = sigma, 1 = sigma |X| t1, 2 = sigma |X| t1
/// |X| t2, each under count(*); 3 = the full query with its grouped
/// aggregate.
ops::LogicalPlan PrefixPlan(int depth) {
  std::unique_ptr<ops::PlanNode> node =
      ops::Select(ops::Scan(0), SelectPredicate());
  if (depth >= 1) node = ops::Join(std::move(node), ops::Scan(1), 0, 1);
  if (depth >= 2) node = ops::Join(std::move(node), ops::Scan(2), 1, 2);
  ops::LogicalPlan plan;
  if (depth < 3) {
    plan.root = ops::Aggregate(std::move(node), {}, {{ops::AggFn::kCount, {}}});
  } else {
    plan.root = ops::Aggregate(
        std::move(node), {{2, 1, false}},
        {{ops::AggFn::kSum, {0, 1, false}}, {ops::AggFn::kCount, {}}});
  }
  return plan;
}

struct Data {
  radix::workload::ChainWorkload w;
  ops::Catalog catalog;
};

std::unique_ptr<Data> Generate(uint64_t seed) {
  radix::workload::ChainWorkloadSpec spec;
  spec.cardinalities = {size_t{1} << 20, size_t{1} << 19, size_t{1} << 20};
  spec.num_attrs = 4;
  spec.seed = seed;
  auto d = std::make_unique<Data>();
  d->w = radix::workload::MakeChainWorkload(spec);
  d->catalog = ops::CatalogFromChainWorkload(d->w);
  return d;
}

bool Execute(const Engine& eng, const Data& d, const ops::LogicalPlan& plan,
             ops::PlanRun* run) {
  radix::engine::PreparedPlan prepared;
  return eng.Prepare(d.catalog, plan, &prepared).ok() &&
         prepared.Execute(run).ok();
}

}  // namespace

Result RunChain(const Args& args, Trace* trace) {
  Result r;
  const ops::LogicalPlan plan = PrefixPlan(3);
  std::vector<double> setups, gens;
  std::unique_ptr<Data> d;
  std::unique_ptr<Engine> eng;
  RepeatSetup(
      [&] {
        eng.reset();
        d.reset();
        const double t0 = Now();
        d = Generate(SubSeed(args.seed, 2));
        const double gen = Now() - t0;
        eng = std::make_unique<Engine>(Config(kEngineThreads));
        for (int i = 0; i < kWarmupQueries; ++i) {
          ops::PlanRun run;
          if (!Execute(*eng, *d, plan, &run)) r.correct = false;
        }
        return gen;
      },
      &setups, &gens);

  // Reference: the scalar tuple-at-a-time interpreter.
  ops::PlanRun ref;
  if (!ops::ReferenceExecute(d->catalog, plan, &ref).ok() ||
      ref.result_rows == 0) {
    r.correct = false;
  }
  auto query = [&](const Engine& e) {
    ops::PlanRun run;
    return Execute(e, *d, plan, &run) && run.checksum == ref.checksum &&
           run.result_rows == ref.result_rows;
  };

  radix::engine::PreparedPlan prepared;
  if (!eng->Prepare(d->catalog, plan, &prepared).ok()) r.correct = false;
  const radix::engine::Explanation& ex = prepared.Explain();
  r.Note("plan_code", ex.plan_code);
  r.Note("result_rows", std::to_string(ref.result_rows));
  r.Note("engine_hierarchy", HierarchySummary(eng->hierarchy()));

  if (trace == nullptr) {
    double wall = 0;
    const std::vector<double> lat =
        ClosedLoop(args.seconds, kMinTimedQueries, [&] { return query(*eng); },
                   &r, &wall);
    AddClosedLoopEndToEnd(lat, TailPercentileFor(kMinTimedQueries), wall,
                          setups, &r);
    return r;
  }

  Trace& tr = *trace;
  // The replay: the prefix subtrees, plus the first edge's join alone:
  // sigma(t0) keys |X| t1 keys.
  static const char* const kPrefixSpans[] = {"ops.T.select", "ops.T.join1",
                                             "ops.T.join2", "ops.T.full"};
  std::vector<ops::LogicalPlan> prefixes;
  for (int depth = 0; depth < 4; ++depth) prefixes.push_back(PrefixPlan(depth));
  std::vector<value_t> selected_keys;
  {
    const auto& keys = d->w.tables[0].key();
    const auto& a1 = d->w.tables[0].attr(1);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (a1[i] < kSelectBound) selected_keys.push_back(keys[i]);
    }
  }
  ops::ExecOptions xopts;
  xopts.hw = &eng->hierarchy();
  xopts.pool = eng->pool();
  double modeled_seconds = 0;
  auto replay = [&](uint64_t q) {
    for (int depth = 0; depth < 4; ++depth) {
      Trace::Span root(tr, kPrefixSpans[depth], q);
      ops::PhysicalPlan physical;
      {
        Trace::Span s(tr, "ops.optimize", q);
        if (!ops::Optimize(d->catalog, prefixes[depth], eng->hierarchy(),
                           eng->cpu_costs(), eng->num_threads(), &physical)
                 .ok()) {
          r.correct = false;
        }
      }
      ops::PlanRun run;
      {
        Trace::Span s(tr, "ops.execute", q);
        if (!ops::ExecutePlan(d->catalog, prefixes[depth], physical, xopts,
                              &run)
                 .ok()) {
          r.correct = false;
        }
      }
      if (depth == 3) {
        modeled_seconds = physical.modeled_seconds;
        if (run.checksum != ref.checksum) r.correct = false;
      }
    }
    Trace::Span s(tr, "join.phj", q);
    radix::join::PartitionedHashJoinOptions jopts;
    jopts.pool = eng->pool();
    const radix::join::JoinIndex index = radix::join::PartitionedHashJoin(
        selected_keys, d->w.tables[1].key().span(), eng->hierarchy(), jopts);
    if (index.empty()) r.correct = false;
  };

  const CpuMeter cpu;
  const TracedLatencies lat = TracedLoop(
      0.4 * args.seconds, 20, 10,
      [&](bool spanned, uint64_t i) {
        ops::PlanRun run;
        bool ok = false;
        const double q0 = Now();
        if (spanned) {
          Trace::Span s(tr, "engine.query", i);
          radix::engine::PreparedPlan p;
          {
            Trace::Span sp(tr, "engine.prepare", i);
            ok = eng->Prepare(d->catalog, plan, &p).ok();
          }
          Trace::Span se(tr, "engine.execute", i);
          ok = ok && p.Execute(&run).ok();
        } else {
          ok = Execute(*eng, *d, plan, &run);
        }
        const double ms = (Now() - q0) * 1e3;
        r.Count(ok && run.checksum == ref.checksum);
        return ms;
      },
      replay, &r);
  r.Add("process.cpu_util", cpu.Utilization(), "ratio");
  const double plain_p50 = Median(lat.plain);
  r.Add("engine.query_p50_ms", plain_p50, "ms");

  std::vector<std::vector<double>> t;
  for (const char* name : kPrefixSpans) t.push_back(tr.TotalMsPerQuery(name));
  auto diff = [&](size_t hi, size_t lo) {
    std::vector<double> delta;
    for (size_t i = 0; i < t[hi].size(); ++i) {
      delta.push_back(t[hi][i] - t[lo][i]);
    }
    return Median(std::move(delta));
  };
  r.Add("ops.select_ms", Median(t[0]), "ms");
  r.Add("ops.join1_ms", diff(1, 0), "ms");
  r.Add("ops.join2_ms", diff(2, 1), "ms");
  r.Add("ops.aggregate_ms", diff(3, 2), "ms");
  r.Add("ops.measured_over_modeled", Median(t[3]) / (modeled_seconds * 1e3),
        "ratio");
  r.Add("join.phj_ms", Median(tr.SelfMsPerQuery("join.phj")), "ms");
  r.Add("ops.optimize_ms",
        MedianSeconds(50,
                      [&] {
                        ops::PhysicalPlan physical;
                        (void)ops::Optimize(d->catalog, plan, eng->hierarchy(),
                                            eng->cpu_costs(),
                                            eng->num_threads(), &physical);
                      }) *
            1e3,
        "ms");

  AddPlanCacheHitRatio(eng->Stats(), &r);
  r.Add("engine.prepare_us",
        MedianSeconds(200,
                      [&] {
                        radix::engine::PreparedPlan p;
                        (void)eng->Prepare(d->catalog, plan, &p);
                      }) *
            1e6,
        "us");
  r.Add("workload.gen_s", Median(gens), "s");

  {
    Engine one(Config(1));
    if (!query(one)) r.correct = false;
    double wall = 0;
    const std::vector<double> serial = ClosedLoop(
        0.2 * args.seconds, 10, [&] { return query(one); }, &r, &wall);
    r.Add("engine.speedup_4v1", Median(serial) / plain_p50, "x");
  }
  return r;
}

}  // namespace radix_bench
