// q8m_mat / q8m_stream: the paper's Fig. 10 query at N = 8M tuples per
// side, pi = 3+3, hit rate 1 — a working set of ~660 MB, far beyond any
// cache. The engine is pinned to MemoryHierarchy::GenericModern() (1 MiB
// target cache), so the planner picks c/d with the same radix bits and
// window on every machine; under a detected profile with a huge shared L3
// it would pick u/u and skip the decluster layer altogether.
//
// q8m_stream adds a 16 MiB streaming budget, so the right side streams
// through pipeline::StreamingExecutor chunk by chunk.
//
// Traced run: the query is replayed as the public layer calls
// project::DsmPostProject makes (join/, cluster/, decluster/), each inside
// a span, and the replay's checksum must equal Execute's.

#include <sys/wait.h>
#include <unistd.h>

#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.h"
#include "decluster/radix_decluster.h"
#include "decluster/window.h"
#include "engine/engine.h"
#include "join/partitioned_hash_join.h"
#include "join/positional_join.h"
#include "pipeline/memory_gauge.h"
#include "project/checksum.h"
#include "project/dsm_post.h"
#include "trace.h"
#include "workload/generator.h"

namespace radix_bench {

namespace {

using radix::oid_t;
using radix::value_t;
using radix::engine::Engine;
using radix::engine::Explanation;
using radix::project::QueryRun;
using radix::project::SideStrategy;
using radix::workload::JoinWorkload;

constexpr size_t kRows = size_t{8} << 20;
constexpr size_t kPi = 3;
constexpr size_t kStreamBudgetBytes = size_t{16} << 20;
constexpr int kWarmupQueries = 2;
/// p75 is the highest percentile with ten samples beyond it at 40 queries.
constexpr size_t kMinTimedQueries = 40;

radix::engine::EngineConfig Config(size_t threads, bool streaming) {
  radix::engine::EngineConfig cfg;
  cfg.num_threads = threads;
  cfg.hierarchy = radix::hardware::MemoryHierarchy::GenericModern();
  if (streaming) cfg.streaming_budget_bytes = kStreamBudgetBytes;
  return cfg;
}

radix::engine::QuerySpec Spec() {
  radix::engine::QuerySpec spec;
  spec.pi_left = kPi;
  spec.pi_right = kPi;
  return spec;
}

std::unique_ptr<JoinWorkload> Generate(uint64_t seed) {
  radix::workload::JoinWorkloadSpec spec;
  spec.cardinality = kRows;
  spec.num_attrs = 1 + kPi;
  spec.hit_rate = 1.0;
  spec.seed = seed;
  spec.build_nsm = false;  // DSM only: the NSM copies would double the RSS
  return std::make_unique<JoinWorkload>(radix::workload::MakeJoinWorkload(spec));
}

bool Execute(const Engine& eng, const JoinWorkload& w, QueryRun* run) {
  return eng.Prepare(w, Spec()).Execute(run).ok();
}

struct Reference {
  uint64_t checksum = 0;
  size_t cardinality = 0;
  bool ok = false;
};

/// The reference result: the same query under DSM pre-projection (a
/// different join and projection algorithm) on a serial engine. It runs in
/// a child process on its own copy of the data, because pre-projection
/// builds pre-projected copies of both sides and an NSM result, more memory
/// than the engine's plan needs; in this process that would set
/// peak_rss_mb. Call it before this process starts any thread.
Reference ComputeReference(uint64_t seed) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    Reference ref;
    {
      const std::unique_ptr<JoinWorkload> w = Generate(seed);
      Engine eng(Config(1, false));
      radix::engine::QuerySpec spec = Spec();
      spec.strategy = radix::project::JoinStrategy::kDsmPrePhash;
      QueryRun run;
      ref.ok = eng.Prepare(*w, spec).Execute(&run).ok() &&
               run.result_cardinality == w->expected_result_size;
      ref.checksum = run.checksum;
      ref.cardinality = run.result_cardinality;
    }
    const bool sent = write(fds[1], &ref, sizeof(ref)) ==
                      static_cast<ssize_t>(sizeof(ref));
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Reference ref;
  const bool got =
      read(fds[0], &ref, sizeof(ref)) == static_cast<ssize_t>(sizeof(ref));
  close(fds[0]);
  int status = 0;
  const bool exited = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
                      WEXITSTATUS(status) == 0;
  if (!got || !exited) return {};
  return ref;
}

/// The order-independent result digest Execute computes: one RowDigest per
/// row over left then right columns, summed.
uint64_t Checksum(const radix::storage::DsmResult& r) {
  uint64_t sum = 0;
  for (size_t i = 0; i < r.cardinality; ++i) {
    radix::project::RowDigest d;
    for (const auto& c : r.left_columns) d.AddValue(c[i]);
    for (const auto& c : r.right_columns) d.AddValue(c[i]);
    sum += d.digest();
  }
  return sum;
}

/// Every buffer a query owns past its join, so a replay can free them
/// inside a span, as Execute frees them inside its wall time.
struct Buffers {
  radix::join::JoinIndex index;
  radix::storage::DsmResult result;
  std::vector<oid_t> right_ids;
  std::vector<oid_t> result_pos;
  radix::storage::Column<value_t> clustered;
};

/// The join, timed on the engine's pool with the engine's profile.
void ReplayJoin(const Engine& eng, const JoinWorkload& w, Trace& tr,
                uint64_t q, Buffers* b) {
  Trace::Span s(tr, "join.phj", q);
  radix::join::PartitionedHashJoinOptions jopts;
  jopts.pool = eng.pool();
  b->index = radix::join::PartitionedHashJoin(
      w.dsm_left.key().span(), w.dsm_right.key().span(), eng.hierarchy(),
      jopts);
}

/// The result digest, then the buffers' release.
uint64_t ReplayChecksumAndFree(Trace& tr, uint64_t q,
                               std::unique_ptr<Buffers> b) {
  uint64_t checksum = 0;
  {
    Trace::Span s(tr, "project.checksum", q);
    checksum = Checksum(b->result);
  }
  Trace::Span s(tr, "storage.free", q);
  b.reset();
  return checksum;
}

/// The materializing query as the layer calls DsmPostProject makes, one
/// span per call. Returns the result checksum.
uint64_t ReplayMaterializing(const Engine& eng, const Explanation& ex,
                             const JoinWorkload& w, Trace& tr, uint64_t q) {
  const radix::hardware::MemoryHierarchy& hw = eng.hierarchy();
  radix::ThreadPool* pool = eng.pool();
  constexpr radix::radix_bits_t kAuto = radix::project::DsmPostOptions::kAuto;
  Trace::Span root(tr, "replay", q);
  auto b = std::make_unique<Buffers>();
  ReplayJoin(eng, w, tr, q, b.get());
  const size_t n = b->index.size();
  radix::storage::DsmResult& result = b->result;
  {
    Trace::Span s(tr, "storage.result_alloc", q);
    result.cardinality = n;
    result.left_columns.resize(kPi);
    result.right_columns.resize(kPi);
    for (auto& c : result.left_columns) c.Resize(n);
    for (auto& c : result.right_columns) c.Resize(n);
  }
  {
    Trace::Span s(tr, "cluster.left", q);
    radix::project::detail::ReorderIndexLeft(b->index,
                                             w.dsm_left.cardinality(), hw,
                                             ex.side_options.left, kAuto, pool);
  }
  std::vector<std::span<const value_t>> left_cols, right_cols;
  std::vector<std::span<value_t>> left_out, right_out;
  for (size_t a = 0; a < kPi; ++a) {
    left_cols.push_back(w.dsm_left.attr(1 + a).span());
    left_out.push_back(result.left_columns[a].span());
    right_cols.push_back(w.dsm_right.attr(1 + a).span());
    right_out.push_back(result.right_columns[a].span());
  }
  {
    Trace::Span s(tr, "join.gather_left", q);
    radix::join::PositionalJoinPairsColumns<value_t, /*kLeft=*/true>(
        b->index.span(), left_cols, left_out, pool);
  }
  {
    Trace::Span s(tr, "join.right_oids", q);
    b->right_ids = b->index.RightOids();
  }
  if (ex.side_options.right == SideStrategy::kUnsorted) {
    Trace::Span s(tr, "join.gather_right", q);
    radix::join::PositionalJoinColumns<value_t>(b->right_ids, right_cols,
                                                right_out, pool);
  } else {
    radix::cluster::ClusterBorders borders;
    {
      Trace::Span s(tr, "cluster.right", q);
      b->result_pos.resize(n);
      std::iota(b->result_pos.begin(), b->result_pos.end(), oid_t{0});
      const radix::cluster::ClusterSpec spec = radix::project::detail::SpecFor(
          SideStrategy::kClustered, n, w.dsm_right.cardinality(), hw, kAuto);
      borders = radix::project::detail::ClusterIds(b->right_ids,
                                                   b->result_pos, spec, pool);
    }
    const size_t window = radix::decluster::WindowPolicy::ChooseWindowElems(
        hw, sizeof(value_t), borders.num_clusters(), n);
    {
      Trace::Span s(tr, "storage.result_alloc", q);
      b->clustered.Resize(n);
    }
    for (size_t a = 0; a < kPi; ++a) {
      {
        Trace::Span s(tr, "join.gather_right", q);
        radix::join::PositionalJoinColumns<value_t>(
            b->right_ids, {right_cols[a]}, {b->clustered.span()}, pool);
      }
      Trace::Span s(tr, "decluster.merge", q);
      const std::vector<radix::decluster::ClusterCursor> cursors =
          radix::decluster::MakeCursors(borders);
      radix::decluster::RadixDeclusterParallel<value_t>(
          b->clustered.span(), b->result_pos, cursors, window, right_out[a],
          *pool);
    }
  }
  return ReplayChecksumAndFree(tr, q, std::move(b));
}

/// The streaming query: the join, then project::DsmPostProjectStreaming on
/// the joined index with a private gauge. Returns the checksum and fills
/// the pipeline's phase breakdown and peak intermediate bytes.
uint64_t ReplayStreaming(const Engine& eng, const Explanation& ex,
                         const JoinWorkload& w, Trace& tr, uint64_t q,
                         radix::project::PhaseBreakdown* phases,
                         size_t* peak_bytes) {
  Trace::Span root(tr, "replay", q);
  auto b = std::make_unique<Buffers>();
  ReplayJoin(eng, w, tr, q, b.get());
  radix::pipeline::MemoryGauge gauge;
  radix::project::DsmPostOptions popts = ex.side_options;
  popts.pool = eng.pool();
  popts.num_threads = eng.num_threads();
  popts.gauge = &gauge;
  {
    Trace::Span s(tr, "project.stream", q);
    b->result = radix::project::DsmPostProjectStreaming(
        b->index, w.dsm_left, w.dsm_right, kPi, kPi, eng.hierarchy(), popts,
        ex.chunk_rows, phases);
  }
  *peak_bytes = gauge.peak_bytes();
  return ReplayChecksumAndFree(tr, q, std::move(b));
}

double SpanMedian(const Trace& tr, const char* name) {
  return Median(tr.SelfMsPerQuery(name));
}

}  // namespace

Result RunQ8m(const Args& args, bool streaming, Trace* trace) {
  Result r;
  const Reference ref = ComputeReference(SubSeed(args.seed, 1));
  if (!ref.ok) r.correct = false;
  std::vector<double> setups, gens;
  std::unique_ptr<JoinWorkload> w;
  std::unique_ptr<Engine> eng;
  RepeatSetup(
      [&] {
        // Free the previous session first so peak RSS is one session's.
        eng.reset();
        w.reset();
        const double t0 = Now();
        w = Generate(SubSeed(args.seed, 1));
        const double gen = Now() - t0;
        eng = std::make_unique<Engine>(Config(kEngineThreads, streaming));
        for (int i = 0; i < kWarmupQueries; ++i) {
          QueryRun run;
          if (!Execute(*eng, *w, &run)) r.correct = false;
        }
        return gen;
      },
      &setups, &gens);

  auto query = [&](const Engine& e, QueryRun* run) {
    return Execute(e, *w, run) && run->checksum == ref.checksum &&
           run->result_cardinality == ref.cardinality;
  };

  const Explanation ex = eng->Prepare(*w, Spec()).Explain();
  r.Note("plan_code", ex.plan_code);
  r.Note("mode", ex.streaming ? "streaming" : "materializing");
  r.Note("chunk_rows", std::to_string(ex.chunk_rows));
  r.Note("decluster_bits", std::to_string(ex.decluster_bits));
  r.Note("window_elems", std::to_string(ex.window_elems));
  r.Note("engine_hierarchy", HierarchySummary(eng->hierarchy()));

  if (trace == nullptr) {
    double wall = 0;
    const std::vector<double> lat = ClosedLoop(
        args.seconds, kMinTimedQueries,
        [&] {
          QueryRun run;
          return query(*eng, &run);
        },
        &r, &wall);
    AddClosedLoopEndToEnd(lat, TailPercentileFor(kMinTimedQueries), wall,
                          setups, &r);
    return r;
  }

  Trace& tr = *trace;
  // Pairs of an untraced query and the same query with spans around
  // Prepare/Execute only, then rounds of an untraced query and the layer
  // replay: tracing overhead, CPU utilization, and the untraced latency
  // each replay is held against. Twelve pairs at least: neighbouring
  // half-second queries differ by up to 10% on a shared VM, so with fewer
  // pairs the overhead estimate is mostly that noise.
  std::vector<double> decluster_busy, peak_mb, pipe_wall, pipe_busy,
      pipe_cluster;
  const CpuMeter cpu;
  const TracedLatencies lat = TracedLoop(
      0.6 * args.seconds, 12, 6,
      [&](bool spanned, uint64_t i) {
        QueryRun run;
        bool ok = false;
        const double q0 = Now();
        if (spanned) {
          Trace::Span s(tr, "engine.query", i);
          radix::engine::PreparedQuery pq = [&] {
            Trace::Span p(tr, "engine.prepare", i);
            return eng->Prepare(*w, Spec());
          }();
          Trace::Span e(tr, "engine.execute", i);
          ok = pq.Execute(&run).ok();
        } else {
          ok = Execute(*eng, *w, &run);
        }
        const double ms = (Now() - q0) * 1e3;
        r.Count(ok && run.checksum == ref.checksum);
        decluster_busy.push_back(run.phases.decluster_seconds * 1e3);
        return ms;
      },
      [&](uint64_t i) {
        uint64_t checksum = 0;
        if (streaming) {
          radix::project::PhaseBreakdown phases;
          size_t peak = 0;
          checksum = ReplayStreaming(*eng, ex, *w, tr, i, &phases, &peak);
          peak_mb.push_back(static_cast<double>(peak) / (1 << 20));
          pipe_wall.push_back(phases.pipeline_wall_seconds * 1e3);
          pipe_busy.push_back(
              (phases.projection_seconds + phases.decluster_seconds) * 1e3);
          pipe_cluster.push_back(phases.cluster_seconds * 1e3);
        } else {
          checksum = ReplayMaterializing(*eng, ex, *w, tr, i);
        }
        if (checksum != ref.checksum) r.correct = false;
      },
      &r);
  r.Add("process.cpu_util", cpu.Utilization(), "ratio");
  const double plain_p50 = Median(lat.plain);
  r.Add("engine.query_p50_ms", plain_p50, "ms");
  r.Add("engine.decluster_busy_ms", Median(decluster_busy), "ms");

  // Per round: the untraced query's wall time minus the time the replay's
  // layer spans cover (the replay root's duration minus its self time).
  const std::vector<double> total = tr.TotalMsPerQuery("replay");
  const std::vector<double> self = tr.SelfMsPerQuery("replay");
  std::vector<double> unattributed;
  for (size_t i = 0; i < total.size(); ++i) {
    unattributed.push_back(lat.before_replay[i] - (total[i] - self[i]));
  }
  r.Add("engine.unattributed_ms", Median(unattributed), "ms");

  const double phj = SpanMedian(tr, "join.phj");
  r.Add("join.phj_ms", phj, "ms");
  // The same join planned for the detected profile, whose huge shared L3
  // makes the partitioned hash join skip clustering.
  {
    const radix::hardware::MemoryHierarchy detected =
        radix::hardware::MemoryHierarchy::Detect();
    radix::join::PartitionedHashJoinOptions jopts;
    jopts.pool = eng->pool();
    r.Add("join.phj_detected_ms",
          MedianSeconds(3,
                        [&] {
                          const radix::join::JoinIndex index =
                              radix::join::PartitionedHashJoin(
                                  w->dsm_left.key().span(),
                                  w->dsm_right.key().span(), detected, jopts);
                          if (index.size() != ref.cardinality) {
                            r.correct = false;
                          }
                        }) *
              1e3,
          "ms");
  }
  r.Add("project.checksum_ms", SpanMedian(tr, "project.checksum"), "ms");
  r.Add("costmodel.join_over_modeled", phj / (ex.join_cost.seconds * 1e3),
        "ratio");
  if (streaming) {
    r.Add("project.stream_ms", SpanMedian(tr, "project.stream"), "ms");
    r.Add("pipeline.peak_intermediate_mb", Median(peak_mb), "MiB");
    r.Add("pipeline.wall_ms", Median(pipe_wall), "ms");
    r.Add("pipeline.busy_ms", Median(pipe_busy), "ms");
    r.Add("pipeline.cluster_ms", Median(pipe_cluster), "ms");
    r.Add("storage.free_ms", SpanMedian(tr, "storage.free"), "ms");
  } else {
    const double cl = SpanMedian(tr, "cluster.left");
    const double cr = SpanMedian(tr, "cluster.right");
    const double gl = SpanMedian(tr, "join.gather_left");
    const double gr = SpanMedian(tr, "join.gather_right");
    const double dm = SpanMedian(tr, "decluster.merge");
    r.Add("cluster.left_ms", cl, "ms");
    r.Add("join.gather_left_ms", gl, "ms");
    r.Add("join.right_oids_ms", SpanMedian(tr, "join.right_oids"), "ms");
    r.Add("cluster.right_ms", cr, "ms");
    r.Add("join.gather_right_ms", gr, "ms");
    r.Add("decluster.merge_ms", dm, "ms");
    r.Add("storage.result_alloc_ms", SpanMedian(tr, "storage.result_alloc"),
          "ms");
    r.Add("storage.free_ms", SpanMedian(tr, "storage.free"), "ms");
    r.Add("costmodel.cluster_over_modeled",
          (cl + cr) / (ex.cluster_cost.seconds * 1e3), "ratio");
    r.Add("costmodel.projection_over_modeled",
          (gl + gr) / (ex.projection_cost.seconds * 1e3), "ratio");
    r.Add("costmodel.decluster_over_modeled",
          dm / (ex.decluster_cost.seconds * 1e3), "ratio");
  }

  // Engine::Prepare alone (a plan-cache hit, as in the timed loop).
  AddPlanCacheHitRatio(eng->Stats(), &r);
  r.Add("engine.prepare_us",
        MedianSeconds(200, [&] { (void)eng->Prepare(*w, Spec()); }) * 1e6,
        "us");
  r.Add("workload.gen_s", Median(gens), "s");

  // The same query on a serial engine: does the query scale?
  {
    Engine one(Config(1, streaming));
    QueryRun warm;
    if (!query(one, &warm)) r.correct = false;
    double wall = 0;
    const std::vector<double> serial = ClosedLoop(
        0.25 * args.seconds, 3,
        [&] {
          QueryRun run;
          return query(one, &run);
        },
        &r, &wall);
    r.Add("engine.speedup_4v1", Median(serial) / plain_p50, "x");
  }
  return r;
}

}  // namespace radix_bench
