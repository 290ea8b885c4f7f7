#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>

#include "engine/engine.h"

namespace radix_bench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over (seed, stream): distinct streams of one seed
  // and equal streams of distinct seeds both land far apart.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xd1b54a32d192ed03ULL +
               0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double rank =
      std::ceil(p * static_cast<double>(samples.size()) - 1e-9);
  const size_t idx = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
  return samples[std::min(idx, samples.size() - 1)];
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double TailPercentileFor(size_t n) {
  static constexpr double kTails[] = {0.999, 0.99, 0.95, 0.90, 0.75, 0.50};
  for (double p : kTails) {
    const size_t at =
        static_cast<size_t>(std::ceil(p * static_cast<double>(n) - 1e-9));
    if (n >= at + 10) return p;
  }
  return 0.50;
}

std::string PercentileName(double p) {
  char buf[16];
  const double pct = p * 100.0;
  if (std::fabs(pct - std::round(pct)) < 1e-9) {
    std::snprintf(buf, sizeof(buf), "p%.0f", pct);
  } else {
    std::snprintf(buf, sizeof(buf), "p%.1f", pct);
  }
  return buf;
}

void AddEndToEnd(double p50_ms, double tail_ms, const std::string& tail_name,
                 size_t timed_queries, double throughput_qps,
                 const std::vector<double>& setup_s, Result* r) {
  r->Add("latency_p50_ms", p50_ms, "ms");
  r->Add("latency_tail_ms", tail_ms, "ms");
  r->Add("throughput_qps", throughput_qps, "1/s");
  r->Add("peak_rss_mb", PeakRssMb(), "MiB");
  r->Add("setup_s", Median(setup_s), "s");
  r->Add("failed_frac",
         r->attempted == 0 ? 1.0
                           : static_cast<double>(r->failed) /
                                 static_cast<double>(r->attempted),
         "ratio");
  r->Note("tail_percentile", tail_name);
  r->Note("timed_queries", std::to_string(timed_queries));
}

void AddClosedLoopEndToEnd(const std::vector<double>& latency_ms,
                           double tail_p, double wall_seconds,
                           const std::vector<double>& setup_s, Result* r) {
  AddEndToEnd(Median(latency_ms), Percentile(latency_ms, tail_p),
              PercentileName(tail_p), latency_ms.size(),
              static_cast<double>(latency_ms.size()) / wall_seconds, setup_s,
              r);
}

void AddPlanCacheHitRatio(const radix::engine::EngineStats& stats,
                          Result* r) {
  const uint64_t lookups = stats.plan_cache_hits + stats.plan_cache_misses;
  r->Add("engine.plan_cache_hit_ratio",
         lookups == 0 ? 0.0
                      : static_cast<double>(stats.plan_cache_hits) /
                            static_cast<double>(lookups),
         "ratio");
}

std::string HierarchySummary(const radix::hardware::MemoryHierarchy& hw) {
  std::string s;
  for (const auto& c : hw.caches) {
    if (!s.empty()) s += ", ";
    s += c.name;
    s += " ";
    s += std::to_string(c.capacity_bytes / 1024);
    s += "KiB/";
    s += std::to_string(c.line_bytes);
    s += "B";
  }
  return s;
}

}  // namespace radix_bench
