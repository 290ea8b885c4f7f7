#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <map>

namespace radix_bench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The calling thread's innermost open span (-1 = none), so a new span
/// knows its parent without the caller threading it through.
thread_local int64_t t_open_span = -1;

uint32_t ThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t id = next.fetch_add(1);
  return id;
}

}  // namespace

Trace::Span::Span(Trace& trace, const char* name, uint64_t query)
    : trace_(trace), saved_parent_(t_open_span) {
  index_ = trace_.Open(name, query, saved_parent_);
  t_open_span = static_cast<int64_t>(index_);
}

Trace::Span::~Span() {
  trace_.Close(index_);
  t_open_span = saved_parent_;
}

size_t Trace::Open(const char* name, uint64_t query, int64_t parent) {
  const uint32_t tid = ThreadId();
  radix::MutexLock lock(mu_);
  spans_.push_back({name, NowNs(), 0, parent, query, tid});
  return spans_.size() - 1;
}

void Trace::Close(size_t index) {
  const int64_t end = NowNs();
  radix::MutexLock lock(mu_);
  spans_[index].end_ns = end;
}

std::vector<double> Trace::SelfMsPerQuery(const std::string& name) const {
  radix::MutexLock lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const SpanRecord& s : spans_) {
    if (s.parent >= 0) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::map<uint64_t, int64_t> per_query;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    if (name != s.name) continue;
    per_query[s.query] += (s.end_ns - s.start_ns) - child_ns[i];
  }
  std::vector<double> out;
  for (const auto& [query, ns] : per_query) out.push_back(ns * 1e-6);
  return out;
}

std::vector<double> Trace::TotalMsPerQuery(const std::string& name) const {
  radix::MutexLock lock(mu_);
  std::map<uint64_t, int64_t> per_query;
  for (const SpanRecord& s : spans_) {
    if (name == s.name) per_query[s.query] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (const auto& [query, ns] : per_query) out.push_back(ns * 1e-6);
  return out;
}

double Trace::SpanCostNs() {
  constexpr int kBatches = 5;
  constexpr int kSpans = 30000;  // three nested spans per iteration
  std::vector<double> ns;
  for (int b = 0; b < kBatches; ++b) {
    Trace scratch;
    const int64_t t0 = NowNs();
    for (int i = 0; i < kSpans / 3; ++i) {
      Span outer(scratch, "q", static_cast<uint64_t>(i));
      Span prepare(scratch, "p", static_cast<uint64_t>(i));
      Span execute(scratch, "e", static_cast<uint64_t>(i));
    }
    ns.push_back(static_cast<double>(NowNs() - t0) / kSpans);
  }
  std::sort(ns.begin(), ns.end());
  return ns[kBatches / 2];
}

bool Trace::WriteChromeJson(const std::string& path) const {
  radix::MutexLock lock(mu_);
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  bool ok = std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[") > 0;
  for (size_t i = 0; i < spans_.size() && ok; ++i) {
    const SpanRecord& s = spans_[i];
    ok = std::fprintf(f,
                      "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                      "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%llu,"
                      "\"span\":%zu,\"parent\":%lld}}",
                      i == 0 ? "" : ",", s.name, s.tid,
                      static_cast<double>(s.start_ns - origin) * 1e-3,
                      static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                      static_cast<unsigned long long>(s.query), i,
                      static_cast<long long>(s.parent)) > 0;
  }
  ok = ok && std::fprintf(f, "\n]}\n") > 0;
  return std::fclose(f) == 0 && ok;
}

}  // namespace radix_bench
