#ifndef RADIX_BENCHMARK_TRACE_H_
#define RADIX_BENCHMARK_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into the engine's layers (nothing inside the
// library is instrumented); each holds a name, start, end, parent and query
// id. They stay in memory until the run ends and are then written as Chrome
// trace-event JSON (load it in Perfetto or chrome://tracing).

#include <cstdint>
#include <string>
#include <vector>

#include "common/mutex.h"

namespace radix_bench {

class Trace {
 public:
  struct SpanRecord {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int64_t parent;  ///< index into spans(), -1 for a root span
    uint64_t query;
    uint32_t tid;
  };

  /// RAII span: opens on construction (child of the calling thread's open
  /// span, if any), closes on destruction. `name` must be a string literal.
  class Span {
   public:
    Span(Trace& trace, const char* name, uint64_t query);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Trace& trace_;
    size_t index_;
    int64_t saved_parent_;
  };

  /// Self time of every span named `name`, summed per query id, in
  /// milliseconds — one sample per query that ran the span. Self time is
  /// the span's duration minus the time its child spans cover.
  std::vector<double> SelfMsPerQuery(const std::string& name) const;

  /// Total duration (not self time) of spans named `name`, per query, ms.
  std::vector<double> TotalMsPerQuery(const std::string& name) const;

  /// Write every span as Chrome trace-event JSON; false on I/O failure.
  bool WriteChromeJson(const std::string& path) const;

  /// Cost of opening and closing one span, in ns: the median over several
  /// batches of nested spans recorded into a scratch trace. A query's
  /// tracing overhead is at most its span count times this, which stays
  /// measurable where an A/B of whole queries drowns in run-to-run noise.
  static double SpanCostNs();

 private:
  size_t Open(const char* name, uint64_t query, int64_t parent);
  void Close(size_t index);

  mutable radix::Mutex mu_;
  std::vector<SpanRecord> spans_ RADIX_GUARDED_BY(mu_);
};

}  // namespace radix_bench

#endif  // RADIX_BENCHMARK_TRACE_H_
