// radix_bench: runs one benchmark workload in this process and prints one
// JSON line with its metrics. benchmark/run.py builds and drives it; see
// benchmark/README.md.
//
//   radix_bench --workload q8m_mat|q8m_stream|chain_1m|serve_mix
//               [--seed N] [--seconds S] [--trace 0|1] [--trace-out PATH]
//
// Exit status 0 when every result matched its reference, 1 otherwise, 2 on
// a usage error.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"
#include "common/cpu_dispatch.h"
#include "hardware/memory_hierarchy.h"
#include "trace.h"

namespace {

using radix_bench::Args;
using radix_bench::Result;

int Usage(const char* msg) {
  std::fprintf(stderr,
               "radix_bench: %s\nusage: radix_bench --workload "
               "q8m_mat|q8m_stream|chain_1m|serve_mix [--seed N] "
               "[--seconds S] [--trace 0|1] [--trace-out PATH]\n",
               msg);
  return 2;
}

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

void PrintJson(const Args& args, const Result& r) {
  std::printf("{\"workload\":\"%s\",\"seed\":%llu,\"trace\":%s,"
              "\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
              "\"metrics\":{",
              Escape(args.workload).c_str(),
              static_cast<unsigned long long>(args.seed),
              args.trace ? "true" : "false", r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  for (size_t i = 0; i < r.metrics.size(); ++i) {
    const radix_bench::Metric& m = r.metrics[i];
    // A non-finite value (a ratio over a zero-time span) prints as null.
    char value[64];
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    } else {
      std::snprintf(value, sizeof(value), "null");
    }
    std::printf("%s\"%s\":{\"value\":%s,\"unit\":\"%s\"}", i == 0 ? "" : ",",
                Escape(m.name).c_str(), value, Escape(m.unit).c_str());
  }
  std::printf("},\"context\":{\"num_cpus\":\"%u\",\"isa\":\"%s\","
              "\"detected_hierarchy\":\"%s\"",
              std::thread::hardware_concurrency(),
              radix::cpu::IsaName(radix::cpu::ActiveIsa()),
              Escape(radix_bench::HierarchySummary(
                         radix::hardware::MemoryHierarchy::Detect()))
                  .c_str());
  for (const auto& [key, value] : r.context) {
    std::printf(",\"%s\":\"%s\"", Escape(key).c_str(), Escape(value).c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(args.seconds > 0 && args.seconds <= 600)) {
    return Usage("--seconds must be in (0, 600]");
  }

  radix_bench::Trace trace;
  radix_bench::Trace* tr = args.trace ? &trace : nullptr;
  Result r;
  if (args.workload == "q8m_mat") {
    r = radix_bench::RunQ8m(args, /*streaming=*/false, tr);
  } else if (args.workload == "q8m_stream") {
    r = radix_bench::RunQ8m(args, /*streaming=*/true, tr);
  } else if (args.workload == "chain_1m") {
    r = radix_bench::RunChain(args, tr);
  } else if (args.workload == "serve_mix") {
    r = radix_bench::RunServe(args, tr);
  } else {
    return Usage(("unknown workload '" + args.workload + "'").c_str());
  }
  if (tr != nullptr) {
    r.Add("trace.span_ns", radix_bench::Trace::SpanCostNs(), "ns");
  }
  if (tr != nullptr && !args.trace_out.empty() &&
      !trace.WriteChromeJson(args.trace_out)) {
    std::fprintf(stderr, "radix_bench: cannot write %s\n",
                 args.trace_out.c_str());
    r.correct = false;
  }
  PrintJson(args, r);
  return r.correct && r.failed == 0 ? 0 : 1;
}
