// xqjg_perfbench — one benchmark program for the processor.
//
//   xqjg_perfbench --workload <paper_exec|adhoc_prepare|served_mix>
//                  --seed <n> --seconds <s> --trace <0|1> [--spans <path>]
//
// Runs one workload for --seconds, checks every result against the native
// engine and against counts derived from the generated text, and prints
// one JSON line last: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end ones; with --trace 1 the run is
// traced and the metrics are the per-layer ones derived from its spans,
// which are written to --spans at exit. README.md defines every metric.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (flag == "--spans") {
      args->spans_path = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <paper_exec|adhoc_prepare|served_mix> "
                 "--seed <n> --seconds <s> --trace <0|1> [--spans <path>]\n",
                 argv[0]);
    return 2;
  }
#ifndef NDEBUG
  std::fprintf(stderr, "refusing to measure an unoptimized build (NDEBUG unset: "
                       "Prepare would also run the plan verifier)\n");
  return 2;
#endif
  // Prepare must not run the plan verifier: it would be measured too.
  unsetenv("XQJG_VALIDATE_PLANS");

  perfbench::Tracer tracer(args.trace);
  perfbench::Report report;
  if (args.workload == "paper_exec") {
    perfbench::RunPaperExec(args, &tracer, &report);
  } else if (args.workload == "adhoc_prepare") {
    perfbench::RunAdhocPrepare(args, &tracer, &report);
  } else if (args.workload == "served_mix") {
    perfbench::RunServedMix(args, &tracer, &report);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (args.trace && !args.spans_path.empty() &&
      !tracer.Write(args.spans_path)) {
    std::fprintf(stderr, "cannot write spans to %s\n", args.spans_path.c_str());
    return 1;
  }

  for (size_t i = 0; i < report.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", report.errors[i].c_str());
  }
  std::string metrics;
  for (const auto& m : report.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.errors.empty() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  return report.attempted > 0 ? 0 : 1;
}
