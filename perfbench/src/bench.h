// Shared pieces of the xqjg performance benchmark: arguments, the result
// report, sample statistics, corpus generation, and the columnar-lane
// selection every workload uses.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "checks.h"
#include "src/api/processor.h"
#include "src/common/status.h"
#include "src/common/value.h"
#include "src/engine/database.h"
#include "trace.h"

namespace perfbench {

inline double SecondsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Where the traced run writes its spans (empty: not written).
  std::string spans_path;
};

/// What one run prints as its result line.
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  /// Output-check failures (a non-empty list makes the run incorrect).
  std::vector<std::string> errors;
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics;

  void Error(std::string message) { errors.push_back(std::move(message)); }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

// ---- sample statistics ----------------------------------------------------

/// Nearest-rank quantile, q in (0, 1]. 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
/// Geometric mean of positive values (0 when empty).
double GeoMean(const std::vector<double>& values);

/// The highest of p50/p75/p90/p95/p99/p99.9 that leaves at least ten
/// samples beyond it, for `n` samples (0 when even p50 does not).
double TailPercentile(size_t n);

/// Maximum resident set size of this process so far, in MB.
double PeakRssMb();

// ---- inputs -----------------------------------------------------------------

/// A seed for one input of the run, derived from the run's --seed and a
/// per-input tag (splitmix64), so every input follows from --seed alone.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Small deterministic generator for variant draws and arrival times.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// The generated XMark and DBLP texts a workload loads. The documents are
/// the same for every --seed (the generators' own default seeds, as in the
/// repository's other benches): what a query costs depends strongly on the
/// data (Q2's fallback plan on how many auctions pass its price test), so
/// the seed varies what the workload sends, not what it reads.
struct Corpus {
  std::string auction;
  std::string dblp;
};
Corpus MakeCorpus(double xmark_scale, int dblp_publications);

// ---- the processor ----------------------------------------------------------

/// True while T has a `use_columnar` member.
template <typename T, typename = void>
struct HasUseColumnar : std::false_type {};
template <typename T>
struct HasUseColumnar<T, std::void_t<decltype(std::declval<T&>().use_columnar)>>
    : std::true_type {};

/// Selects the columnar executors. While the options carry the
/// `use_columnar` switch this sets it; once the columnar lane is the only
/// one and the switch is gone, there is nothing to select and this
/// compiles to nothing. The worker count (`threads`) is never touched.
template <typename T>
void SelectColumnarLane(T* options) {
  if constexpr (HasUseColumnar<T>::value) options->use_columnar = true;
}

/// The independent reference: the native engine over the whole-document
/// store, loaded with the same texts in a processor of its own.
class Reference {
 public:
  xqjg::Status Load(const std::string& uri, const std::string& text) {
    return processor_.LoadDocument(uri, text);
  }
  xqjg::Result<Items> Run(
      const std::string& text, const std::string& context_document,
      const std::map<std::string, xqjg::Value>& parameters = {}) const;

 private:
  xqjg::api::XQueryProcessor processor_;
};

/// Runs the front end of a join-graph Prepare stage by stage, each
/// through its layer's own entry point (xquery::Parse, Normalize,
/// compiler::CompileQuery, opt::Isolate, opt::ExtractJoinGraph,
/// sql::EmitJoinGraphSql, engine::PlanJoinGraph), one span per stage under
/// a "stages" span of `request`. Records the plan-shape counters and
/// returns the summed stage seconds.
xqjg::Result<double> RunStages(const std::string& text,
                               const std::string& context_document,
                               const xqjg::engine::Database& db,
                               Tracer* tracer, int64_t request);

/// Records the cross-check of one traced Prepare: the summed stage times
/// of its RunStages shadow over the `compile_seconds` it reported.
void RecordStageRatio(double stage_seconds, double compile_seconds,
                      Tracer* tracer, int64_t request);

/// What a workload measured around its timed window.
struct Window {
  /// Request latencies in ms, per statement or template.
  std::vector<std::vector<double>> latency_ms;
  int64_t completed = 0;
  double seconds = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  xqjg::api::PlanCache::Stats cache_before;
  xqjg::api::PlanCache::Stats cache_after;
  int64_t retained_storage_bytes = 0;
};

/// Adds the run's metrics: the end-to-end ones, or, when tracing is on,
/// the per-layer ones derived from the spans and counters (README.md
/// defines each).
void AddMetrics(const Window& window, const Tracer& tracer, Report* report);

// ---- workloads --------------------------------------------------------------

void RunPaperExec(const Args& args, Tracer* tracer, Report* report);
void RunAdhocPrepare(const Args& args, Tracer* tracer, Report* report);
void RunServedMix(const Args& args, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
