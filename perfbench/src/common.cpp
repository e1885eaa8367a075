#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "src/algebra/dag.h"
#include "src/compiler/compile.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"
#include "src/engine/planner.h"
#include "src/opt/isolate.h"
#include "src/opt/join_graph.h"
#include "src/sql/sqlgen.h"
#include "src/xquery/normalize.h"
#include "src/xquery/parser.h"

namespace perfbench {

using namespace xqjg;

// ---- Tracer -----------------------------------------------------------------

int64_t Tracer::NewRequest(const std::string& label) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  labels_.push_back(label);
  return static_cast<int64_t>(labels_.size()) - 1;
}

int64_t Tracer::Begin(const std::string& name, int64_t request,
                      int64_t parent) {
  if (!enabled_) return -1;
  const double now = Since(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

double Tracer::End(int64_t span) {
  if (!enabled_ || span < 0) return 0.0;
  const double now = Since(Clock::now());
  std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[static_cast<size_t>(span)];
  s.end_s = now;
  return s.end_s - s.start_s;
}

int64_t Tracer::Record(const std::string& name, int64_t request,
                       int64_t parent, Clock::time_point start,
                       Clock::time_point end) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, Since(start), Since(end), parent, request});
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Count(const std::string& name, int64_t request, double value) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(Counter{name, request, value});
}

std::map<std::string, std::vector<double>> Tracer::DurationsMsByLabel(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const Span& s : spans_) {
    if (s.name != name || s.request < 0) continue;
    out[labels_[static_cast<size_t>(s.request)]].push_back(
        (s.end_s - s.start_s) * 1e3);
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [label, values] : DurationsMsByLabel(name)) {
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::CountsByLabel(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const Counter& c : counters_) {
    if (c.name != name || c.request < 0) continue;
    out[labels_[static_cast<size_t>(c.request)]].push_back(c.value);
  }
  return out;
}

std::vector<double> Tracer::Counts(const std::string& name) const {
  std::vector<double> out;
  for (const auto& [label, values] : CountsByLabel(name)) {
    out.insert(out.end(), values.begin(), values.end());
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < labels_.size(); ++i) {
    std::fprintf(f, "{\"request\":%zu,\"label\":%s}\n", i,
                 JsonString(labels_[i]).c_str());
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":%s,\"start_s\":%.9f,\"end_s\":%.9f,"
                 "\"parent\":%lld,\"request\":%lld}\n",
                 i, JsonString(s.name).c_str(), s.start_s, s.end_s,
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.request));
  }
  for (const Counter& c : counters_) {
    std::fprintf(f, "{\"counter\":%s,\"request\":%lld,\"value\":%.17g}\n",
                 JsonString(c.name).c_str(),
                 static_cast<long long>(c.request), c.value);
  }
  return std::fclose(f) == 0;
}

// ---- statistics ---------------------------------------------------------------

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  size_t n = 0;
  for (double v : values) {
    if (v <= 0.0) continue;
    log_sum += std::log(v);
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

double TailPercentile(size_t n) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (static_cast<double>(n) * (100.0 - p) >= 1000.0) return p;
  }
  return 0.0;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss: KiB
}

// ---- inputs -------------------------------------------------------------------

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t Rng::Next() {
  state_ += 0x9E3779B97F4A7C15ULL;
  return DeriveSeed(state_, 0);
}

Corpus MakeCorpus(double xmark_scale, int dblp_publications) {
  data::XmarkOptions xmark;
  xmark.scale = xmark_scale;
  data::DblpOptions dblp;
  dblp.publications = dblp_publications;
  return Corpus{data::GenerateXmark(xmark), data::GenerateDblp(dblp)};
}

// ---- reference ------------------------------------------------------------------

Result<Items> Reference::Run(
    const std::string& text, const std::string& context_document,
    const std::map<std::string, Value>& parameters) const {
  api::PrepareOptions prepare;
  prepare.mode = api::Mode::kNativeWhole;
  prepare.context_document = context_document;
  XQJG_ASSIGN_OR_RETURN(auto prepared, processor_.Prepare(text, prepare));
  api::ExecuteOptions execute;
  execute.parameters = parameters;
  XQJG_ASSIGN_OR_RETURN(api::RunResult result,
                        processor_.ExecuteAll(prepared, execute));
  return std::move(result.items);
}

// ---- the front end, stage by stage ---------------------------------------------

Result<double> RunStages(const std::string& text,
                         const std::string& context_document,
                         const engine::Database& db, Tracer* tracer,
                         int64_t request) {
  SpanScope all(tracer, "stages", request);
  double sum = 0.0;
  // Runs one stage under its own span and adds its duration to `sum`.
  auto stage = [&](const char* name, auto&& fn) {
    const int64_t span = tracer->Begin(name, request, all.id());
    auto result = fn();
    sum += tracer->End(span);
    return result;
  };

  XQJG_ASSIGN_OR_RETURN(
      xquery::ExprPtr ast,
      stage("xquery.parse", [&] { return xquery::Parse(text); }));
  xquery::NormalizeOptions normalize;
  normalize.context_document = context_document;
  XQJG_ASSIGN_OR_RETURN(
      xquery::ExprPtr core, stage("xquery.normalize", [&] {
        return xquery::Normalize(ast, normalize);
      }));
  size_t ops_stacked = 0;
  XQJG_ASSIGN_OR_RETURN(
      algebra::OpPtr stacked, stage("compiler.compile", [&] {
        auto plan = compiler::CompileQuery(core);
        if (plan.ok()) ops_stacked = algebra::CountOps(plan.value());
        return plan;
      }));
  XQJG_ASSIGN_OR_RETURN(
      opt::IsolationResult iso,
      stage("opt.isolate", [&] { return opt::Isolate(stacked); }));
  auto graph = stage("opt.extract",
                     [&] { return opt::ExtractJoinGraph(iso.isolated); });
  int rule_applications = 0;
  for (const auto& [rule, count] : iso.rule_counts) rule_applications += count;
  tracer->Count("compiler.ops_stacked", request,
                static_cast<double>(ops_stacked));
  tracer->Count("opt.ops_isolated", request,
                static_cast<double>(iso.ops_after));
  tracer->Count("opt.rule_applications", request, rule_applications);
  tracer->Count("opt.fallback", request, graph.ok() ? 0 : 1);
  tracer->Count("opt.join_aliases", request,
                graph.ok() ? graph.value().num_aliases : 0);
  if (!graph.ok()) {
    // No join graph (residual blocking operators): Prepare ships the
    // isolated plan as a CTE chain instead and plans nothing.
    stage("sql.emit", [&] { return sql::EmitStackedCte(iso.isolated); });
    return sum;
  }
  stage("sql.emit", [&] { return sql::EmitJoinGraphSql(graph.value()); });
  XQJG_RETURN_NOT_OK(
      stage("engine.plan", [&] {
        return engine::PlanJoinGraph(graph.value(), db);
      }).status());
  return sum;
}

// ---- per-layer metrics ------------------------------------------------------------

namespace {

using ByLabel = std::map<std::string, std::vector<double>>;

double GeoMeanOfMedians(const ByLabel& by_label) {
  std::vector<double> medians;
  for (const auto& [label, values] : by_label) medians.push_back(Median(values));
  return GeoMean(medians);
}

double SumOfMedians(const ByLabel& by_label) {
  double sum = 0.0;
  for (const auto& [label, values] : by_label) sum += Median(values);
  return sum;
}

double LabelMedian(const ByLabel& by_label, const std::string& label) {
  auto it = by_label.find(label);
  return it == by_label.end() ? 0.0 : Median(it->second);
}

double Sum(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum;
}

double Mean(const std::vector<double>& values) {
  return values.empty() ? 0.0 : Sum(values) / static_cast<double>(values.size());
}

void AddLayerMetrics(const Tracer& t, Report* r) {
  const char* kStages[] = {"xquery.parse", "xquery.normalize",
                           "compiler.compile", "opt.isolate", "opt.extract",
                           "sql.emit", "engine.plan"};
  for (const char* stage : kStages) {
    r->Add(std::string(stage) + "_ms",
           GeoMeanOfMedians(t.DurationsMsByLabel(stage)), "ms");
  }
  r->Add("engine.plan_ms.Q3", LabelMedian(t.DurationsMsByLabel("engine.plan"), "Q3"),
         "ms");
  for (const char* count : {"compiler.ops_stacked", "opt.ops_isolated",
                            "opt.rule_applications", "opt.join_aliases"}) {
    r->Add(count, SumOfMedians(t.CountsByLabel(count)), "count");
  }
  r->Add("opt.fallback_statements", SumOfMedians(t.CountsByLabel("opt.fallback")),
         "count");
  const ByLabel prepare = t.DurationsMsByLabel("api.prepare");
  r->Add("api.prepare_ms", GeoMeanOfMedians(prepare), "ms");
  r->Add("api.prepare_ms.Q3", LabelMedian(prepare, "Q3"), "ms");
  // Cross-check of two independent paths: the stages timed one by one
  // must add up to what Prepare reports as compile_seconds.
  constexpr double kStageSumBound = 0.25;
  const double ratio = Median(t.Counts("api.stage_sum_ratio"));
  if (std::abs(ratio - 1.0) > kStageSumBound) {
    r->Error("stage times sum to " + std::to_string(ratio) +
             " x compile_seconds, outside 1 +- " + std::to_string(kStageSumBound));
  }
  r->Add("api.stage_sum_ratio", ratio, "ratio");

  const ByLabel execute = t.DurationsMsByLabel("engine.execute");
  r->Add("engine.execute_ms", GeoMeanOfMedians(execute), "ms");
  r->Add("engine.execute_ms.Q1", LabelMedian(execute, "Q1"), "ms");
  r->Add("engine.tuples_materialized",
         Mean(t.Counts("engine.tuples_materialized")), "count");
  r->Add("engine.spill_bytes", Mean(t.Counts("engine.spill_bytes")), "bytes");
  const ByLabel serialize = t.DurationsMsByLabel("xml.serialize");
  r->Add("xml.serialize_ms", GeoMeanOfMedians(serialize), "ms");
  r->Add("xml.serialize_ms.Q1", LabelMedian(serialize, "Q1"), "ms");
  r->Add("xml.load_ms", Sum(t.DurationsMs("xml.load")), "ms");
  r->Add("engine.index_build_ms", Sum(t.DurationsMs("engine.index_build")),
         "ms");

  r->Add("server.round_trip_ms", Median(t.Counts("server.round_trip_ms")),
         "ms");
  r->Add("server.stale_reprepares", Sum(t.Counts("server.stale_reprepare")),
         "count");
  r->Add("server.reconnects",
         static_cast<double>(t.DurationsMs("server.reconnect").size()), "count");
  r->Add("server.reload_ms", Median(t.DurationsMs("server.reload")), "ms");
  r->Add("server.reindex_ms", Median(t.DurationsMs("server.reindex")), "ms");
  const std::vector<double> waiting = t.Counts("server.admission_waiting");
  r->Add("server.admission_waiting",
         waiting.empty() ? 0.0 : *std::max_element(waiting.begin(), waiting.end()),
         "count");
  r->Add("load.generator_lag_ms", Mean(t.Counts("load.generator_lag_ms")),
         "ms");
  r->Add("trace.query_geomean_ms",
         GeoMeanOfMedians(t.DurationsMsByLabel("request")), "ms");
  r->Add("trace.spans", static_cast<double>(t.span_count()), "count");
}

}  // namespace

void RecordStageRatio(double stage_seconds, double compile_seconds,
                      Tracer* tracer, int64_t request) {
  if (compile_seconds > 0.0) {
    tracer->Count("api.stage_sum_ratio", request, stage_seconds / compile_seconds);
  }
}

void AddMetrics(const Window& w, const Tracer& t, Report* r) {
  const double throughput = static_cast<double>(w.completed) / w.seconds;
  if (t.enabled()) {
    AddLayerMetrics(t, r);
    r->Add("api.plan_cache_hits",
           static_cast<double>(w.cache_after.hits - w.cache_before.hits), "count");
    r->Add("api.plan_cache_misses",
           static_cast<double>(w.cache_after.misses - w.cache_before.misses),
           "count");
    r->Add("api.plan_cache_invalidations",
           static_cast<double>(w.cache_after.invalidations -
                               w.cache_before.invalidations),
           "count");
    r->Add("xml.retained_storage_bytes",
           static_cast<double>(w.retained_storage_bytes), "bytes");
    r->Add("trace.throughput_qps", throughput, "requests/s");
    return;
  }
  std::vector<double> all, medians;
  for (const std::vector<double>& per_statement : w.latency_ms) {
    if (per_statement.empty()) continue;
    all.insert(all.end(), per_statement.begin(), per_statement.end());
    medians.push_back(Median(per_statement));
  }
  const double tail = TailPercentile(all.size());
  std::fprintf(stderr, "samples=%zu tail=p%g\n", all.size(), tail);
  r->Add("setup_s", w.setup_s, "s");
  r->Add("throughput_qps", throughput, "requests/s");
  r->Add("query_geomean_ms", GeoMean(medians), "ms");
  r->Add("latency_p50_ms", Median(all), "ms");
  r->Add("latency_tail_ms", Quantile(all, tail / 100.0), "ms");
  r->Add("peak_rss_mb", w.peak_rss_mb, "MB");
}

}  // namespace perfbench
