// The embedded workloads: one closed-loop thread calling XQueryProcessor
// directly.
//
//   paper_exec     Q1–Q6 verbatim, prepared once in join-graph mode during
//                  set-up, then executed and drained round after round
//                  (Table IX as users run it, with cached plans).
//   adhoc_prepare  every request is a literal variant of a Q1–Q6 template
//                  that no earlier request of the run used, so each one
//                  pays a plan-cache miss: Prepare, Execute, drain.
#include <cstdio>
#include <memory>

#include "bench.h"
#include "src/api/paper_queries.h"
#include "src/common/str.h"
#include "src/data/xmark.h"

namespace perfbench {

using namespace xqjg;

namespace {

// Corpus sizes. Q2's fallback plan grows quadratically with the data and
// sets paper_exec's throughput at either size; at XMark 0.5 its ~200 MB of
// intermediates per execution made the run follow this machine's memory
// contention (spread 0.2-0.27 over ten seeds), so both embedded workloads
// use the smaller corpus, where the front end dominates every adhoc request.
constexpr double kPaperXmarkScale = 0.25;
constexpr int kPaperDblpPublications = 2000;
constexpr double kAdhocXmarkScale = 0.25;
constexpr int kAdhocDblpPublications = 2000;

const std::string kAuction = "auction.xml";
const std::string kDblp = "dblp.xml";

/// Executes a prepared statement the way an embedded caller does: Execute,
/// Prime (the plan runs), then drain the cursor. Spans go under `parent`.
Result<Items> ExecuteAndDrain(const api::XQueryProcessor& processor,
                              std::shared_ptr<const api::PreparedQuery> prepared,
                              Tracer* t, int64_t request, int64_t parent) {
  api::ExecuteOptions options;
  SelectColumnarLane(&options);
  int64_t span = t->Begin("api.execute", request, parent);
  XQJG_ASSIGN_OR_RETURN(std::unique_ptr<api::ResultCursor> cursor,
                        processor.Execute(std::move(prepared), options));
  const double execute_call_s = t->End(span);
  span = t->Begin("engine.execute", request, parent);
  XQJG_RETURN_NOT_OK(cursor->Prime());
  t->End(span);
  span = t->Begin("xml.serialize", request, parent);
  XQJG_ASSIGN_OR_RETURN(Items items, cursor->FetchAll());
  t->End(span);
  if (t->enabled()) {
    const engine::ExecStats& stats = cursor->stats().engine;
    t->Count("engine.tuples_materialized", request,
             static_cast<double>(stats.tuples_materialized));
    t->Count("engine.spill_bytes", request,
             static_cast<double>(stats.spill_bytes));
    // In-process there is no wire: what a request spends outside the
    // plan run and the serialization is the Execute call itself.
    t->Count("server.round_trip_ms", request, execute_call_s * 1e3);
  }
  return items;
}

/// Loads the corpus and creates the Table VI indexes, with spans.
Status LoadCorpus(api::XQueryProcessor* processor, const Corpus& corpus,
                  Tracer* t, int64_t request) {
  for (const auto& [uri, text] :
       {std::pair{kAuction, &corpus.auction}, std::pair{kDblp, &corpus.dblp}}) {
    SpanScope span(t, "xml.load", request);
    XQJG_RETURN_NOT_OK(processor->LoadDocument(uri, *text));
  }
  SpanScope span(t, "engine.index_build", request);
  return processor->CreateRelationalIndexes();
}

/// The catalog writes the served writer makes, once after the window on
/// this workload's corpus: reload a document (same text) and re-create the
/// indexes. Traced runs only.
void ProbeCatalogWrites(api::XQueryProcessor* processor, const Corpus& corpus,
                        Tracer* t, Report* report) {
  const int64_t request = t->NewRequest("writer");
  {
    SpanScope span(t, "server.reload", request);
    const Status s = processor->LoadDocument(kDblp, corpus.dblp);
    if (!s.ok()) report->Error("reload: " + s.ToString());
  }
  SpanScope span(t, "server.reindex", request);
  const Status s = processor->CreateRelationalIndexes();
  if (!s.ok()) report->Error("reindex: " + s.ToString());
}

}  // namespace

// ---- paper_exec ------------------------------------------------------------

void RunPaperExec(const Args& args, Tracer* t, Report* report) {
  const Corpus corpus =
      MakeCorpus(kPaperXmarkScale, kPaperDblpPublications);
  const std::vector<api::PaperQuery>& queries = api::PaperQueries();
  api::XQueryProcessor processor;

  // Set-up: loads, indexes, and the six Prepares.
  const Clock::time_point setup_start = Clock::now();
  const int64_t setup = t->NewRequest("setup");
  Status s = LoadCorpus(&processor, corpus, t, setup);
  if (!s.ok()) return report->Error("load: " + s.ToString());
  std::vector<std::shared_ptr<const api::PreparedQuery>> prepared;
  for (const api::PaperQuery& q : queries) {
    const int64_t request = t->NewRequest(q.id);
    double stage_seconds = 0.0;
    if (t->enabled()) {
      auto stages = RunStages(q.text, q.document, *processor.database(), t,
                              request);
      if (!stages.ok()) return report->Error(q.id + ": " + stages.status().ToString());
      stage_seconds = stages.value();
    }
    api::PrepareOptions options;
    options.context_document = q.document;
    SpanScope span(t, "api.prepare", request);
    auto pq = processor.Prepare(q.text, options);
    if (!pq.ok()) return report->Error(q.id + ": " + pq.status().ToString());
    if (t->enabled()) {
      RecordStageRatio(stage_seconds, pq.value()->compile_seconds, t, request);
    }
    prepared.push_back(std::move(pq).value());
  }
  const double setup_s = SecondsBetween(setup_start, Clock::now());

  // Window: whole rounds of Q1..Q6, each round in a seeded order, until
  // the time is up.
  Window window;
  window.setup_s = setup_s;
  window.cache_before = processor.plan_cache_stats();
  std::vector<std::vector<double>>& latency_ms = window.latency_ms;
  latency_ms.resize(queries.size());
  std::vector<Items> first(queries.size());
  const Clock::time_point window_start = Clock::now();
  const Clock::time_point deadline =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  Clock::time_point last_end = window_start;
  Rng order_rng(DeriveSeed(args.seed, 1));
  std::vector<size_t> order(queries.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  do {
    for (size_t j = order.size(); j > 1; --j) {
      std::swap(order[j - 1], order[order_rng.Below(j)]);
    }
    for (const size_t i : order) {
      const Clock::time_point start = Clock::now();
      const int64_t request = t->NewRequest(queries[i].id);
      t->Count("load.generator_lag_ms", request,
               SecondsBetween(last_end, start) * 1e3);
      const int64_t root = t->Begin("request", request);
      auto items = ExecuteAndDrain(processor, prepared[i], t, request, root);
      t->End(root);
      const Clock::time_point end = Clock::now();
      ++report->attempted;
      if (!items.ok()) {
        ++report->failed;
        std::fprintf(stderr, "%s failed: %s\n", queries[i].id.c_str(),
                     items.status().ToString().c_str());
      } else {
        ++window.completed;
        latency_ms[i].push_back(SecondsBetween(start, end) * 1e3);
        // Every execution must return what the first one did; the first is
        // checked against the reference after the window.
        if (latency_ms[i].size() == 1) {
          first[i] = std::move(items).value();
        } else if (std::string diff = CompareItems(items.value(), first[i]);
                   !diff.empty()) {
          report->Error(queries[i].id + " changed between executions: " + diff);
        }
      }
      last_end = Clock::now();
    }
  } while (Clock::now() < deadline);
  window.seconds = SecondsBetween(window_start, Clock::now());
  window.peak_rss_mb = PeakRssMb();
  window.cache_after = processor.plan_cache_stats();
  window.retained_storage_bytes = processor.snapshot()->RetainedStorageBytes();
  if (t->enabled()) ProbeCatalogWrites(&processor, corpus, t, report);

  // Checks against the native engine and the generated text.
  Reference reference;
  for (const auto& [uri, text] : {std::pair{kAuction, &corpus.auction},
                                  std::pair{kDblp, &corpus.dblp}}) {
    s = reference.Load(uri, *text);
    if (!s.ok()) return report->Error("reference load: " + s.ToString());
  }
  const TextFacts facts{ClosedAuctionPrices(corpus.auction),
                        PhdthesisYears(corpus.dblp), &corpus.auction};
  // The literals Q3, Q4 and Q6 carry verbatim.
  const std::map<std::string, std::string> literals = {
      {"Q3", "person0"}, {"Q4", ""}, {"Q6", "1994"}};
  for (size_t i = 0; i < queries.size(); ++i) {
    if (latency_ms[i].empty()) continue;
    auto want = reference.Run(queries[i].text, queries[i].document);
    if (!want.ok()) {
      report->Error(queries[i].id + " reference: " + want.status().ToString());
      continue;
    }
    if (std::string diff = CompareItems(first[i], want.value()); !diff.empty()) {
      report->Error(queries[i].id + " vs native: " + diff);
    }
    auto literal = literals.find(queries[i].id);
    if (literal != literals.end()) {
      if (std::string diff = CheckDerivedCount(facts, queries[i].id,
                                               literal->second, first[i]);
          !diff.empty()) {
        report->Error(queries[i].id + ": " + diff);
      }
    }
  }

  AddMetrics(window, *t, report);
}

// ---- adhoc_prepare -----------------------------------------------------------

namespace {

/// The element names the XMark generator writes (Q1's variant space).
const char* const kXmarkElements[] = {
    "site",          "regions",        "africa",       "asia",
    "europe",        "namerica",       "item",         "location",
    "name",          "payment",        "description",  "text",
    "incategory",    "quantity",       "categories",   "category",
    "people",        "person",         "emailaddress", "phone",
    "open_auctions", "open_auction",   "initial",      "bidder",
    "time",          "personref",      "increase",     "itemref",
    "seller",        "current",        "closed_auctions", "closed_auction",
    "buyer",         "price",          "date"};
constexpr int64_t kNumXmarkElements =
    sizeof(kXmarkElements) / sizeof(kXmarkElements[0]);

/// A template of Q1–Q6 whose literal varies from request to request.
struct Template {
  std::string id;
  std::string document;
  /// Size of the variant pool drawn in seeded order; variants past it
  /// continue with literals outside the pool.
  int64_t pool;
  /// The literal of pool entry `i` (or of the `i - pool`-th extra one).
  std::string (*literal)(int64_t i, int64_t pool);
  /// The query text for a literal.
  std::string (*text)(const std::string& literal);
};

std::string Q1Literal(int64_t i, int64_t) {
  // Ordered pairs of distinct element names; the pool is all of them.
  const int64_t n = kNumXmarkElements;
  const int64_t pair = i % (n * (n - 1));
  const int64_t a = pair / (n - 1);
  int64_t b = pair % (n - 1);
  if (b >= a) ++b;
  return std::string(kXmarkElements[a]) + "[" + kXmarkElements[b] + "]";
}
std::string Q1Text(const std::string& literal) {
  return "doc(\"auction.xml\")/descendant::" + literal;
}
std::string Q2Literal(int64_t i, int64_t) {
  // Near the paper's 500, so every variant joins about as many auctions.
  return StrPrintf("%.2f", 450.0 + 0.01 * static_cast<double>(i));
}
std::string Q2Text(const std::string& literal) {
  return "let $a := doc(\"auction.xml\") "
         "for $ca in $a//closed_auction[price > " + literal + "], "
         "    $i in $a//item, "
         "    $c in $a//category "
         "where $ca/itemref/@item = $i/@id "
         "  and $i/incategory/@category = $c/@id "
         "return $c/name";
}
std::string Q3Literal(int64_t i, int64_t) { return StrPrintf("person%lld", static_cast<long long>(i)); }
std::string Q3Text(const std::string& literal) {
  return "/site/people/person[@id = \"" + literal + "\"]/name/text()";
}
std::string Q4Literal(int64_t i, int64_t) {
  return StrPrintf("%.2f", 0.01 * static_cast<double>(i));
}
std::string Q4Text(const std::string& literal) {
  return "//closed_auction[price > " + literal + "]/price/text()";
}
std::string Q5Literal(int64_t i, int64_t pool) {
  // conf/vldb<year> and conf/vldb<year>/p for 1900..2099, then later years.
  if (i >= pool) return StrPrintf("conf/vldb%lld", static_cast<long long>(2100 + i - pool));
  return StrPrintf("conf/vldb%lld%s", static_cast<long long>(1900 + i / 2),
                   i % 2 ? "/p" : "");
}
std::string Q5Text(const std::string& literal) {
  return "/dblp/*[@key = \"" + literal + "\" and editor and title]/title";
}
std::string Q6Literal(int64_t i, int64_t) {
  return StrPrintf("%lld", static_cast<long long>(1900 + i));
}
std::string Q6Text(const std::string& literal) {
  return "for $thesis in /dblp/phdthesis[year < \"" + literal +
         "\" and author and title] return $thesis/title";
}

int64_t Gcd(int64_t a, int64_t b) { return b == 0 ? a : Gcd(b, a % b); }

/// The k-th variant index of a seeded order over [0, pool), continuing
/// with pool, pool + 1, ... once the pool is used up.
int64_t VariantIndex(int64_t k, int64_t pool, uint64_t seed) {
  if (k >= pool) return k;
  Rng rng(seed);
  int64_t step = 1 + static_cast<int64_t>(rng.Below(static_cast<uint64_t>(pool)));
  while (Gcd(step, pool) != 1) step = step % pool + 1;
  const int64_t offset = static_cast<int64_t>(rng.Below(static_cast<uint64_t>(pool)));
  return (offset + step * k) % pool;
}

struct AdhocRequest {
  size_t template_index;
  std::string literal;
  Items items;
};

}  // namespace

void RunAdhocPrepare(const Args& args, Tracer* t, Report* report) {
  const Corpus corpus =
      MakeCorpus(kAdhocXmarkScale, kAdhocDblpPublications);
  data::XmarkOptions xmark_shape;
  xmark_shape.scale = kAdhocXmarkScale;
  const std::vector<Template> templates = {
      {"Q1", kAuction, kNumXmarkElements * (kNumXmarkElements - 1), Q1Literal, Q1Text},
      {"Q2", kAuction, 10000, Q2Literal, Q2Text},
      // Existing person ids first, absent ones after.
      {"Q3", kAuction, xmark_shape.people(), Q3Literal, Q3Text},
      {"Q4", kAuction, 200000, Q4Literal, Q4Text},
      {"Q5", kDblp, 400, Q5Literal, Q5Text},
      {"Q6", kDblp, 200, Q6Literal, Q6Text},
  };
  api::XQueryProcessor processor;

  const Clock::time_point setup_start = Clock::now();
  const int64_t setup = t->NewRequest("setup");
  Status s = LoadCorpus(&processor, corpus, t, setup);
  if (!s.ok()) return report->Error("load: " + s.ToString());
  const double setup_s = SecondsBetween(setup_start, Clock::now());

  Window window;
  window.setup_s = setup_s;
  window.cache_before = processor.plan_cache_stats();
  std::vector<std::vector<double>>& latency_ms = window.latency_ms;
  latency_ms.resize(templates.size());
  std::vector<AdhocRequest> done;
  const Clock::time_point window_start = Clock::now();
  const Clock::time_point deadline =
      window_start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  Clock::time_point last_end = window_start;
  for (int64_t round = 0; Clock::now() < deadline; ++round) {
    for (size_t i = 0; i < templates.size(); ++i) {
      const Template& tpl = templates[i];
      const std::string literal = tpl.literal(
          VariantIndex(round, tpl.pool, DeriveSeed(args.seed, 100 + i)), tpl.pool);
      const std::string text = tpl.text(literal);
      const int64_t request = t->NewRequest(tpl.id);
      t->Count("load.generator_lag_ms", request,
               SecondsBetween(last_end, Clock::now()) * 1e3);
      double stage_seconds = 0.0;
      if (t->enabled()) {
        auto stages =
            RunStages(text, tpl.document, *processor.database(), t, request);
        if (stages.ok()) stage_seconds = stages.value();
      }
      const Clock::time_point start = Clock::now();
      const int64_t root = t->Begin("request", request);
      api::PrepareOptions options;
      options.context_document = tpl.document;
      const int64_t prepare_span = t->Begin("api.prepare", request, root);
      auto prepared = processor.Prepare(text, options);
      t->End(prepare_span);
      Result<Items> items = prepared.status();
      if (prepared.ok()) {
        if (t->enabled()) {
          RecordStageRatio(stage_seconds, prepared.value()->compile_seconds, t,
                           request);
        }
        items = ExecuteAndDrain(processor, prepared.value(), t, request, root);
      }
      t->End(root);
      const Clock::time_point end = Clock::now();
      ++report->attempted;
      if (!items.ok()) {
        ++report->failed;
        std::fprintf(stderr, "%s failed: %s\n", text.c_str(),
                     items.status().ToString().c_str());
      } else {
        ++window.completed;
        latency_ms[i].push_back(SecondsBetween(start, end) * 1e3);
        done.push_back({i, literal, std::move(items).value()});
      }
      last_end = Clock::now();
    }
  }
  window.seconds = SecondsBetween(window_start, Clock::now());
  window.peak_rss_mb = PeakRssMb();
  window.cache_after = processor.plan_cache_stats();
  window.retained_storage_bytes = processor.snapshot()->RetainedStorageBytes();
  if (t->enabled()) ProbeCatalogWrites(&processor, corpus, t, report);

  Reference reference;
  for (const auto& [uri, text] : {std::pair{kAuction, &corpus.auction},
                                  std::pair{kDblp, &corpus.dblp}}) {
    s = reference.Load(uri, *text);
    if (!s.ok()) return report->Error("reference load: " + s.ToString());
  }
  const TextFacts facts{ClosedAuctionPrices(corpus.auction),
                        PhdthesisYears(corpus.dblp), &corpus.auction};
  for (const AdhocRequest& r : done) {
    const Template& tpl = templates[r.template_index];
    const std::string text = tpl.text(r.literal);
    auto want = reference.Run(text, tpl.document);
    if (!want.ok()) {
      report->Error(text + " reference: " + want.status().ToString());
      continue;
    }
    if (std::string diff = CompareItems(r.items, want.value()); !diff.empty()) {
      report->Error(text + " vs native: " + diff);
    }
    if (std::string diff = CheckDerivedCount(facts, tpl.id, r.literal, r.items);
        !diff.empty()) {
      report->Error(text + ": " + diff);
    }
  }

  AddMetrics(window, *t, report);
}

}  // namespace perfbench
