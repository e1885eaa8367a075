// The served workload: QueryServer on loopback, driven open-loop.
//
// Readers (at most three connections) take arrivals from one seeded
// Poisson schedule and send the cheap paper statements (Q1, Q3–Q6) and a
// parameterized $minprice statement over small side documents, chosen by
// zipf popularity with seeded bindings. A writer on one more connection
// reloads the hot side document on a fixed schedule, alternating two
// pre-generated versions, and re-creates the indexes after each reload.
// Readers follow the remedies the server hands out: a stale statement is
// re-PREPAREd and re-EXECUTEd within the same request; a statement-quota
// error is answered by reconnecting and preparing again. Latency is timed
// from each request's scheduled arrival.
//
// Q2 stays out of the mix: it falls back to a quadratic plan that admits
// as heavy (one slot), so it would turn this workload into a measure of
// heavy-queue shedding; paper_exec and adhoc_prepare measure it.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "bench.h"
#include "src/api/paper_queries.h"
#include "src/data/xmark.h"
#include "src/server/client.h"
#include "src/server/server.h"

namespace perfbench {

using namespace xqjg;

namespace {

constexpr double kMainXmarkScale = 0.25;
constexpr int kDblpPublications = 2000;
constexpr double kSideXmarkScale = 0.05;
constexpr int kSideDocs = 4;
/// Arrivals per second. Nothing is shed at this rate (see README.md).
constexpr double kArrivalRate = 100.0;
/// The writer reloads doc_0 every this many seconds, first at half of it.
constexpr double kWriterPeriod = 2.0;
constexpr int kMaxReaders = 3;
/// Stale rejections one request answers before it counts as failed.
constexpr int kMaxAttempts = 8;
const double kMinprices[] = {0, 20, 40, 60, 80, 100, 500, 1000};
constexpr int kNumMinprices = sizeof(kMinprices) / sizeof(kMinprices[0]);
const char kMinpriceQuery[] =
    "declare variable $minprice as xs:decimal external; "
    "//closed_auction[price > $minprice]/price/text()";
constexpr uint8_t kJoinGraphMode = 1;

std::string SideDoc(int k) { return "doc_" + std::to_string(k) + ".xml"; }

struct Statement {
  std::string label;  ///< Q1..Q6, or "minprice"
  std::string text;
  std::string document;
  int side_doc = -1;  ///< for the minprice statement
};

struct Arrival {
  double at_s;     ///< due time, seconds after the window starts
  int statement;   ///< index into the statement list
  int minprice;    ///< index into kMinprices (minprice statements only)
};

bool IsStale(const Status& s) {
  return s.message().find("stale PreparedQuery") != std::string::npos;
}
bool IsStatementQuota(const Status& s) {
  return s.message().find("statement quota") != std::string::npos;
}

/// The arrival schedule: a Poisson process with kArrivalRate, conditioned
/// on its count (rate x seconds arrivals at sorted uniform times), so every
/// seed offers the same number of requests. Half go to the paper
/// statements (uniform), half to the minprice statement with zipf
/// popularity over the side documents and a uniform binding.
std::vector<Arrival> MakeSchedule(int first_minprice, double seconds,
                                  uint64_t seed) {
  Rng rng(seed);
  const size_t n = static_cast<size_t>(std::llround(kArrivalRate * seconds));
  std::vector<Arrival> arrivals(n);
  double zipf_total = 0.0;
  for (int k = 0; k < kSideDocs; ++k) zipf_total += 1.0 / (k + 1);
  for (Arrival& a : arrivals) {
    a.at_s = rng.Unit() * seconds;
    a.minprice = 0;
    if (rng.Below(2) == 0) {
      a.statement = static_cast<int>(rng.Below(static_cast<uint64_t>(first_minprice)));
    } else {
      double u = rng.Unit() * zipf_total;
      int k = 0;
      while (k + 1 < kSideDocs && u >= 1.0 / (k + 1)) u -= 1.0 / (++k);
      a.statement = first_minprice + k;
      a.minprice = static_cast<int>(rng.Below(kNumMinprices));
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& x, const Arrival& y) { return x.at_s < y.at_s; });
  return arrivals;
}

/// One reader connection and the statement ids it holds.
class Reader {
 public:
  Reader(int port, const std::vector<Statement>* statements, Tracer* t)
      : port_(port), statements_(statements), t_(t),
        ids_(statements->size(), -1) {}

  Status Connect() {
    auto client = server::Client::Connect("127.0.0.1", port_);
    if (!client.ok()) return client.status();
    client_ = std::move(client).value();
    std::fill(ids_.begin(), ids_.end(), -1);
    return Status::OK();
  }

  /// PREPAREs statement `i` on this session unless it holds an id for it.
  /// A statement-quota error is answered by reconnecting and preparing
  /// again on the new session.
  Result<uint32_t> Prepared(int i, int64_t request, int64_t parent) {
    if (ids_[static_cast<size_t>(i)] >= 0) {
      return static_cast<uint32_t>(ids_[static_cast<size_t>(i)]);
    }
    const Statement& st = (*statements_)[static_cast<size_t>(i)];
    for (int attempt = 0; attempt < 2; ++attempt) {
      const int64_t span = t_->Begin("api.prepare", request, parent);
      auto prepared = client_->Prepare(st.text, kJoinGraphMode, st.document);
      t_->End(span);
      if (prepared.ok()) {
        ids_[static_cast<size_t>(i)] = prepared.value().statement_id;
        return prepared.value().statement_id;
      }
      if (!IsStatementQuota(prepared.status())) return prepared.status();
      ++reconnects;
      SpanScope reconnect(t_, "server.reconnect", request, parent);
      XQJG_RETURN_NOT_OK(Connect());
    }
    return Status::Internal("statement quota reached on a fresh session");
  }

  /// One request: EXECUTE (re-PREPARE and retry while the server answers
  /// stale), then drain the cursor.
  Result<Items> Run(const Arrival& a, int64_t request, int64_t parent) {
    const Statement& st = (*statements_)[static_cast<size_t>(a.statement)];
    std::map<std::string, Value> params;
    if (st.side_doc >= 0) params["minprice"] = Value::Double(kMinprices[a.minprice]);
    for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
      XQJG_ASSIGN_OR_RETURN(uint32_t id, Prepared(a.statement, request, parent));
      const Clock::time_point sent = Clock::now();
      const int64_t span = t_->Begin("server.execute", request, parent);
      auto executed = client_->Execute(id, params);
      t_->End(span);
      const Clock::time_point received = Clock::now();
      if (!executed.ok()) {
        if (!IsStale(executed.status())) return executed.status();
        ++stale_reprepares;
        t_->Count("server.stale_reprepare", request, 1);
        ids_[static_cast<size_t>(a.statement)] = -1;
        continue;
      }
      if (t_->enabled()) {
        // The server reports how long the plan ran inside the round trip.
        const auto engine = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(executed.value().execute_seconds));
        t_->Record("engine.execute", request, span, received - engine, received);
        t_->Count("server.round_trip_ms", request,
                  (SecondsBetween(sent, received) -
                   executed.value().execute_seconds) * 1e3);
      }
      SpanScope fetch(t_, "xml.serialize", request, parent);
      return client_->FetchAll(executed.value().cursor_id);
    }
    return Status::Internal("still stale after " +
                            std::to_string(kMaxAttempts) + " re-prepares");
  }

  void Close() {
    if (client_) (void)client_->Goodbye();
    client_.reset();
  }

  int64_t stale_reprepares = 0;
  int64_t reconnects = 0;

 private:
  const int port_;
  const std::vector<Statement>* const statements_;
  Tracer* const t_;
  std::unique_ptr<server::Client> client_;
  std::vector<int64_t> ids_;  ///< statement id per statement, -1: none
};

/// Results a reader saw, kept once per distinct value: (statement,
/// binding) -> distinct item lists. Results repeat, so this stays small,
/// and every result is still checked (through the one equal to it).
using SeenResults = std::map<std::pair<int, int>, std::vector<Items>>;

void Remember(SeenResults* seen, const Arrival& a, Items items) {
  std::vector<Items>& distinct = (*seen)[{a.statement, a.minprice}];
  for (const Items& d : distinct) {
    if (d == items) return;
  }
  distinct.push_back(std::move(items));
}

}  // namespace

void RunServedMix(const Args& args, Tracer* t, Report* report) {
  // Documents (the same for every seed): the main corpus, the side
  // documents, and doc_0's second version.
  const Corpus corpus = MakeCorpus(kMainXmarkScale, kDblpPublications);
  std::vector<std::string> side(kSideDocs);
  for (int k = 0; k < kSideDocs; ++k) {
    data::XmarkOptions o;
    o.scale = kSideXmarkScale;
    o.seed = 10 + static_cast<uint64_t>(k);
    side[static_cast<size_t>(k)] = data::GenerateXmark(o);
  }
  std::string side0_b;
  {
    data::XmarkOptions o;
    o.scale = kSideXmarkScale;
    o.seed = 20;
    side0_b = data::GenerateXmark(o);
  }

  std::vector<Statement> statements;
  for (const api::PaperQuery& q : api::PaperQueries()) {
    if (q.id != "Q2") statements.push_back({q.id, q.text, q.document});
  }
  const int first_minprice = static_cast<int>(statements.size());
  for (int k = 0; k < kSideDocs; ++k) {
    statements.push_back({"minprice", kMinpriceQuery, SideDoc(k), k});
  }
  const std::vector<Arrival> arrivals =
      MakeSchedule(first_minprice, args.seconds,
                   DeriveSeed(args.seed, 30));
  const unsigned cores = std::max(2u, std::thread::hardware_concurrency());
  const int num_readers = std::min<int>(kMaxReaders, static_cast<int>(cores) - 1);

  // Set-up: loads, indexes, server start, reader sessions with every
  // statement prepared.
  api::XQueryProcessor processor;
  const Clock::time_point setup_start = Clock::now();
  const int64_t setup = t->NewRequest("setup");
  std::vector<std::pair<std::string, const std::string*>> docs = {
      {"auction.xml", &corpus.auction}, {"dblp.xml", &corpus.dblp}};
  for (int k = 0; k < kSideDocs; ++k) {
    docs.push_back({SideDoc(k), &side[static_cast<size_t>(k)]});
  }
  for (const auto& [uri, text] : docs) {
    SpanScope span(t, "xml.load", setup);
    const Status s = processor.LoadDocument(uri, *text);
    if (!s.ok()) return report->Error("load " + uri + ": " + s.ToString());
  }
  {
    SpanScope span(t, "engine.index_build", setup);
    const Status s = processor.CreateRelationalIndexes();
    if (!s.ok()) return report->Error("indexes: " + s.ToString());
  }
  if (t->enabled()) {
    // The front end of every served statement, stage by stage, beside the
    // Prepare it mirrors. The cache is emptied afterwards so the readers'
    // PREPAREs meet it as in the untraced run.
    for (const Statement& st : statements) {
      const int64_t request = t->NewRequest(st.label);
      auto stages = RunStages(st.text, st.document, *processor.database(), t,
                              request);
      api::PrepareOptions options;
      options.context_document = st.document;
      auto prepared = processor.Prepare(st.text, options);
      if (!stages.ok() || !prepared.ok()) {
        return report->Error(st.label + ": stages or Prepare failed");
      }
      RecordStageRatio(stages.value(), prepared.value()->compile_seconds, t,
                       request);
    }
    processor.ClearPlanCache();
  }
  server::QueryServer server(&processor, server::ServerConfig{});
  if (Status s = server.Start(); !s.ok()) {
    return report->Error("server start: " + s.ToString());
  }
  std::vector<std::unique_ptr<Reader>> readers;
  for (int r = 0; r < num_readers; ++r) {
    readers.push_back(std::make_unique<Reader>(server.port(), &statements, t));
    Status s = readers.back()->Connect();
    for (int i = 0; s.ok() && i < static_cast<int>(statements.size()); ++i) {
      s = readers.back()->Prepared(i, setup, -1).status();
    }
    if (!s.ok()) return report->Error("reader set-up: " + s.ToString());
  }
  auto writer = server::Client::Connect("127.0.0.1", server.port());
  if (!writer.ok()) return report->Error("writer: " + writer.status().ToString());
  const double setup_s = SecondsBetween(setup_start, Clock::now());

  // Window.
  Window window;
  window.setup_s = setup_s;
  window.cache_before = processor.plan_cache_stats();
  std::atomic<size_t> next{0};
  std::atomic<int64_t> failed{0};
  std::vector<double> latency_ms(arrivals.size(), -1.0);
  std::vector<SeenResults> seen(static_cast<size_t>(num_readers));
  std::atomic<bool> writer_ok{true};
  const Clock::time_point window_start = Clock::now();
  auto due_at = [&](double at_s) {
    return window_start + std::chrono::duration_cast<Clock::duration>(
                              std::chrono::duration<double>(at_s));
  };

  auto reader_loop = [&](int r) {
    Reader& reader = *readers[static_cast<size_t>(r)];
    for (size_t i = next.fetch_add(1); i < arrivals.size(); i = next.fetch_add(1)) {
      const Arrival& a = arrivals[i];
      const Clock::time_point due = due_at(a.at_s);
      const bool idle = Clock::now() < due;
      if (idle) std::this_thread::sleep_until(due);
      const int64_t request =
          t->NewRequest(statements[static_cast<size_t>(a.statement)].label);
      if (t->enabled()) {
        // The generator's own lateness: how far past the due time an idle
        // reader sent (a busy reader's delay is the system's backlog and
        // is in the latency instead).
        if (idle) {
          t->Count("load.generator_lag_ms", request,
                   SecondsBetween(due, Clock::now()) * 1e3);
        }
        const server::AdmissionStats adm = server.stats().admission;
        t->Count("server.admission_waiting", request,
                 adm.waiting[0] + adm.waiting[1]);
      }
      const int64_t root = t->Record("request", request, -1, due, due);
      auto items = reader.Run(a, request, root);
      const Clock::time_point end = Clock::now();
      if (t->enabled()) t->End(root);
      if (!items.ok()) {
        failed.fetch_add(1);
        std::fprintf(stderr, "request %zu failed: %s\n", i,
                     items.status().ToString().c_str());
        continue;
      }
      latency_ms[i] = SecondsBetween(due, end) * 1e3;
      Remember(&seen[static_cast<size_t>(r)], a, std::move(items).value());
    }
  };
  auto writer_loop = [&] {
    const int64_t request = t->NewRequest("writer");
    for (int k = 0; (k + 0.5) * kWriterPeriod < args.seconds; ++k) {
      std::this_thread::sleep_until(due_at((k + 0.5) * kWriterPeriod));
      const std::string& text = k % 2 == 0 ? side0_b : side[0];
      Status s;
      {
        SpanScope span(t, "server.reload", request);
        s = writer.value()->LoadDocument(SideDoc(0), text);
      }
      if (s.ok()) {
        SpanScope span(t, "server.reindex", request);
        s = writer.value()->IndexDdl(0);
      }
      if (!s.ok()) {
        std::fprintf(stderr, "writer: %s\n", s.ToString().c_str());
        writer_ok = false;
        return;
      }
    }
  };
  {
    std::vector<std::thread> threads;
    for (int r = 0; r < num_readers; ++r) threads.emplace_back(reader_loop, r);
    std::thread writer_thread(writer_loop);
    for (std::thread& th : threads) th.join();
    writer_thread.join();
  }
  window.seconds = SecondsBetween(window_start, Clock::now());
  window.peak_rss_mb = PeakRssMb();
  window.cache_after = processor.plan_cache_stats();
  window.retained_storage_bytes = processor.snapshot()->RetainedStorageBytes();
  int64_t stale_reprepares = 0, reconnects = 0;
  for (auto& reader : readers) {
    stale_reprepares += reader->stale_reprepares;
    reconnects += reader->reconnects;
    reader->Close();
  }
  (void)writer.value()->Goodbye();
  server.Stop();
  report->attempted = static_cast<int64_t>(arrivals.size());
  report->failed = failed.load();
  if (!writer_ok) report->Error("the writer failed");
  std::fprintf(stderr, "stale re-prepares=%lld reconnects=%lld\n",
               static_cast<long long>(stale_reprepares),
               static_cast<long long>(reconnects));

  // References: the native engine over both versions of doc_0.
  Reference reference;
  for (const auto& [uri, text] : docs) {
    if (Status s = reference.Load(uri, *text); !s.ok()) {
      return report->Error("reference load: " + s.ToString());
    }
  }
  // refs[statement][binding][version]
  std::vector<std::vector<std::vector<Items>>> refs(statements.size());
  std::vector<std::vector<std::vector<int64_t>>> counts(statements.size());
  const TextFacts facts{ClosedAuctionPrices(corpus.auction),
                        PhdthesisYears(corpus.dblp), &corpus.auction};
  for (int version = 0; version < 2; ++version) {
    if (version == 1) {
      if (Status s = reference.Load(SideDoc(0), side0_b); !s.ok()) {
        return report->Error("reference reload: " + s.ToString());
      }
    }
    for (size_t i = 0; i < statements.size(); ++i) {
      const Statement& st = statements[i];
      if (version == 1 && st.side_doc != 0) continue;
      const int bindings = st.side_doc >= 0 ? kNumMinprices : 1;
      refs[i].resize(static_cast<size_t>(bindings));
      counts[i].resize(static_cast<size_t>(bindings));
      const std::string& side_text =
          st.side_doc < 0 ? corpus.auction
          : version == 1  ? side0_b
                          : side[static_cast<size_t>(st.side_doc)];
      const std::vector<double> prices = ClosedAuctionPrices(side_text);
      for (int b = 0; b < bindings; ++b) {
        std::map<std::string, Value> params;
        if (st.side_doc >= 0) params["minprice"] = Value::Double(kMinprices[b]);
        auto want = reference.Run(st.text, st.document, params);
        if (!want.ok()) {
          return report->Error(st.label + " reference: " + want.status().ToString());
        }
        refs[i][static_cast<size_t>(b)].push_back(std::move(want).value());
        counts[i][static_cast<size_t>(b)].push_back(
            st.side_doc >= 0 ? CountAbove(prices, kMinprices[b]) : -1);
      }
    }
  }
  for (const SeenResults& per_reader : seen) {
    for (const auto& [key, distinct] : per_reader) {
      const auto [i, b] = key;
      const Statement& st = statements[static_cast<size_t>(i)];
      const std::vector<Items>& versions =
          refs[static_cast<size_t>(i)][static_cast<size_t>(b)];
      for (const Items& got : distinct) {
        std::vector<const Items*> candidates;
        for (const Items& v : versions) candidates.push_back(&v);
        const std::string what = st.label + " on " + st.document;
        if (std::string diff = CompareItemsAny(got, candidates); !diff.empty()) {
          report->Error(what + " vs native: " + diff);
          continue;
        }
        if (st.side_doc >= 0) {
          // The count of the version whose items matched.
          const auto& want = counts[static_cast<size_t>(i)][static_cast<size_t>(b)];
          const size_t v = static_cast<size_t>(
              std::find(versions.begin(), versions.end(), got) - versions.begin());
          if (std::string diff = CheckCount(got.size(), want[v], what); !diff.empty()) {
            report->Error(diff);
          }
        } else {
          const std::string literal =
              st.label == "Q3" ? "person0" : st.label == "Q6" ? "1994" : "";
          if (std::string diff = CheckDerivedCount(facts, st.label, literal, got);
              !diff.empty()) {
            report->Error(what + ": " + diff);
          }
        }
      }
    }
  }

  window.latency_ms.resize(statements.size());
  for (size_t i = 0; i < arrivals.size(); ++i) {
    if (latency_ms[i] < 0) continue;
    window.latency_ms[static_cast<size_t>(arrivals[i].statement)].push_back(
        latency_ms[i]);
    ++window.completed;
  }
  AddMetrics(window, *t, report);
}

}  // namespace perfbench
