// Tests of the benchmark's own output checks: each check passes on the
// processor's real result and fails once that result is perturbed (an item
// dropped, two items swapped, a count made wrong).
//
//   cmake -S perfbench -B build-perfbench && cmake --build build-perfbench
//   ctest --test-dir build-perfbench
#include <cstdio>
#include <string>
#include <utility>

#include "bench.h"
#include "src/api/processor.h"
#include "src/data/dblp.h"
#include "src/data/xmark.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                  \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                            \
      ++failures;                                                     \
    }                                                                 \
  } while (0)

using perfbench::Items;

Items Dropped(Items items) {
  items.pop_back();
  return items;
}
Items Swapped(Items items) {
  std::swap(items.front(), items.back());
  return items;
}

void CompareItemsCatchesPerturbations() {
  const Items want = {"a", "b", "c"};
  EXPECT(perfbench::CompareItems(want, want).empty());
  EXPECT(!perfbench::CompareItems(Dropped(want), want).empty());
  EXPECT(!perfbench::CompareItems(Swapped(want), want).empty());
  EXPECT(!perfbench::CompareItems({"a", "b", "x"}, want).empty());
  EXPECT(!perfbench::CompareItems({"a", "b", "c", "d"}, want).empty());

  // A reloaded document may be read in either of its versions, and in no
  // other.
  const Items other = {"a", "b"};
  EXPECT(perfbench::CompareItemsAny(other, {&want, &other}).empty());
  EXPECT(!perfbench::CompareItemsAny(Swapped(want), {&want, &other}).empty());
  EXPECT(!perfbench::CompareItemsAny({"b"}, {&want, &other}).empty());
}

void CheckCountCatchesWrongCounts() {
  EXPECT(perfbench::CheckCount(3, 3, "x").empty());
  EXPECT(!perfbench::CheckCount(2, 3, "x").empty());
  EXPECT(!perfbench::CheckCount(4, 3, "x").empty());
}

/// Prepares `text` in join-graph mode and drains it on the columnar lane.
Items RunJoinGraph(const xqjg::api::XQueryProcessor& processor,
                   const std::string& text, const std::string& document) {
  xqjg::api::PrepareOptions prepare;
  prepare.context_document = document;
  auto prepared = processor.Prepare(text, prepare);
  EXPECT(prepared.ok());
  if (!prepared.ok()) return {};
  xqjg::api::ExecuteOptions execute;
  perfbench::SelectColumnarLane(&execute);
  auto result = processor.ExecuteAll(prepared.value(), execute);
  EXPECT(result.ok());
  return result.ok() ? result.value().items : Items{};
}

void ChecksOnRealResults() {
  const perfbench::Corpus corpus = perfbench::MakeCorpus(0.1, 400);
  xqjg::api::XQueryProcessor processor;
  perfbench::Reference reference;
  for (const auto& [uri, text] : {std::pair{"auction.xml", &corpus.auction},
                                  std::pair{"dblp.xml", &corpus.dblp}}) {
    EXPECT(processor.LoadDocument(uri, *text).ok());
    EXPECT(reference.Load(uri, *text).ok());
  }
  EXPECT(processor.CreateRelationalIndexes().ok());
  const perfbench::TextFacts facts{perfbench::ClosedAuctionPrices(corpus.auction),
                                   perfbench::PhdthesisYears(corpus.dblp),
                                   &corpus.auction};

  struct Case {
    std::string id, literal, text, document;
  };
  const Case cases[] = {
      {"Q4", "40.00", "//closed_auction[price > 40.00]/price/text()",
       "auction.xml"},
      {"Q6", "2000",
       "for $thesis in /dblp/phdthesis[year < \"2000\" and author and title] "
       "return $thesis/title",
       "dblp.xml"},
  };
  for (const Case& c : cases) {
    const Items got = RunJoinGraph(processor, c.text, c.document);
    auto want = reference.Run(c.text, c.document);
    EXPECT(want.ok());
    EXPECT(got.size() >= 2);
    if (!want.ok() || got.size() < 2) continue;
    EXPECT(perfbench::CompareItems(got, want.value()).empty());
    EXPECT(perfbench::CheckDerivedCount(facts, c.id, c.literal, got).empty());
    // Perturbed results: the reference catches every one, the count the
    // ones that change the cardinality.
    EXPECT(!perfbench::CompareItems(Dropped(got), want.value()).empty());
    EXPECT(!perfbench::CompareItems(Swapped(got), want.value()).empty());
    EXPECT(!perfbench::CheckDerivedCount(facts, c.id, c.literal, Dropped(got))
                .empty());
    Items extra = got;
    extra.push_back(got.front());
    EXPECT(!perfbench::CheckDerivedCount(facts, c.id, c.literal, extra).empty());
  }

  // Q3: exactly one name for an existing person, none for an absent one.
  const std::string q3 = "/site/people/person[@id = \"person1\"]/name/text()";
  const Items name = RunJoinGraph(processor, q3, "auction.xml");
  EXPECT(name.size() == 1);
  EXPECT(perfbench::CheckDerivedCount(facts, "Q3", "person1", name).empty());
  EXPECT(!perfbench::CheckDerivedCount(facts, "Q3", "person1", {}).empty());
  EXPECT(!perfbench::CheckDerivedCount(facts, "Q3", "person1",
                                       {name.front(), name.front()})
              .empty());
  EXPECT(perfbench::CheckDerivedCount(facts, "Q3", "person999999", {}).empty());
}

void ColumnarLaneSelectionCompilesWithAndWithoutTheSwitch() {
  struct WithSwitch {
    bool use_columnar = false;
    int threads = 1;
  } with;
  perfbench::SelectColumnarLane(&with);
  EXPECT(with.use_columnar);
  EXPECT(with.threads == 1);
  struct WithoutSwitch {
    int threads = 1;
  } without;
  perfbench::SelectColumnarLane(&without);
  EXPECT(without.threads == 1);
}

void TailPercentileLeavesTenSamplesBeyond() {
  EXPECT(perfbench::TailPercentile(2000) == 99.0);
  EXPECT(perfbench::TailPercentile(250) == 95.0);
  EXPECT(perfbench::TailPercentile(100) == 90.0);
  EXPECT(perfbench::TailPercentile(19) == 0.0);
  EXPECT(perfbench::Quantile({5, 1, 3, 2, 4}, 0.5) == 3.0);
}

}  // namespace

int main() {
  CompareItemsCatchesPerturbations();
  CheckCountCatchesWrongCounts();
  ChecksOnRealResults();
  ColumnarLaneSelectionCompilesWithAndWithoutTheSwitch();
  TailPercentileLeavesTenSamplesBeyond();
  if (failures == 0) std::printf("all checks behave\n");
  return failures == 0 ? 0 : 1;
}
