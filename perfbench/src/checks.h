// Output checks of the benchmark.
//
// Every result the processor returns is compared item by item, in order,
// with an independent reference: the native engine's result for the same
// text and bindings. Where a count follows from the generated XML text,
// the benchmark derives it from that text itself (plain string scanning,
// no XML parser of the program) and checks it too.
#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

namespace perfbench {

using Items = std::vector<std::string>;

/// Empty when `got` equals `want` item by item and in order; otherwise a
/// description of the first difference.
inline std::string CompareItems(const Items& got, const Items& want) {
  const size_t n = got.size() < want.size() ? got.size() : want.size();
  for (size_t i = 0; i < n; ++i) {
    if (got[i] != want[i]) {
      return "item " + std::to_string(i) + " differs: got '" +
             got[i].substr(0, 60) + "', want '" + want[i].substr(0, 60) + "'";
    }
  }
  if (got.size() != want.size()) {
    return "got " + std::to_string(got.size()) + " items, want " +
           std::to_string(want.size());
  }
  return "";
}

/// Empty when `got` equals one of `candidates` (a document that was
/// reloaded while the request ran may be read in either version);
/// otherwise the difference from the first candidate.
inline std::string CompareItemsAny(const Items& got,
                                   const std::vector<const Items*>& candidates) {
  std::string first;
  for (const Items* want : candidates) {
    std::string diff = CompareItems(got, *want);
    if (diff.empty()) return diff;
    if (first.empty()) first = std::move(diff);
  }
  return first;
}

/// Empty when a result of `got` items has the `want` items the generated
/// text implies.
inline std::string CheckCount(size_t got, int64_t want,
                              const std::string& what) {
  if (static_cast<int64_t>(got) == want) return "";
  return what + ": got " + std::to_string(got) + " items, the text has " +
         std::to_string(want);
}

// ---- counts derived from the generated text -------------------------------

/// The text between `open` and the next `close` after `from`, or npos.
inline size_t ElementText(const std::string& text, size_t from,
                          const std::string& open, const std::string& close,
                          size_t limit, std::string* out) {
  const size_t at = text.find(open, from);
  if (at == std::string::npos || at >= limit) return std::string::npos;
  const size_t begin = at + open.size();
  const size_t end = text.find(close, begin);
  if (end == std::string::npos || end >= limit) return std::string::npos;
  *out = text.substr(begin, end - begin);
  return end;
}

/// The <price> of every <closed_auction> of an XMark text, in order.
inline std::vector<double> ClosedAuctionPrices(const std::string& xmark) {
  std::vector<double> prices;
  const std::string open = "<closed_auction>";
  const std::string close = "</closed_auction>";
  for (size_t at = xmark.find(open); at != std::string::npos;
       at = xmark.find(open, at + open.size())) {
    const size_t end = xmark.find(close, at);
    std::string price;
    if (ElementText(xmark, at, "<price>", "</price>", end, &price) !=
        std::string::npos) {
      prices.push_back(std::strtod(price.c_str(), nullptr));
    }
  }
  return prices;
}

/// How many prices exceed `threshold` (`price > threshold`).
inline int64_t CountAbove(const std::vector<double>& prices, double threshold) {
  int64_t n = 0;
  for (double p : prices) n += p > threshold ? 1 : 0;
  return n;
}

/// How many <name> children the <person> with this id has in an XMark
/// text (the generator writes exactly one per person; 0 when absent).
inline int64_t PersonNameCount(const std::string& xmark,
                               const std::string& person_id) {
  const std::string open = "<person id=\"" + person_id + "\">";
  const size_t at = xmark.find(open);
  if (at == std::string::npos) return 0;
  const size_t end = xmark.find("</person>", at);
  int64_t n = 0;
  for (size_t p = xmark.find("<name>", at); p != std::string::npos && p < end;
       p = xmark.find("<name>", p + 1)) {
    ++n;
  }
  return n;
}

/// The <year> of every <phdthesis> of a DBLP text that has an <author>
/// and a <title> (the predicates Q6 adds to the year test).
inline std::vector<std::string> PhdthesisYears(const std::string& dblp) {
  std::vector<std::string> years;
  const std::string open = "<phdthesis ";
  const std::string close = "</phdthesis>";
  for (size_t at = dblp.find(open); at != std::string::npos;
       at = dblp.find(open, at + open.size())) {
    const size_t end = dblp.find(close, at);
    if (end == std::string::npos) break;
    std::string year, ignored;
    const bool complete =
        ElementText(dblp, at, "<author>", "</author>", end, &ignored) !=
            std::string::npos &&
        ElementText(dblp, at, "<title>", "</title>", end, &ignored) !=
            std::string::npos &&
        ElementText(dblp, at, "<year>", "</year>", end, &year) !=
            std::string::npos;
    if (complete) years.push_back(year);
  }
  return years;
}

/// How many years compare below `year` as strings (`year < "1994"` on
/// untyped data is a string comparison).
inline int64_t CountBefore(const std::vector<std::string>& years,
                           const std::string& year) {
  int64_t n = 0;
  for (const std::string& y : years) n += y < year ? 1 : 0;
  return n;
}

/// What the generated corpus implies for the templates with a count
/// check.
struct TextFacts {
  std::vector<double> prices;              ///< ClosedAuctionPrices(auction)
  std::vector<std::string> thesis_years;  ///< PhdthesisYears(dblp)
  const std::string* auction;
};

/// The count check of a result of template Q3 (literal: a person id),
/// Q4 (a price threshold; empty for the verbatim query, which has none) or
/// Q6 (a year); empty for any other template.
inline std::string CheckDerivedCount(const TextFacts& facts,
                                     const std::string& template_id,
                                     const std::string& literal,
                                     const Items& got) {
  if (template_id == "Q3") {
    return CheckCount(got.size(), PersonNameCount(*facts.auction, literal),
                      "names of " + literal);
  }
  if (template_id == "Q4") {
    const double threshold =
        literal.empty() ? -1e300 : std::strtod(literal.c_str(), nullptr);
    return CheckCount(got.size(), CountAbove(facts.prices, threshold),
                      "prices above " + literal);
  }
  if (template_id == "Q6") {
    return CheckCount(got.size(), CountBefore(facts.thesis_years, literal),
                      "theses before " + literal);
  }
  return "";
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
