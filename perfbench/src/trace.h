// Spans and counters of the traced run.
//
// The benchmark times the public function of each layer from its own code:
// a span is opened around the call into the layer and closed when the call
// returns. Spans carry a name, start, end, the span that caused them and
// the request they belong to; requests carry the label of their statement
// or template. Counters are recorded at the same boundaries. Everything
// stays in memory while the run measures and is written out at exit; the
// per-layer metrics are derived from these records alone.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_s;  ///< seconds since the tracer was made
    double end_s;
    int64_t parent;  ///< span id, -1 for a root
    int64_t request;
  };
  struct Counter {
    std::string name;
    int64_t request;
    double value;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a request labelled with its statement or template; -1 when
  /// tracing is off.
  int64_t NewRequest(const std::string& label);

  /// Opens a span and returns its id (-1 when tracing is off).
  int64_t Begin(const std::string& name, int64_t request, int64_t parent = -1);
  /// Closes a span; returns its duration in seconds (0 when off).
  double End(int64_t span);
  /// Records a finished span whose interval is known from elsewhere (the
  /// execution time a server reports inside a round trip).
  int64_t Record(const std::string& name, int64_t request, int64_t parent,
                 Clock::time_point start, Clock::time_point end);
  void Count(const std::string& name, int64_t request, double value);

  // ---- derivation (call once the run has stopped) -------------------------

  /// Durations in ms of every span named `name`, grouped by request label.
  std::map<std::string, std::vector<double>> DurationsMsByLabel(
      const std::string& name) const;
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Values of counter `name`, grouped by request label.
  std::map<std::string, std::vector<double>> CountsByLabel(
      const std::string& name) const;
  std::vector<double> Counts(const std::string& name) const;
  size_t span_count() const;

  /// Writes requests, spans and counters as JSON lines; false on I/O error.
  bool Write(const std::string& path) const;

 private:
  double Since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - origin_).count();
  }

  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<std::string> labels_;  ///< by request id; guarded by mu_
  std::vector<Span> spans_;          ///< by span id; guarded by mu_
  std::vector<Counter> counters_;    ///< guarded by mu_
};

/// Opens a span on construction and closes it on destruction.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const std::string& name, int64_t request,
            int64_t parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~SpanScope() { tracer_->End(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  int64_t id() const { return id_; }

 private:
  Tracer* const tracer_;
  const int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
