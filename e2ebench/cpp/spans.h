#ifndef SCODED_E2EBENCH_SPANS_H_
#define SCODED_E2EBENCH_SPANS_H_

// Benchmark-side spans for the traced run. Spans are recorded around the
// calls the benchmark makes into each layer's public functions, kept in
// memory, and written once at exit as Chrome trace-event JSON (one lane per
// operation, plus sub-lanes for concurrent actors such as serve clients).

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "probe.h"

namespace scoded::e2e {

struct SpanRecord {
  std::string name;
  int lane = 0;
  int parent = -1;  // index of the parent span, -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = -1;
};

class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}

  void NameLane(int lane, const std::string& name);

  /// Opens a span and returns its id. Thread-safe.
  int Begin(const std::string& name, int lane, int parent);
  void End(int id);

  /// Records an interval measured elsewhere (start/end from Clock).
  int Add(const std::string& name, int lane, int parent, Clock::time_point start,
          Clock::time_point end);

  double Seconds(int id) const;

  /// Share of span `id`'s interval covered by the union of its children.
  double Coverage(int id) const;

  /// Sum of durations of the children of `parent` named `name`, seconds.
  double ChildSeconds(int parent, const std::string& name) const;

  /// Durations of the children of `parent` named `name`, seconds.
  std::vector<double> ChildDurations(int parent, const std::string& name) const;

  Status WriteChromeTrace(const std::string& path) const;

 private:
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_).count();
  }

  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<int, std::string> lanes_;
};

/// RAII span; a no-op when `log` is null (the timed runs).
class Span {
 public:
  Span(SpanLog* log, const std::string& name, int lane, int parent)
      : log_(log), id_(log != nullptr ? log->Begin(name, lane, parent) : -1) {}
  ~Span() { End(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  void End() {
    if (log_ != nullptr && id_ >= 0 && !ended_) {
      log_->End(id_);
      ended_ = true;
    }
  }
  int id() const { return id_; }

 private:
  SpanLog* log_;
  int id_;
  bool ended_ = false;
};

}  // namespace scoded::e2e

#endif  // SCODED_E2EBENCH_SPANS_H_
