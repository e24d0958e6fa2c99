// Benchmark-side measurement helpers: an in-memory span recorder for the
// traced run, self-time accounting over span trees, percentiles, and the
// reader for the scheduler's own Chrome-trace timeline.
//
// Spans are recorded from the benchmark's own code, around its calls into
// the public functions of each layer.  A span's self time is its duration
// minus the part of it covered by its child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace vsdbench {

using Clock = std::chrono::steady_clock;

/// Seconds between two steady-clock points.
inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// One recorded span: [start_s, end_s) relative to the tracer's origin.
/// `parent` is the index of the enclosing span on the same thread, or -1.
struct SpanRecord {
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  int parent = -1;
  std::uint64_t request = 0;  // request / operation id (0 = none)
  int thread = 0;
};

/// Records spans when enabled; every call is a branch-only no-op when not.
/// Parents are tracked per thread, so spans opened on pool workers nest
/// under whatever that worker opened, never under another thread's span.
class Tracer {
 public:
  explicit Tracer(bool enabled);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  /// Opens a span on the calling thread; returns its index (or -1 when
  /// disabled).
  int open(std::string_view name, std::uint64_t request);
  void close(int index);

  std::vector<SpanRecord> spans() const;
  /// Chrome-trace-event JSON ("X" events, parent and request in args).
  bool write_chrome_trace(const std::string& path) const;

 private:
  const bool enabled_;
  const Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  std::map<std::uint64_t, int> threads_;  // guarded by mu_
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& t, std::string_view name, std::uint64_t request = 0)
      : t_(t), index_(t.enabled() ? t.open(name, request) : -1) {}
  ~Scope() {
    if (index_ >= 0) t_.close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int index_;
};

/// Self time per span name, summed over the spans of that name.  A span's
/// self time is its duration minus the union of its children's intervals
/// (clipped to it).
std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans);

/// Self times of the complete ("X") events in a Chrome-trace JSON document
/// as written by vsd::obs::TraceWriter.  Nesting is inferred per thread
/// lane from interval containment; times are in seconds.
std::map<std::string, double> chrome_trace_self_times(std::string_view json);

/// Percentile q in [0, 1] by linear interpolation between order statistics
/// (q = 0.5 is the median).  Empty input gives 0.
double percentile(std::vector<double> values, double q);

}  // namespace vsdbench
