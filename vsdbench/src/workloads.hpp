// The benchmark's three workloads and the report they fill.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "tracing.hpp"

namespace vsdbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;      // length of the measured phases
  bool trace = false;         // traced run: per-layer metrics
  Clock::time_point start;    // process start, for setup_s
  std::string out_dir;        // where trace files are written
};

/// What one run found: operations attempted and failed, output checks, and
/// the metric values by name.
class Report {
 public:
  /// Records a failed output check: the run is then not correct.
  void check(bool ok, const std::string& what);
  void set(const std::string& name, double value) { values_[name] = value; }

  long attempted = 0;
  long failed = 0;
  bool correct() const { return check_failures_ == 0; }
  const std::map<std::string, double>& values() const { return values_; }

 private:
  std::map<std::string, double> values_;
  long check_failures_ = 0;
};

void run_serve_ours(const RunOptions& opt, Tracer& tracer, Report& report);
void run_paper_grid(const RunOptions& opt, Tracer& tracer, Report& report);
void run_lint_corpus(const RunOptions& opt, Tracer& tracer, Report& report);

/// Self time in seconds of the spans named `name` (0 if none).
double self_s(const std::map<std::string, double>& totals, const std::string& name);

/// Peak resident memory of this process, in MB.
double peak_rss_mb();

}  // namespace vsdbench
