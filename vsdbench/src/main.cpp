// vsdbench — one program for the repository's benchmark.
//
//   vsdbench --workload serve_ours|paper_grid|lint_corpus --seed N
//            --seconds S --trace 0|1 [--out-dir DIR]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the run records
// spans around its calls into each layer and the metrics are the
// per-layer ones.  Exits nonzero on a usage error or when the workload
// cannot run; a failed output check prints "correct": false.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "workloads.hpp"

namespace vsdbench {

namespace {

struct MetricSpec {
  std::string name;
  const char* unit;
};

// End-to-end metrics: every workload reports every one.
const std::vector<MetricSpec> kEndToEnd = {
    {"setup_s", "s"},           {"peak_rss_mb", "MB"},      {"ops_per_s", "1/s"},
    {"clean_bytes_per_s", "B/s"}, {"latency_p50_s", "s"},   {"latency_p90_s", "s"},
};

// Per-layer metrics, printed by every traced run; a layer a workload does
// not exercise reads 0 there.
std::vector<MetricSpec> per_layer() {
  std::vector<MetricSpec> v = {
      {"data.build_dataset_s", "s"},
      {"data.frag_token_share", "ratio"},
      {"text.tokenizer_train_s", "s"},
      {"text.encode_s", "s"},
      {"eval.train_system_s.ours", "s"},
      {"eval.train_system_s.medusa", "s"},
      {"eval.train_system_s.ntp", "s"},
      {"eval.prepare_request_s", "s"},
      {"eval.generate_s", "s"},
      {"eval.samples_per_s", "1/s"},
      {"eval.syntax_ok_samples", "count"},
      {"eval.function_ok_samples", "count"},
      {"eval.syntax_ok_samples.ours", "count"},
      {"eval.syntax_ok_samples.medusa", "count"},
      {"eval.syntax_ok_samples.ntp", "count"},
      {"eval.function_ok_samples.ours", "count"},
      {"eval.function_ok_samples.medusa", "count"},
      {"eval.function_ok_samples.ntp", "count"},
      {"spec.final_loss.ours", "loss"},
      {"spec.final_loss.medusa", "loss"},
      {"spec.final_loss.ntp", "loss"},
      {"spec.frag_token_share.ours", "ratio"},
      {"spec.budget_overruns", "count"},
      {"nn.step_s", "s"},
      {"nn.kv_pages_total", "count"},
      {"nn.kv_pages_cow_cloned", "count"},
      {"nn.kv_bytes", "B"},
      {"serve.run_s", "s"},
      {"serve.ticks", "count"},
      {"serve.occupancy_mean", "count"},
      {"serve.fused_rows", "count"},
      {"serve.fused_passes", "count"},
      {"serve.prefill_positions", "count"},
      {"serve.cached_positions", "count"},
      {"serve.cache_hit_share", "ratio"},
      {"serve.queue_wait_p50_s", "s"},
      {"serve.ttft_p50_s", "s"},
      {"serve.generator_late_p50_s", "s"},
      {"serve.generator_late_max_s", "s"},
      {"serve.frag_token_share", "ratio"},
      {"serve.self_s.propose", "s"},
      {"serve.self_s.gather", "s"},
      {"serve.self_s.score", "s"},
      {"serve.self_s.scatter", "s"},
      {"serve.self_s.accept", "s"},
      {"serve.self_s.capture", "s"},
      {"serve.self_s.check_lint", "s"},
      {"serve.self_s.check_elab", "s"},
      {"vlog.parse_s", "s"},
      {"vlog.lint_s", "s"},
      {"vlog.elab_s", "s"},
      {"vlog.hostile_s", "s"},
      {"vlog.syntax_ok_s", "s"},
      {"vlog.lint_ok_s", "s"},
      {"vlog.elab_ok_s", "s"},
      {"sim.check_compiles_s", "s"},
      {"sim.diff_check_s", "s"},
  };
  const std::pair<const char*, const char*> per_method[] = {
      {"spec.decode_s.", "s"},
      {"spec.steps.", "count"},
      {"spec.positions_per_clean_token.", "ratio"},
      {"spec.clean_tokens_per_step.", "tok/step"},
      {"spec.decode_bytes_per_s.", "B/s"}};
  for (const auto& [prefix, unit] : per_method) {
    for (const char* m : {"ours", "medusa", "ntp"}) v.push_back({std::string(prefix) + m, unit});
  }
  for (int d = 2; d <= 11; ++d) {
    for (const char* m : {"ours", "medusa"}) {
      v.push_back({"spec.accept_ge." + std::to_string(d) + "." + m, "ratio"});
    }
  }
  return v;
}

void usage() {
  std::fprintf(stderr,
               "usage: vsdbench --workload serve_ours|paper_grid|lint_corpus "
               "--seed N --seconds S --trace 0|1 [--out-dir DIR]\n");
}

}  // namespace

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++check_failures_;
  if (check_failures_ <= 20) std::fprintf(stderr, "vsdbench: CHECK FAILED: %s\n", what.c_str());
}

double self_s(const std::map<std::string, double>& totals, const std::string& name) {
  const auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

}  // namespace vsdbench

int main(int argc, char** argv) {
  using namespace vsdbench;
  RunOptions opt;
  opt.start = Clock::now();
  opt.out_dir = ".bench_out";
  std::string workload;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 1;
    }
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && opt.seconds > 0.0 && opt.seconds <= 600.0;
    } else if (a == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      opt.trace = std::strcmp(v, "1") == 0;
    } else if (a == "--out-dir") {
      opt.out_dir = v;
    } else {
      usage();
      return 1;
    }
  }
  using RunFn = void (*)(const RunOptions&, Tracer&, Report&);
  RunFn run = nullptr;
  if (workload == "serve_ours") run = run_serve_ours;
  if (workload == "paper_grid") run = run_paper_grid;
  if (workload == "lint_corpus") run = run_lint_corpus;
  if (run == nullptr || !have_seed || !have_seconds || !have_trace) {
    usage();
    return 1;
  }

  Tracer tracer(opt.trace);
  Report report;
  try {
    if (opt.trace) std::filesystem::create_directories(opt.out_dir);
    run(opt, tracer, report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vsdbench: %s failed: %s\n", workload.c_str(), e.what());
    return 1;
  }
  if (opt.trace) {
    const std::string path =
        opt.out_dir + "/trace_" + workload + "_" + std::to_string(opt.seed) + ".json";
    if (!tracer.write_chrome_trace(path)) {
      std::fprintf(stderr, "vsdbench: cannot write %s\n", path.c_str());
      return 1;
    }
    std::fprintf(stderr, "vsdbench: wrote %zu spans to %s\n", tracer.spans().size(),
                 path.c_str());
  }

  // Every metric of the mode is printed; an end-to-end metric the workload
  // did not measure is a benchmark bug.
  const std::vector<MetricSpec> layers = per_layer();
  const std::vector<MetricSpec>& specs = opt.trace ? layers : kEndToEnd;
  std::string metrics;
  for (const MetricSpec& m : specs) {
    const auto it = report.values().find(m.name);
    if (it == report.values().end() && !opt.trace) {
      report.check(false, "end-to-end metric not measured: " + m.name);
    }
    const double value = it == report.values().end() ? 0.0 : it->second;
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name.c_str(), value, m.unit);
    metrics += buf;
  }
  const auto listed = [](const std::vector<MetricSpec>& list, const std::string& name) {
    return std::any_of(list.begin(), list.end(), [&](const MetricSpec& m) { return m.name == name; });
  };
  for (const auto& [name, value] : report.values()) {
    const bool e2e = listed(kEndToEnd, name);
    report.check(e2e || listed(layers, name), "workload set an unlisted metric: " + name);
    if (opt.trace && e2e) std::fprintf(stderr, "vsdbench: traced %s = %.6g\n", name.c_str(), value);
  }
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{%s}}\n",
              report.correct() ? "true" : "false", report.attempted, report.failed,
              metrics.c_str());
  std::fflush(stdout);
  return 0;
}
