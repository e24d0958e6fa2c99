// lint_corpus: vlog parse, lint and elaboration over the seeded corpus.
//
// No model, training or scheduling runs here, so a vlog or sim change
// shows on this workload and an nn, spec or serve change should not.  One
// round runs every corpus input kPasses times, then the two hostile inputs;
// the run repeats whole rounds until --seconds have passed.  A hostile
// input runs in a forked child on a fixed 8 MiB stack, so the parser's
// stack overflow on it fails that one operation and not the run.  The
// end-to-end rates and latencies cover the corpus inputs only: a hostile
// input costs ~100 ms of fork, lexing and crash, which would otherwise
// swamp the linter's own time.  Its time is the per-layer vlog.hostile_s.
#include <pthread.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "lintgen.hpp"
#include "vlog/dataflow.hpp"
#include "vlog/lint.hpp"
#include "vlog/parser.hpp"
#include "workloads.hpp"

namespace vsdbench {

namespace {

constexpr int kPasses = 8;  // corpus passes per round, per hostile pair

// What one lint operation found, kept for the checks after the run.
struct Outcome {
  bool parsed = false;
  bool errors = false;
  std::string codes;  // sorted distinct codes, space-separated
};

Outcome lint_one(Tracer& tracer, const std::string& src, std::uint64_t op) {
  Outcome out;
  std::set<std::string> codes;
  {
    const Scope s(tracer, "vlog.parse", op);
    out.parsed = vsd::vlog::parse(src).ok;
  }
  {
    const Scope s(tracer, "vlog.lint", op);
    const vsd::vlog::LintResult r = vsd::vlog::lint_source(src);
    out.errors = r.has_errors();
    for (const auto& d : r.diagnostics()) codes.insert(d.code);
  }
  {
    const Scope s(tracer, "vlog.elab", op);
    const vsd::vlog::LintResult r = vsd::vlog::elab_lint_source(src);
    out.errors = out.errors || r.has_errors();
    for (const auto& d : r.diagnostics()) codes.insert(d.code);
  }
  for (const std::string& c : codes) out.codes += c + " ";
  return out;
}

void* hostile_body(void* arg) {
  const std::string& src = *static_cast<const std::string*>(arg);
  (void)vsd::vlog::parse(src);
  (void)vsd::vlog::lint_source(src);
  (void)vsd::vlog::elab_lint_source(src);
  return nullptr;
}

// Runs one hostile input in a forked child, on a thread with a fixed 8 MiB
// stack (the common default main-thread stack), so the outcome does not
// depend on the caller's stack limit.  True when the child finished.
bool run_hostile(const std::string& src) {
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);  // a crash leaves no core file behind
    pthread_attr_t attr;
    pthread_attr_init(&attr);
    pthread_attr_setstacksize(&attr, std::size_t{8} << 20);
    pthread_t th;
    if (pthread_create(&th, &attr, hostile_body, const_cast<std::string*>(&src)) != 0) _exit(2);
    pthread_join(th, nullptr);
    _exit(0);
  }
  int status = 0;
  while (waitpid(pid, &status, 0) < 0) {
  }
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

void run_lint_corpus(const RunOptions& opt, Tracer& tracer, Report& report) {
  std::vector<LintCase> corpus = make_lint_corpus(opt.seed);
  const std::size_t n_regular = corpus.size();
  for (LintCase& h : hostile_inputs()) corpus.push_back(std::move(h));
  // Set-up ends with one untimed, untraced round of corpus passes, so the
  // measured rounds start with the code paged in and the allocator warm
  // (and set-up lasts long enough to time steadily).
  Tracer untraced(false);
  for (int pass = 0; pass < kPasses; ++pass) {
    for (std::size_t i = 0; i < n_regular; ++i) (void)lint_one(untraced, corpus[i].source, 0);
  }
  report.set("setup_s", seconds_between(opt.start, Clock::now()));
  std::fprintf(stderr, "lint_corpus: %zu corpus inputs x %d passes + %zu hostile inputs per round\n",
               n_regular, kPasses, corpus.size() - n_regular);

  std::vector<std::vector<Outcome>> rounds;
  std::vector<double> latency;  // corpus inputs only
  std::vector<double> round_rates;
  std::vector<double> round_byte_rates;
  double corpus_s = 0.0;
  std::uint64_t op = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  do {
    double round_s = 0.0;
    double round_bytes = 0.0;
    for (int pass = 0; pass < kPasses; ++pass) {
      std::vector<Outcome>& round = rounds.emplace_back();
      round.reserve(n_regular);
      for (std::size_t i = 0; i < n_regular; ++i) {
        const Clock::time_point a = Clock::now();
        round.push_back(lint_one(tracer, corpus[i].source, ++op));
        const double dt = seconds_between(a, Clock::now());
        latency.push_back(dt);
        round_s += dt;
        round_bytes += static_cast<double>(corpus[i].source.size());
        ++report.attempted;
      }
    }
    corpus_s += round_s;
    round_rates.push_back(static_cast<double>(kPasses * n_regular) / round_s);
    round_byte_rates.push_back(round_bytes / round_s);
    for (std::size_t i = n_regular; i < corpus.size(); ++i) {
      const Scope s(tracer, "vlog.hostile", ++op);
      ++report.attempted;
      if (!run_hostile(corpus[i].source)) ++report.failed;
    }
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < opt.seconds);

  // Rates are medians over rounds, so a transient stall of the host moves
  // one round, not the run's figure.
  report.set("ops_per_s", percentile(round_rates, 0.5));
  report.set("clean_bytes_per_s", percentile(round_byte_rates, 0.5));
  report.set("latency_p50_s", percentile(latency, 0.5));
  report.set("latency_p90_s", percentile(latency, 0.9));
  report.set("peak_rss_mb", peak_rss_mb());
  std::fprintf(stderr, "lint_corpus: %zu corpus passes, %ld inputs, %ld failed, %.3f s (%.3f s linting the corpus)\n",
               rounds.size(), report.attempted, report.failed, elapsed, corpus_s);

  // Output checks, against the generator's ground truth.
  for (std::size_t i = 0; i < n_regular; ++i) {
    const LintCase& lc = corpus[i];
    const Outcome& o = rounds.front()[i];
    report.check(o.parsed == (o.codes.find("VSD-L001") == std::string::npos),
                 lc.name + ": parse() and lint_source() disagree on syntax");
    if (lc.planted.empty()) {
      report.check(!o.errors, lc.name + ": clean input reported an error (" + o.codes + ")");
    }
    for (const std::string& code : lc.planted) {
      report.check(o.codes.find(code + " ") != std::string::npos,
                   lc.name + ": planted " + code + " not reported (" + o.codes + ")");
    }
    for (const auto& r : rounds) {
      report.check(r[i].codes == o.codes && r[i].errors == o.errors,
                   lc.name + ": diagnostics differ between rounds");
    }
  }

  if (opt.trace) {
    const auto totals = self_times(tracer.spans());
    report.set("vlog.parse_s", self_s(totals, "vlog.parse"));
    report.set("vlog.lint_s", self_s(totals, "vlog.lint"));
    report.set("vlog.elab_s", self_s(totals, "vlog.elab"));
    report.set("vlog.hostile_s", self_s(totals, "vlog.hostile"));
  }
}

}  // namespace vsdbench
