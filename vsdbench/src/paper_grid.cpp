// paper_grid: the paper's Table I/II protocol, decoder-only, for Ours,
// Medusa and NTP trained on one corpus.
//
// Set-up trains the three systems (each on its own thread, serial kernels).
// The measured phase runs whole rounds of single-request T=0 decodes
// through spec::Decoder: every fixed speed prompt once per method, in an
// order drawn from --seed.  No scheduler, fusion or prefix cache runs here,
// so a serving-only change should not move this workload, while a training
// or acceptance change shows most here.  A quality phase follows:
// eval::evaluate_quality over seeded eval::make_from_dataset problems with
// syntax and simulation checks.  The traced run repeats it with the
// benchmark's own per-sample loop, and the two counts must agree.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "data/dataset.hpp"
#include "eval/benchmarks.hpp"
#include "eval/harness.hpp"
#include "nn/kernel_dispatch.hpp"
#include "nn/parallel.hpp"
#include "sim/check.hpp"
#include "vlog/dataflow.hpp"
#include "vlog/lint.hpp"
#include "vlog/parser.hpp"
#include "workloads.hpp"

namespace vsdbench {

namespace {

// Scale: the ledger's 32 items x 20 epochs trains for ~90 s, which does not
// fit a benchmark run; 16 items x 10 epochs trains in ~20 s with all three
// methods still producing some parseable code.
constexpr int kItems = 16;
constexpr int kEpochs = 10;
constexpr std::uint64_t kDataSeed = 1;
constexpr int kSpeedPrompts = 8;
constexpr int kMaxTokens = 120;    // speed phase budget (Ours gets 1.5x)
// Serial GEMMs throughout: at these model sizes a pool handoff costs about
// what it saves, and serial decodes time steadily.  Parallelism comes from
// the three concurrent trainings and the quality phase's sample workers.
constexpr int kComputeThreads = 1;
constexpr int kQualityWorkers = 4;
constexpr int kProblems = 6;
constexpr int kSamples = 6;

const vsd::spec::Method kMethods[3] = {vsd::spec::Method::Ours, vsd::spec::Method::Medusa,
                                       vsd::spec::Method::NTP};
const char* kNames[3] = {"ours", "medusa", "ntp"};

struct Decode {
  int method = 0;
  int prompt = 0;
  double wall_s = 0.0;
  std::size_t clean_bytes = 0;  // decoded text, [FRAG] dropped
  vsd::spec::DecodeResult result;
};

struct QualityCounts {
  int syntax = 0;
  int function = 0;
};

}  // namespace

void run_paper_grid(const RunOptions& opt, Tracer& tracer, Report& report) {
  namespace eval = vsd::eval;
  vsd::nn::set_kernel_mode(vsd::nn::KernelMode::Exact);
  vsd::nn::set_compute_threads(kComputeThreads);

  // --- set-up: dataset, tokenizer, three trainings ------------------------
  vsd::data::DatasetConfig dcfg;
  dcfg.target_items = kItems;
  dcfg.seed = kDataSeed;
  vsd::data::Dataset dataset;
  {
    const Scope s(tracer, "data.build_dataset");
    dataset = vsd::data::build_dataset(dcfg);
  }
  std::unique_ptr<vsd::text::Tokenizer> tok;
  {
    const Scope s(tracer, "text.tokenizer_train");
    tok = std::make_unique<vsd::text::Tokenizer>(vsd::text::Tokenizer::train(
        vsd::data::tokenizer_corpus(dataset), {.vocab_size = 384}));
  }
  eval::TrainedSystem sys[3];
  {
    std::vector<std::thread> trainers;
    std::exception_ptr errors[3];
    for (int m = 0; m < 3; ++m) {
      trainers.emplace_back([&, m] {
        try {
          const Scope s(tracer, std::string("eval.train_system.") + kNames[m]);
          eval::SystemConfig cfg;
          cfg.method = kMethods[m];
          cfg.epochs = kEpochs;
          cfg.seed = kDataSeed;
          sys[m] = eval::train_system(cfg, dataset, *tok);
        } catch (...) {
          errors[m] = std::current_exception();
        }
      });
    }
    for (std::thread& t : trainers) t.join();
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  const std::vector<std::string> prompts = eval::make_speed_prompts(kSpeedPrompts, 17);
  vsd::spec::DecodeConfig speed_cfg;
  speed_cfg.max_new_tokens = kMaxTokens;
  std::vector<eval::PreparedRequest> prepared[3];
  for (int m = 0; m < 3; ++m) {
    for (const std::string& p : prompts) {
      const Scope s(tracer, "eval.prepare_request");
      prepared[m].push_back(eval::prepare_request(sys[m], p, speed_cfg));
    }
  }
  report.set("setup_s", seconds_between(opt.start, Clock::now()));

  // --- speed phase ---------------------------------------------------------
  vsd::Rng order_rng(opt.seed * 0x9E3779B97F4A7C15ull + 3);
  std::vector<Decode> decodes;
  const vsd::spec::Decoder decoders[3] = {vsd::spec::Decoder(*sys[0].model),
                                          vsd::spec::Decoder(*sys[1].model),
                                          vsd::spec::Decoder(*sys[2].model)};
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0.0;
  std::vector<double> round_rates;
  std::vector<double> round_byte_rates;
  do {
    const std::size_t first = decodes.size();
    const Clock::time_point r0 = Clock::now();
    std::vector<int> order(3 * prompts.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    }
    for (const int k : order) {
      Decode& d = decodes.emplace_back();
      d.method = k % 3;
      d.prompt = k / 3;
      const eval::PreparedRequest& req =
          prepared[d.method][static_cast<std::size_t>(d.prompt)];
      vsd::Rng rng(1);
      const Clock::time_point a = Clock::now();
      {
        const Scope s(tracer, std::string("spec.decode.") + kNames[d.method], decodes.size());
        d.result = kMethods[d.method] == vsd::spec::Method::NTP
                       ? decoders[d.method].ntp(req.prompt_ids, req.config, rng)
                       : decoders[d.method].speculative(req.prompt_ids, req.config, rng);
      }
      d.wall_s = seconds_between(a, Clock::now());
    }
    const double round_s = seconds_between(r0, Clock::now());
    double round_bytes = 0.0;
    for (std::size_t i = first; i < decodes.size(); ++i) {
      Decode& d = decodes[i];
      d.clean_bytes = sys[d.method].tokenizer.decode(d.result.ids).size();
      round_bytes += static_cast<double>(d.clean_bytes);
    }
    round_rates.push_back(static_cast<double>(decodes.size() - first) / round_s);
    round_byte_rates.push_back(round_bytes / round_s);
    elapsed = seconds_between(t0, Clock::now());
  } while (elapsed < opt.seconds);

  std::vector<double> latency;
  for (const Decode& d : decodes) latency.push_back(d.wall_s);
  // Rates are medians over rounds, so a transient stall of the host moves
  // one round, not the run's figure.
  report.set("ops_per_s", percentile(round_rates, 0.5));
  report.set("clean_bytes_per_s", percentile(round_byte_rates, 0.5));
  report.set("latency_p50_s", percentile(latency, 0.5));
  report.set("latency_p90_s", percentile(latency, 0.9));

  // --- speed-phase checks ----------------------------------------------------
  // References: greedy NTP of each model on each prepared prompt.
  std::vector<std::vector<int>> reference[3];
  for (int m = 0; m < 3; ++m) {
    for (const eval::PreparedRequest& req : prepared[m]) {
      vsd::Rng rng(1);
      reference[m].push_back(decoders[m].ntp(req.prompt_ids, req.config, rng).ids);
    }
  }
  struct PerMethod {
    double wall = 0.0, bytes = 0.0;
    long steps = 0, positions = 0, ids = 0, clean = 0;
    std::vector<long> accept_ge = std::vector<long>(12, 0);  // [d]: steps committing >= d
  } per[3];
  std::vector<const std::vector<int>*> first(3 * prompts.size(), nullptr);
  for (const Decode& d : decodes) {
    const vsd::spec::DecodeResult& r = d.result;
    const eval::PreparedRequest& req = prepared[d.method][static_cast<std::size_t>(d.prompt)];
    const int budget = req.config.max_new_tokens;
    const int heads = sys[d.method].model->config().n_medusa_heads;
    const std::string tag = std::string(kNames[d.method]) + " prompt " + std::to_string(d.prompt);
    ++report.attempted;
    if (static_cast<int>(r.ids.size()) > budget) {
      ++report.failed;  // budget overrun
      report.check(static_cast<int>(r.ids.size()) <= budget + heads,
                   tag + ": overran its budget by more than the head count");
    }
    if (kMethods[d.method] != vsd::spec::Method::NTP) {
      const std::vector<int>& ref = reference[d.method][static_cast<std::size_t>(d.prompt)];
      const std::size_t upto = std::min<std::size_t>(r.ids.size(), static_cast<std::size_t>(budget));
      report.check(upto == ref.size() && std::equal(ref.begin(), ref.end(), r.ids.begin()),
                   tag + ": T=0 output differs from NTP of the same model");
    }
    const std::vector<int>*& f = first[static_cast<std::size_t>(d.prompt * 3 + d.method)];
    if (f == nullptr) f = &r.ids;
    report.check(*f == r.ids, tag + ": output differs between rounds");
    report.check(sys[d.method].tokenizer.decode(r.ids).find("[FRAG]") == std::string::npos,
                 tag + ": decoded code holds [FRAG] text");
    report.check(static_cast<int>(r.accepted_per_step.size()) == r.steps,
                 tag + ": steps and accepted_per_step disagree");
    PerMethod& pm = per[d.method];
    for (const int a : r.accepted_per_step) {
      report.check(a >= 1 && a <= heads + 1, tag + ": a step committed " + std::to_string(a));
      for (int k = 2; k <= std::min(a, 11); ++k) ++pm.accept_ge[static_cast<std::size_t>(k)];
    }
    pm.wall += d.wall_s;
    pm.bytes += static_cast<double>(d.clean_bytes);
    pm.steps += r.steps;
    pm.positions += r.positions;
    pm.ids += static_cast<long>(r.ids.size());
    for (const int t : r.ids) pm.clean += t == vsd::text::Tokenizer::kFrag ? 0 : 1;
  }
  std::fprintf(stderr, "paper_grid: %zu decodes in %.3f s, %ld failed (budget overruns)\n",
               decodes.size(), elapsed, report.failed);

  // --- quality phase ---------------------------------------------------------
  const std::vector<eval::BenchProblem> problems =
      eval::make_from_dataset(dataset, kProblems, eval::BenchStyle::RtllmLike, opt.seed + 101);
  for (const eval::BenchProblem& p : problems) {
    report.check(vsd::sim::check_compiles(p.golden_code, p.module_name).ok,
                 p.id + ": golden module does not compile");
    report.check(vsd::sim::diff_check(p.golden_code, p.golden_code, p.module_name).equivalent,
                 p.id + ": golden module is not equivalent to itself");
  }
  eval::QualityOptions qopts;
  qopts.n_samples = kSamples;
  qopts.temperatures = {0.4f};
  qopts.max_new_tokens = kMaxTokens;
  qopts.ks = {1};
  qopts.seed = opt.seed + 5;
  qopts.workers = kQualityWorkers;
  QualityCounts harness[3];
  const Clock::time_point q0 = Clock::now();
  for (int m = 0; m < 3; ++m) {
    const eval::BenchScores sc = eval::evaluate_quality(sys[m], problems, qopts);
    const double samples = static_cast<double>(problems.size() * kSamples);
    harness[m].syntax = static_cast<int>(std::lround(sc.syn_pass_at_k[0] * samples));
    harness[m].function = static_cast<int>(std::lround(sc.func_pass_at_k[0] * samples));
  }
  const double quality_s = seconds_between(q0, Clock::now());
  report.set("peak_rss_mb", peak_rss_mb());
  std::fprintf(stderr, "paper_grid: quality syntax/function ok samples: ours %d/%d, medusa %d/%d, ntp %d/%d of %d each\n",
               harness[0].syntax, harness[0].function, harness[1].syntax, harness[1].function,
               harness[2].syntax, harness[2].function, kProblems * kSamples);

  if (!opt.trace) return;
  // --- traced quality loop: the same samples through the layers' public
  // functions one call at a time, so each gets its own span -------------------
  QualityCounts loop[3];
  for (int m = 0; m < 3; ++m) {
    vsd::Rng base(qopts.seed);
    std::uint64_t sample_id = 0;
    for (const eval::BenchProblem& p : problems) {
      for (int s = 0; s < kSamples; ++s) {
        vsd::Rng rng = base.split();
        ++sample_id;
        vsd::spec::DecodeConfig dc;
        dc.temperature = qopts.temperatures[0];
        dc.max_new_tokens = qopts.max_new_tokens;
        vsd::spec::DecodeResult r;
        {
          const Scope sp(tracer, "eval.generate", sample_id);
          r = eval::generate(sys[m], eval::problem_prompt(p), dc, rng);
        }
        const std::string candidate =
            eval::assemble_candidate(p, sys[m].tokenizer.decode(r.ids));
        bool syntax = false;
        {
          const Scope sp(tracer, "vlog.syntax_ok", sample_id);
          syntax = vsd::vlog::syntax_ok(candidate);
        }
        if (syntax) {
          const Scope sp(tracer, "sim.check_compiles", sample_id);
          syntax = vsd::sim::check_compiles(candidate, p.module_name).ok;
        }
        if (!syntax) continue;
        ++loop[m].syntax;
        vsd::sim::DiffOptions dopts;
        dopts.cycles = 48;
        dopts.vectors = 48;
        dopts.seed = qopts.seed ^ (static_cast<std::uint64_t>(s) << 8);
        {
          const Scope sp(tracer, "sim.diff_check", sample_id);
          loop[m].function +=
              vsd::sim::diff_check(p.golden_code, candidate, p.module_name, dopts).equivalent ? 1 : 0;
        }
        {
          const Scope sp(tracer, "vlog.lint_ok", sample_id);
          (void)vsd::vlog::lint_ok(candidate);
        }
        const Scope sp(tracer, "vlog.elab_ok", sample_id);
        (void)vsd::vlog::elab_ok(candidate, p.module_name);
      }
    }
    report.check(loop[m].syntax == harness[m].syntax && loop[m].function == harness[m].function,
                 std::string(kNames[m]) + ": traced quality loop and evaluate_quality disagree (" +
                     std::to_string(loop[m].syntax) + "/" + std::to_string(loop[m].function) +
                     " vs " + std::to_string(harness[m].syntax) + "/" +
                     std::to_string(harness[m].function) + ")");
  }

  // --- per-layer metrics -------------------------------------------------------
  const auto totals = self_times(tracer.spans());
  report.set("data.build_dataset_s", self_s(totals, "data.build_dataset"));
  report.set("text.tokenizer_train_s", self_s(totals, "text.tokenizer_train"));
  report.set("eval.prepare_request_s", self_s(totals, "eval.prepare_request"));
  report.set("eval.generate_s", self_s(totals, "eval.generate"));
  report.set("eval.samples_per_s", 3.0 * kProblems * kSamples / quality_s);
  int syntax_all = 0;
  int function_all = 0;
  for (int m = 0; m < 3; ++m) {
    const std::string n = kNames[m];
    report.set("eval.train_system_s." + n, self_s(totals, "eval.train_system." + n));
    report.set("spec.final_loss." + n, sys[m].train_stats.final_loss);
    report.set("eval.syntax_ok_samples." + n, harness[m].syntax);
    report.set("eval.function_ok_samples." + n, harness[m].function);
    syntax_all += harness[m].syntax;
    function_all += harness[m].function;
    const PerMethod& pm = per[m];
    report.set("spec.decode_s." + n, self_s(totals, "spec.decode." + n));
    report.set("spec.steps." + n, static_cast<double>(pm.steps));
    report.set("spec.positions_per_clean_token." + n,
               static_cast<double>(pm.positions) / std::max(1L, pm.clean));
    report.set("spec.clean_tokens_per_step." + n,
               static_cast<double>(pm.clean) / std::max(1L, pm.steps));
    report.set("spec.decode_bytes_per_s." + n, pm.bytes / std::max(1e-12, pm.wall));
    if (kMethods[m] != vsd::spec::Method::NTP) {
      for (int k = 2; k <= 11; ++k) {
        report.set("spec.accept_ge." + std::to_string(k) + "." + n,
                   static_cast<double>(pm.accept_ge[static_cast<std::size_t>(k)]) /
                       std::max(1L, pm.steps));
      }
    }
  }
  report.set("eval.syntax_ok_samples", syntax_all);
  report.set("eval.function_ok_samples", function_all);
  report.set("spec.frag_token_share.ours",
             static_cast<double>(per[0].ids - per[0].clean) / std::max(1L, per[0].ids));
  report.set("spec.budget_overruns", static_cast<double>(report.failed));
  long data_frag = 0;
  long data_ids = 0;
  for (const auto& ex : vsd::data::encode_for_training(dataset, *tok, true)) {
    for (const int t : ex.code_ids) data_frag += t == vsd::text::Tokenizer::kFrag ? 1 : 0;
    data_ids += static_cast<long>(ex.code_ids.size());
  }
  report.set("data.frag_token_share", static_cast<double>(data_frag) / std::max(1L, data_ids));
  report.set("nn.step_s", decoders[2].measure_step_seconds(128));
  report.set("vlog.syntax_ok_s", self_s(totals, "vlog.syntax_ok"));
  report.set("vlog.lint_ok_s", self_s(totals, "vlog.lint_ok"));
  report.set("vlog.elab_ok_s", self_s(totals, "vlog.elab_ok"));
  report.set("sim.check_compiles_s", self_s(totals, "sim.check_compiles"));
  report.set("sim.diff_check_s", self_s(totals, "sim.diff_check"));
}

}  // namespace vsdbench
