// serve_ours: an Ours decoder-only system at the `vsd serve` defaults,
// serving the benchmark's own instruction lines through serve::Scheduler
// (batch 4, prefix cache on, lint and elab check stages), as `vsd serve`
// does.
//
// Two measured phases share the run's --seconds:
//   burst      every request queued at once, backpressured by the bounded
//              queue: completions and marker-free code bytes per second,
//              the median of kBursts separate bursts;
//   open loop  arrivals at one fixed rate, evenly spaced, below the burst
//              capacity: latency from each request's due time to its
//              completion, and how late the generator ran.
// Each phase runs whole rounds; a round serves every instruction line once,
// in an order drawn from --seed.  The lines themselves are fixed, so which
// requests overrun their token budget (a known fault of the speculative
// commit) does not depend on the seed.
#include <stdio.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/trace.hpp"
#include "data/dataset.hpp"
#include "eval/harness.hpp"
#include "nn/kernel_dispatch.hpp"
#include "nn/kv_arena.hpp"
#include "nn/parallel.hpp"
#include "serve/check_stage.hpp"
#include "serve/request_queue.hpp"
#include "serve/scheduler.hpp"
#include "serve/session_cache.hpp"
#include "workloads.hpp"

namespace vsdbench {

namespace {

// Four scheduler workers advance the sessions; the GEMMs stay serial, so
// the run keeps at most four busy threads on a four-core host.
constexpr int kWorkers = 4;
constexpr int kComputeThreads = 1;
constexpr int kTrainThreads = 4;  // training, as `vsd serve` runs it on 4 cores
constexpr int kBatch = 4;
constexpr int kQueue = 2 * kBatch;  // `vsd serve` default
constexpr int kCacheEntries = 16;   // `vsd serve` default
constexpr int kMaxTokens = 110;     // half the `vsd serve` default (Ours gets 1.5x)
constexpr double kBurstShare = 0.4;  // of --seconds; the open loop gets the rest
constexpr int kBursts = 4;
// Open-loop arrival rate, requests per second: 40% of the burst capacity
// measured on a 4-core AVX2 host (~40 req/s), so requests overlap in the
// batch but no backlog grows.
constexpr double kArrivalRate = 16.0;

// The benchmark's own instruction lines: fixed, so every round serves the
// same requests and a seed only reorders them and draws arrival times.
std::vector<std::string> instruction_lines() {
  const char* openers[] = {"Write a Verilog module implementing a",
                           "Write a simple Verilog code for a",
                           "Design a Verilog module for a"};
  const char* designs[] = {
      "2-to-1 multiplexer of %d-bit inputs a and b; output y equals b when sel is 1",
      "%d-bit synchronous up counter with an active-high reset",
      "module computing the bitwise AND of two %d-bit inputs a and b with output y",
      "%d-bit register with a load enable and synchronous reset",
      "parity generator over a %d-bit input with output p",
      "%d-bit adder with inputs a, b and outputs sum and carry",
      "%d-bit left shift register with serial input",
      "comparator of two %d-bit inputs with outputs eq and gt"};
  vsd::Rng rng(0x5E12EULL);
  std::vector<std::string> out;
  for (int i = 0; i < 16; ++i) {
    char buf[200];
    const int width = 2 << rng.next_below(4);
    std::snprintf(buf, sizeof(buf), designs[i % 8], width);
    out.push_back(std::string(openers[rng.next_below(3)]) + " " + buf + ".");
  }
  return out;
}

struct Served {
  int line = -1;       // index into the instruction pool
  int completions = 0;
  double due_s = 0.0;  // open loop: when it was due, from the phase start
  double done_s = 0.0;
  vsd::spec::DecodeResult result;
};

struct PhaseResult {
  vsd::serve::ServeStats stats;
  double wall_s = 0.0;
  std::size_t first = 0;  // the phase's requests: served[first, end)
  std::size_t end = 0;
};

}  // namespace

void run_serve_ours(const RunOptions& opt, Tracer& tracer, Report& report) {
  namespace eval = vsd::eval;
  namespace serve = vsd::serve;
  vsd::nn::set_compute_threads(kTrainThreads);
  vsd::nn::set_kernel_mode(vsd::nn::KernelMode::Exact);

  // --- set-up: dataset, tokenizer, training (the `vsd serve` defaults) ---
  vsd::data::DatasetConfig dcfg;
  dcfg.target_items = 48;
  dcfg.seed = 7;
  eval::SystemConfig cfg;
  cfg.method = vsd::spec::Method::Ours;
  cfg.epochs = 3;
  cfg.seed = 7;
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
  eval::TrainedSystem sys;
  {
    const Scope s(tracer, "eval.train_system.ours");
    sys = eval::train_system(cfg, dataset, *tok);
  }
  const std::vector<std::string> lines = instruction_lines();
  vsd::spec::DecodeConfig base_cfg;
  base_cfg.max_new_tokens = kMaxTokens;
  std::vector<eval::PreparedRequest> pool;
  std::vector<std::vector<int>> encoded;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string prompt = vsd::data::alpaca_prompt(lines[i]);
    {
      const Scope s(tracer, "text.encode", i + 1);
      encoded.push_back(sys.tokenizer.encode(prompt, /*add_bos=*/true));
    }
    const Scope s(tracer, "eval.prepare_request", i + 1);
    pool.push_back(eval::prepare_request(sys, prompt, base_cfg));
  }
  serve::SessionCache cache({.capacity = kCacheEntries});
  const vsd::nn::ModelConfig& mc = sys.model->config();
  vsd::nn::KvArenaOptions ao;
  ao.page = 16;
  ao.max_pages = (kBatch + kCacheEntries + 8) * ((mc.max_seq + ao.page - 1) / ao.page);
  const auto arena = std::make_shared<vsd::nn::KvArena>(mc.n_layers, mc.d_model, mc.max_seq, ao);
  const serve::DecodeTextFn decode_text = [&sys](const vsd::spec::DecodeResult& r) {
    return sys.tokenizer.decode(r.ids);
  };
  std::vector<serve::CheckStage> checks;
  for (const char* name : {"lint", "elab"}) checks.push_back(*serve::make_check_stage(name, decode_text));
  std::unique_ptr<vsd::obs::TraceWriter> sched_trace;
  if (opt.trace) sched_trace = std::make_unique<vsd::obs::TraceWriter>();
  vsd::nn::set_compute_threads(kComputeThreads);

  vsd::Rng order_rng(opt.seed * 0x9E3779B97F4A7C15ull + 1);
  const auto round_order = [&] {
    std::vector<int> order(pool.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[order_rng.next_below(i)]);
    }
    return order;
  };
  std::vector<Served> served;
  std::mutex served_mu;  // guards `served`: the producer grows it, callbacks fill it
  const auto make_request = [&](int line) {
    serve::Request req;
    req.id = served.size();
    req.prompt = lines[static_cast<std::size_t>(line)];
    req.prompt_ids = pool[static_cast<std::size_t>(line)].prompt_ids;
    req.config = pool[static_cast<std::size_t>(line)].config;
    req.seed = req.id;
    served.emplace_back().line = line;
    return req;
  };

  const auto push_round = [&](serve::RequestQueue& q) {
    for (const int line : round_order()) {
      serve::Request req;
      {
        const std::lock_guard<std::mutex> lock(served_mu);
        req = make_request(line);
      }
      q.push(std::move(req));
    }
  };

  // Runs one phase: `produce` pushes requests (on its own thread) and
  // closes the queue; the scheduler serves until the queue drains.
  const auto run_phase = [&](const auto& produce) {
    PhaseResult out;
    out.first = served.size();
    serve::RequestQueue queue(kQueue);
    serve::Scheduler scheduler(*sys.model, queue,
                               {.workers = kWorkers,
                                .batch = kBatch,
                                .fuse = true,
                                .cache = &cache,
                                .kv_page = ao.page,
                                .kv_pages_max = 0,
                                .kv_arena = arena,
                                .metrics = nullptr,
                                .trace = sched_trace.get(),
                                .checks = checks,
                                .kernel = vsd::nn::KernelMode::Exact});
    const Clock::time_point t0 = Clock::now();
    std::thread producer([&] { produce(queue, t0); });
    try {
      out.stats = scheduler.run([&](const serve::Request& req, vsd::spec::DecodeResult r,
                                    const serve::CheckReport*) {
        const std::lock_guard<std::mutex> lock(served_mu);
        Served& s = served[static_cast<std::size_t>(req.id)];
        s.done_s = seconds_between(t0, Clock::now());
        ++s.completions;
        s.result = std::move(r);
      });
    } catch (...) {
      queue.close();
      producer.join();
      throw;
    }
    out.wall_s = seconds_between(t0, Clock::now());
    producer.join();
    out.end = served.size();
    return out;
  };

  // One warm-up round fills the prefix cache and the KV arena, as a
  // long-running server's would be; it is the last step of set-up.
  const PhaseResult warm = run_phase([&](serve::RequestQueue& q, Clock::time_point) {
    push_round(q);
    q.close();
  });
  report.set("setup_s", seconds_between(opt.start, Clock::now()));

  // --- burst phase -------------------------------------------------------
  const double burst_s = opt.seconds * kBurstShare / kBursts;
  std::vector<PhaseResult> bursts;
  std::vector<double> burst_rates;
  std::vector<double> burst_byte_rates;
  for (int b = 0; b < kBursts; ++b) {
    const PhaseResult& burst = bursts.emplace_back(
        run_phase([&](serve::RequestQueue& q, Clock::time_point t0) {
          do {
            push_round(q);
          } while (seconds_between(t0, Clock::now()) < burst_s);
          q.close();
        }));
    double bytes = 0.0;
    for (std::size_t i = burst.first; i < burst.end; ++i) {
      bytes += static_cast<double>(sys.tokenizer.decode(served[i].result.ids).size());
    }
    burst_rates.push_back(static_cast<double>(burst.end - burst.first) / burst.wall_s);
    burst_byte_rates.push_back(bytes / burst.wall_s);
  }

  // --- open-loop phase ---------------------------------------------------
  const double open_s = opt.seconds * (1.0 - kBurstShare);
  // At least 100 open-loop requests, so the p90 has ten samples beyond it.
  const double per_round = static_cast<double>(pool.size());
  const std::size_t open_rounds = static_cast<std::size_t>(
      std::max(std::ceil(100.0 / per_round), std::ceil(kArrivalRate * open_s / per_round)));
  std::vector<int> open_lines;
  std::vector<double> due;
  for (std::size_t r = 0; r < open_rounds; ++r) {
    for (const int line : round_order()) {
      due.push_back(static_cast<double>(open_lines.size()) / kArrivalRate);
      open_lines.push_back(line);
    }
  }
  std::vector<double> late;
  served.reserve(served.size() + open_lines.size());
  const PhaseResult open = run_phase([&](serve::RequestQueue& q, Clock::time_point t0) {
    for (std::size_t i = 0; i < open_lines.size(); ++i) {
      std::this_thread::sleep_until(t0 + std::chrono::duration_cast<Clock::duration>(
                                             std::chrono::duration<double>(due[i])));
      serve::Request req;
      {
        const std::lock_guard<std::mutex> lock(served_mu);
        req = make_request(open_lines[i]);
        served.back().due_s = due[i];
      }
      q.push(std::move(req));
      late.push_back(seconds_between(t0, Clock::now()) - due[i]);
    }
    q.close();
  });
  report.set("peak_rss_mb", peak_rss_mb());

  // --- end-to-end metrics ------------------------------------------------
  std::vector<double> latency;
  for (std::size_t i = open.first; i < open.end; ++i) {
    latency.push_back(served[i].done_s - served[i].due_s);
  }
  report.set("ops_per_s", percentile(burst_rates, 0.5));
  report.set("clean_bytes_per_s", percentile(burst_byte_rates, 0.5));
  report.set("latency_p50_s", percentile(latency, 0.5));
  report.set("latency_p90_s", percentile(latency, 0.9));
  std::fprintf(stderr,
               "serve_ours: %d bursts, %zu requests, %.1f req/s; open loop %zu requests at %.1f/s "
               "over %.3f s, generator late p50 %.6f s max %.6f s\n",
               kBursts, bursts.back().end - bursts.front().first, percentile(burst_rates, 0.5),
               open.end - open.first,
               kArrivalRate, open.wall_s, percentile(late, 0.5),
               late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));

  // --- output checks -----------------------------------------------------
  const int heads = mc.n_medusa_heads;
  const vsd::spec::Decoder decoder(*sys.model);
  std::vector<std::vector<int>> reference(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    vsd::Rng rng(1);
    reference[i] = decoder.ntp(pool[i].prompt_ids, pool[i].config, rng).ids;
    const std::vector<int>& e = encoded[i];
    const std::vector<int>& p = pool[i].prompt_ids;
    report.check(p.size() <= e.size() && std::equal(p.begin(), p.end(), e.begin()),
                 "prepare_request ids are not a prefix of the tokenizer's encoding");
  }
  long frag = 0;
  long total_ids = 0;
  long overruns = 0;
  std::vector<long> accept_ge(static_cast<std::size_t>(heads) + 2, 0);
  long steps_total = 0;
  std::vector<const std::vector<int>*> first_ids(pool.size(), nullptr);
  for (std::size_t id = 0; id < served.size(); ++id) {
    const Served& s = served[id];
    const vsd::spec::DecodeResult& r = s.result;
    const int budget = pool[static_cast<std::size_t>(s.line)].config.max_new_tokens;
    const std::vector<int>& ref = reference[static_cast<std::size_t>(s.line)];
    ++report.attempted;
    report.check(s.completions == 1, "request " + std::to_string(id) + " completed " +
                                         std::to_string(s.completions) + " times");
    // Lossless verification: up to the budget, speculative output equals
    // greedy NTP of the same model and prepared prompt.
    const std::size_t upto = std::min<std::size_t>(r.ids.size(), static_cast<std::size_t>(budget));
    report.check(upto == ref.size() && std::equal(ref.begin(), ref.end(), r.ids.begin()),
                 "request " + std::to_string(id) + ": T=0 output differs from NTP");
    if (static_cast<int>(r.ids.size()) > budget) {
      ++report.failed;  // budget overrun
      ++overruns;
      report.check(static_cast<int>(r.ids.size()) <= budget + heads,
                   "request " + std::to_string(id) + " overran its budget by more than " +
                       std::to_string(heads) + " tokens");
    }
    report.check(sys.tokenizer.decode(r.ids).find("[FRAG]") == std::string::npos,
                 "decoded code holds [FRAG] text");
    long committed = 0;
    for (const int a : r.accepted_per_step) {
      report.check(a >= 1 && a <= heads + 1, "a step committed " + std::to_string(a) + " tokens");
      committed += a;
      for (int d = 2; d <= std::min(a, heads + 1); ++d) ++accept_ge[static_cast<std::size_t>(d)];
    }
    report.check(static_cast<long>(r.ids.size()) <= committed,
                 "more ids than committed tokens");
    report.check(static_cast<int>(r.accepted_per_step.size()) == r.steps,
                 "steps and accepted_per_step disagree");
    steps_total += r.steps;
    // Determinism across rounds: a line gives the same ids every time.
    const std::vector<int>*& first = first_ids[static_cast<std::size_t>(s.line)];
    if (first == nullptr) first = &r.ids;
    report.check(*first == r.ids, "same prompt, different output across rounds");
    for (const int tkn : r.ids) frag += tkn == vsd::text::Tokenizer::kFrag ? 1 : 0;
    total_ids += static_cast<long>(r.ids.size());
  }
  const auto check_phase = [&](const PhaseResult& ph) {
    long prompts = 0;
    long steps = 0;
    for (std::size_t i = ph.first; i < ph.end; ++i) {
      prompts += static_cast<long>(pool[static_cast<std::size_t>(served[i].line)].prompt_ids.size());
      steps += served[i].result.steps;
      report.check(served[i].result.steps <= ph.stats.ticks, "a request ran more steps than ticks");
    }
    report.check(ph.stats.prefill_positions + ph.stats.cached_positions == prompts,
                 "prefill + cached positions (" +
                     std::to_string(ph.stats.prefill_positions + ph.stats.cached_positions) +
                     ") != summed prompt lengths (" + std::to_string(prompts) + ")");
    report.check(steps <= ph.stats.ticks * kBatch, "more steps than ticks x batch");
    report.check(ph.stats.completed == static_cast<int>(ph.end - ph.first),
                 "scheduler completed count differs from requests sent");
  };
  check_phase(warm);
  for (const PhaseResult& b : bursts) check_phase(b);
  check_phase(open);
  std::fprintf(stderr, "serve_ours: %ld requests, %ld budget overruns, %.1f%% [FRAG] ids\n",
               report.attempted, overruns, 100.0 * static_cast<double>(frag) / std::max(1L, total_ids));

  if (!opt.trace) return;
  // --- per-layer metrics (traced run) --------------------------------------
  const auto totals = self_times(tracer.spans());
  report.set("data.build_dataset_s", self_s(totals, "data.build_dataset"));
  report.set("text.tokenizer_train_s", self_s(totals, "text.tokenizer_train"));
  report.set("text.encode_s", self_s(totals, "text.encode"));
  report.set("eval.train_system_s.ours", self_s(totals, "eval.train_system.ours"));
  report.set("eval.prepare_request_s", self_s(totals, "eval.prepare_request"));
  report.set("spec.final_loss.ours", sys.train_stats.final_loss);
  long data_frag = 0;
  long data_ids = 0;
  for (const auto& ex : vsd::data::encode_for_training(dataset, sys.tokenizer, true)) {
    for (const int tkn : ex.code_ids) data_frag += tkn == vsd::text::Tokenizer::kFrag ? 1 : 0;
    data_ids += static_cast<long>(ex.code_ids.size());
  }
  report.set("data.frag_token_share", static_cast<double>(data_frag) / std::max(1L, data_ids));
  report.set("spec.budget_overruns", static_cast<double>(overruns));
  report.set("serve.frag_token_share", static_cast<double>(frag) / std::max(1L, total_ids));
  for (int d = 2; d <= 11 && d <= heads + 1; ++d) {
    report.set("spec.accept_ge." + std::to_string(d) + ".ours",
               static_cast<double>(accept_ge[static_cast<std::size_t>(d)]) /
                   std::max(1L, steps_total));
  }
  const vsd::serve::ServeStats& st = bursts.front().stats;  // the first timed burst
  report.set("serve.run_s", st.wall_seconds);
  report.set("serve.ticks", static_cast<double>(st.ticks));
  report.set("serve.occupancy_mean", st.occupancy_mean);
  report.set("serve.fused_rows", static_cast<double>(st.fused_rows));
  report.set("serve.fused_passes", static_cast<double>(st.fused_passes));
  report.set("serve.prefill_positions", static_cast<double>(st.prefill_positions));
  report.set("serve.cached_positions", static_cast<double>(st.cached_positions));
  report.set("serve.queue_wait_p50_s", st.queue_wait.p50);
  report.set("serve.ttft_p50_s", st.ttft.p50);
  report.set("serve.generator_late_p50_s", percentile(late, 0.5));
  report.set("serve.generator_late_max_s",
             late.empty() ? 0.0 : *std::max_element(late.begin(), late.end()));
  const vsd::serve::SessionCacheStats cs = cache.stats();
  report.set("serve.cache_hit_share",
             static_cast<double>(cs.hits) / std::max(1L, cs.hits + cs.misses));
  const vsd::nn::KvArenaStats& kv = open.stats.kv;
  report.set("nn.kv_pages_total", static_cast<double>(kv.pages_total));
  report.set("nn.kv_pages_cow_cloned", static_cast<double>(kv.pages_cow_cloned));
  report.set("nn.kv_bytes", static_cast<double>(kv.bytes));
  report.set("nn.step_s", decoder.measure_step_seconds(128));

  // The scheduler's own tick-phase and check spans, read back from its
  // Chrome-trace timeline.
  char* buf = nullptr;
  std::size_t len = 0;
  FILE* mem = open_memstream(&buf, &len);
  if (mem == nullptr) throw std::runtime_error("open_memstream failed");
  sched_trace->write(mem);
  std::fclose(mem);
  const std::string json(buf, len);
  std::free(buf);
  const auto sched = chrome_trace_self_times(json);
  for (const char* phase : {"propose", "gather", "score", "scatter", "accept", "capture"}) {
    report.set(std::string("serve.self_s.") + phase, self_s(sched, phase));
  }
  report.set("serve.self_s.check_lint", self_s(sched, "check:lint"));
  report.set("serve.self_s.check_elab", self_s(sched, "check:elab"));
  const std::string path =
      opt.out_dir + "/scheduler_serve_ours_" + std::to_string(opt.seed) + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
  }
}

}  // namespace vsdbench
