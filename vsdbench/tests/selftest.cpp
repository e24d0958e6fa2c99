// Tests of the benchmark's own helpers: the lint corpus generator and its
// ground truth, percentiles, and span self-time accounting.  Run with
// `ctest` in the benchmark's build directory, or directly.
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "lintgen.hpp"
#include "tracing.hpp"
#include "vlog/dataflow.hpp"
#include "vlog/lint.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void test_percentile() {
  using vsdbench::percentile;
  expect(percentile({}, 0.5) == 0.0, "percentile of nothing is 0");
  expect(near(percentile({3.0}, 0.9), 3.0), "percentile of one value");
  expect(near(percentile({4.0, 1.0, 3.0, 2.0}, 0.5), 2.5), "median interpolates");
  expect(near(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11}, 0.9), 10.0),
         "p90 of 1..11 is 10");
  expect(near(percentile({5.0, 1.0}, 0.0), 1.0), "p0 is the minimum");
  expect(near(percentile({5.0, 1.0}, 1.0), 5.0), "p100 is the maximum");
}

void test_self_time() {
  using vsdbench::SpanRecord;
  // root [0,10) has children [1,3), [2,6) and [7,8), whose union covers 6;
  // the second child has a child [4,5) of its own.
  std::vector<SpanRecord> s = {
      {"root", 0.0, 10.0, -1, 0, 0},
      {"a", 1.0, 3.0, 0, 0, 0},
      {"b", 2.0, 6.0, 0, 0, 0},
      {"c", 4.0, 5.0, 2, 0, 0},
      {"a", 7.0, 8.0, 0, 0, 0},
  };
  const auto t = vsdbench::self_times(s);
  expect(near(t.at("root"), 10.0 - 6.0), "root self subtracts the union of children");
  expect(near(t.at("b"), 3.0), "b self subtracts its own child");
  expect(near(t.at("a"), 3.0), "a summed over two spans");
  expect(near(t.at("c"), 1.0), "leaf self equals its duration");

  // The scheduler-trace reader infers nesting from containment per lane.
  const std::string json =
      "{\"traceEvents\":[\n"
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"x\"}},\n"
      "{\"name\":\"tick\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"serve\",\"ts\":100.000,\"dur\":50.000},\n"
      "{\"name\":\"score\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"cat\":\"serve\",\"ts\":110.000,\"dur\":20.000},\n"
      "{\"name\":\"accept\",\"ph\":\"X\",\"pid\":1,\"tid\":2,\"cat\":\"serve\",\"ts\":110.000,\"dur\":30.000},\n"
      "{\"name\":\"request\",\"ph\":\"b\",\"pid\":1,\"tid\":1,\"ts\":100.000,\"id\":3}\n"
      "]}\n";
  const auto c = vsdbench::chrome_trace_self_times(json);
  expect(c.size() == 3, "only complete events are read");
  expect(near(c.at("tick"), 30e-6), "tick self time excludes its nested score span");
  expect(near(c.at("accept"), 30e-6), "a span on another lane is not a child");
}

void test_tracer() {
  vsdbench::Tracer off(false);
  { const vsdbench::Scope s(off, "x"); }
  expect(off.spans().empty(), "disabled tracer records nothing");
  vsdbench::Tracer on(true);
  {
    const vsdbench::Scope outer(on, "outer", 7);
    const vsdbench::Scope inner(on, "inner", 7);
  }
  const auto spans = on.spans();
  expect(spans.size() == 2 && spans[1].parent == 0 && spans[0].parent == -1,
         "nested scopes record their parent");
  expect(spans.size() == 2 && spans[0].request == 7, "request id is kept");
}

std::set<std::string> codes_of(const vsd::vlog::LintResult& r) {
  std::set<std::string> out;
  for (const auto& d : r.diagnostics()) out.insert(d.code);
  return out;
}

void test_corpus() {
  const auto a = vsdbench::make_lint_corpus(5);
  const auto b = vsdbench::make_lint_corpus(5);
  const auto c = vsdbench::make_lint_corpus(6);
  expect(a.size() == b.size(), "same seed, same corpus size");
  bool same = a.size() == b.size();
  for (std::size_t i = 0; same && i < a.size(); ++i) same = a[i].source == b[i].source;
  expect(same, "same seed, same corpus");
  bool differs = a.size() != c.size();
  for (std::size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].source != c[i].source;
  expect(differs, "another seed, another corpus");

  std::set<std::string> planted_seen;
  for (std::uint64_t seed : {1ull, 2ull, 3ull}) {
    for (const auto& lc : vsdbench::make_lint_corpus(seed)) {
      const auto flat = vsd::vlog::lint_source(lc.source);
      const auto elab = vsd::vlog::elab_lint_source(lc.source);
      if (lc.planted.empty()) {
        expect(!flat.has_errors() && !elab.has_errors(),
               "clean input " + lc.name + " reports no error");
        continue;
      }
      std::set<std::string> got = codes_of(flat);
      for (const auto& code : codes_of(elab)) got.insert(code);
      for (const std::string& code : lc.planted) {
        planted_seen.insert(code);
        expect(got.count(code) == 1, lc.name + " reports planted " + code);
      }
    }
  }
  for (const std::string& code : vsdbench::planted_codes()) {
    expect(planted_seen.count(code) == 1, "corpus plants " + code);
  }

  const auto hostile = vsdbench::hostile_inputs();
  expect(hostile.size() == 2, "two hostile inputs");
  expect(hostile.size() == 2 && hostile[0].source.find(std::string(20000, '(')) !=
                                    std::string::npos,
         "20k nested parentheses");
  expect(hostile.size() == 2 &&
             hostile[1].source.find(std::string("if (c) begin\n")) != std::string::npos &&
             hostile[1].source.size() > 100000 * 13,
         "100k nested if-begin");
  // The shallow forms of the same builders parse and lint clean.
  expect(!vsd::vlog::lint_source(vsdbench::nested_parens_module("p", 50)).has_errors(),
         "shallow parens are legal");
  expect(!vsd::vlog::lint_source(vsdbench::nested_if_module("f", 20)).has_errors(),
         "shallow if nesting is legal");
}

}  // namespace

int main() {
  test_percentile();
  test_self_time();
  test_tracer();
  test_corpus();
  if (g_failures == 0) std::printf("vsdbench selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
