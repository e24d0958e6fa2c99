#include "tracing.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <thread>

namespace vsdbench {

namespace {

// Open spans of the calling thread, innermost last.  One Tracer is live
// per benchmark process, so the stack is not keyed by tracer.
thread_local std::vector<int> t_open;

std::string json_escape(std::string_view s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::open(std::string_view name, std::uint64_t request) {
  if (!enabled_) return -1;
  const double now = seconds_between(origin_, Clock::now());
  const std::uint64_t tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
  const std::lock_guard<std::mutex> lock(mu_);
  const auto lane = threads_.try_emplace(tid, static_cast<int>(threads_.size()));
  SpanRecord r;
  r.name = std::string(name);
  r.start_s = now;
  r.end_s = now;
  r.parent = t_open.empty() ? -1 : t_open.back();
  r.request = request;
  r.thread = lane.first->second;
  spans_.push_back(std::move(r));
  const int index = static_cast<int>(spans_.size()) - 1;
  t_open.push_back(index);
  return index;
}

void Tracer::close(int index) {
  const double now = seconds_between(origin_, Clock::now());
  {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(index)].end_s = now;
  }
  if (!t_open.empty() && t_open.back() == index) t_open.pop_back();
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<SpanRecord> all = spans();
  std::fprintf(f, "{\"traceEvents\":[");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const SpanRecord& s = all[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%zu,\"parent\":%d,"
                 "\"request\":%llu}}",
                 i == 0 ? "" : ",", json_escape(s.name).c_str(), s.thread,
                 s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, i, s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(f) == 0;
}

std::map<std::string, double> self_times(const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const int p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(static_cast<int>(i));
    }
  }
  std::map<std::string, double> out;
  std::vector<std::pair<double, double>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double dur = std::max(0.0, s.end_s - s.start_s);
    iv.clear();
    for (const int c : children[i]) {
      const SpanRecord& k = spans[static_cast<std::size_t>(c)];
      const double lo = std::max(k.start_s, s.start_s);
      const double hi = std::min(k.end_s, s.end_s);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    for (const auto& [lo, hi] : iv) {
      if (lo > cur_hi) {
        if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
      } else {
        cur_hi = std::max(cur_hi, hi);
      }
    }
    if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    out[s.name] += std::max(0.0, dur - covered);
  }
  return out;
}

namespace {

// Value text following `"key":` inside one event object, or empty.
std::string_view field(std::string_view obj, std::string_view key) {
  const std::string pat = "\"" + std::string(key) + "\":";
  const std::size_t at = obj.find(pat);
  if (at == std::string_view::npos) return {};
  std::size_t b = at + pat.size();
  if (b < obj.size() && obj[b] == '"') {
    const std::size_t e = obj.find('"', b + 1);
    return e == std::string_view::npos ? std::string_view{} : obj.substr(b + 1, e - b - 1);
  }
  std::size_t e = b;
  while (e < obj.size() && obj[e] != ',' && obj[e] != '}') ++e;
  return obj.substr(b, e - b);
}

double to_double(std::string_view s) {
  return std::strtod(std::string(s).c_str(), nullptr);
}

}  // namespace

std::map<std::string, double> chrome_trace_self_times(std::string_view json) {
  // TraceWriter writes one event object per line.
  std::vector<SpanRecord> spans;
  std::size_t pos = 0;
  while (pos < json.size()) {
    std::size_t eol = json.find('\n', pos);
    if (eol == std::string_view::npos) eol = json.size();
    const std::string_view line = json.substr(pos, eol - pos);
    pos = eol + 1;
    if (field(line, "ph") != "X") continue;
    SpanRecord r;
    r.name = std::string(field(line, "name"));
    r.thread = static_cast<int>(to_double(field(line, "tid")));
    r.start_s = to_double(field(line, "ts")) * 1e-6;
    r.end_s = r.start_s + to_double(field(line, "dur")) * 1e-6;
    spans.push_back(std::move(r));
  }
  // Nesting per lane: sort by start (longer first on ties) and keep a
  // stack of the spans that still contain the current start.
  std::vector<int> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    const SpanRecord& x = spans[static_cast<std::size_t>(a)];
    const SpanRecord& y = spans[static_cast<std::size_t>(b)];
    if (x.thread != y.thread) return x.thread < y.thread;
    if (x.start_s != y.start_s) return x.start_s < y.start_s;
    return x.end_s > y.end_s;
  });
  std::vector<int> stack;
  int lane = -1;
  for (const int i : order) {
    SpanRecord& s = spans[static_cast<std::size_t>(i)];
    if (s.thread != lane) {
      stack.clear();
      lane = s.thread;
    }
    while (!stack.empty() && spans[static_cast<std::size_t>(stack.back())].end_s <= s.start_s) {
      stack.pop_back();
    }
    s.parent = stack.empty() ? -1 : stack.back();
    stack.push_back(i);
  }
  return self_times(spans);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

}  // namespace vsdbench
