// Small helpers shared by the benchmark's files: clocks, percentiles, the
// benchmark's own span recorder (kept in memory, written as Chrome trace
// JSON at exit) and the one-line JSON result.
#ifndef PERFBENCH_FLEET_BENCH_UTIL_H_
#define PERFBENCH_FLEET_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace fleet {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank percentile (q in [0, 1]); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = rank == 0 ? 0 : std::min(rank - 1, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<long>(idx), v.end());
  return v[idx];
}

inline double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Latency samples, each with the time (seconds into the measured phase)
/// its operation started.
struct Series {
  std::vector<double> value;
  std::vector<float> at_s;
  void Add(float t, double v) {
    at_s.push_back(t);
    value.push_back(v);
  }
  size_t size() const { return value.size(); }
};

/// Splits the samples of `parts` into consecutive `window_s` windows,
/// takes the q-th percentile of each window holding at least `min_n`
/// samples, and returns the median of those (0 when none qualifies).
/// A burst of interference then moves one window, not the result.
inline double WindowedPercentile(const std::vector<const Series*>& parts, double q,
                                 double window_s, size_t min_n) {
  std::vector<std::vector<double>> windows;
  for (const Series* s : parts) {
    for (size_t i = 0; i < s->size(); ++i) {
      size_t w = static_cast<size_t>(std::max(0.0, static_cast<double>(s->at_s[i]) / window_s));
      if (w >= windows.size()) windows.resize(w + 1);
      windows[w].push_back(s->value[i]);
    }
  }
  std::vector<double> per_window;
  for (std::vector<double>& w : windows) {
    if (w.size() >= min_n) per_window.push_back(Percentile(std::move(w), q));
  }
  return Median(std::move(per_window));
}

/// Operations per second in each whole `window_s` window of a phase
/// lasting `phase_s`, median over windows.
inline double WindowedRate(const std::vector<const Series*>& parts, double window_s,
                           double phase_s) {
  size_t n = static_cast<size_t>(phase_s / window_s);
  std::vector<double> counts(n, 0.0);
  for (const Series* s : parts) {
    for (float t : s->at_s) {
      size_t w = static_cast<size_t>(std::max(0.0, static_cast<double>(t) / window_s));
      if (w < n) counts[w] += 1.0;
    }
  }
  for (double& c : counts) c /= window_s;
  return Median(std::move(counts));
}

/// One completed span: [start, start + dur) on one load thread, nested
/// under `parent` (0 = root).
struct SpanRecord {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t dur_ns = 0;
  uint32_t tid = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
};

/// Per-thread span buffer. A null buffer disables recording, so untraced
/// runs pay one pointer test per call.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t tid) : tid_(tid) {}
  uint32_t tid() const { return tid_; }
  std::vector<SpanRecord>& spans() { return spans_; }
  const std::vector<SpanRecord>& spans() const { return spans_; }
  uint64_t NextId() { return (static_cast<uint64_t>(tid_) << 40) | ++next_; }
  uint64_t current_parent = 0;

 private:
  uint32_t tid_;
  uint64_t next_ = 0;
  std::vector<SpanRecord> spans_;
};

/// RAII span around one call; records into `buf` when it is non-null.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name) : buf_(buf) {
    if (buf_ == nullptr) return;
    rec_.name = name;
    rec_.tid = buf_->tid();
    rec_.id = buf_->NextId();
    rec_.parent = buf_->current_parent;
    buf_->current_parent = rec_.id;
    start_ = Clock::now();
  }
  ~ScopedSpan() {
    if (buf_ == nullptr) return;
    Clock::time_point end = Clock::now();
    rec_.start_ns = start_.time_since_epoch().count();
    rec_.dur_ns = (end - start_).count();
    buf_->current_parent = rec_.parent;
    buf_->spans().push_back(rec_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  SpanRecord rec_;
  Clock::time_point start_;
};

/// Durations (in `scale` units per second, e.g. 1e6 for µs) of every span
/// called `name` across `buffers`.
inline std::vector<double> SpanDurations(
    const std::vector<const SpanBuffer*>& buffers, const std::string& name,
    double scale) {
  std::vector<double> out;
  for (const SpanBuffer* b : buffers) {
    for (const SpanRecord& r : b->spans()) {
      if (name == r.name) out.push_back(static_cast<double>(r.dur_ns) * 1e-9 * scale);
    }
  }
  return out;
}

/// Writes every span as a Chrome trace "X" event (loadable in Perfetto).
inline bool WriteChromeTrace(const std::string& path,
                             const std::vector<const SpanBuffer*>& buffers) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\":[");
  bool first = true;
  for (const SpanBuffer* b : buffers) {
    for (const SpanRecord& r : b->spans()) {
      std::fprintf(f,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                   "\"parent\":%llu}}",
                   first ? "" : ",", r.name, r.tid,
                   static_cast<double>(r.start_ns) * 1e-3,
                   static_cast<double>(r.dur_ns) * 1e-3,
                   static_cast<unsigned long long>(r.id),
                   static_cast<unsigned long long>(r.parent));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

/// Ordered (name, value, unit) list printed as the result's "metrics".
struct MetricList {
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> entries;
  void Add(std::string name, double value, std::string unit) {
    entries.push_back({std::move(name), value, std::move(unit)});
  }
};

inline std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                              const MetricList& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[128];
  for (size_t i = 0; i < metrics.entries.size(); ++i) {
    const MetricList::Entry& e = metrics.entries[i];
    double v = std::isfinite(e.value) ? e.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i == 0 ? "\"" : ", \"") + e.name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace fleet

#endif  // PERFBENCH_FLEET_BENCH_UTIL_H_
