// Measurement plumbing shared by the four workloads: a wall-clock
// stopwatch, an in-memory span recorder for the traced run, the metric
// sink main() prints, and the fixed host reference loop.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Median of a sample (by value; the input order is irrelevant).
[[nodiscard]] double median(std::vector<double> values);

/// Nearest-rank percentile, q in (0, 1]: the smallest sample with at least
/// q of the samples at or below it.
[[nodiscard]] double percentile(std::vector<double> values, double q);

/// One recorded span: [start_ms, end_ms) relative to the tracer's origin,
/// and the index of the enclosing span (-1 = top level).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;

  [[nodiscard]] double duration_ms() const { return end_ms - start_ms; }
};

/// In-memory span recorder. Disabled, open()/close() cost one branch and
/// record nothing, so the untraced run pays nothing measurable. Spans are
/// kept until the run ends; self time is a span's duration minus the time
/// its direct children cover.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  int open(std::string_view name);
  void close(int index);

  /// Summed duration and count of every span with this name.
  [[nodiscard]] double total_ms(std::string_view name) const;
  [[nodiscard]] std::size_t count(std::string_view name) const;
  /// Mean duration of the spans with this name (0 when there are none).
  [[nodiscard]] double mean_ms(std::string_view name) const;
  /// Summed duration of the top-level spans and the wall time from the
  /// tracer's creation to now.
  [[nodiscard]] double top_level_ms() const;
  [[nodiscard]] double wall_ms() const { return ms_since(origin_); }

  /// Write every span as one JSON document (name, start, end, parent,
  /// self time). Returns false when the file cannot be written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, std::string_view name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~ScopedSpan() { tracer_.close(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;  ///< jobs submitted to the timed operations
  std::uint64_t failed = 0;     ///< of those, dead-lettered or never planned
  std::size_t plan_samples = 0;  ///< planning calls behind plan_ms.*
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> failures;  ///< output checks that did not hold
  std::vector<std::string> notes;     ///< context printed to stderr

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end[name] = Metric{value, unit};
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer[name] = Metric{value, unit};
  }
  /// Record an output check; a false condition fails the run.
  void check(bool condition, const std::string& what) {
    if (!condition) {
      correct = false;
      failures.push_back(what);
    }
  }
};

/// num / den, or 0 when den is 0.
[[nodiscard]] inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Call `op(k)` for k in [0, n) in whole cycles until `seconds` of wall
/// time have passed (at least one cycle), timing each call; `after(k,
/// cycle)` runs untimed after each call. Returns the per-call times (ms).
template <typename Op, typename After>
std::vector<double> timed_cycles(double seconds, std::size_t n, Op&& op,
                                 After&& after) {
  std::vector<double> call_ms;
  const auto phase_start = Clock::now();
  for (std::size_t cycle = 0;
       cycle == 0 || ms_since(phase_start) < seconds * 1000.0; ++cycle) {
    for (std::size_t k = 0; k < n; ++k) {
      const auto start = Clock::now();
      op(k);
      call_ms.push_back(ms_since(start));
      after(k, cycle);
    }
  }
  return call_ms;
}

/// Record the end-to-end metrics every workload measures the same way:
/// setup_s, jobs_per_s (jobs handled ÷ summed call time), plan_ms.p50 and
/// plan_ms.p90 over the calls, and the process's peak_rss_mb.
void record_timing(RunResult& result, double setup_s,
                   const std::vector<double>& call_ms, double jobs_per_call);

/// Time the fixed CPU-bound reference loop once (ms). Its work never
/// changes, so a slower reading means a slower or busier host.
[[nodiscard]] double host_reference_ms();

}  // namespace perfbench
