// hare::obs metrics: named counters, gauges, and fixed-bucket histograms.
//
// Unlike spans, metric updates are always live (no enabled() gate): each is
// a relaxed atomic op, cheap enough for the layers that carry them
// (`planner.lp_pivots`, `sim.events_processed`, `switch.preempt_latency_us`,
// `exp.queue_depth`). Instrumentation sites cache the reference:
//
//   static auto& events = obs::counter("sim.events_processed");
//   events.add();
//
// The registry hands out stable references (instruments are never
// destroyed, only reset), and snapshots everything as JSON for
// `hare_cli --metrics-out` / the bench harness.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace hare::obs {

/// Monotonic event count. Unsigned 64-bit with well-defined wraparound
/// (modulo 2^64) — exporters report the raw value.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (queue depth, pool occupancy).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) {
    double current = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(current, current + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  [[nodiscard]] double value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram. Bucket i counts samples with
/// value <= bounds[i] (first matching bucket); samples above the last
/// bound land in the overflow bucket. Bounds are fixed at creation.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void record(double value);

  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket counts; size() == bounds().size() + 1 (last = overflow).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;
  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const;

  /// Upper bound on the nearest-rank quantile num/den (p99 = 99/100): the
  /// bound of the bucket holding the ceil(num/den * N)-th smallest sample,
  /// with the rank computed in integer arithmetic. +inf when that sample
  /// landed in the overflow bucket; 0 for an empty histogram.
  [[nodiscard]] double quantile_upper_bound(std::uint64_t num,
                                            std::uint64_t den) const;
  void reset();

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

class Registry {
 public:
  static Registry& instance();

  /// Get-or-create. References stay valid for the process lifetime.
  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// `bounds` is consulted only when the histogram is first created.
  Histogram& histogram(std::string_view name, std::vector<double> bounds);

  /// Snapshot every instrument as one JSON object.
  void write_json(std::ostream& out) const;
  [[nodiscard]] bool write_json_file(const std::string& path) const;

  /// Zero all values; registered instruments (and cached refs) survive.
  void reset();

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

inline Counter& counter(std::string_view name) {
  return Registry::instance().counter(name);
}
inline Gauge& gauge(std::string_view name) {
  return Registry::instance().gauge(name);
}
inline Histogram& histogram(std::string_view name,
                            std::vector<double> bounds) {
  return Registry::instance().histogram(name, std::move(bounds));
}

/// Default bucket bounds for latencies in microseconds: geometric from
/// 1 µs to 10 s, 40 per decade (each bound 10^(1/40) ≈ 1.059x the
/// previous), so a bucket-bound percentile overstates by < 6%.
[[nodiscard]] std::vector<double> latency_bounds_us();

}  // namespace hare::obs
