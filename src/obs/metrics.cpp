#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/error.hpp"

namespace hare::obs {

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  HARE_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
                 "histogram bounds must be ascending");
  counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) counts_[i] = 0;
}

void Histogram::record(double value) {
  // Upper-bound semantics: first bucket whose bound >= value.
  const std::size_t bucket = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
}

std::vector<std::uint64_t> Histogram::counts() const {
  std::vector<std::uint64_t> out(bounds_.size() + 1);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = counts_[i].load(std::memory_order_relaxed);
  }
  return out;
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

double Histogram::quantile_upper_bound(std::uint64_t num,
                                       std::uint64_t den) const {
  HARE_CHECK_MSG(den > 0 && num <= den, "quantile must lie in [0, 1]");
  const std::vector<std::uint64_t> snapshot = counts();
  std::uint64_t total = 0;
  for (std::uint64_t c : snapshot) total += c;
  if (total == 0) return 0.0;
  const std::uint64_t rank = std::max<std::uint64_t>(
      1, (num * total + den - 1) / den);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < bounds_.size(); ++i) {
    seen += snapshot[i];
    if (seen >= rank) return bounds_[i];
  }
  return std::numeric_limits<double>::infinity();
}

void Histogram::reset() {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

Registry& Registry::instance() {
  static Registry registry;
  return registry;
}

Counter& Registry::counter(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Gauge& Registry::gauge(std::string_view name) {
  std::scoped_lock lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name,
                               std::vector<double> bounds) {
  std::scoped_lock lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<Histogram>(std::move(bounds)))
             .first;
  }
  return *it->second;
}

namespace {

/// JSON-safe number formatting (no inf/nan; plain decimal).
std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  std::ostringstream os;
  os << value;
  return os.str();
}

}  // namespace

void Registry::write_json(std::ostream& out) const {
  std::scoped_lock lock(mutex_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, counter] : counters_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << counter->value();
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"gauges\": {";
  first = true;
  for (const auto& [name, gauge] : gauges_) {
    out << (first ? "\n" : ",\n") << "    \"" << name
        << "\": " << json_number(gauge->value());
    first = false;
  }
  out << (first ? "" : "\n  ") << "},\n  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : histograms_) {
    out << (first ? "\n" : ",\n") << "    \"" << name << "\": {\"bounds\": [";
    const auto& bounds = histogram->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      out << (i ? ", " : "") << json_number(bounds[i]);
    }
    out << "], \"counts\": [";
    const auto counts = histogram->counts();
    for (std::size_t i = 0; i < counts.size(); ++i) {
      out << (i ? ", " : "") << counts[i];
    }
    out << "], \"count\": " << histogram->count()
        << ", \"sum\": " << json_number(histogram->sum()) << "}";
    first = false;
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
}

bool Registry::write_json_file(const std::string& path) const {
  std::ofstream file(path);
  if (!file) return false;
  write_json(file);
  return static_cast<bool>(file);
}

void Registry::reset() {
  std::scoped_lock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

std::vector<double> latency_bounds_us() {
  // 10^(k/40) µs for k = 0..280: 1 µs to 10 s, exact at every decade.
  constexpr int kPerDecade = 40;
  constexpr int kDecades = 7;
  std::vector<double> bounds;
  bounds.reserve(kPerDecade * kDecades + 1);
  for (int k = 0; k <= kPerDecade * kDecades; ++k) {
    bounds.push_back(std::pow(10.0, static_cast<double>(k) / kPerDecade));
  }
  return bounds;
}

}  // namespace hare::obs
