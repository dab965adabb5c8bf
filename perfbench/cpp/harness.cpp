#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>

#include "common/resource.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

int Tracer::open(std::string_view name) {
  if (!enabled_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{std::string(name), ms_since(origin_), 0.0, parent});
  const int index = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ms = ms_since(origin_);
  // Spans close in LIFO order (ScopedSpan), so the closing span is on top.
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

double Tracer::total_ms(std::string_view name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += span.duration_ms();
  }
  return total;
}

std::size_t Tracer::count(std::string_view name) const {
  std::size_t n = 0;
  for (const Span& span : spans_) n += span.name == name ? 1 : 0;
  return n;
}

double Tracer::mean_ms(std::string_view name) const {
  const std::size_t n = count(name);
  return n == 0 ? 0.0 : total_ms(name) / static_cast<double>(n);
}

double Tracer::top_level_ms() const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.parent < 0) total += span.duration_ms();
  }
  return total;
}

bool Tracer::write_json(const std::string& path) const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<std::size_t>(span.parent)] += span.duration_ms();
    }
  }
  std::ofstream out(path);
  out << std::setprecision(9) << "{\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "  {\"name\": \"" << span.name << "\", \"start_ms\": "
        << span.start_ms << ", \"end_ms\": " << span.end_ms
        << ", \"parent\": " << span.parent
        << ", \"self_ms\": " << span.duration_ms() - child_ms[i] << "}"
        << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

void record_timing(RunResult& result, double setup_s,
                   const std::vector<double>& call_ms, double jobs_per_call) {
  double total_ms = 0.0;
  for (double ms : call_ms) total_ms += ms;
  result.e2e("setup_s", setup_s, "s");
  result.e2e("jobs_per_s",
             ratio(jobs_per_call * static_cast<double>(call_ms.size()),
                   total_ms / 1000.0),
             "1/s");
  result.e2e("plan_ms.p50", percentile(call_ms, 0.50), "ms");
  result.e2e("plan_ms.p90", percentile(call_ms, 0.90), "ms");
  result.e2e("peak_rss_mb",
             static_cast<double>(hare::common::peak_rss_bytes()) /
                 (1024.0 * 1024.0),
             "MB");
  result.plan_samples = call_ms.size();
}

double host_reference_ms() {
  // A dependent chain of integer mixes and floating-point updates: no
  // memory traffic, no vectorization, a fixed instruction count.
  const auto start = Clock::now();
  std::uint64_t state = 0x9e3779b97f4a7c15ULL;
  double acc = 1.0;
  for (std::uint64_t i = 0; i < 60'000'000ULL; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    acc = acc * 0.999999 + static_cast<double>(state & 0xffff) * 1e-9;
  }
  const double elapsed = ms_since(start);
  // Keep the result observable so the loop cannot be folded away.
  if (acc == 0.0 && state == 0) return -elapsed;
  return elapsed;
}

}  // namespace perfbench
