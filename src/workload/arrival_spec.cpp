#include "workload/arrival_spec.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <sstream>
#include <vector>

#include "common/error.hpp"

namespace hare::workload {

namespace {

[[noreturn]] void bad_spec(std::string_view what, std::string_view fragment) {
  std::ostringstream os;
  os << "arrival spec: " << what << " in '" << fragment << "'";
  throw common::Error(os.str());
}

double parse_number(std::string_view text, std::string_view fragment) {
  double value = 0.0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec == std::errc::result_out_of_range) {
    bad_spec("number out of range", fragment);
  }
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    bad_spec("malformed number", fragment);
  }
  if (!std::isfinite(value)) bad_spec("number out of range", fragment);
  return value;
}

std::size_t parse_count(std::string_view text, std::string_view fragment) {
  const double value = parse_number(text, fragment);
  // Reject magnitudes the long cast below can't represent before casting
  // (the cast itself would be undefined behaviour on overflow).
  if (value >= 9.2e18) bad_spec("number out of range", fragment);
  if (value < 0.0 || value != static_cast<double>(static_cast<long>(value))) {
    bad_spec("expected a non-negative integer", fragment);
  }
  return static_cast<std::size_t>(value);
}

}  // namespace

TraceConfig parse_arrival_spec(std::string_view text) {
  if (text.empty()) bad_spec("empty spec", text);
  TraceConfig config;
  std::vector<std::string_view> seen_keys;
  std::size_t pos = 0;
  bool trailing = false;
  while (pos < text.size() || trailing) {
    // Depth-aware comma scan, matching the fault-spec grammar, so a future
    // nested (...) value stays parseable.
    std::size_t end = pos;
    int depth = 0;
    while (end < text.size() && (text[end] != ',' || depth > 0)) {
      if (text[end] == '(') ++depth;
      if (text[end] == ')') --depth;
      ++end;
    }
    const std::string_view item = text.substr(pos, end - pos);
    trailing = end < text.size();  // a ',' consumed with nothing after it
    pos = end + (trailing ? 1 : 0);
    if (item.empty()) bad_spec("dangling separator", text);

    const auto eq = item.find('=');
    if (eq == std::string_view::npos) bad_spec("expected key=value", item);
    const std::string_view key = item.substr(0, eq);
    const std::string_view value = item.substr(eq + 1);
    if (std::find(seen_keys.begin(), seen_keys.end(), key) !=
        seen_keys.end()) {
      bad_spec("duplicate key", item);
    }
    seen_keys.push_back(key);

    if (key == "jobs") {
      config.job_count = parse_count(value, item);
      if (config.job_count == 0) bad_spec("jobs must be positive", item);
    } else if (key == "rate") {
      config.base_arrival_rate = parse_number(value, item);
      if (config.base_arrival_rate <= 0.0) {
        bad_spec("rate must be positive", item);
      }
    } else if (key == "burst") {
      config.burst_rate_multiplier = parse_number(value, item);
      if (config.burst_rate_multiplier < 1.0) {
        bad_spec("burst multiplier must be >= 1", item);
      }
    } else if (key == "burst_prob") {
      config.burst_probability = parse_number(value, item);
      if (config.burst_probability < 0.0 || config.burst_probability > 1.0) {
        bad_spec("burst_prob must be in [0, 1]", item);
      }
    } else if (key == "burst_len") {
      config.mean_burst_length = parse_number(value, item);
      if (config.mean_burst_length <= 0.0) {
        bad_spec("burst_len must be positive", item);
      }
    } else if (key == "on_period") {
      config.burst_on_period = parse_number(value, item);
      if (config.burst_on_period <= 0.0) {
        bad_spec("on_period must be positive", item);
      }
    } else if (key == "off_period") {
      config.burst_off_period = parse_number(value, item);
      if (config.burst_off_period <= 0.0) {
        bad_spec("off_period must be positive", item);
      }
    } else if (key == "rounds_min") {
      config.rounds_scale_min = parse_number(value, item);
      if (config.rounds_scale_min <= 0.0) {
        bad_spec("rounds_min must be positive", item);
      }
    } else if (key == "rounds_max") {
      config.rounds_scale_max = parse_number(value, item);
      if (config.rounds_scale_max <= 0.0) {
        bad_spec("rounds_max must be positive", item);
      }
    } else if (key == "batch_scale") {
      config.batch_scale = parse_number(value, item);
      if (config.batch_scale <= 0.0) {
        bad_spec("batch_scale must be positive", item);
      }
    } else {
      bad_spec("unknown key", item);
    }
  }
  if ((config.burst_on_period > 0.0) != (config.burst_off_period > 0.0)) {
    bad_spec("on_period and off_period must be set together", text);
  }
  if (config.rounds_scale_min > config.rounds_scale_max) {
    bad_spec("rounds_min exceeds rounds_max", text);
  }
  return config;
}

}  // namespace hare::workload
