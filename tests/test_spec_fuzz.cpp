// Seeded mutational fuzzer for the two spec grammars `hare serve` reads:
// workload::parse_arrival_spec and fault::parse_fault_spec.
//
// Mutants grow from the grammars' documented examples by bit flips, byte
// inserts and deletes, splices of key=value items (and of keys with values)
// between examples, and numeric extremes (nan, 1e309, -0, 2^64, ...), one
// to four stacked operations per mutant. Every mutant must either parse or
// throw common::Error; any other exception, a crash or a hang is a parser
// bug. A spec that parses must also respect the documented value ranges,
// and a parsed fault spec must expand on a 16-GPU cluster to a plan within
// fault::kMaxFaultEvents or throw common::Error.
// The seed is fixed, so a failure reproduces; the failing input is printed
// with its non-printable bytes escaped.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <functional>
#include <iostream>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "fault/fault_spec.hpp"
#include "workload/arrival_spec.hpp"
#include "workload/trace.hpp"

namespace hare {
namespace {

constexpr std::size_t kMutantsPerGrammar = 12000;
constexpr std::size_t kMaxLength = 512;

const std::vector<std::string> kArrivalSeeds = {
    "jobs=500,rate=0.5,burst=8,burst_prob=0.2,burst_len=10",
    "jobs=200,rate=2,burst=5,on_period=30,off_period=90",
    "jobs=5000,rate=20,rounds_min=0.05,rounds_max=0.15",
    "jobs=96,rate=2,rounds_min=0.08,rounds_max=0.2,batch_scale=2",
};

const std::vector<std::string> kFaultSeeds = {
    "seed=7,machine_failures=1,mttr=40,cancellations=1,max_retries=2",
    "events=(fail_machine:0@30;recover_machine:0@80;cancel_job:3@12)",
    "events=(fail_gpu:1@5;recover_gpu:1@9;complete_job:2@7;"
    "straggle_gpu:3@10-20:1.5)",
    "gpu_failures=2,mttf=100,stragglers=2,straggler_factor=3,"
    "straggler_duration=5,horizon=500",
    "backoff_base=1,backoff_factor=2,backoff_cap=30,restart_overhead=2,"
    "replan_budget=4",
};

const char* const kExtremes[] = {
    "nan",   "-nan", "inf",  "-inf", "1e309", "-1e309", "-0",
    "18446744073709551616", "9223372036854775807", "9.2e18",
    "4294967296", "2147483648", "-2147483649", "1e-320", "0", "-1",
    "0x10", "1e",   ".",    "",     "+1",    "1.5e-7", "00000001",
};

bool numeric_char(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == '-' || c == '+' ||
         c == 'e' || c == 'E';
}

/// Items of a spec at top-level commas (no grammar awareness needed).
std::vector<std::string> split_items(const std::string& text) {
  std::vector<std::string> items;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = text.find(',', start);
    items.push_back(text.substr(start, comma - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return items;
}

std::string join_items(const std::vector<std::string>& items) {
  std::string out;
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  return out;
}

std::string mutate_once(std::string text, const std::vector<std::string>& seeds,
                        common::Rng& rng) {
  const std::string& other = seeds[rng.uniform_int(seeds.size())];
  switch (rng.uniform_int(7)) {
    case 0: {  // bit flip
      if (text.empty()) break;
      text[rng.uniform_int(text.size())] ^=
          static_cast<char>(1u << rng.uniform_int(8));
      break;
    }
    case 1: {  // byte insert: grammar punctuation or any byte
      static constexpr std::string_view kPunct = ",=();:@-.e0123456789";
      const char c = rng.uniform_int(2) == 0
                         ? kPunct[rng.uniform_int(kPunct.size())]
                         : static_cast<char>(rng.uniform_int(256));
      text.insert(text.begin() + static_cast<std::ptrdiff_t>(
                                     rng.uniform_int(text.size() + 1)),
                  c);
      break;
    }
    case 2: {  // byte-range delete
      if (text.empty()) break;
      const std::size_t at = rng.uniform_int(text.size());
      text.erase(at, 1 + rng.uniform_int(4));
      break;
    }
    case 3: {  // item splice: replace, duplicate or drop a key=value item
      std::vector<std::string> items = split_items(text);
      const std::vector<std::string> donors = split_items(other);
      const std::string& donor = donors[rng.uniform_int(donors.size())];
      const std::size_t at = rng.uniform_int(items.size());
      switch (rng.uniform_int(3)) {
        case 0: items[at] = donor; break;
        case 1: items.insert(items.begin() + static_cast<std::ptrdiff_t>(at),
                             donor); break;
        default: items.erase(items.begin() + static_cast<std::ptrdiff_t>(at));
      }
      text = join_items(items);
      break;
    }
    case 4: {  // key/value cross: this item's key with a donor's value
      std::vector<std::string> items = split_items(text);
      const std::vector<std::string> donors = split_items(other);
      const std::string& donor = donors[rng.uniform_int(donors.size())];
      std::string& item = items[rng.uniform_int(items.size())];
      const std::size_t eq = item.find('=');
      const std::size_t donor_eq = donor.find('=');
      if (eq == std::string::npos || donor_eq == std::string::npos) break;
      item = item.substr(0, eq) + donor.substr(donor_eq);
      text = join_items(items);
      break;
    }
    case 5:
    case 6: {  // numeric extreme over a run of number characters
      std::vector<std::size_t> starts;
      for (std::size_t i = 0; i < text.size(); ++i) {
        if (numeric_char(text[i]) && (i == 0 || !numeric_char(text[i - 1]))) {
          starts.push_back(i);
        }
      }
      const std::string extreme = kExtremes[rng.uniform_int(std::size(kExtremes))];
      if (starts.empty()) {
        text += extreme;
        break;
      }
      const std::size_t at = starts[rng.uniform_int(starts.size())];
      std::size_t end = at;
      while (end < text.size() && numeric_char(text[end])) ++end;
      text.replace(at, end - at, extreme);
      break;
    }
  }
  if (text.size() > kMaxLength) text.resize(kMaxLength);
  return text;
}

std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte >= 0x20 && byte < 0x7f && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", byte);
      out += buf;
    }
  }
  return out;
}

struct FuzzCounts {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Run `parse` on kMutantsPerGrammar mutants of `seeds`. `parse` returns
/// an empty string for an accepted input whose value is in range, or a
/// description of the violated range.
FuzzCounts fuzz(const std::vector<std::string>& seeds, std::uint64_t seed,
                const std::function<std::string(std::string_view)>& parse) {
  common::Rng rng(seed);
  FuzzCounts counts;
  for (std::size_t i = 0; i < kMutantsPerGrammar; ++i) {
    std::string text = seeds[rng.uniform_int(seeds.size())];
    const std::size_t ops = 1 + rng.uniform_int(4);
    for (std::size_t k = 0; k < ops; ++k) text = mutate_once(text, seeds, rng);
    try {
      const std::string violation = parse(text);
      EXPECT_TRUE(violation.empty())
          << "mutant " << i << " '" << escaped(text) << "' parsed, but "
          << violation;
      ++counts.parsed;
    } catch (const common::Error&) {
      ++counts.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " '" << escaped(text)
                    << "' threw a non-common::Error: " << e.what();
    } catch (...) {
      ADD_FAILURE() << "mutant " << i << " '" << escaped(text)
                    << "' threw a non-exception";
    }
  }
  return counts;
}

std::string arrival_violation(std::string_view text) {
  const workload::TraceConfig c = workload::parse_arrival_spec(text);
  if (c.job_count == 0) return "jobs is 0";
  if (!(c.base_arrival_rate > 0.0) || !std::isfinite(c.base_arrival_rate)) {
    return "rate is not a positive finite number";
  }
  if (!(c.burst_rate_multiplier >= 1.0)) return "burst < 1";
  if (!(c.burst_probability >= 0.0 && c.burst_probability <= 1.0)) {
    return "burst_prob outside [0, 1]";
  }
  if (!(c.mean_burst_length > 0.0)) return "burst_len <= 0";
  if ((c.burst_on_period > 0.0) != (c.burst_off_period > 0.0)) {
    return "only one of on_period/off_period set";
  }
  if (!(c.rounds_scale_min > 0.0 && c.rounds_scale_min <= c.rounds_scale_max)) {
    return "rounds scales out of order";
  }
  if (!(c.batch_scale > 0.0)) return "batch_scale <= 0";
  return {};
}

std::string fault_violation(std::string_view text) {
  const fault::FaultSpec spec = fault::parse_fault_spec(text);
  if (!(spec.straggler_factor > 1.0)) return "straggler_factor <= 1";
  for (const double v : {spec.mttf, spec.mttr, spec.straggler_duration,
                         spec.horizon, spec.retry.backoff_base_s,
                         spec.retry.backoff_factor, spec.retry.backoff_cap_s,
                         spec.retry.restart_overhead_s}) {
    if (!std::isfinite(v)) return "a non-finite value";
  }
  for (std::size_t i = 0; i < spec.scripted.size(); ++i) {
    const fault::FaultEvent& event = spec.scripted[i];
    if (!std::isfinite(event.time)) return "an event at a non-finite time";
    if (event.kind == fault::FaultKind::StragglerStart) {
      if (i + 1 >= spec.scripted.size() ||
          spec.scripted[i + 1].kind != fault::FaultKind::StragglerEnd ||
          !(spec.scripted[i + 1].time > event.time) || !(event.factor > 1.0)) {
        return "a straggler window that is empty or unpaired";
      }
    }
  }
  static const cluster::Cluster cluster =
      cluster::make_simulation_cluster(16, 25.0, 4);
  static const workload::JobSet jobs = [] {
    workload::TraceConfig trace;
    trace.job_count = 10;
    return workload::TraceGenerator(3).generate(trace);
  }();
  const fault::FaultPlan plan =
      fault::generate_fault_plan(spec, cluster, jobs, 60.0);
  if (plan.events.size() > fault::kMaxFaultEvents) {
    return "a plan past the event cap";
  }
  return {};
}

TEST(SpecFuzz, ArrivalSpecParsesOrThrowsError) {
  for (const std::string& seed : kArrivalSeeds) {
    EXPECT_EQ(arrival_violation(seed), "") << seed;
  }
  const FuzzCounts counts = fuzz(kArrivalSeeds, 0xa77'1fa1, arrival_violation);
  EXPECT_GT(counts.parsed, kMutantsPerGrammar / 20);
  EXPECT_GT(counts.rejected, kMutantsPerGrammar / 20);
  std::cout << "arrival spec: " << counts.parsed << " parsed, "
            << counts.rejected << " rejected\n";
}

TEST(SpecFuzz, FaultSpecParsesOrThrowsError) {
  for (const std::string& seed : kFaultSeeds) {
    EXPECT_EQ(fault_violation(seed), "") << seed;
  }
  const FuzzCounts counts = fuzz(kFaultSeeds, 0xfa'0175, fault_violation);
  EXPECT_GT(counts.parsed, kMutantsPerGrammar / 20);
  EXPECT_GT(counts.rejected, kMutantsPerGrammar / 20);
  std::cout << "fault spec: " << counts.parsed << " parsed, "
            << counts.rejected << " rejected\n";
}

}  // namespace
}  // namespace hare
