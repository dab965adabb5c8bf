// WiredTiger-style fault-spec config strings.
//
// A scenario is one comma-separated `key=value` string (SNIPPETS.md
// snippet 3's cppsuite idiom) instead of a C++ struct literal, so new
// fault scenarios are a config line, not a recompile:
//
//   "seed=7,machine_failures=1,mttr=40,cancellations=1,max_retries=2"
//
// Stochastic knobs (counts + mttf/mttr) expand into a concrete
// `FaultPlan` via `generate_fault_plan`, deterministically from `seed`.
// Fully scripted scenarios pin every event with the explicit list:
//
//   "events=(fail_machine:0@30;recover_machine:0@80;cancel_job:3@12)"
//
// Entry grammar inside `events=(...)` (';'-separated):
//   fail_machine:<id>@<t>      recover_machine:<id>@<t>
//   fail_gpu:<id>@<t>          recover_gpu:<id>@<t>
//   cancel_job:<id>@<t>        complete_job:<id>@<t>
//   straggle_gpu:<id>@<t0>-<t1>:<factor>
//
// Unknown keys, malformed or out-of-range values, duplicate keys,
// dangling separators, and the empty string all throw common::Error with
// the offending fragment — a typo'd scenario must fail loudly, not
// silently run fault-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "cluster/cluster.hpp"
#include "fault/fault_plan.hpp"
#include "workload/job.hpp"

namespace hare::fault {

struct FaultSpec {
  std::uint64_t seed = 1;

  // Stochastic generation knobs.
  std::size_t machine_failures = 0;
  std::size_t gpu_failures = 0;
  /// Mean time to failure (s). With explicit counts it shapes nothing;
  /// with counts at 0 and mttf > 0, GPU failures arrive as a Poisson
  /// process of rate gpu_count / mttf over the horizon.
  Time mttf = 0.0;
  /// Mean time to repair (s); 0 = failures are permanent (no recovery).
  Time mttr = 0.0;
  std::size_t cancellations = 0;
  std::size_t stragglers = 0;
  double straggler_factor = 2.0;
  Time straggler_duration = 0.0;  ///< 0 = drawn ~ Exp(mean 0.2 * horizon)

  // Retry / replan policy.
  RetryPolicy retry{};
  std::size_t replan_budget = 8;  ///< full replans before greedy fallback

  /// Overrides the caller-provided horizon when > 0 (the runner passes
  /// the fault-free makespan).
  Time horizon = 0.0;

  /// Scripted events, appended verbatim to whatever the knobs generate.
  std::vector<FaultEvent> scripted;
};

/// Most events one generated plan may hold: generate_fault_plan checks a
/// spec against it before expanding and throws common::Error naming the
/// key that exceeds it.
inline constexpr std::size_t kMaxFaultEvents = 1'000'000;

/// Parse a config string. Throws common::Error on unknown keys or
/// malformed values.
[[nodiscard]] FaultSpec parse_fault_spec(std::string_view text);

/// Expand a spec into a concrete, time-sorted plan. Deterministic in
/// (spec, cluster shape, job count, horizon). `horizon` should be the
/// expected fault-free run length; spec.horizon overrides it when set.
[[nodiscard]] FaultPlan generate_fault_plan(const FaultSpec& spec,
                                            const cluster::Cluster& cluster,
                                            const workload::JobSet& jobs,
                                            Time horizon);

/// Human-readable one-liner for an event ("fail_machine:2@30.0"), used in
/// logs, traces, and the CLI scenario dump.
[[nodiscard]] std::string describe(const FaultEvent& event);

}  // namespace hare::fault
