// The four benchmark workloads. Each runs the real pipeline end to end,
// checks its outputs outside the timed phase, and fills every end-to-end
// metric; with tracing on it also fills the per-layer metrics from spans
// the workload records around its calls into each module.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.hpp"
#include "profiler/profiler.hpp"
#include "workload/trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// Untraced runs set up at least this many times, and for at least
/// kSetupMinMs in total, and report the median as setup_s; the traced run
/// sets up once.
inline constexpr std::size_t kSetupReps = 5;
inline constexpr double kSetupMinMs = 2000.0;
/// Worker cap for every pool the benchmark creates.
inline constexpr std::size_t kWorkers = 4;

/// Independent per-purpose seed streams from the one --seed argument.
[[nodiscard]] inline std::uint64_t derive_seed(std::uint64_t seed,
                                               std::uint64_t stream) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 29;
  return x;
}

/// Profiler work of one set-up, summed over its profile()/exact() calls.
struct ProfileCounts {
  std::uint64_t rows = 0;       ///< distinct rows interned
  std::uint64_t memo_hits = 0;  ///< (job, GPU) cells served by the memo
  std::uint64_t cells = 0;

  void add(const hare::profiler::Profiler& profiler) {
    rows += profiler.last_rows_computed();
    memo_hits += profiler.last_memo_hits();
    cells += profiler.last_memo_hits() + profiler.last_memo_misses();
  }
};

/// Record the set-up layers of a traced run: trace generation and
/// profiling time (spans "workload.gen" and "profiler.profile"), the
/// task count, and the profiler's row and memo counts.
inline void record_setup_layers(RunResult& result, const Tracer& tracer,
                                std::size_t tasks,
                                const ProfileCounts& profile) {
  result.layer("workload.gen_ms", tracer.total_ms("workload.gen"), "ms");
  result.layer("workload.tasks", static_cast<double>(tasks), "count");
  result.layer("profiler.profile_ms", tracer.total_ms("profiler.profile"),
               "ms");
  result.layer("profiler.rows_computed", static_cast<double>(profile.rows),
               "count");
  result.layer("profiler.memo_hit_ratio",
               ratio(static_cast<double>(profile.memo_hits),
                     static_cast<double>(profile.cells)),
               "ratio");
}

/// A short-job trace (rounds at 2-8% of each model's typical count) whose
/// bursts follow a fixed duty cycle: `on_s` seconds at six times `rate`,
/// then `off_s` seconds at `rate` jobs/s. Fixed burst windows keep the
/// load, and with it JCT and makespan, comparable from seed to seed; the
/// default MMPP draws bursts per arrival, and its realized load moves the
/// weighted JCT by up to 30% between seeds.
[[nodiscard]] inline hare::workload::TraceConfig loaded_trace(
    std::size_t jobs, double rate, double on_s, double off_s) {
  hare::workload::TraceConfig config;
  config.job_count = jobs;
  config.base_arrival_rate = rate;
  config.burst_on_period = on_s;
  config.burst_off_period = off_s;
  config.rounds_scale_min = 0.02;
  config.rounds_scale_max = 0.08;
  return config;
}

/// Build a workload's state from scratch (the previous state is freed
/// first, so peak memory holds one copy) once when tracing, else per
/// kSetupReps / kSetupMinMs; keep the last and return the median build
/// time in seconds through `setup_s`.
template <typename State, typename Build>
std::unique_ptr<State> repeated_setup(bool traced, Tracer& tracer,
                                      Build&& build, double& setup_s) {
  std::unique_ptr<State> state;
  std::vector<double> seconds;
  const auto first = Clock::now();
  while (seconds.empty() ||
         (!traced && (seconds.size() < kSetupReps ||
                      ms_since(first) < kSetupMinMs))) {
    state.reset();
    const auto start = Clock::now();
    {
      ScopedSpan span(tracer, "setup");
      state = build();
    }
    seconds.push_back(ms_since(start) / 1000.0);
  }
  setup_s = median(seconds);
  return state;
}

[[nodiscard]] RunResult run_testbed_lpcuts(const Options& options,
                                           Tracer& tracer);
[[nodiscard]] RunResult run_sharded_50k(const Options& options,
                                        Tracer& tracer);
[[nodiscard]] RunResult run_faults_diverse(const Options& options,
                                           Tracer& tracer);
[[nodiscard]] RunResult run_serve_bursty(const Options& options,
                                         Tracer& tracer);

}  // namespace perfbench
