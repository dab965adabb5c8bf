// Equivalence guarantees for the fast planning pipeline.
//
// The engine knobs (indexed placement, pool-sharded candidate scans,
// incremental separation, cached TimeTable aggregates) are wall-clock
// optimizations only, and the warm-started LpCuts loop lands on the same
// vertex a cold solve would. This suite pins that contract:
//  (a) the warm LpCuts loop reports the vertex of a cold solve of its final
//      program, in fewer pivots than a cold solve per round, and the naive
//      engine matches it on the Fig 1 toy and on random instances;
//  (b) the naive, indexed, and sharded planners emit bit-identical
//      sim::Schedules (task→GPU sequences and predicted starts) across
//      seeds, placement rules, and relaxation modes;
//  (c) the cached TimeTable aggregates match naive reductions and survive
//      invalidation via set().
#include <gtest/gtest.h>

#include <vector>

#include "core/hare.hpp"
#include "core/placement_index.hpp"
#include "test_util.hpp"
#include "workload/feasibility.hpp"

namespace hare {
namespace {

testing::Instance fig1_toy() {
  testing::Instance instance;
  instance.cluster = cluster::ClusterBuilder{}
                         .add_machine(cluster::GpuType::V100, 1)
                         .add_machine(cluster::GpuType::T4, 1)
                         .add_machine(cluster::GpuType::K80, 1)
                         .build();
  workload::JobSpec j1;
  j1.rounds = 2;
  j1.tasks_per_round = 2;
  instance.jobs.add_job(j1);
  workload::JobSpec j2;
  j2.rounds = 4;
  j2.tasks_per_round = 1;
  instance.jobs.add_job(j2);
  workload::JobSpec j3;
  j3.rounds = 2;
  j3.tasks_per_round = 2;
  instance.jobs.add_job(j3);

  instance.times = profiler::TimeTable(3, 3);
  const double t[3][3] = {{1.0, 1.1, 1.2}, {1.0, 0.4, 2.0}, {1.1, 1.2, 1.0}};
  for (int j = 0; j < 3; ++j) {
    for (int g = 0; g < 3; ++g) {
      instance.times.set(JobId(j), GpuId(g), t[j][g], 0.05);
    }
  }
  return instance;
}

core::RelaxationResult solve_lp(const testing::Instance& instance,
                                bool naive,
                                opt::LinearProgram* program = nullptr) {
  core::RelaxationConfig config;
  config.mode = core::RelaxMode::LpCuts;
  config.engine.naive = naive;
  const core::HareRelaxation relaxation(config);
  return relaxation.solve(instance.cluster, instance.jobs, instance.times, {},
                          nullptr, program);
}

/// The program the cut loop solved in round `round`: the final program's
/// variables and base rows plus the cuts appended up to that round.
opt::LinearProgram round_program(const core::RelaxationResult& relaxed,
                                 const opt::LinearProgram& full,
                                 std::size_t round) {
  std::size_t later_cuts = 0;
  for (std::size_t r = round + 1; r < relaxed.lp_rounds.size(); ++r) {
    later_cuts += relaxed.lp_rounds[r].cuts_added;
  }
  opt::LinearProgram lp;
  for (std::size_t j = 0; j < full.variable_count(); ++j) {
    lp.add_variable(full.objective(j));
    lp.set_bounds(j, full.lower_bound(j), full.upper_bound(j));
  }
  const std::size_t rows = full.constraint_count() - later_cuts;
  for (std::size_t i = 0; i < rows; ++i) {
    const opt::LinearProgram::Row& row = full.rows()[i];
    lp.add_constraint(row.terms, row.rel, row.rhs);
  }
  return lp;
}

void expect_warm_matches_cold(const testing::Instance& instance) {
  opt::LinearProgram program;
  const core::RelaxationResult warm = solve_lp(instance, false, &program);
  EXPECT_GE(warm.cut_count, 1u) << "toy/random instances always need cuts";

  // Every re-solve after the first must actually have reused the basis.
  ASSERT_EQ(warm.lp_rounds.size(), warm.lp_solves);
  for (std::size_t r = 0; r < warm.lp_rounds.size(); ++r) {
    EXPECT_EQ(warm.lp_rounds[r].warm, r > 0) << "round " << r;
  }

  // Cold-start reference: a two-phase solve of each round's program from
  // scratch. The last one lands on the warm loop's vertex (the perturbed
  // optimum is unique), and the whole warm run costs fewer pivots than
  // the cold solves together.
  std::size_t cold_pivots = 0;
  opt::LpSolution cold;
  for (std::size_t r = 0; r < warm.lp_rounds.size(); ++r) {
    opt::LpIterationStats stats;
    cold = round_program(warm, program, r).solve(100000, &stats);
    ASSERT_TRUE(cold.optimal()) << "round " << r;
    cold_pivots += stats.total();
  }
  for (std::size_t i = 0; i < warm.x_hat.size(); ++i) {
    EXPECT_EQ(warm.x_hat[i], opt::snap_lp_value(cold.values[i])) << i;
  }
  if (warm.lp_solves > 1) {
    EXPECT_LT(warm.simplex_pivots, cold_pivots);
  }

  // The naive engine runs the same loop with reference scans and full
  // separation sorts: same cuts, same vertex, same objective.
  const core::RelaxationResult naive = solve_lp(instance, true);
  EXPECT_EQ(warm.cut_count, naive.cut_count);
  EXPECT_EQ(warm.x_hat, naive.x_hat);
  EXPECT_EQ(warm.objective, naive.objective);
}

TEST(WarmStartLp, MatchesColdStartOnFig1Toy) {
  expect_warm_matches_cold(fig1_toy());
}

TEST(WarmStartLp, MatchesColdStartOnRandomInstances) {
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    SCOPED_TRACE(seed);
    expect_warm_matches_cold(testing::make_random_instance(seed, 8, 4));
  }
}

core::HareConfig engine_config(core::RelaxMode mode, core::Placement place,
                               bool naive, std::size_t threads,
                               std::size_t scan_min_gpus) {
  core::HareConfig config;
  config.relaxation.mode = mode;
  config.placement = place;
  config.relaxation.engine.naive = naive;
  config.relaxation.engine.threads = threads;
  config.relaxation.engine.parallel_scan_min_gpus = scan_min_gpus;
  return config;
}

void expect_same_schedule(const sim::Schedule& a, const sim::Schedule& b) {
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  for (std::size_t g = 0; g < a.sequences.size(); ++g) {
    EXPECT_EQ(a.sequences[g], b.sequences[g]) << "gpu " << g;
  }
  // Bit-identical, not approximately equal: every engine evaluates the same
  // floating-point candidate expressions.
  EXPECT_EQ(a.predicted_start, b.predicted_start);
  EXPECT_EQ(a.predicted_objective, b.predicted_objective);
}

TEST(PlannerEquivalence, EnginesAgreeAcrossSeedsAndModes) {
  for (const std::uint64_t seed : {3ull, 17ull, 40ull, 77ull}) {
    for (const auto mode : {core::RelaxMode::Fluid, core::RelaxMode::LpCuts}) {
      for (const auto place : {core::Placement::EarliestFinish,
                               core::Placement::EarliestAvailable}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " mode=" << static_cast<int>(mode)
                     << " place=" << static_cast<int>(place));
        const testing::Instance instance =
            testing::make_random_instance(seed, 10, 6);
        const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                          instance.times};

        // Every engine must reproduce the naive reference bit-for-bit:
        // indexed placement, pooling, sharded scans, and incremental
        // separation change wall-clock only (LpCuts rounds report the
        // perturbed program's unique vertex, so no engine can drift to a
        // different optimum).
        core::HareScheduler naive(
            engine_config(mode, place, /*naive=*/true, 1, 192));
        const sim::Schedule reference = naive.schedule(input);

        // The production engine: serial, pooled, and pool-sharded paths
        // must agree with each other for every seed.
        core::HareScheduler warm_serial(
            engine_config(mode, place, /*naive=*/false, 1, 192));
        const sim::Schedule warm_reference = warm_serial.schedule(input);
        expect_same_schedule(reference, warm_reference);

        // Pooled: parallel separation + parallel preprocessing, indexed
        // scans.
        core::HareScheduler pooled(
            engine_config(mode, place, /*naive=*/false, 4, 192));
        expect_same_schedule(warm_reference, pooled.schedule(input));

        // Pooled with sharded candidate scans forced on (threshold below
        // the 6-GPU cluster).
        core::HareScheduler sharded(
            engine_config(mode, place, /*naive=*/false, 4, 2));
        expect_same_schedule(warm_reference, sharded.schedule(input));
      }
    }
  }
}

TEST(PlacementIndexBuckets, EngageOnExactTablesAndProbeIdentically) {
  // Direct index-level check: with a type-uniform table the bucketed index
  // engages, and every query answers exactly like the flat-scan index
  // through a long interleaved probe/set_phi workload.
  const testing::Instance instance = testing::make_random_instance(13, 12, 16);
  const auto fits =
      workload::fitting_matrix(instance.cluster, instance.jobs);

  core::PlacementIndex flat(instance.times, instance.cluster.gpu_count(),
                            fits);
  core::PlacementIndex bucketed(instance.times, instance.cluster.gpu_count(),
                                fits, {}, nullptr, &instance.cluster,
                                /*bucket_min_gpus=*/1);
  ASSERT_TRUE(bucketed.bucketed());
  EXPECT_FALSE(flat.bucketed());

  common::Rng rng(99);
  for (int probe = 0; probe < 500; ++probe) {
    const JobId job(static_cast<int>(rng.uniform_int(
        static_cast<std::uint64_t>(instance.jobs.job_count()))));
    const Time release = rng.uniform() * 10.0;
    const auto ff = flat.earliest_finish(job, release);
    const auto bf = bucketed.earliest_finish(job, release);
    ASSERT_EQ(ff.gpu, bf.gpu) << "probe " << probe;
    EXPECT_EQ(ff.start, bf.start);
    EXPECT_EQ(ff.finish, bf.finish);

    const auto fa = flat.earliest_available(job, release);
    const auto ba = bucketed.earliest_available(job, release);
    ASSERT_EQ(fa.gpu, ba.gpu) << "probe " << probe;
    EXPECT_EQ(fa.start, ba.start);

    // Busy the winner, as the list scheduler does.
    if (ff.valid()) {
      flat.set_phi(ff.gpu, ff.finish);
      bucketed.set_phi(ff.gpu, ff.finish);
    }
    if (probe % 97 == 96) {
      flat.reset_phi({});
      bucketed.reset_phi({});
    }
  }

  // Measurements are memoized per (shape, GPU type, uplink), so even the
  // noisy no-db profiler now produces within-type-uniform rows and the
  // bucketed index may engage on them.
  workload::PerfModel perf;
  profiler::Profiler noisy_profiler(perf, profiler::ProfilerConfig{}, 13);
  profiler::TimeTable noisy =
      noisy_profiler.profile(instance.jobs, instance.cluster);
  core::PlacementIndex from_noisy(noisy, instance.cluster.gpu_count(), fits,
                                  {}, nullptr, &instance.cluster,
                                  /*bucket_min_gpus=*/1);
  EXPECT_TRUE(from_noisy.bucketed());

  // A genuinely per-GPU perturbation (one instance slower than its type
  // siblings) must still be detected at build time and fall the index back
  // to the flat scan — bit-identity stays unconditional.
  JobId bumped_job{};
  GpuId bumped_gpu{};
  bool found = false;
  for (std::size_t j = 0; j < fits.size() && !found; ++j) {
    for (std::size_t g = 0; g < fits[j].size() && !found; ++g) {
      if (fits[j][g]) {
        bumped_job = JobId(static_cast<int>(j));
        bumped_gpu = GpuId(static_cast<int>(g));
        found = true;
      }
    }
  }
  ASSERT_TRUE(found);
  noisy.set(bumped_job, bumped_gpu, noisy.tc(bumped_job, bumped_gpu) * 1.5,
            noisy.ts(bumped_job, bumped_gpu));
  core::PlacementIndex from_perturbed(noisy, instance.cluster.gpu_count(),
                                      fits, {}, nullptr, &instance.cluster,
                                      /*bucket_min_gpus=*/1);
  EXPECT_FALSE(from_perturbed.bucketed());
}

TEST(PlannerEquivalence, BucketedIndexMatchesFlatScan) {
  // The per-(domain, type) bucketed placement index is exactness-checked at
  // build and must answer every earliest-finish / earliest-available query
  // with the same GPU and the same times as the flat SIMD scan.
  for (const std::uint64_t seed : {5ull, 23ull, 61ull}) {
    for (const auto place : {core::Placement::EarliestFinish,
                             core::Placement::EarliestAvailable}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " place=" << static_cast<int>(place));
      const testing::Instance instance =
          testing::make_random_instance(seed, 12, 8);
      const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                        instance.times};

      core::HareConfig flat = engine_config(core::RelaxMode::Fluid, place,
                                            /*naive=*/false, 1, 192);
      flat.relaxation.engine.bucketed_index_min_gpus = 0;  // disabled
      core::HareScheduler flat_planner(flat);
      const sim::Schedule reference = flat_planner.schedule(input);

      core::HareConfig bucketed = flat;
      bucketed.relaxation.engine.bucketed_index_min_gpus = 1;  // forced on
      core::HareScheduler bucketed_planner(bucketed);
      expect_same_schedule(reference, bucketed_planner.schedule(input));
    }
  }
}

TEST(PlannerEquivalence, BucketedIndexFallsBackOnNoisyTables) {
  // Per-GPU profiling noise breaks within-type row uniformity; the index
  // must detect it at build time and fall back to the flat scan without
  // changing a single placement.
  const testing::Instance exact = testing::make_random_instance(31, 10, 8);
  workload::PerfModel perf;
  profiler::ProfilerConfig noisy;
  noisy.measurement_noise_cv = 0.05;
  profiler::Profiler profiler(perf, noisy, 31);
  const profiler::TimeTable noisy_times =
      profiler.profile(exact.jobs, exact.cluster);
  const sched::SchedulerInput input{exact.cluster, exact.jobs, noisy_times};

  core::HareConfig flat =
      engine_config(core::RelaxMode::Fluid, core::Placement::EarliestFinish,
                    /*naive=*/false, 1, 192);
  flat.relaxation.engine.bucketed_index_min_gpus = 0;
  core::HareScheduler flat_planner(flat);
  const sim::Schedule reference = flat_planner.schedule(input);

  core::HareConfig bucketed = flat;
  bucketed.relaxation.engine.bucketed_index_min_gpus = 1;
  core::HareScheduler bucketed_planner(bucketed);
  expect_same_schedule(reference, bucketed_planner.schedule(input));
}

TEST(PlannerEquivalence, IncrementalPlanningAgrees) {
  const testing::Instance instance = testing::make_random_instance(11, 10, 6);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  auto run_incremental = [&](bool naive) {
    core::HareScheduler scheduler(engine_config(
        core::RelaxMode::Fluid, core::Placement::EarliestFinish, naive, 1,
        192));
    core::HareScheduler::IncrementalState state;
    sim::Schedule schedule;
    // Two batches: first half of the jobs, then the rest.
    const std::size_t jobs = instance.jobs.job_count();
    std::vector<char> first(jobs, 0);
    std::vector<char> second(jobs, 0);
    for (std::size_t j = 0; j < jobs; ++j) {
      (j < jobs / 2 ? first : second)[j] = 1;
    }
    scheduler.schedule_jobs(input, first, state, schedule);
    scheduler.schedule_jobs(input, second, state, schedule);
    return schedule;
  };

  expect_same_schedule(run_incremental(true), run_incremental(false));
}

TEST(TimeTableCache, AggregatesMatchNaiveReductions) {
  const testing::Instance instance = testing::make_random_instance(5, 9, 7);
  const profiler::TimeTable& times = instance.times;

  for (std::size_t j = 0; j < times.job_count(); ++j) {
    const JobId job(static_cast<int>(j));
    Time min_tc = kTimeInfinity, max_tc = 0.0;
    Time min_ts = kTimeInfinity, max_ts = 0.0;
    Time min_total = kTimeInfinity;
    std::size_t fastest = 0;
    for (std::size_t g = 0; g < times.gpu_count(); ++g) {
      const GpuId gpu(static_cast<int>(g));
      if (times.tc(job, gpu) < min_tc) {
        min_tc = times.tc(job, gpu);
        fastest = g;
      }
      max_tc = std::max(max_tc, times.tc(job, gpu));
      min_ts = std::min(min_ts, times.ts(job, gpu));
      max_ts = std::max(max_ts, times.ts(job, gpu));
      min_total = std::min(min_total, times.total(job, gpu));
    }
    EXPECT_EQ(times.min_tc(job), min_tc);
    EXPECT_EQ(times.max_tc(job), max_tc);
    EXPECT_EQ(times.min_ts(job), min_ts);
    EXPECT_EQ(times.max_ts(job), max_ts);
    EXPECT_EQ(times.min_total(job), min_total);
    EXPECT_EQ(static_cast<std::size_t>(times.fastest_gpu(job).value()),
              fastest);
  }

  double alpha = 1.0;
  for (std::size_t j = 0; j < times.job_count(); ++j) {
    const JobId job(static_cast<int>(j));
    if (times.min_tc(job) > 0.0) {
      alpha = std::max(alpha, times.max_tc(job) / times.min_tc(job));
    }
    if (times.min_ts(job) > 0.0) {
      alpha = std::max(alpha, times.max_ts(job) / times.min_ts(job));
    }
  }
  EXPECT_DOUBLE_EQ(times.alpha(), alpha);
}

TEST(TimeTableCache, SetInvalidatesAggregates) {
  profiler::TimeTable times(2, 3);
  times.set(JobId(0), GpuId(0), 1.0, 0.2);
  times.set(JobId(0), GpuId(1), 2.0, 0.1);
  times.set(JobId(0), GpuId(2), 3.0, 0.3);
  times.set(JobId(1), GpuId(0), 5.0, 0.5);
  times.set(JobId(1), GpuId(1), 4.0, 0.5);
  times.set(JobId(1), GpuId(2), 6.0, 0.5);

  EXPECT_EQ(times.min_tc(JobId(0)), 1.0);
  EXPECT_EQ(times.fastest_gpu(JobId(0)), GpuId(0));
  EXPECT_EQ(times.fastest_gpu(JobId(1)), GpuId(1));
  EXPECT_DOUBLE_EQ(times.alpha(), 3.0);

  // Mutating one (job, GPU) refreshes that job's aggregates and α.
  times.set(JobId(0), GpuId(2), 0.5, 0.05);
  EXPECT_EQ(times.min_tc(JobId(0)), 0.5);
  EXPECT_EQ(times.max_tc(JobId(0)), 2.0);
  EXPECT_EQ(times.min_ts(JobId(0)), 0.05);
  EXPECT_EQ(times.fastest_gpu(JobId(0)), GpuId(2));
  EXPECT_EQ(times.min_total(JobId(0)), 0.55);
  EXPECT_DOUBLE_EQ(times.alpha(), 4.0);

  // Untouched job unaffected.
  EXPECT_EQ(times.min_tc(JobId(1)), 4.0);
  EXPECT_EQ(times.max_ts(JobId(1)), 0.5);
}

}  // namespace
}  // namespace hare
