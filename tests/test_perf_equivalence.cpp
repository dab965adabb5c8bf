// Equivalence guarantees for the fast planning pipeline.
//
// The planner's accelerations (indexed and bucketed placement, incremental
// separation, cached TimeTable aggregates, packed H sort) change wall-clock
// only, and the warm-started LpCuts loop lands on the same vertex a cold
// solve would. This suite pins that contract against the reference
// Algorithm 1 in planner_oracle.cpp:
//  (a) the warm LpCuts loop reports the vertex of a cold solve of its final
//      program, in fewer pivots than a cold solve per round, and the oracle
//      matches it on the Fig 1 toy and on random instances;
//  (b) the library and the oracle emit bit-identical sim::Schedules
//      (task→GPU sequences, predicted starts, planned objective) across
//      seeds, placement rules, relaxation modes, and incremental batches,
//      with the bucketed index engaged and with it falling back;
//  (c) the cached TimeTable aggregates match naive reductions and survive
//      invalidation via set().
#include <gtest/gtest.h>

#include <algorithm>
#include <utility>
#include <vector>

#include "core/hare.hpp"
#include "core/placement_index.hpp"
#include "planner_oracle.hpp"
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

/// The program the cut loop solved in round `round`: the final program's
/// variables and base rows plus the cuts appended up to that round.
testing::LinearProgram round_program(const core::RelaxationResult& relaxed,
                                     const testing::LinearProgram& full,
                                     std::size_t round) {
  std::size_t later_cuts = 0;
  for (std::size_t r = round + 1; r < relaxed.lp_rounds.size(); ++r) {
    later_cuts += relaxed.lp_rounds[r].cuts_added;
  }
  testing::LinearProgram lp;
  for (std::size_t j = 0; j < full.variable_count(); ++j) {
    lp.add_variable(full.objective(j));
    lp.set_bounds(j, full.lower_bound(j), full.upper_bound(j));
  }
  const std::size_t rows = full.constraint_count() - later_cuts;
  for (std::size_t i = 0; i < rows; ++i) {
    const testing::LinearProgram::Row& row = full.rows()[i];
    lp.add_constraint(row.terms, row.rel, row.rhs);
  }
  return lp;
}

void expect_warm_matches_cold(const testing::Instance& instance) {
  core::RelaxationConfig config;
  config.mode = core::RelaxMode::LpCuts;
  const core::RelaxationResult warm = core::HareRelaxation(config).solve(
      instance.cluster, instance.jobs, instance.times);
  // The final program comes from the oracle's own build of the same rows.
  testing::LinearProgram program;
  const core::RelaxationResult oracle = testing::oracle_relax(
      instance.cluster, instance.jobs, instance.times, config, {}, &program);
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

  // The oracle runs the same loop with reference scans and full separation
  // sorts: same cuts, same vertex, same objective.
  EXPECT_EQ(warm.cut_count, oracle.cut_count);
  EXPECT_EQ(warm.x_hat, oracle.x_hat);
  EXPECT_EQ(warm.objective, oracle.objective);
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

core::HareConfig planner_config(core::RelaxMode mode, core::Placement place) {
  core::HareConfig config;
  config.relaxation.mode = mode;
  config.placement = place;
  return config;
}

void expect_same_schedule(const sim::Schedule& a, const sim::Schedule& b) {
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  for (std::size_t g = 0; g < a.sequences.size(); ++g) {
    EXPECT_EQ(a.sequences[g], b.sequences[g]) << "gpu " << g;
  }
  // Bit-identical, not approximately equal: both planners evaluate the same
  // floating-point candidate expressions.
  EXPECT_EQ(a.predicted_start, b.predicted_start);
  EXPECT_EQ(a.predicted_objective, b.predicted_objective);
}

/// The library's schedule equals the oracle's for `config` on `input`.
void expect_matches_oracle(const sched::SchedulerInput& input,
                           const core::HareConfig& config) {
  core::HareScheduler planner(config);
  expect_same_schedule(testing::oracle_schedule(input, config),
                       planner.schedule(input));
}

/// A random instance at the bucket threshold, racked into 16 network
/// domains so same-type GPUs sit in several buckets and cross-bucket
/// finish ties exercise the merge's lower-id tie-break.
testing::Instance make_wide_instance(std::uint64_t seed, std::size_t jobs,
                                     std::size_t gpus =
                                         core::kBucketedIndexMinGpus) {
  return testing::make_random_instance(seed, jobs, gpus,
                                       /*machines_per_domain=*/8);
}

/// Whether a placement index over `times` engages its buckets.
bool index_buckets(const cluster::Cluster& cluster,
                   const workload::JobSet& jobs,
                   const profiler::TimeTable& times) {
  const auto fits = workload::fitting_matrix(cluster, jobs);
  const core::PlacementIndex index(times, cluster.gpu_count(), fits, {},
                                   &cluster);
  return index.bucketed();
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
        // Indexed placement, cached aggregates, incremental separation and
        // the packed H sort change wall-clock only (LpCuts rounds report
        // the perturbed program's unique vertex, so neither planner can
        // drift to a different optimum).
        expect_matches_oracle(input, planner_config(mode, place));
      }
    }
  }
}

/// Interleaved probe/set_phi workload: every earliest-finish and
/// earliest-available query of `index` answers exactly like `flat`'s, with
/// each earliest-finish winner busied on both, as the list scheduler does.
void expect_probes_identical(core::PlacementIndex& flat,
                             core::PlacementIndex& index, std::size_t jobs,
                             std::uint64_t seed, int probes = 500) {
  common::Rng rng(seed);
  for (int probe = 0; probe < probes; ++probe) {
    const JobId job(static_cast<int>(
        rng.uniform_int(static_cast<std::uint64_t>(jobs))));
    const Time release = rng.uniform() * 10.0;
    const auto ff = flat.earliest_finish(job, release);
    const auto bf = index.earliest_finish(job, release);
    ASSERT_EQ(ff.gpu, bf.gpu) << "probe " << probe;
    EXPECT_EQ(ff.start, bf.start);
    EXPECT_EQ(ff.finish, bf.finish);

    const auto fa = flat.earliest_available(job, release);
    const auto ba = index.earliest_available(job, release);
    ASSERT_EQ(fa.gpu, ba.gpu) << "probe " << probe;
    EXPECT_EQ(fa.start, ba.start);

    if (ff.valid()) {
      flat.set_phi(ff.gpu, ff.finish);
      index.set_phi(ff.gpu, ff.finish);
    }
    if (probe % 97 == 96) {
      flat.reset_phi({});
      index.reset_phi({});
    }
  }
}

/// A (job, GPU) cell whose GPU can hold the job.
std::pair<JobId, GpuId> first_fitting_cell(
    const std::vector<std::vector<char>>& fits) {
  for (std::size_t j = 0; j < fits.size(); ++j) {
    for (std::size_t g = 0; g < fits[j].size(); ++g) {
      if (fits[j][g]) {
        return {JobId(static_cast<int>(j)), GpuId(static_cast<int>(g))};
      }
    }
  }
  ADD_FAILURE() << "no job fits any GPU";
  return {};
}

TEST(PlacementIndexBuckets, EngageOnExactTablesAndProbeIdentically) {
  // Direct index-level check at the bucket threshold: on a class-column
  // table the bucketed index engages, and every query answers exactly like
  // the flat-scan index through a long interleaved probe/set_phi workload.
  const testing::Instance instance = make_wide_instance(13, 12);
  const std::size_t gpus = instance.cluster.gpu_count();
  const auto fits =
      workload::fitting_matrix(instance.cluster, instance.jobs);

  core::PlacementIndex flat(instance.times, gpus, fits);
  core::PlacementIndex bucketed(instance.times, gpus, fits, {},
                                &instance.cluster);
  ASSERT_TRUE(bucketed.bucketed());
  EXPECT_FALSE(flat.bucketed());

  // One GPU narrower, the same kind of table stays on the flat scan.
  const testing::Instance narrow =
      make_wide_instance(13, 12, core::kBucketedIndexMinGpus - 1);
  EXPECT_FALSE(index_buckets(narrow.cluster, narrow.jobs, narrow.times));

  expect_probes_identical(flat, bucketed, instance.jobs.job_count(), 99);

  // The noisy profiler also stores one column per GPU class, so the
  // bucketed index engages on its tables too.
  workload::PerfModel perf;
  profiler::Profiler noisy_profiler(perf, profiler::ProfilerConfig{}, 13);
  profiler::TimeTable noisy =
      noisy_profiler.profile(instance.jobs, instance.cluster);
  EXPECT_TRUE(index_buckets(instance.cluster, instance.jobs, noisy));

  // A genuinely per-GPU perturbation (one instance slower than its class
  // siblings) splits that GPU into a column of its own. The buckets follow
  // the table's columns, so they may stay engaged, and every query must
  // still answer like the flat scan over the bumped table.
  const auto [bumped_job, bumped_gpu] = first_fitting_cell(fits);
  const std::size_t columns = noisy.column_count();
  noisy.set(bumped_job, bumped_gpu, noisy.tc(bumped_job, bumped_gpu) * 1.5,
            noisy.ts(bumped_job, bumped_gpu));
  EXPECT_EQ(noisy.column_count(), columns + 1);
  core::PlacementIndex bumped_flat(noisy, gpus, fits);
  core::PlacementIndex bumped(noisy, gpus, fits, {}, &instance.cluster);
  EXPECT_TRUE(bumped.bucketed());
  expect_probes_identical(bumped_flat, bumped, instance.jobs.job_count(), 98);
}

TEST(PlacementIndexBuckets, AppendedRowsKeepOrDropBuckets) {
  // A bucketed index keeps one masked T^c value per bucket and table
  // column. Appending a job on an interned class row keeps the buckets;
  // appending one with a single slower GPU splits that GPU's column, and
  // the index rebuilds its buckets for the new column map; appending one
  // filled cell by cell degrades the table to one column per GPU, and the
  // index drops to the flat scan. Every job then probes exactly like a
  // fresh flat index over the grown table.
  const testing::Instance instance = make_wide_instance(29, 12);
  const std::size_t gpus = instance.cluster.gpu_count();
  std::vector<std::vector<char>> fits =
      workload::fitting_matrix(instance.cluster, instance.jobs);
  const JobId source(0);
  const auto fitting = std::find(fits[0].begin(), fits[0].end(), char{1});
  ASSERT_NE(fitting, fits[0].end());
  const GpuId bumped(static_cast<int>(fitting - fits[0].begin()));

  enum class Append { ClassRow, OneSlowGpu, PerCellFill };
  for (const Append append :
       {Append::ClassRow, Append::OneSlowGpu, Append::PerCellFill}) {
    SCOPED_TRACE(::testing::Message()
                 << "append=" << static_cast<int>(append));
    core::PlacementIndex index(instance.times, gpus, fits, {},
                               &instance.cluster);
    ASSERT_TRUE(index.bucketed());

    profiler::TimeTable grown = instance.times;
    const JobId added(static_cast<int>(grown.append_job()));
    if (append == Append::PerCellFill) {
      for (std::size_t g = 0; g < gpus; ++g) {
        const GpuId gpu(static_cast<int>(g));
        grown.set(added, gpu, instance.times.tc(source, gpu),
                  instance.times.ts(source, gpu));
      }
    } else {
      grown.bind_row(added, grown.row_of(source));
      if (append == Append::OneSlowGpu) {
        grown.set(added, bumped, instance.times.tc(source, bumped) * 1.5,
                  instance.times.ts(source, bumped));
      }
    }
    std::vector<std::vector<char>> grown_fits = fits;
    grown_fits.push_back(fits[0]);

    index.append_jobs(grown, grown_fits);
    EXPECT_EQ(index.bucketed(), append != Append::PerCellFill);
    EXPECT_EQ(grown.column_count() == instance.times.column_count(),
              append == Append::ClassRow);
    EXPECT_EQ(index.job_count(), grown.job_count());

    const core::PlacementIndex flat(grown, gpus, grown_fits);
    common::Rng rng(7);
    for (std::size_t j = 0; j < grown.job_count(); ++j) {
      const JobId job(static_cast<int>(j));
      const Time release = rng.uniform() * 10.0;
      const auto want = flat.earliest_finish(job, release);
      const auto got = index.earliest_finish(job, release);
      ASSERT_EQ(want.gpu, got.gpu) << "job " << j;
      EXPECT_EQ(want.finish, got.finish);
      EXPECT_EQ(flat.earliest_available(job, release).gpu,
                index.earliest_available(job, release).gpu);
    }
  }
}

TEST(PlacementIndexBuckets, ColumnSplitAfterBuildProbesLikeFreshFlatIndex) {
  // The index is built, then a cell of an already indexed job is bumped:
  // the table splits that GPU into a new column. The next append (no new
  // jobs) must rebuild the buckets over the new map and re-read every job,
  // so the index answers like a flat index built on the table as it is now.
  const testing::Instance instance = make_wide_instance(41, 12);
  const std::size_t gpus = instance.cluster.gpu_count();
  const auto fits =
      workload::fitting_matrix(instance.cluster, instance.jobs);
  profiler::TimeTable times = instance.times;
  core::PlacementIndex index(times, gpus, fits, {}, &instance.cluster);
  ASSERT_TRUE(index.bucketed());

  const auto [job, gpu] = first_fitting_cell(fits);
  // Make the bumped GPU the job's unique fastest, so a stale index would
  // answer differently.
  times.set(job, gpu, times.min_tc(job) * 0.5, times.ts(job, gpu));
  index.append_jobs(times, fits);
  EXPECT_TRUE(index.bucketed());

  core::PlacementIndex flat(times, gpus, fits);
  EXPECT_EQ(index.earliest_finish(job, 0.0).gpu,
            static_cast<std::size_t>(gpu.value()));
  expect_probes_identical(flat, index, instance.jobs.job_count(), 41);
}

TEST(PlannerEquivalence, BucketedIndexMatchesFlatScan) {
  // On a cluster at the bucket threshold the library plans through the
  // per-(domain, type) bucketed index; the oracle scans every GPU. Every
  // placement must still agree.
  for (const std::uint64_t seed : {5ull, 23ull, 61ull}) {
    for (const auto place : {core::Placement::EarliestFinish,
                             core::Placement::EarliestAvailable}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " place=" << static_cast<int>(place));
      const testing::Instance instance = make_wide_instance(seed, 12);
      ASSERT_TRUE(
          index_buckets(instance.cluster, instance.jobs, instance.times));
      expect_matches_oracle({instance.cluster, instance.jobs, instance.times},
                            planner_config(core::RelaxMode::Fluid, place));
    }
  }
}

TEST(PlannerEquivalence, BucketedIndexFallsBackOnNoisyTables) {
  // Per-GPU measurement noise (5% CV on every cell, as from profiling each
  // GPU separately) breaks within-type row uniformity; the index must
  // detect it at build time and fall back to the flat scan without
  // changing a single placement.
  const testing::Instance exact = make_wide_instance(31, 10);
  ASSERT_TRUE(index_buckets(exact.cluster, exact.jobs, exact.times));
  profiler::TimeTable noisy_times = exact.times;
  common::Rng rng(31);
  for (std::size_t j = 0; j < noisy_times.job_count(); ++j) {
    for (std::size_t g = 0; g < noisy_times.gpu_count(); ++g) {
      const JobId job(static_cast<int>(j));
      const GpuId gpu(static_cast<int>(g));
      const double factor = std::max(0.5, rng.normal(1.0, 0.05));
      noisy_times.set(job, gpu, exact.times.tc(job, gpu) * factor,
                      exact.times.ts(job, gpu) * factor);
    }
  }
  ASSERT_FALSE(index_buckets(exact.cluster, exact.jobs, noisy_times));
  expect_matches_oracle({exact.cluster, exact.jobs, noisy_times},
                        planner_config(core::RelaxMode::Fluid,
                                       core::Placement::EarliestFinish));
}

TEST(PlannerEquivalence, IncrementalPlanningAgrees) {
  const testing::Instance instance = testing::make_random_instance(11, 10, 6);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};
  const core::HareConfig config = planner_config(
      core::RelaxMode::Fluid, core::Placement::EarliestFinish);

  // Two batches: first half of the jobs, then the rest.
  const std::size_t jobs = instance.jobs.job_count();
  std::vector<JobId> first;
  std::vector<JobId> second;
  for (std::size_t j = 0; j < jobs; ++j) {
    (j < jobs / 2 ? first : second).push_back(JobId(static_cast<int>(j)));
  }

  core::HareScheduler scheduler(config);
  core::HareScheduler::IncrementalState state;
  sim::Schedule planned;
  std::vector<Time> oracle_phi;
  sim::Schedule oracle;
  for (const auto* batch : {&first, &second}) {
    EXPECT_EQ(scheduler.schedule_jobs(input, *batch, state, planned),
              testing::oracle_schedule_jobs(input, config, *batch, oracle_phi,
                                            oracle));
  }
  expect_same_schedule(oracle, planned);
  EXPECT_EQ(state.phi, oracle_phi);
}

/// Plan a growing instance the way a serving loop does, with the library
/// and with the oracle on the same batches: jobs are appended a few at a
/// time (the table grows through Profiler::exact_appended), each batch
/// reverses its jobs' arrivals against their ids, every seventh job waits
/// for a later batch, and every tenth batch admits a continuation — a
/// shortened copy of an earlier job arriving at the latest arrival so far. Objectives must agree batch by batch and the
/// plans and horizons at the end bit for bit. Returns the batch count.
std::size_t expect_growing_instance_matches_oracle(
    const testing::Instance& pool, const core::HareConfig& config,
    bool expect_bucketed) {
  const cluster::Cluster& cluster = pool.cluster;
  workload::JobSet jobs;
  profiler::TimeTable times;
  profiler::ShapeRows rows;
  const profiler::Profiler profiler(workload::PerfModel{}, {}, 1);

  core::HareScheduler scheduler(config);
  core::HareScheduler::IncrementalState state;
  sim::Schedule planned;
  std::vector<Time> oracle_phi;
  sim::Schedule oracle;

  common::Rng rng(pool.jobs.job_count());
  std::vector<JobId> deferred;
  std::size_t next = 0;
  std::size_t batches = 0;
  Time latest_arrival = 0.0;
  while (next < pool.jobs.job_count() || !deferred.empty()) {
    std::vector<JobId> batch = std::move(deferred);
    deferred.clear();
    const std::size_t admit = std::min<std::size_t>(
        1 + rng.uniform_int(3), pool.jobs.job_count() - next);
    for (std::size_t k = 0; k < admit; ++k) {
      workload::JobSpec spec = pool.jobs.job(JobId(static_cast<int>(next + k))).spec;
      spec.arrival =
          pool.jobs.job(JobId(static_cast<int>(next + admit - 1 - k))).spec.arrival;
      latest_arrival = std::max(latest_arrival, spec.arrival);
      const JobId id = jobs.add_job(std::move(spec));
      (id.value() % 7 == 6 ? deferred : batch).push_back(id);
    }
    next += admit;
    if (batches % 10 == 9) {
      const workload::Job& earlier =
          jobs.job(JobId(static_cast<int>(jobs.job_count() / 2)));
      workload::JobSpec spec = earlier.spec;
      spec.rounds = std::max<std::uint32_t>(1, earlier.rounds() / 2);
      spec.arrival = latest_arrival;
      spec.name += "+cont";
      batch.push_back(jobs.add_job(std::move(spec)));
    }
    std::sort(batch.begin(), batch.end());
    profiler.exact_appended(jobs, cluster, times, rows);

    const sched::SchedulerInput input{cluster, jobs, times};
    EXPECT_EQ(scheduler.schedule_jobs(input, batch, state, planned),
              testing::oracle_schedule_jobs(input, config, batch, oracle_phi,
                                            oracle))
        << "batch " << batches;
    ++batches;
  }
  EXPECT_EQ(state.scratch.index->bucketed(), expect_bucketed);
  expect_same_schedule(oracle, planned);
  EXPECT_EQ(state.phi, oracle_phi);
  EXPECT_EQ(planned.task_count(), jobs.task_count());
  EXPECT_NO_THROW(sim::validate_schedule(planned, jobs));
  return batches;
}

TEST(PlannerEquivalence, GrowingInstanceInManyBatchesMatchesOracle) {
  const testing::Instance pool = testing::make_random_instance(17, 150, 24);
  for (const core::Placement placement :
       {core::Placement::EarliestFinish, core::Placement::EarliestAvailable}) {
    SCOPED_TRACE(placement == core::Placement::EarliestFinish
                     ? "earliest finish"
                     : "earliest available");
    EXPECT_GE(expect_growing_instance_matches_oracle(
                  pool, planner_config(core::RelaxMode::Fluid, placement),
                  false),
              50u);
  }
}

TEST(PlannerEquivalence, GrowingInstanceOnBucketedIndexMatchesOracle) {
  const testing::Instance pool = make_wide_instance(23, 150);
  ASSERT_TRUE(index_buckets(pool.cluster, pool.jobs, pool.times));
  EXPECT_GE(expect_growing_instance_matches_oracle(
                pool,
                planner_config(core::RelaxMode::Fluid,
                               core::Placement::EarliestFinish),
                true),
            50u);
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
