// Hierarchical sharded planning.
//
// Pins the two contracts the shard module sells:
//  (a) fidelity — with one shard the hierarchical planner reproduces the
//      flat core::HareScheduler bit for bit (sequences, predicted starts,
//      objective), for both relaxation modes;
//  (b) determinism — the canonical-order merge makes the global schedule
//      independent of shard planning/completion order (shuffled-permutation
//      planning, parallel vs serial fan-out, nested invocation from a pool
//      worker all agree bit for bit).
// Plus partition structure (exact cover, domain alignment, determinism) and
// the incremental Queyranne separator (identical cut trajectories to the
// full per-round sort, with measured re-sort savings).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <vector>

#include "common/error.hpp"
#include "core/hare.hpp"
#include "exp/engine.hpp"
#include "opt/queyranne.hpp"
#include "planner_oracle.hpp"
#include "shard/hierarchical_planner.hpp"
#include "shard/shard_partition.hpp"
#include "test_util.hpp"
#include "workload/feasibility.hpp"

namespace hare {
namespace {

/// Multi-domain random instance: `gpus` GPUs on 4-GPU machines grouped into
/// network domains of `machines_per_domain`, plus a generated trace.
testing::Instance make_domain_instance(std::uint64_t seed,
                                       std::size_t job_count,
                                       std::size_t gpus,
                                       std::size_t machines_per_domain) {
  testing::Instance instance;
  instance.cluster =
      cluster::make_simulation_cluster(gpus, 25.0, 4, machines_per_domain);

  workload::TraceConfig config;
  config.job_count = job_count;
  config.base_arrival_rate = 0.2;
  config.sync_scales = {1, 2, 2, 4};
  config.rounds_scale_min = 0.05;
  config.rounds_scale_max = 0.2;
  workload::TraceGenerator generator(seed);
  instance.jobs = generator.generate(config);

  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  instance.times = profiler.exact(instance.jobs, instance.cluster);
  return instance;
}

void expect_same_schedule(const sim::Schedule& a, const sim::Schedule& b) {
  ASSERT_EQ(a.sequences.size(), b.sequences.size());
  for (std::size_t g = 0; g < a.sequences.size(); ++g) {
    EXPECT_EQ(a.sequences[g], b.sequences[g]) << "gpu " << g;
  }
  // Bit-identical, not approximately equal: sharding and fan-out must never
  // change a number, only wall-clock.
  EXPECT_EQ(a.predicted_start, b.predicted_start);
  EXPECT_EQ(a.predicted_objective, b.predicted_objective);
}

// ---- Partition structure --------------------------------------------------

void expect_exact_cover(const cluster::Cluster& cluster,
                        const shard::ShardPartition& partition) {
  std::vector<int> gpu_seen(cluster.gpu_count(), 0);
  std::vector<int> machine_seen(cluster.machine_count(), 0);
  for (const auto& s : partition.shards) {
    EXPECT_FALSE(s.machines.empty()) << "shard " << s.index;
    EXPECT_EQ(s.sub.gpu_count(), s.gpus.size());
    EXPECT_EQ(s.sub.machine_count(), s.machines.size());
    for (const MachineId m : s.machines) {
      ++machine_seen[static_cast<std::size_t>(m.value())];
    }
    for (std::size_t lg = 0; lg < s.gpus.size(); ++lg) {
      const GpuId global = s.gpus[lg];
      ++gpu_seen[static_cast<std::size_t>(global.value())];
      // Positional re-indexing: local GPU lg is exactly gpus[lg] globally,
      // with the same type.
      EXPECT_EQ(s.sub.gpu(GpuId(static_cast<int>(lg))).type,
                cluster.gpu(global).type);
    }
  }
  for (const int c : gpu_seen) EXPECT_EQ(c, 1);
  for (const int c : machine_seen) EXPECT_EQ(c, 1);
}

TEST(ShardPartition, ExactCoverAcrossTargets) {
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(64, 25.0, 4, 4);
  ASSERT_GE(cluster.domain_count(), 2u);
  for (const std::size_t target : {0u, 1u, 2u, 3u, 4u, 5u, 8u, 16u, 1000u}) {
    SCOPED_TRACE(target);
    const shard::ShardPartition partition =
        shard::partition_cluster(cluster, target);
    expect_exact_cover(cluster, partition);
    const std::size_t expected =
        target == 0
            ? cluster.domain_count()
            : std::clamp<std::size_t>(target, 1, cluster.machine_count());
    EXPECT_EQ(partition.size(), expected);
  }
}

TEST(ShardPartition, DefaultFollowsDomains) {
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(64, 25.0, 4, 4);
  const shard::ShardPartition partition = shard::partition_cluster(cluster, 0);
  ASSERT_EQ(partition.size(), cluster.domain_count());
  // One shard per domain: every machine of a shard shares one domain.
  for (const auto& s : partition.shards) {
    const std::size_t domain = cluster.machine(s.machines.front()).domain;
    for (const MachineId m : s.machines) {
      EXPECT_EQ(cluster.machine(m).domain, domain);
    }
  }
}

TEST(ShardPartition, SubSplitBalancesGpus) {
  // More shards than domains: domains split internally on machine
  // boundaries. Uniform 4-domain × 4-machine × 4-GPU cluster → 8 shards of
  // exactly 8 GPUs.
  cluster::ClusterBuilder builder;
  for (std::size_t m = 0; m < 16; ++m) {
    builder.add_machine(cluster::GpuType::V100, 4, 25.0, {}, m / 4);
  }
  const cluster::Cluster cluster = builder.build();
  const shard::ShardPartition partition = shard::partition_cluster(cluster, 8);
  ASSERT_EQ(partition.size(), 8u);
  expect_exact_cover(cluster, partition);
  for (const auto& s : partition.shards) {
    EXPECT_EQ(s.gpus.size(), 8u);
  }
}

TEST(ShardPartition, Deterministic) {
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(96, 25.0, 4, 3);
  for (const std::size_t target : {0u, 3u, 7u}) {
    const shard::ShardPartition a = shard::partition_cluster(cluster, target);
    const shard::ShardPartition b = shard::partition_cluster(cluster, target);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t s = 0; s < a.size(); ++s) {
      EXPECT_EQ(a.shards[s].machines, b.shards[s].machines);
      EXPECT_EQ(a.shards[s].gpus, b.shards[s].gpus);
    }
  }
}

// ---- Fidelity: one shard == flat planner ----------------------------------

TEST(HierarchicalPlanner, OneShardMatchesFlatPlanner) {
  for (const std::uint64_t seed : {3ull, 17ull, 77ull}) {
    for (const auto mode : {core::RelaxMode::Fluid, core::RelaxMode::LpCuts}) {
      SCOPED_TRACE(::testing::Message()
                   << "seed=" << seed << " mode=" << static_cast<int>(mode));
      // Single-domain cluster: target 0 → one shard covering everything.
      const testing::Instance instance =
          testing::make_random_instance(seed, 10, 8);
      const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                        instance.times};

      core::HareConfig hare;
      hare.relaxation.mode = mode;
      core::HareScheduler flat(hare);
      const sim::Schedule reference = flat.schedule(input);

      shard::ShardPlannerConfig config;
      config.shards = 1;
      config.hare = hare;
      shard::HierarchicalPlanner planner(config);
      expect_same_schedule(reference, planner.schedule(input));
      EXPECT_EQ(planner.last_plan().shard_count, 1u);
    }
  }
}

// ---- Determinism: merge is independent of planning order ------------------

TEST(HierarchicalPlanner, MergeIndependentOfShardPlanOrder) {
  const testing::Instance instance = make_domain_instance(21, 24, 64, 4);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  shard::ShardPlannerConfig config;
  config.shards = 4;
  shard::HierarchicalPlanner planner(config);
  const sim::Schedule reference = planner.schedule(input);
  ASSERT_EQ(planner.last_plan().shard_count, 4u);
  sim::validate_schedule(reference, instance.jobs);

  std::vector<std::size_t> order(4);
  std::iota(order.begin(), order.end(), 0);
  std::mt19937 rng(12345);
  for (int trial = 0; trial < 6; ++trial) {
    std::shuffle(order.begin(), order.end(), rng);
    SCOPED_TRACE(::testing::Message() << "order " << order[0] << order[1]
                                      << order[2] << order[3]);
    expect_same_schedule(reference, planner.schedule_with_order(input, order));
  }
  // Reversed order, explicitly.
  expect_same_schedule(reference,
                       planner.schedule_with_order(input, {3, 2, 1, 0}));
}

TEST(HierarchicalPlanner, ParallelMatchesSerialFanOut) {
  const testing::Instance instance = make_domain_instance(9, 20, 64, 4);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  shard::ShardPlannerConfig serial_config;
  serial_config.shards = 4;
  serial_config.serial = true;
  shard::HierarchicalPlanner serial_planner(serial_config);
  const sim::Schedule reference = serial_planner.schedule(input);

  shard::ShardPlannerConfig pooled_config;
  pooled_config.shards = 4;
  pooled_config.workers = 4;
  shard::HierarchicalPlanner pooled_planner(pooled_config);
  expect_same_schedule(reference, pooled_planner.schedule(input));
}

TEST(HierarchicalPlanner, LpMaxJobsSelectsModePerShard) {
  // Dense instance (24 jobs on ~16 GPUs) so the per-shard LP relaxations
  // actually have violated subset constraints to cut.
  const testing::Instance instance = make_domain_instance(30, 24, 16, 1);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  shard::ShardPlannerConfig config;
  config.shards = 4;
  config.lp_max_jobs = 1000;  // every shard small enough → LpCuts everywhere
  shard::HierarchicalPlanner planner(config);
  const sim::Schedule schedule = planner.schedule(input);
  sim::validate_schedule(schedule, instance.jobs);

  std::size_t cuts = 0;
  for (const auto& s : planner.last_plan().shards) cuts += s.cut_count;
  EXPECT_GE(cuts, 1u) << "LpCuts shards should report their cut counts";

  // Threshold 1 forces Fluid on every non-trivial shard: still a valid,
  // deterministic plan.
  config.lp_max_jobs = 1;
  shard::HierarchicalPlanner fluid_planner(config);
  sim::validate_schedule(fluid_planner.schedule(input), instance.jobs);
}

TEST(HierarchicalPlanner, NestedInvocationFromPoolWorkerAgrees) {
  const testing::Instance instance = make_domain_instance(5, 16, 64, 4);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  shard::ShardPlannerConfig config;
  config.shards = 4;
  shard::HierarchicalPlanner direct_planner(config);
  const sim::Schedule reference = direct_planner.schedule(input);

  // Plan from inside an exp fan-out cell: the planner must detect the pool
  // worker, degrade its own fan-out to inline serial (no second pool, no
  // deadlock), and still produce the identical schedule.
  exp::Engine engine(exp::Engine::Options{2, false});
  const auto schedules = engine.map(2, [&](std::size_t) {
    shard::HierarchicalPlanner nested(config);
    return nested.schedule(input);
  });
  for (const sim::Schedule& s : schedules) expect_same_schedule(reference, s);
}

TEST(HierarchicalPlanner, OnlineOnEmptyHorizonsMatchesOffline) {
  // The online entry point runs the offline plan's level 1 and level 2 on
  // a batch. With every job in the batch and every horizon at 0 it must
  // reproduce the offline plan that keeps the Fluid relaxation everywhere
  // and skips migration.
  for (const std::uint64_t seed : {3ull, 9ull, 21ull, 40ull}) {
    for (const bool pooled : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "seed=" << seed
                                        << " pooled=" << pooled);
      const testing::Instance instance = make_domain_instance(seed, 20, 64, 4);
      const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                        instance.times};
      shard::ShardPlannerConfig config;
      config.shards = 4;
      config.lp_max_jobs = 0;
      config.migration_max_moves = 0;
      config.serial = !pooled;
      config.workers = pooled ? 4 : 0;
      shard::HierarchicalPlanner offline(config);
      const sim::Schedule reference = offline.schedule(input);

      shard::HierarchicalPlanner online(config);
      sim::Schedule served;
      served.sequences.resize(instance.cluster.gpu_count());
      served.predicted_start.assign(instance.jobs.task_count(), 0.0);
      std::vector<Time> phi(instance.cluster.gpu_count(), 0.0);
      std::vector<JobId> all;
      for (const auto& job : instance.jobs.jobs()) all.push_back(job.id);
      const double objective =
          online.schedule_online(input, all, phi, served);
      EXPECT_EQ(objective, reference.predicted_objective);
      expect_same_schedule(reference, served);
    }
  }
}

TEST(HierarchicalPlanner, OnlineRejectsMalformedBatches) {
  const testing::Instance instance = make_domain_instance(3, 20, 64, 4);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};
  shard::ShardPlannerConfig config;
  config.shards = 4;
  config.serial = true;
  shard::HierarchicalPlanner online(config);
  for (const std::vector<JobId>& batch :
       {std::vector<JobId>{JobId(1), JobId(0)},
        std::vector<JobId>{JobId(2), JobId(2)}}) {
    sim::Schedule served;
    served.sequences.resize(instance.cluster.gpu_count());
    served.predicted_start.assign(instance.jobs.task_count(), 0.0);
    std::vector<Time> phi(instance.cluster.gpu_count(), 0.0);
    EXPECT_THROW((void)online.schedule_online(input, batch, phi, served),
                 common::Error);
  }
}

// ---- Cross-shard migration ------------------------------------------------

/// Adversarial straddling mix. Shard 0 mixes one fast V100 with seven slow
/// K80s; shard 1 is 8 uniform T4s. The level-1 fluid estimate prices a
/// shard at its *best* fitting type's round time over *all* fitting GPUs,
/// so the mixed shard masquerades as 8 V100s while its honest capacity is
/// barely 3 V100-equivalents — every light job straddles the boundary
/// toward the mirage. The memory-heavy Transformer jobs (batch sized past
/// the K80's 12 GiB) cannot gang on the single V100, so they land on the
/// T4 shard and inflate its load estimate, luring still more lights onto
/// the mirage shard. The flat planner, placing on real per-GPU times,
/// spreads the lights across both pools. Migration must notice the
/// realized shard-0 horizon and walk the straddlers back to the T4 shard.
testing::Instance make_straddling_instance(std::size_t big_jobs,
                                           std::size_t light_jobs,
                                           std::uint64_t seed) {
  testing::Instance instance;
  cluster::ClusterBuilder builder;
  builder.add_machine(cluster::GpuType::V100, 1, 25.0, {}, 0);
  builder.add_machine(cluster::GpuType::K80, 7, 25.0, {}, 0);
  builder.add_machine(cluster::GpuType::T4, 4, 25.0, {}, 1);
  builder.add_machine(cluster::GpuType::T4, 4, 25.0, {}, 1);
  instance.cluster = builder.build();

  // Smallest Transformer batch whose footprint overflows a 12 GiB K80 (it
  // must still fit the 16 GiB V100s/T4s — asserted by the tests).
  const workload::ModelSpec& transformer =
      workload::model_spec(workload::ModelType::Transformer);
  std::uint32_t big_batch = transformer.default_batch_size;
  while (workload::task_memory_footprint(transformer, big_batch) <=
         cluster::gpu_spec(cluster::GpuType::K80).memory) {
    big_batch += transformer.default_batch_size;
  }
  for (std::size_t i = 0; i < light_jobs; ++i) {
    workload::JobSpec spec;
    spec.model = workload::ModelType::ResNet50;
    spec.weight = 1.0;
    spec.rounds = 4;
    spec.tasks_per_round = 2;
    spec.name = "light";
    instance.jobs.add_job(spec);
  }
  for (std::size_t i = 0; i < big_jobs; ++i) {
    workload::JobSpec spec;
    spec.model = workload::ModelType::Transformer;
    spec.batch_size = big_batch;
    spec.weight = 2.0;
    spec.rounds = 4;
    spec.tasks_per_round = 4;  // needs 4 fitting GPUs: infeasible on shard 0
    spec.name = "big";
    instance.jobs.add_job(spec);
  }

  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, seed);
  instance.times = profiler.exact(instance.jobs, instance.cluster);
  return instance;
}

TEST(ShardMigration, ClosesStraddlingObjectiveGap) {
  // Pure movable mix: every job fits both shards, so the straddlers that
  // pile onto the mirage shard are exactly the jobs migration can rescue.
  const testing::Instance instance = make_straddling_instance(0, 16, 11);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};
  core::HareScheduler flat(core::HareConfig{});
  const double flat_objective =
      flat.schedule(input).predicted_objective;
  ASSERT_GT(flat_objective, 0.0);

  shard::ShardPlannerConfig off;
  off.shards = 2;
  off.migration_max_moves = 0;
  shard::HierarchicalPlanner frozen(off);
  const sim::Schedule pre = frozen.schedule(input);
  sim::validate_schedule(pre, instance.jobs);
  const double ratio_pre = pre.predicted_objective / flat_objective;
  EXPECT_EQ(frozen.last_plan().migrated_jobs, 0u);
  // The mirage shard really absorbed the bulk of the mix (13 of 16 jobs at
  // the recorded seed) while holding a fraction of the honest capacity.
  EXPECT_GT(frozen.last_plan().shards[0].jobs,
            2 * frozen.last_plan().shards[1].jobs);

  shard::ShardPlannerConfig on = off;
  on.migration_max_moves = 8;
  shard::HierarchicalPlanner mover(on);
  const sim::Schedule post = mover.schedule(input);
  sim::validate_schedule(post, instance.jobs);
  const double ratio_post = post.predicted_objective / flat_objective;

  // Locked-in regression: without migration the straddling mix leaves a
  // real objective gap over the flat planner; the migration pass moves
  // jobs and closes it below threshold.
  EXPECT_GT(mover.last_plan().migrated_jobs, 0u);
  EXPECT_GT(ratio_pre, 1.10) << "pre=" << ratio_pre << " post=" << ratio_post;
  EXPECT_LT(ratio_post, ratio_pre);
  EXPECT_LT(ratio_post, 1.05) << "pre=" << ratio_pre
                              << " post=" << ratio_post;
}

TEST(ShardMigration, DeterministicAcrossFanOutAndPlanOrder) {
  // Same pure movable mix as the gap test, so migration actually fires and
  // the determinism contracts cover the re-plan path, not a no-op.
  const testing::Instance instance = make_straddling_instance(0, 16, 11);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};

  shard::ShardPlannerConfig serial_config;
  serial_config.shards = 2;
  serial_config.serial = true;
  shard::HierarchicalPlanner serial_planner(serial_config);
  const sim::Schedule reference = serial_planner.schedule(input);
  ASSERT_GT(serial_planner.last_plan().migrated_jobs, 0u);

  shard::ShardPlannerConfig pooled_config = serial_config;
  pooled_config.serial = false;
  pooled_config.workers = 4;
  shard::HierarchicalPlanner pooled_planner(pooled_config);
  expect_same_schedule(reference, pooled_planner.schedule(input));
  EXPECT_EQ(pooled_planner.last_plan().migrated_jobs,
            serial_planner.last_plan().migrated_jobs);

  // The migration decisions derive from barriered outcomes, so shuffling
  // the shard planning order cannot change a bit either.
  expect_same_schedule(reference,
                       serial_planner.schedule_with_order(input, {1, 0}));
  expect_same_schedule(reference,
                       serial_planner.schedule_with_order(input, {0, 1}));
}

TEST(ShardMigration, InfeasibleReceiversAreSkipped) {
  // Memory-straddling mix: the big Transformer jobs overflow the K80 bulk
  // of shard 0 (and cannot gang on its single V100), so they are never
  // migration candidates toward it; the plan must stay valid and
  // fan-out-deterministic whether or not any light migrates.
  const testing::Instance instance = make_straddling_instance(2, 10, 11);
  const sched::SchedulerInput input{instance.cluster, instance.jobs,
                                    instance.times};
  const workload::Job& big = instance.jobs.job(JobId(10));  // first "big"
  ASSERT_FALSE(workload::task_fits(big, instance.cluster.gpu(GpuId(1))));
  ASSERT_TRUE(workload::task_fits(big, instance.cluster.gpu(GpuId(0))));
  ASSERT_TRUE(workload::task_fits(big, instance.cluster.gpu(GpuId(8))));

  shard::ShardPlannerConfig config;
  config.shards = 2;
  config.serial = true;
  shard::HierarchicalPlanner planner(config);
  const sim::Schedule reference = planner.schedule(input);
  sim::validate_schedule(reference, instance.jobs);

  // Big jobs stay on the T4 shard: no big task may land on GPUs 0..7.
  for (std::size_t g = 0; g < 8; ++g) {
    for (const TaskId t : reference.sequences[g]) {
      EXPECT_NE(instance.jobs.task(t).job.value(), 10);
      EXPECT_NE(instance.jobs.task(t).job.value(), 11);
    }
  }

  shard::ShardPlannerConfig pooled = config;
  pooled.serial = false;
  pooled.workers = 4;
  shard::HierarchicalPlanner pooled_planner(pooled);
  expect_same_schedule(reference, pooled_planner.schedule(input));
}

TEST(ShardMigration, FiresOnImbalancedStreamedTrace) {
  // Regression: the old receiver test demanded the fluid estimate land
  // inside the donor's *realized horizon*, which on arrival-dominated
  // streamed traces sits at the last arrival for every shard — no estimate
  // could ever beat it, and the six-figure bench reported migrated_jobs: 0
  // against an imbalance of 2.47. The delay-ranked candidates and
  // fluid-load-seeded receiver test must move jobs on exactly this kind of
  // instance (same trace family and shape as the bench's quick point).
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(256, 25.0, 8, 4);
  workload::TraceConfig trace_config;
  trace_config.job_count = 2000;
  trace_config.base_arrival_rate = 0.5;
  trace_config.rounds_scale_min = 0.02;
  trace_config.rounds_scale_max = 0.08;
  workload::TraceStream stream(8100, trace_config);
  workload::JobSet jobs;
  while (!stream.exhausted()) jobs.add_job(stream.next());
  const workload::PerfModel perf;
  profiler::Profiler profiler(perf, profiler::ProfilerConfig{}, 8100);
  const profiler::TimeTable times = profiler.exact(jobs, cluster);
  const sched::SchedulerInput input{cluster, jobs, times};

  shard::ShardPlannerConfig config;
  config.shards = 8;
  config.serial = true;
  shard::HierarchicalPlanner planner(config);
  const sim::Schedule reference = planner.schedule(input);
  sim::validate_schedule(reference, jobs);
  EXPECT_GT(planner.last_plan().imbalance, 1.0);
  EXPECT_GT(planner.last_plan().migrated_jobs, 0u);

  // The migration decisions must not cost determinism: pooled fan-out
  // agrees bit for bit, including the moved jobs.
  shard::ShardPlannerConfig pooled = config;
  pooled.serial = false;
  pooled.workers = 4;
  shard::HierarchicalPlanner pooled_planner(pooled);
  expect_same_schedule(reference, pooled_planner.schedule(input));
  EXPECT_EQ(pooled_planner.last_plan().migrated_jobs,
            planner.last_plan().migrated_jobs);
}

// ---- Incremental Queyranne separation -------------------------------------

TEST(IncrementalSeparator, MatchesFullSortOnDriftingPoints) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> t_dist(0.2, 3.0);
  std::uniform_real_distribution<double> x_dist(0.0, 10.0);

  const std::size_t n = 40;
  std::vector<double> t(n);
  for (auto& v : t) v = t_dist(rng);
  std::vector<double> x(n);
  for (auto& v : x) v = x_dist(rng);

  opt::IncrementalSeparator separator(t);
  for (int round = 0; round < 30; ++round) {
    const opt::QueyranneCut full = opt::separate_queyranne_cut(t, x);
    const opt::QueyranneCut& inc = separator.separate(x);
    EXPECT_EQ(inc.subset, full.subset) << "round " << round;
    EXPECT_EQ(inc.violation, full.violation) << "round " << round;
    EXPECT_LE(separator.last_resorted(), n);

    if (round % 5 == 4) {
      // Unchanged point → cached cut, zero re-sorts.
      const opt::QueyranneCut& cached = separator.separate(x);
      EXPECT_EQ(cached.subset, full.subset);
      EXPECT_EQ(separator.last_resorted(), 0u);
    }

    // Drift a few coordinates, as consecutive LP vertices do.
    std::uniform_int_distribution<std::size_t> pick(0, n - 1);
    const std::size_t moves = 1 + static_cast<std::size_t>(round) % 5;
    for (std::size_t m = 0; m < moves; ++m) x[pick(rng)] = x_dist(rng);
  }
}

TEST(IncrementalSeparation, IdenticalCutTrajectoryWithSavings) {
  core::RelaxationConfig config;
  config.mode = core::RelaxMode::LpCuts;
  const core::HareRelaxation relaxation(config);
  std::size_t instances_with_cuts = 0;
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    SCOPED_TRACE(seed);
    const testing::Instance instance =
        testing::make_random_instance(seed, 8, 4);

    // The oracle separates with a full per-round sort of every machine.
    const core::RelaxationResult full = testing::oracle_relax(
        instance.cluster, instance.jobs, instance.times, config);
    const core::RelaxationResult inc =
        relaxation.solve(instance.cluster, instance.jobs, instance.times);

    // Identical trajectory: same cuts, same rounds, same vertex, same
    // objective — incremental separation is wall-clock only.
    EXPECT_EQ(inc.cut_count, full.cut_count);
    EXPECT_EQ(inc.lp_solves, full.lp_solves);
    EXPECT_EQ(inc.x_hat, full.x_hat);
    EXPECT_EQ(inc.objective, full.objective);

    // The savings metric: the full sort re-sorts everything every round;
    // the incremental separator only what the snapped vertex moved.
    EXPECT_EQ(full.sep_tasks_resorted, full.sep_tasks_total);
    EXPECT_EQ(inc.sep_tasks_total, full.sep_tasks_total);
    EXPECT_LE(inc.sep_tasks_resorted, inc.sep_tasks_total);
    if (full.cut_count > 0) {
      ++instances_with_cuts;
      // After the first round (full sort) later rounds touch only moved
      // coordinates, so some work must have been saved.
      if (inc.lp_solves > 1) {
        EXPECT_LT(inc.sep_tasks_resorted, inc.sep_tasks_total);
      }
    }
  }
  EXPECT_GE(instances_with_cuts, 1u);
}

}  // namespace
}  // namespace hare
