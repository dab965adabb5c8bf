// hare::serve tests: pull-based trace streaming, arrival-spec parsing,
// the schedule_jobs_with_h core seam, admission-batch determinism across
// tick sizes, the closed-form block vertex against the block solved as an
// LP (alone, accumulated, and by the dense LP oracle), replan-budget
// exhaustion fallback, fault-event-driven replanning, and serial-vs-pooled
// bit-identity of the sharded serve path.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/hare_scheduler.hpp"
#include "fault/fault_plan.hpp"
#include "lp_oracle.hpp"
#include "profiler/gpu_classes.hpp"
#include "profiler/profiler.hpp"
#include "serve/serve_service.hpp"
#include "sim/schedule.hpp"
#include "workload/arrival_spec.hpp"
#include "workload/trace.hpp"

namespace hare {
namespace {

bool schedules_identical(const sim::Schedule& a, const sim::Schedule& b) {
  return a.sequences == b.sequences &&
         a.predicted_start == b.predicted_start &&
         a.predicted_objective == b.predicted_objective;
}

bool specs_identical(const workload::JobSpec& a, const workload::JobSpec& b) {
  return a.model == b.model && a.arrival == b.arrival &&
         a.weight == b.weight && a.rounds == b.rounds &&
         a.tasks_per_round == b.tasks_per_round &&
         a.batch_size == b.batch_size &&
         a.batches_per_task == b.batches_per_task && a.name == b.name;
}

/// Specs with controlled arrival times: one job every `gap` seconds.
std::vector<workload::JobSpec> spaced_arrivals(std::size_t count, Time gap,
                                               Time start = 0.0) {
  std::vector<workload::JobSpec> specs;
  const workload::ModelType models[] = {
      workload::ModelType::ResNet50, workload::ModelType::BertBase,
      workload::ModelType::DeepSpeech, workload::ModelType::FastGCN};
  for (std::size_t i = 0; i < count; ++i) {
    workload::JobSpec spec;
    spec.model = models[i % 4];
    spec.arrival = start + static_cast<double>(i) * gap;
    spec.rounds = 3 + static_cast<std::uint32_t>(i % 4);
    spec.tasks_per_round = 1 + static_cast<std::uint32_t>(i % 3);
    spec.weight = 1.0 + static_cast<double>(i % 2);
    spec.name = "job-" + std::to_string(i);
    specs.push_back(spec);
  }
  return specs;
}

// ------------------------------------------------------ trace streaming --

TEST(TraceStream, MatchesMaterializedGenerate) {
  workload::TraceConfig config;
  config.job_count = 64;
  config.base_arrival_rate = 0.4;
  const workload::JobSet jobs = workload::TraceGenerator(91).generate(config);
  workload::TraceStream stream(91, config);
  for (std::size_t i = 0; i < config.job_count; ++i) {
    ASSERT_FALSE(stream.exhausted());
    EXPECT_EQ(stream.drawn(), i);
    const workload::JobSpec spec = stream.next();
    EXPECT_TRUE(
        specs_identical(spec, jobs.job(JobId(static_cast<int>(i))).spec))
        << "job " << i;
  }
  EXPECT_TRUE(stream.exhausted());
  EXPECT_THROW((void)stream.next(), common::Error);
}

TEST(TraceStream, DutyCycleBurstsAreDeterministic) {
  workload::TraceConfig config;
  config.job_count = 48;
  config.base_arrival_rate = 0.5;
  config.burst_rate_multiplier = 8.0;
  config.burst_on_period = 20.0;
  config.burst_off_period = 60.0;
  const workload::JobSet jobs = workload::TraceGenerator(7).generate(config);
  workload::TraceStream stream(7, config);
  Time last = 0.0;
  for (std::size_t i = 0; i < config.job_count; ++i) {
    const workload::JobSpec spec = stream.next();
    EXPECT_TRUE(
        specs_identical(spec, jobs.job(JobId(static_cast<int>(i))).spec));
    EXPECT_GE(spec.arrival, last);
    last = spec.arrival;
  }
  // The duty cycle replaces the stochastic burst draws, so the same seed
  // with the MMPP disabled draws a different (still monotone) sequence.
  workload::TraceConfig quiet = config;
  quiet.burst_on_period = 0.0;
  quiet.burst_off_period = 0.0;
  const workload::JobSet other = workload::TraceGenerator(7).generate(quiet);
  bool any_difference = false;
  for (std::size_t i = 0; i < config.job_count; ++i) {
    const JobId id(static_cast<int>(i));
    any_difference |= jobs.job(id).spec.arrival != other.job(id).spec.arrival;
  }
  EXPECT_TRUE(any_difference);
}

// --------------------------------------------------------- arrival spec --

TEST(ArrivalSpec, ParsesEveryKey) {
  const workload::TraceConfig config = workload::parse_arrival_spec(
      "jobs=120,rate=1.5,burst=4,burst_prob=0.3,burst_len=6,"
      "on_period=15,off_period=45,rounds_min=0.2,rounds_max=0.6,"
      "batch_scale=2");
  EXPECT_EQ(config.job_count, 120u);
  EXPECT_DOUBLE_EQ(config.base_arrival_rate, 1.5);
  EXPECT_DOUBLE_EQ(config.burst_rate_multiplier, 4.0);
  EXPECT_DOUBLE_EQ(config.burst_probability, 0.3);
  EXPECT_DOUBLE_EQ(config.mean_burst_length, 6.0);
  EXPECT_DOUBLE_EQ(config.burst_on_period, 15.0);
  EXPECT_DOUBLE_EQ(config.burst_off_period, 45.0);
  EXPECT_DOUBLE_EQ(config.rounds_scale_min, 0.2);
  EXPECT_DOUBLE_EQ(config.rounds_scale_max, 0.6);
  EXPECT_DOUBLE_EQ(config.batch_scale, 2.0);
}

TEST(ArrivalSpec, MalformedSpecsThrow) {
  EXPECT_THROW((void)workload::parse_arrival_spec("jobz=10"), common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec("rate=fast"), common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec("jobs=0"), common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec("rate"), common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec("burst_prob=1.5"),
               common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec("on_period=10"),
               common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec(
                   "rounds_min=0.8,rounds_max=0.4"),
               common::Error);
}

TEST(ArrivalSpec, EmptySpecThrows) {
  EXPECT_THROW((void)workload::parse_arrival_spec(""), common::Error);
}

TEST(ArrivalSpec, DuplicateKeyThrowsNamingTheKey) {
  try {
    (void)workload::parse_arrival_spec("jobs=10,rate=2,jobs=20");
    FAIL() << "duplicate key accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("jobs"), std::string::npos);
  }
}

TEST(ArrivalSpec, OverflowValueThrowsNamingTheKey) {
  try {
    (void)workload::parse_arrival_spec("rate=1e9999");
    FAIL() << "overflowing value accepted";
  } catch (const common::Error& e) {
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("rate"), std::string::npos);
  }
  // Counts reject integer-overflowing magnitudes before the integral cast.
  EXPECT_THROW((void)workload::parse_arrival_spec("jobs=1e30"),
               common::Error);
  // from_chars parses "nan"; a non-finite value is out of range too.
  for (const char* spec : {"jobs=5,rate=nan", "jobs=5,rate=-nan", "jobs=nan"}) {
    try {
      (void)workload::parse_arrival_spec(spec);
      FAIL() << "non-finite value accepted: " << spec;
    } catch (const common::Error& e) {
      EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos)
          << spec;
    }
  }
}

TEST(ArrivalSpec, TrailingSeparatorThrows) {
  EXPECT_THROW((void)workload::parse_arrival_spec("jobs=10,"), common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec("jobs=10,,rate=2"),
               common::Error);
  EXPECT_THROW((void)workload::parse_arrival_spec(",jobs=10"), common::Error);
}

// ----------------------------------------------------- core with-h seam --

TEST(ScheduleWithH, ReproducesScheduleJobsGivenItsH) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  workload::JobSet jobs;
  for (const auto& spec : spaced_arrivals(10, 5.0)) jobs.add_job(spec);
  const profiler::Profiler profiler({}, {}, 3);
  const profiler::TimeTable times = profiler.exact(jobs, cluster);
  const sched::SchedulerInput input{cluster, jobs, times};
  std::vector<JobId> batch;
  for (const auto& job : jobs.jobs()) batch.push_back(job.id);

  core::HareConfig config;
  config.relaxation.mode = core::RelaxMode::Fluid;
  core::HareScheduler planner(config);
  core::HareScheduler::IncrementalState state_a;
  sim::Schedule a;
  const double obj_a = planner.schedule_jobs(input, batch, state_a, a);

  core::HareScheduler replayer(config);
  core::HareScheduler::IncrementalState state_b;
  sim::Schedule b;
  const double obj_b = replayer.schedule_jobs_with_h(
      input, batch, state_a.relaxation.h, state_b, b);

  EXPECT_EQ(obj_a, obj_b);
  EXPECT_TRUE(schedules_identical(a, b));
  EXPECT_EQ(state_a.phi, state_b.phi);
}

// ------------------------------------------------------- serve batching --

serve::ServeConfig small_lp_config() {
  serve::ServeConfig config;
  config.lp_max_batch_jobs = 64;
  return config;
}

TEST(Serve, TickSizesWithIdenticalCoalescingMatchBitForBit) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(12, 2.0);
  // Arrivals are 2 s apart, so every tick below 2 s yields singleton
  // batches: the partitions coincide and so must the served schedules.
  sim::Schedule reference;
  bool have_reference = false;
  for (const Time tick : {0.0, 0.5, 1.9}) {
    serve::ServeConfig config = small_lp_config();
    config.tick = tick;
    serve::ServeService service(cluster, workload::PerfModel{}, config);
    const serve::ServeReport report = service.run(arrivals);
    EXPECT_EQ(report.batches, arrivals.size()) << "tick " << tick;
    sim::validate_schedule(report.schedule, service.jobs());
    if (!have_reference) {
      reference = report.schedule;
      have_reference = true;
    } else {
      EXPECT_TRUE(schedules_identical(reference, report.schedule))
          << "tick " << tick;
    }
  }
  // A tick wide enough to merge everything batches differently (one joint
  // planning round) but still plans every job exactly once.
  serve::ServeConfig wide = small_lp_config();
  wide.tick = 1000.0;
  serve::ServeService service(cluster, workload::PerfModel{}, wide);
  const serve::ServeReport report = service.run(arrivals);
  EXPECT_EQ(report.batches, 1u);
  EXPECT_EQ(report.planned_jobs, arrivals.size());
  sim::validate_schedule(report.schedule, service.jobs());
}

/// Writes one flushed batch's middle completion times into the shared `h`
/// (indexed by TaskId value): (batch, phi_floor).
using BlockRelaxer = std::function<void(const std::vector<JobId>&, Time)>;

/// Replay a served stream's LP path: the same admission batches, horizons
/// and scheduler settings as ServeService, with each batch's middle
/// completion times supplied by `relax` through `h`.
sim::Schedule replay_lp_path(const cluster::Cluster& cluster,
                             const serve::ServeService& service,
                             const std::vector<workload::JobSpec>& arrivals,
                             Time tick, std::vector<Time>& h,
                             const BlockRelaxer& relax) {
  const workload::JobSet& jobs = service.jobs();
  const sched::SchedulerInput input{cluster, jobs, service.times()};
  core::HareConfig hare;
  hare.relaxation.mode = core::RelaxMode::Fluid;
  hare.sync = core::SyncScheme::Relaxed;
  core::HareScheduler flat(hare);
  core::HareScheduler::IncrementalState state;
  state.phi.assign(cluster.gpu_count(), 0.0);
  sim::Schedule replay;
  replay.sequences.resize(cluster.gpu_count());
  replay.predicted_start.assign(jobs.task_count(), 0.0);
  h.assign(jobs.task_count(), 0.0);

  serve::AdmissionBatcher batcher(tick);
  const auto flush = [&] {
    if (batcher.empty()) return;
    const std::vector<JobId> batch = batcher.take();
    relax(batch, *std::min_element(state.phi.begin(), state.phi.end()));
    flat.schedule_jobs_with_h(input, batch, h, state, replay);
  };
  for (std::size_t j = 0; j < arrivals.size(); ++j) {
    if (batcher.should_flush(arrivals[j].arrival)) flush();
    batcher.admit(JobId(static_cast<int>(j)), arrivals[j].arrival);
  }
  flush();
  return replay;
}

/// Every spec of a seeded arrival stream, in order.
std::vector<workload::JobSpec> stream_arrivals(std::uint64_t seed,
                                               const std::string& spec) {
  workload::TraceStream stream(seed, workload::parse_arrival_spec(spec));
  std::vector<workload::JobSpec> arrivals;
  while (!stream.exhausted()) arrivals.push_back(stream.next());
  return arrivals;
}

// Oracle for the per-block path: replay the served stream's batches
// through relax_batch and also stack every block into one LP (the
// accumulated program the service once kept), solved once. Blocks share
// no row or column, so each block's snapped start values must match its
// own closed form exactly. Two inputs: evenly spaced arrivals, and a
// seeded stream with the default configuration.
TEST(Serve, BlockSolvesMatchAccumulatedProgram) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  serve::ServeConfig spaced = small_lp_config();
  spaced.tick = 3.0;
  serve::ServeConfig streamed;
  streamed.tick = 4.0;
  const std::vector<
      std::pair<std::vector<workload::JobSpec>, serve::ServeConfig>>
      inputs = {{spaced_arrivals(18, 1.0), spaced},
                {stream_arrivals(
                     4200, "jobs=96,rate=2,rounds_min=0.08,rounds_max=0.2"),
                 streamed}};
  for (const auto& [arrivals, config] : inputs) {
    SCOPED_TRACE(::testing::Message() << arrivals.size() << " arrivals");
    serve::ServeService service(cluster, workload::PerfModel{}, config);
    const serve::ServeReport report = service.run(arrivals);
    EXPECT_GT(report.lp_batches, 1u);
    EXPECT_EQ(report.lp.cold_solves, report.lp_batches);
    EXPECT_EQ(report.lp.warm_solves, 0u);
    EXPECT_EQ(report.lp.compactions, 0u);
    sim::validate_schedule(report.schedule, service.jobs());

    const workload::JobSet& jobs = service.jobs();
    const profiler::TimeTable& times = service.times();
    std::vector<Time> h;
    testing::LinearProgram accumulated;
    std::vector<std::vector<JobId>> blocks;
    std::vector<std::vector<std::vector<std::size_t>>> block_vars;
    const sim::Schedule replay = replay_lp_path(
        cluster, service, arrivals, config.tick, h,
        [&](const std::vector<JobId>& batch, Time phi_floor) {
          blocks.push_back(batch);
          serve::relax_batch(jobs, times, batch, phi_floor, cluster.gpu_count(),
                             h);
          block_vars.emplace_back();
          testing::append_batch_block(accumulated, jobs, times, batch,
                                      phi_floor, cluster.gpu_count(),
                                      block_vars.back());
        });
    ASSERT_EQ(blocks.size(), report.lp_batches);
    EXPECT_TRUE(schedules_identical(report.schedule, replay));

    const opt::LpSolution whole = accumulated.solve();
    ASSERT_TRUE(whole.optimal());
    for (std::size_t b = 0; b < blocks.size(); ++b) {
      for (std::size_t k = 0; k < blocks[b].size(); ++k) {
        const workload::Job& job = jobs.job(blocks[b][k]);
        const Time half_tc = times.max_tc(job.id) / 2.0;
        for (std::uint32_t r = 0; r < job.rounds(); ++r) {
          const Time mid =
              opt::snap_lp_value(whole.values[block_vars[b][k][r]]) + half_tc;
          EXPECT_EQ(h[static_cast<std::size_t>(job.task_at(r, 0).value())],
                    mid)
              << "block " << b << " job " << k << " round " << r;
        }
      }
    }
  }
}

// Serve versus the dense LP oracle: every batch block solved by the
// two-phase tableau instead of the revised simplex, snapped the same way,
// must reproduce the served schedule bit for bit. The perturbed block
// optimum is a unique vertex, so two unrelated simplex codes agree on it.
TEST(Serve, LpServeMatchesOracle) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(10, 1.5);
  serve::ServeConfig config = small_lp_config();
  config.tick = 4.0;
  serve::ServeService service(cluster, workload::PerfModel{}, config);
  const serve::ServeReport report = service.run(arrivals);
  EXPECT_GT(report.lp_batches, 0u);

  const workload::JobSet& jobs = service.jobs();
  const profiler::TimeTable& times = service.times();
  std::size_t oracle_blocks = 0;
  std::vector<Time> h;
  const sim::Schedule oracle = replay_lp_path(
      cluster, service, arrivals, config.tick, h,
      [&](const std::vector<JobId>& batch, Time phi_floor) {
        testing::LinearProgram lp;
        std::vector<std::vector<std::size_t>> round_vars;
        testing::append_batch_block(lp, jobs, times, batch, phi_floor,
                                    cluster.gpu_count(), round_vars);
        const opt::LpSolution solution = testing::oracle_solve(lp);
        ASSERT_TRUE(solution.optimal());
        ++oracle_blocks;
        for (std::size_t b = 0; b < batch.size(); ++b) {
          const workload::Job& job = jobs.job(batch[b]);
          const Time half_tc = times.max_tc(batch[b]) / 2.0;
          for (std::uint32_t r = 0; r < job.rounds(); ++r) {
            const Time mid =
                opt::snap_lp_value(solution.values[round_vars[b][r]]) +
                half_tc;
            for (std::uint32_t k = 0; k < job.tasks_per_round(); ++k) {
              h[static_cast<std::size_t>(job.task_at(r, k).value())] = mid;
            }
          }
        }
      });
  EXPECT_EQ(oracle_blocks, report.lp_batches);
  EXPECT_TRUE(schedules_identical(report.schedule, oracle));
}

// The closed-form block vertex against the block solved as an LP by both
// simplex codes. Seeded blocks on 1, 2, 3 and 15 alive GPUs, with
// releases a few seconds apart, make the load cut bind in most of them
// (716 of 1,224); hand-built blocks of two jobs with equal w/g
// leave the choice of the shifted job to the objective perturbation alone.
// Where the LP's raw start lies within 1e-8 of a 1e-6 snap midpoint, the
// two roundings may land one grid step apart; everywhere else h must match
// exactly.
TEST(Serve, ClosedFormBlockMatchesLpOracles) {
  struct Block {
    std::vector<JobId> batch;
    Time phi_floor = 0.0;
    std::size_t alive = 1;
    bool hand_built = false;
    std::size_t pair_at = 0;  ///< index of a hand-built pair's first job
  };
  workload::JobSet jobs;
  std::vector<Block> blocks;

  // Seeded blocks; shapes come from a small pool, so they repeat.
  common::Rng rng(28);
  const workload::ModelType models[] = {workload::ModelType::ResNet50,
                                        workload::ModelType::BertBase,
                                        workload::ModelType::DeepSpeech};
  const std::size_t alive_counts[] = {1, 2, 3, 15};
  for (std::size_t i = 0; i < 1200; ++i) {
    Block block;
    block.alive = alive_counts[i % 4];
    const Time opened = rng.uniform(0.0, 4.0);
    block.phi_floor = opened + rng.uniform(0.0, 1.0);
    const std::size_t size = 1 + rng.uniform_int(5);
    for (std::size_t k = 0; k < size; ++k) {
      workload::JobSpec spec;
      spec.model = models[rng.uniform_int(3)];
      spec.arrival = opened + rng.uniform(0.0, 2.0);
      spec.rounds = 1 + static_cast<std::uint32_t>(rng.uniform_int(6));
      spec.tasks_per_round = 1 + static_cast<std::uint32_t>(rng.uniform_int(3));
      spec.weight = 1.0 + static_cast<double>(rng.uniform_int(4));
      block.batch.push_back(jobs.add_job(spec));
    }
    blocks.push_back(block);
  }

  // Hand-built blocks: one model (one t_j), both orders, alone or with a
  // long, heavy job (higher w/g, so never the one shifted) in front or
  // behind that shifts every perturbation rank.
  struct Shape {
    std::uint32_t rounds;
    std::uint32_t tasks_per_round;
    double weight;
  };
  const std::pair<Shape, Shape> equal_ratio[] = {{{2, 1, 1.0}, {4, 1, 2.0}},
                                                 {{1, 1, 1.0}, {1, 2, 2.0}},
                                                 {{3, 2, 3.0}, {6, 1, 3.0}},
                                                 {{2, 2, 1.0}, {8, 1, 2.0}}};
  const Shape heavy{12, 1, 40.0};
  const auto add = [&](const Shape& shape) {
    workload::JobSpec spec;
    spec.rounds = shape.rounds;
    spec.tasks_per_round = shape.tasks_per_round;
    spec.weight = shape.weight;
    return jobs.add_job(spec);
  };
  for (const auto& [a, b] : equal_ratio) {
    for (const bool swapped : {false, true}) {
      for (const int heavy_at : {-1, 0, 2}) {
        Block block;
        block.hand_built = true;
        if (heavy_at == 0) block.batch.push_back(add(heavy));
        block.pair_at = block.batch.size();
        block.batch.push_back(add(swapped ? b : a));
        block.batch.push_back(add(swapped ? a : b));
        if (heavy_at == 2) block.batch.push_back(add(heavy));
        blocks.push_back(block);
      }
    }
  }

  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const profiler::Profiler profiler(workload::PerfModel{},
                                    profiler::ProfilerConfig{}, 1);
  const profiler::TimeTable times = profiler.exact(jobs, cluster);
  std::vector<Time> h(jobs.task_count(), 0.0);
  std::size_t binding = 0;
  std::size_t midpoint_band = 0;
  std::size_t hand_built_binding = 0;
  std::size_t later_winners = 0;
  for (std::size_t i = 0; i < blocks.size(); ++i) {
    const Block& block = blocks[i];
    serve::relax_batch(jobs, times, block.batch, block.phi_floor, block.alive,
                       h);
    testing::LinearProgram lp;
    std::vector<std::vector<std::size_t>> round_vars;
    testing::append_batch_block(lp, jobs, times, block.batch, block.phi_floor,
                                block.alive, round_vars);
    const opt::LpSolution revised = lp.solve();
    const opt::LpSolution dense = testing::oracle_solve(lp);
    ASSERT_TRUE(revised.optimal()) << "block " << i;
    ASSERT_TRUE(dense.optimal()) << "block " << i;

    std::size_t shifted = block.batch.size();
    for (std::size_t b = 0; b < block.batch.size(); ++b) {
      const workload::Job& job = jobs.job(block.batch[b]);
      const Time half_tc = times.max_tc(job.id) / 2.0;
      const std::size_t first = round_vars[b][0];
      if (revised.values[first] > lp.lower_bound(first) + 1e-7) shifted = b;
      for (std::uint32_t r = 0; r < job.rounds(); ++r) {
        const Time served =
            h[static_cast<std::size_t>(job.task_at(r, 0).value())];
        for (const opt::LpSolution* solution : {&revised, &dense}) {
          const double raw = solution->values[round_vars[b][r]];
          const Time expected = opt::snap_lp_value(raw) + half_tc;
          if (served == expected) continue;
          const double scaled = raw * 1e6;
          const bool at_midpoint =
              std::abs(scaled - std::floor(scaled) - 0.5) < 1e-8 * 1e6;
          if (at_midpoint && std::abs(served - expected) < 1.5e-6) {
            ++midpoint_band;
            continue;
          }
          ADD_FAILURE() << "block " << i << " job " << b << " round " << r
                        << ": closed form " << served << ", LP " << expected
                        << " (raw " << raw << ")";
        }
      }
    }
    if (shifted == block.batch.size()) continue;
    ++binding;
    if (!block.hand_built) continue;
    ++hand_built_binding;
    if (shifted == block.pair_at + 1) ++later_winners;
  }
  EXPECT_GT(binding, blocks.size() / 2);
  EXPECT_EQ(hand_built_binding, std::size(equal_ratio) * 6);
  EXPECT_GT(later_winners, 0u);
  std::cout << "closed form vs LP: " << blocks.size() << " blocks, "
            << binding << " binding, " << midpoint_band
            << " starts in the snap-midpoint band\n";
  RecordProperty("midpoint_band", static_cast<int>(midpoint_band));
}

TEST(Serve, ReplanBudgetExhaustionFallsBackToGreedy) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(12, 2.0);
  serve::ServeConfig config = small_lp_config();
  config.replan_budget = 3;  // singleton batches: 12 replans wanted
  serve::ServeService service(cluster, workload::PerfModel{}, config);
  const serve::ServeReport report = service.run(arrivals);

  EXPECT_EQ(report.lp_batches + report.flat_batches, 3u);
  EXPECT_EQ(report.greedy_batches, report.batches - 3u);
  EXPECT_GT(report.greedy_batches, 0u);
  EXPECT_EQ(report.planned_jobs, arrivals.size());
  sim::validate_schedule(report.schedule, service.jobs());

  // The fallback is still deterministic.
  serve::ServeService again(cluster, workload::PerfModel{}, config);
  EXPECT_TRUE(
      schedules_identical(report.schedule, again.run(arrivals).schedule));
}

// ---------------------------------------------------------- fault events --

fault::FaultPlan gpu_blip(int gpu, Time fail, Time recover) {
  fault::FaultPlan plan;
  fault::FaultEvent down;
  down.time = fail;
  down.kind = fault::FaultKind::GpuFail;
  down.gpu = GpuId(gpu);
  plan.events.push_back(down);
  fault::FaultEvent up;
  up.time = recover;
  up.kind = fault::FaultKind::GpuRecover;
  up.gpu = GpuId(gpu);
  plan.events.push_back(up);
  return plan;
}

TEST(Serve, GpuFailureDisplacesAndSpawnsContinuations) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(14, 1.0);
  serve::ServeConfig config = small_lp_config();
  config.tick = 2.0;
  const fault::FaultPlan plan = gpu_blip(0, 6.0, 40.0);

  serve::ServeService service(cluster, workload::PerfModel{}, config);
  const serve::ServeReport report = service.run(arrivals, plan);

  EXPECT_EQ(report.fault_events, 2u);
  EXPECT_GT(report.displaced_tasks, 0u);
  EXPECT_GT(report.continuations, 0u);
  EXPECT_EQ(report.planned_jobs, arrivals.size() + report.continuations);
  // Originals keep their committed tasks and continuations are planned
  // once each, so the cumulative plan still covers every task exactly once.
  sim::validate_schedule(report.schedule, service.jobs());

  serve::ServeService again(cluster, workload::PerfModel{}, config);
  EXPECT_TRUE(schedules_identical(report.schedule,
                                  again.run(arrivals, plan).schedule));
}

TEST(Serve, AdmittedRowsMatchExactProfile) {
  // Admission builds each arrival's row once per GPU class; after a stream
  // that spawned continuations, every row must still read cell for cell
  // like the exact profiler's table of the same jobs.
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(14, 1.0);
  serve::ServeConfig config = small_lp_config();
  config.tick = 2.0;
  serve::ServeService service(cluster, workload::PerfModel{}, config);
  const serve::ServeReport report =
      service.run(arrivals, gpu_blip(0, 6.0, 40.0));
  ASSERT_GT(report.continuations, 0u);

  const profiler::Profiler profiler(workload::PerfModel{},
                                    profiler::ProfilerConfig{}, 1);
  const profiler::TimeTable exact = profiler.exact(service.jobs(), cluster);
  const profiler::TimeTable& served = service.times();
  ASSERT_EQ(served.job_count(), exact.job_count());
  ASSERT_EQ(served.gpu_count(), exact.gpu_count());
  for (std::size_t j = 0; j < exact.job_count(); ++j) {
    const JobId job(static_cast<int>(j));
    for (std::size_t g = 0; g < exact.gpu_count(); ++g) {
      const GpuId gpu(static_cast<int>(g));
      EXPECT_EQ(served.tc(job, gpu), exact.tc(job, gpu));
      EXPECT_EQ(served.ts(job, gpu), exact.ts(job, gpu));
    }
  }
}

TEST(Serve, RepeatShapesShareOneRow) {
  // A default-trace stream repeats a handful of job shapes (model,
  // effective batch, batches per task): admission binds a repeat to the
  // shape's row, so the table holds one row per shape plus the zero row,
  // like Profiler::exact() over the same jobs.
  const cluster::Cluster cluster = cluster::make_simulation_cluster(256);
  workload::TraceConfig trace;
  trace.job_count = 500;
  const workload::JobSet generated =
      workload::TraceGenerator(3).generate(trace);
  std::vector<workload::JobSpec> arrivals;
  for (const workload::Job& job : generated.jobs()) {
    arrivals.push_back(job.spec);
  }
  serve::ServeService service(cluster, workload::PerfModel{},
                              serve::ServeConfig{});
  (void)service.run(arrivals);

  std::set<std::tuple<int, std::uint32_t, std::uint32_t>> shapes;
  for (const workload::Job& job : service.jobs().jobs()) {
    shapes.emplace(static_cast<int>(job.spec.model), job.effective_batch_size(),
                   job.spec.batches_per_task);
  }
  EXPECT_LT(shapes.size(), 50u);
  EXPECT_EQ(service.times().row_count(), shapes.size() + 1);
  EXPECT_EQ(service.times().column_count(),
            profiler::GpuClasses(cluster).size());
  const profiler::Profiler profiler(workload::PerfModel{},
                                    profiler::ProfilerConfig{}, 1);
  EXPECT_EQ(service.times().row_count(),
            profiler.exact(service.jobs(), cluster).row_count());
}

TEST(Serve, CancelBeforePlanningSkipsTheJob) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(8, 2.0);
  fault::FaultPlan plan;
  fault::FaultEvent cancel;
  cancel.kind = fault::FaultKind::JobCancel;
  cancel.job = JobId(5);
  cancel.time = 1.0;  // long before job 5 arrives at t = 10
  plan.events.push_back(cancel);

  serve::ServeConfig config = small_lp_config();
  serve::ServeService service(cluster, workload::PerfModel{}, config);
  const serve::ServeReport report = service.run(arrivals, plan);

  EXPECT_EQ(report.canceled, 1u);
  EXPECT_EQ(report.planned_jobs, arrivals.size() - 1);
  const workload::Job& dropped = service.jobs().job(JobId(5));
  for (const auto& sequence : report.schedule.sequences) {
    for (TaskId task : sequence) {
      EXPECT_NE(service.jobs().task(task).job, dropped.id);
    }
  }
}

TEST(Serve, JobCompleteReleasesHorizonForNextBatch) {
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  // One long job monopolizes every GPU's committed horizon, then a short
  // job arrives after the long job is reported complete at t = 5.
  std::vector<workload::JobSpec> arrivals(2);
  arrivals[0].model = workload::ModelType::ResNet50;
  arrivals[0].arrival = 0.0;
  arrivals[0].rounds = 40;
  arrivals[0].tasks_per_round = 15;  // one task per testbed GPU per round
  arrivals[0].name = "long";
  arrivals[1].model = workload::ModelType::BertBase;
  arrivals[1].arrival = 6.0;
  arrivals[1].rounds = 2;
  arrivals[1].tasks_per_round = 1;
  arrivals[1].name = "late";

  fault::FaultPlan plan;
  fault::FaultEvent done;
  done.kind = fault::FaultKind::JobComplete;
  done.job = JobId(0);
  done.time = 5.0;
  plan.events.push_back(done);

  const serve::ServeConfig config = small_lp_config();
  serve::ServeService with_completion(cluster, workload::PerfModel{}, config);
  const serve::ServeReport released = with_completion.run(arrivals, plan);
  serve::ServeService without(cluster, workload::PerfModel{}, config);
  const serve::ServeReport held = without.run(arrivals);

  EXPECT_EQ(released.completions, 1u);
  EXPECT_GT(released.released_tasks, 0u);
  EXPECT_EQ(held.released_tasks, 0u);
  // The completion freed the long job's unstarted committed tail, so the
  // late job plans onto rolled-back horizons: it reaches a fast GPU
  // immediately instead of queueing behind 40 rounds of committed work,
  // and the planned weighted-completion objective drops. The long job's
  // own contribution was fixed when its batch was planned, so the whole
  // difference is the late job finishing earlier.
  EXPECT_LT(released.objective, held.objective);

  serve::ServeService again(cluster, workload::PerfModel{}, config);
  EXPECT_TRUE(schedules_identical(released.schedule,
                                  again.run(arrivals, plan).schedule));
}

// ------------------------------------------------------------- sharding --

TEST(Serve, ShardedServeIsBitIdenticalSerialVsPooled) {
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(32, 25.0, 8, 2);
  const auto arrivals = spaced_arrivals(20, 0.5);

  const auto run_with = [&](bool serial) {
    serve::ServeConfig config;
    config.tick = 4.0;
    config.lp_max_batch_jobs = 0;  // force the sharded/flat paths
    config.shard_min_batch_jobs = 2;
    config.shard.serial = serial;
    config.shard.workers = serial ? 0 : 3;
    serve::ServeService service(cluster, workload::PerfModel{}, config);
    return service.run(arrivals);
  };
  const serve::ServeReport serial_report = run_with(true);
  const serve::ServeReport pooled_report = run_with(false);

  EXPECT_GT(serial_report.sharded_batches, 0u);
  EXPECT_EQ(serial_report.sharded_batches, pooled_report.sharded_batches);
  EXPECT_TRUE(schedules_identical(serial_report.schedule,
                                  pooled_report.schedule));
}

TEST(Serve, ShardedServeUsesSurvivorsOfAShardWithADeadGpu) {
  // Two 16-GPU domains; GPU 0 of shard 0 dies before the first arrival.
  // Its horizon parks at the dead sentinel, which must neither become
  // shard 0's load seed nor count as capacity: the 15 survivors keep
  // taking batch jobs and the served objective stays near the no-failure
  // stream's, instead of every job queueing on shard 1.
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(32, 25.0, 8, 2);
  const auto arrivals = spaced_arrivals(80, 0.25);
  fault::FaultPlan plan;
  fault::FaultEvent down;
  down.time = 0.0;
  down.kind = fault::FaultKind::GpuFail;
  down.gpu = GpuId(0);
  plan.events.push_back(down);

  serve::ServeConfig config;
  config.lp_max_batch_jobs = 0;
  config.shard_min_batch_jobs = 1;
  serve::ServeService healthy(cluster, workload::PerfModel{}, config);
  const serve::ServeReport baseline = healthy.run(arrivals);
  serve::ServeService faulted(cluster, workload::PerfModel{}, config);
  const serve::ServeReport report = faulted.run(arrivals, plan);

  EXPECT_EQ(report.sharded_batches, report.batches);
  sim::validate_schedule(report.schedule, faulted.jobs());
  EXPECT_TRUE(report.schedule.sequences[0].empty());
  std::size_t survivor_tasks = 0;
  for (std::size_t g = 1; g < 16; ++g) {
    survivor_tasks += report.schedule.sequences[g].size();
  }
  EXPECT_GT(survivor_tasks, 0u);
  EXPECT_LT(report.objective, 1.10 * baseline.objective)
      << "faulted " << report.objective << " vs healthy "
      << baseline.objective;

  // With every GPU dead no shard has alive capacity: the jobs are held,
  // as on the flat path, and never planned when no GPU comes back.
  fault::FaultPlan blackout;
  for (const cluster::Machine& machine : cluster.machines()) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::MachineFail;
    event.machine = machine.id;
    blackout.events.push_back(event);
  }
  serve::ServeService stranded(cluster, workload::PerfModel{}, config);
  const serve::ServeReport held = stranded.run(arrivals, blackout);
  EXPECT_EQ(held.planned_jobs, 0u);
  EXPECT_EQ(held.unplanned_jobs, arrivals.size());
}

/// Every machine fails at t = 0; `recovered` (if any) comes back at
/// `recover_at`.
fault::FaultPlan all_machines_down(const cluster::Cluster& cluster,
                                   std::optional<MachineId> recovered,
                                   Time recover_at) {
  fault::FaultPlan plan;
  for (const cluster::Machine& machine : cluster.machines()) {
    fault::FaultEvent event;
    event.kind = fault::FaultKind::MachineFail;
    event.machine = machine.id;
    plan.events.push_back(event);
  }
  if (recovered) {
    fault::FaultEvent up;
    up.time = recover_at;
    up.kind = fault::FaultKind::MachineRecover;
    up.machine = *recovered;
    plan.events.push_back(up);
  }
  return plan;
}

TEST(Serve, AllGpusDeadHoldsTheBatchUntilTheFirstRecovery) {
  // No batch is planned onto the dead horizon: the jobs that arrive while
  // every GPU is down wait for machine 0, which comes back after the last
  // arrival, and are then planned over all of its GPUs.
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(12, 2.0);
  const MachineId back = cluster.machines().front().id;
  serve::ServeService service(cluster, workload::PerfModel{},
                              small_lp_config());
  const serve::ServeReport report =
      service.run(arrivals, all_machines_down(cluster, back, 30.0));

  EXPECT_EQ(report.planned_jobs, arrivals.size());
  EXPECT_EQ(report.unplanned_jobs, 0u);
  EXPECT_EQ(report.continuations, 0u);
  EXPECT_EQ(report.batches, 1u);
  EXPECT_LT(report.objective, 1e6);
  sim::validate_schedule(report.schedule, service.jobs());
  const std::vector<GpuId>& gpus = cluster.machine(back).gpus;
  std::size_t used = 0;
  for (std::size_t g = 0; g < report.schedule.sequences.size(); ++g) {
    const auto& seq = report.schedule.sequences[g];
    const bool on_back =
        std::find(gpus.begin(), gpus.end(), GpuId(static_cast<int>(g))) !=
        gpus.end();
    EXPECT_TRUE(on_back || seq.empty()) << "GPU " << g;
    used += seq.empty() ? 0 : 1;
    for (TaskId task : seq) {
      EXPECT_GE(report.schedule.predicted_start[static_cast<std::size_t>(
                    task.value())],
                30.0);
    }
  }
  EXPECT_EQ(used, gpus.size());
}

TEST(Serve, AllGpusDeadWithoutRecoveryPlansNothing) {
  // Held jobs that never see a live GPU are reported as never planned and
  // stay out of the objective; a job canceled while held counts as
  // canceled, not as unplanned.
  const cluster::Cluster cluster = cluster::make_testbed_cluster();
  const auto arrivals = spaced_arrivals(12, 2.0);
  fault::FaultPlan plan = all_machines_down(cluster, std::nullopt, 0.0);
  fault::FaultEvent cancel;
  cancel.time = 9.0;
  cancel.kind = fault::FaultKind::JobCancel;
  cancel.job = JobId(3);
  plan.events.push_back(cancel);
  serve::ServeService service(cluster, workload::PerfModel{},
                              small_lp_config());
  const serve::ServeReport report = service.run(arrivals, plan);

  EXPECT_EQ(report.planned_jobs, 0u);
  EXPECT_EQ(report.batches, 0u);
  EXPECT_EQ(report.canceled, 1u);
  EXPECT_EQ(report.unplanned_jobs, arrivals.size() - 1);
  EXPECT_EQ(report.objective, 0.0);
}

}  // namespace
}  // namespace hare
