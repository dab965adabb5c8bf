// Unit tests for the profiler: time tables, measurement noise, and the
// historical profile database.
#include <gtest/gtest.h>

#include <cstdio>
#include <algorithm>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "common/stats.hpp"
#include "profiler/gpu_classes.hpp"
#include "profiler/profile_db.hpp"
#include "profiler/profiler.hpp"
#include "profiler/time_table.hpp"
#include "profiler_oracle.hpp"
#include "test_util.hpp"
#include "workload/trace.hpp"

namespace hare::profiler {
namespace {

using cluster::GpuType;
using workload::ModelType;

workload::JobSet make_jobs(std::size_t count) {
  workload::TraceConfig config;
  config.job_count = count;
  workload::TraceGenerator generator(77);
  return generator.generate(config);
}

// ------------------------------------------------------------ time table --

TEST(TimeTable, SetAndGet) {
  TimeTable table(2, 3);
  table.set(JobId(1), GpuId(2), 5.0, 0.5);
  EXPECT_DOUBLE_EQ(table.tc(JobId(1), GpuId(2)), 5.0);
  EXPECT_DOUBLE_EQ(table.ts(JobId(1), GpuId(2)), 0.5);
  EXPECT_DOUBLE_EQ(table.total(JobId(1), GpuId(2)), 5.5);
  EXPECT_EQ(table.job_count(), 2u);
  EXPECT_EQ(table.gpu_count(), 3u);
}

TEST(TimeTable, MinMaxAndFastest) {
  TimeTable table(1, 3);
  table.set(JobId(0), GpuId(0), 4.0, 0.4);
  table.set(JobId(0), GpuId(1), 2.0, 0.2);
  table.set(JobId(0), GpuId(2), 8.0, 0.8);
  EXPECT_DOUBLE_EQ(table.min_tc(JobId(0)), 2.0);
  EXPECT_DOUBLE_EQ(table.max_tc(JobId(0)), 8.0);
  EXPECT_DOUBLE_EQ(table.min_ts(JobId(0)), 0.2);
  EXPECT_DOUBLE_EQ(table.max_ts(JobId(0)), 0.8);
  EXPECT_EQ(table.fastest_gpu(JobId(0)), GpuId(1));
}

TEST(TimeTable, AlphaIsMaxRatio) {
  TimeTable table(2, 2);
  table.set(JobId(0), GpuId(0), 1.0, 0.1);
  table.set(JobId(0), GpuId(1), 3.0, 0.1);   // tc ratio 3
  table.set(JobId(1), GpuId(0), 2.0, 0.10);
  table.set(JobId(1), GpuId(1), 2.0, 0.45);  // ts ratio 4.5
  EXPECT_DOUBLE_EQ(table.alpha(), 4.5);
}

TEST(TimeTable, AlphaHomogeneousIsOne) {
  TimeTable table(1, 3);
  for (int g = 0; g < 3; ++g) table.set(JobId(0), GpuId(g), 2.0, 0.2);
  EXPECT_DOUBLE_EQ(table.alpha(), 1.0);
}

// -------------------------------------------------------------- profiler --

TEST(TimeTable, InternedRowsShareStorageAndCopyOnWrite) {
  TimeTable table(3, 2);
  const Time tc[2] = {4.0, 2.0};
  const Time ts[2] = {0.4, 0.2};
  const TimeTable::RowId row = table.intern_row(tc, ts);
  table.bind_row(JobId(0), row);
  table.bind_row(JobId(1), row);
  // Two jobs, one physical row (plus the zero row job 2 still sits on).
  EXPECT_EQ(table.row_of(JobId(0)), table.row_of(JobId(1)));
  EXPECT_EQ(table.row_count(), 2u);
  EXPECT_DOUBLE_EQ(table.tc(JobId(0), GpuId(0)), 4.0);
  EXPECT_DOUBLE_EQ(table.ts(JobId(1), GpuId(1)), 0.2);
  EXPECT_DOUBLE_EQ(table.tc(JobId(2), GpuId(0)), 0.0);  // zero row

  // Writing through the classic mutator detaches the written job only.
  table.set(JobId(0), GpuId(0), 9.0, 0.9);
  EXPECT_DOUBLE_EQ(table.tc(JobId(0), GpuId(0)), 9.0);
  EXPECT_DOUBLE_EQ(table.tc(JobId(0), GpuId(1)), 2.0);  // copied, not zeroed
  EXPECT_DOUBLE_EQ(table.tc(JobId(1), GpuId(0)), 4.0);  // neighbour untouched
  EXPECT_NE(table.row_of(JobId(0)), table.row_of(JobId(1)));

  // Writing the zero row detaches too: job 2's write must not leak into
  // any job appended later (which starts on the shared zero row).
  table.set(JobId(2), GpuId(1), 7.0, 0.7);
  const std::size_t appended = table.append_job();
  EXPECT_EQ(appended, 3u);
  EXPECT_DOUBLE_EQ(table.tc(JobId(3), GpuId(1)), 0.0);
  EXPECT_DOUBLE_EQ(table.tc(JobId(2), GpuId(1)), 7.0);
}

TEST(TimeTable, GatheredSubTableMatchesPerCellFillAndSharesRows) {
  // Source: 5 jobs over 4 GPUs on two shared rows plus one private row.
  TimeTable source(5, 4);
  const Time tc_a[4] = {1.0, 2.0, 3.0, 4.0};
  const Time ts_a[4] = {0.1, 0.2, 0.3, 0.4};
  const Time tc_b[4] = {5.0, 6.0, 7.0, 8.0};
  const Time ts_b[4] = {0.5, 0.6, 0.7, 0.8};
  const TimeTable::RowId a = source.intern_row(tc_a, ts_a);
  const TimeTable::RowId b = source.intern_row(tc_b, ts_b);
  for (const int j : {0, 2, 3}) source.bind_row(JobId(j), a);
  source.bind_row(JobId(1), b);
  for (int g = 0; g < 4; ++g) source.set(JobId(4), GpuId(g), 9.0 + g, 0.9);

  const std::vector<JobId> jobs{JobId(4), JobId(0), JobId(1), JobId(3)};
  const std::vector<GpuId> gpus{GpuId(3), GpuId(1)};
  TimeTable per_cell(jobs.size(), gpus.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      per_cell.set(JobId(static_cast<int>(j)), GpuId(static_cast<int>(g)),
                   source.tc(jobs[j], gpus[g]), source.ts(jobs[j], gpus[g]));
    }
  }

  // Gather twice through the same buffers into the same table: the second
  // gather must not see the first one's rows.
  GatherBuffers buffers;
  TimeTable gathered;
  gather_sub_table(source, {JobId(2)}, {GpuId(0)}, buffers, gathered);
  gather_sub_table(source, jobs, gpus, buffers, gathered);
  ASSERT_EQ(gathered.job_count(), per_cell.job_count());
  ASSERT_EQ(gathered.gpu_count(), per_cell.gpu_count());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    for (std::size_t g = 0; g < gpus.size(); ++g) {
      const JobId job(static_cast<int>(j));
      const GpuId gpu(static_cast<int>(g));
      EXPECT_EQ(gathered.tc(job, gpu), per_cell.tc(job, gpu));
      EXPECT_EQ(gathered.ts(job, gpu), per_cell.ts(job, gpu));
    }
  }
  EXPECT_EQ(gathered.alpha(), per_cell.alpha());
  // Jobs 0 and 3 share source row `a`, and so share one gathered row: the
  // zero row plus three distinct rows, against one per job cell by cell.
  EXPECT_EQ(gathered.row_of(JobId(1)), gathered.row_of(JobId(3)));
  EXPECT_EQ(gathered.row_count(), 4u);
  EXPECT_EQ(per_cell.row_count(), 5u);
}

TEST(TimeTable, ResetReusesCapacityAndRestoresZeroState) {
  TimeTable table(4, 3);
  for (int j = 0; j < 4; ++j) {
    for (int g = 0; g < 3; ++g) {
      table.set(JobId(j), GpuId(g), 1.0 + j, 0.1 * (g + 1));
    }
  }
  EXPECT_EQ(table.row_count(), 5u);  // zero row + one private row per job
  table.precompute();

  // Re-shape smaller: everything reads zero again, every job is back on
  // the canonical zero row, and the arena shrinks to just that row.
  table.reset(2, 3);
  EXPECT_EQ(table.job_count(), 2u);
  EXPECT_EQ(table.gpu_count(), 3u);
  EXPECT_EQ(table.row_count(), 1u);
  for (int j = 0; j < 2; ++j) {
    for (int g = 0; g < 3; ++g) {
      EXPECT_DOUBLE_EQ(table.tc(JobId(j), GpuId(g)), 0.0);
      EXPECT_DOUBLE_EQ(table.ts(JobId(j), GpuId(g)), 0.0);
    }
    EXPECT_EQ(table.row_of(JobId(j)), TimeTable::kZeroRow);
  }
  // Stale aggregates must not survive the reset.
  EXPECT_DOUBLE_EQ(table.min_tc(JobId(0)), 0.0);
  EXPECT_DOUBLE_EQ(table.alpha(), 1.0);

  // The reshaped table is fully writable again (grow the GPU axis too).
  table.reset(3, 5);
  table.set(JobId(2), GpuId(4), 3.0, 0.3);
  EXPECT_DOUBLE_EQ(table.tc(JobId(2), GpuId(4)), 3.0);
  EXPECT_DOUBLE_EQ(table.tc(JobId(0), GpuId(4)), 0.0);
}

TEST(TimeTable, RebindRecyclesOrphanedRows) {
  TimeTable table(2, 2);
  const Time a_tc[2] = {1.0, 2.0};
  const Time a_ts[2] = {0.1, 0.2};
  const Time b_tc[2] = {3.0, 4.0};
  const Time b_ts[2] = {0.3, 0.4};
  const TimeTable::RowId a = table.intern_row(a_tc, a_ts);
  table.bind_row(JobId(0), a);
  table.bind_row(JobId(1), a);
  const TimeTable::RowId b = table.intern_row(b_tc, b_ts);
  table.bind_row(JobId(0), b);
  table.bind_row(JobId(1), b);  // row `a` now has no owners
  const std::size_t rows_before = table.row_count();

  // The next intern must reuse `a`'s slot instead of growing the arena.
  const Time c_tc[2] = {5.0, 6.0};
  const Time c_ts[2] = {0.5, 0.6};
  const TimeTable::RowId c = table.intern_row(c_tc, c_ts);
  EXPECT_EQ(c, a);
  EXPECT_EQ(table.row_count(), rows_before);
  table.bind_row(JobId(0), c);
  EXPECT_DOUBLE_EQ(table.tc(JobId(0), GpuId(0)), 5.0);
  EXPECT_DOUBLE_EQ(table.tc(JobId(1), GpuId(1)), 4.0);
}

/// Every (job, GPU) cell of `table`, job-major.
std::vector<std::pair<Time, Time>> cells(const TimeTable& table) {
  std::vector<std::pair<Time, Time>> out;
  for (std::size_t j = 0; j < table.job_count(); ++j) {
    for (std::size_t g = 0; g < table.gpu_count(); ++g) {
      const JobId job(static_cast<int>(j));
      const GpuId gpu(static_cast<int>(g));
      out.emplace_back(table.tc(job, gpu), table.ts(job, gpu));
    }
  }
  return out;
}

/// Aggregates of `table` against explicit scans over its GPUs: min/max
/// T^c and T^s, min total, and the lowest-id GPU with the minimum T^c.
void expect_aggregates_match_gpu_scan(const TimeTable& table) {
  for (std::size_t j = 0; j < table.job_count(); ++j) {
    const JobId job(static_cast<int>(j));
    Time min_tc = kTimeInfinity, max_tc = 0.0, min_ts = kTimeInfinity;
    Time max_ts = 0.0, min_total = kTimeInfinity;
    GpuId fastest{};
    for (std::size_t g = 0; g < table.gpu_count(); ++g) {
      const GpuId gpu(static_cast<int>(g));
      if (table.tc(job, gpu) < min_tc) {
        min_tc = table.tc(job, gpu);
        fastest = gpu;
      }
      max_tc = std::max(max_tc, table.tc(job, gpu));
      min_ts = std::min(min_ts, table.ts(job, gpu));
      max_ts = std::max(max_ts, table.ts(job, gpu));
      min_total = std::min(min_total, table.total(job, gpu));
    }
    EXPECT_EQ(table.min_tc(job), min_tc) << "job " << j;
    EXPECT_EQ(table.max_tc(job), max_tc) << "job " << j;
    EXPECT_EQ(table.min_ts(job), min_ts) << "job " << j;
    EXPECT_EQ(table.max_ts(job), max_ts) << "job " << j;
    EXPECT_EQ(table.min_total(job), min_total) << "job " << j;
    EXPECT_EQ(table.fastest_gpu(job), fastest) << "job " << j;
  }
}

TEST(TimeTable, ClassColumnsStoreOneValuePerColumn) {
  // Six GPUs in two interleaved columns: each row holds two pairs.
  TimeTable table(2, std::vector<std::uint32_t>{0, 1, 0, 1, 1, 0});
  EXPECT_EQ(table.gpu_count(), 6u);
  EXPECT_EQ(table.column_count(), 2u);
  const Time tc[2] = {3.0, 1.0};
  const Time ts[2] = {0.3, 0.1};
  table.bind_row(JobId(0), table.intern_row(tc, ts));
  EXPECT_EQ(table.tc(JobId(0), GpuId(2)), 3.0);
  EXPECT_EQ(table.ts(JobId(0), GpuId(4)), 0.1);
  EXPECT_EQ(table.fastest_gpu(JobId(0)), GpuId(1));
  EXPECT_EQ(table.tc(JobId(1), GpuId(5)), 0.0);  // zero row
  EXPECT_DOUBLE_EQ(table.alpha(), 3.0);
  // A column no GPU reads is rejected.
  EXPECT_THROW(TimeTable(1, std::vector<std::uint32_t>{0, 2}), common::Error);
}

TEST(TimeTable, SetOnSharedColumnChangesExactlyOneCell) {
  // Three jobs on two interned class rows over 5 GPUs in 2 columns.
  TimeTable table(3, std::vector<std::uint32_t>{0, 0, 1, 1, 0});
  const Time tc_a[2] = {4.0, 2.0};
  const Time ts_a[2] = {0.4, 0.2};
  const Time tc_b[2] = {6.0, 5.0};
  const Time ts_b[2] = {0.6, 0.5};
  const TimeTable::RowId a = table.intern_row(tc_a, ts_a);
  const TimeTable::RowId b = table.intern_row(tc_b, ts_b);
  table.bind_row(JobId(0), a);
  table.bind_row(JobId(1), a);
  table.bind_row(JobId(2), b);
  table.precompute();
  const auto before = cells(table);

  table.set(JobId(0), GpuId(1), 9.0, 0.9);
  EXPECT_EQ(table.column_count(), 3u);  // GPU 1 split off column 0
  const auto after = cells(table);
  ASSERT_EQ(after.size(), before.size());
  for (std::size_t i = 0; i < after.size(); ++i) {
    const std::size_t job = i / table.gpu_count();
    const std::size_t gpu = i % table.gpu_count();
    if (job == 0 && gpu == 1) {
      EXPECT_EQ(after[i], std::pair(9.0, 0.9));
    } else {
      EXPECT_EQ(after[i], before[i]) << "job " << job << " gpu " << gpu;
    }
  }
  // Job 1 still shares nothing with job 0's private row; job 2 is intact.
  EXPECT_NE(table.row_of(JobId(0)), table.row_of(JobId(1)));
  EXPECT_EQ(table.row_of(JobId(1)), a);
  EXPECT_EQ(table.row_of(JobId(2)), b);
  expect_aggregates_match_gpu_scan(table);
  EXPECT_DOUBLE_EQ(table.alpha(), 9.0 / 2.0);
}

TEST(TimeTable, FastestGpuIsLowestIdOnTiesAfterOutOfOrderSplit) {
  // Columns {0, 2} and {1, 3}; column 1 is faster, so GPU 1 leads.
  TimeTable table(1, std::vector<std::uint32_t>{0, 1, 0, 1});
  const Time tc[2] = {3.0, 1.0};
  const Time ts[2] = {0.1, 0.1};
  table.bind_row(JobId(0), table.intern_row(tc, ts));
  EXPECT_EQ(table.fastest_gpu(JobId(0)), GpuId(1));

  // GPU 2 splits off into column 2, appended after column 1, and ties it:
  // GPU 1 still leads. Once GPU 1 leaves column 1 too, the tie between
  // column 1 (now GPU 3) and column 2 goes to GPU 2, the lower id, though
  // its column comes later. GPU 0 then joins the tie and wins.
  table.set(JobId(0), GpuId(2), 1.0, 0.1);
  EXPECT_EQ(table.fastest_gpu(JobId(0)), GpuId(1));
  table.set(JobId(0), GpuId(1), 2.0, 0.1);  // GPU 1 leaves column 1
  EXPECT_EQ(table.fastest_gpu(JobId(0)), GpuId(2));
  table.set(JobId(0), GpuId(0), 1.0, 0.05);
  EXPECT_EQ(table.column_count(), 4u);
  EXPECT_EQ(table.fastest_gpu(JobId(0)), GpuId(0));
  expect_aggregates_match_gpu_scan(table);
}

TEST(TimeTable, MinTotalMatchesPerGpuScanWithSplitColumnsAndTies) {
  // Interleaved class columns, two shared rows, then per-cell writes that
  // split columns out of GPU order and create ties in T^c + T^s.
  TimeTable table(4, std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2, 0, 1});
  const Time tc_a[3] = {2.0, 1.5, 3.0};
  const Time ts_a[3] = {0.5, 1.0, 0.25};
  const Time tc_b[3] = {1.0, 1.0, 4.0};
  const Time ts_b[3] = {1.0, 1.0, 0.5};
  const TimeTable::RowId a = table.intern_row(tc_a, ts_a);
  const TimeTable::RowId b = table.intern_row(tc_b, ts_b);
  table.bind_row(JobId(0), a);
  table.bind_row(JobId(1), a);
  table.bind_row(JobId(2), b);
  table.bind_row(JobId(3), b);
  table.set(JobId(1), GpuId(6), 2.25, 0.25);  // ties column 0's 2.5 total
  table.set(JobId(3), GpuId(4), 0.5, 1.5);    // ties b's 2.0 total
  table.set(JobId(2), GpuId(7), 0.75, 0.0);   // new unique minimum
  EXPECT_EQ(table.column_count(), 6u);
  expect_aggregates_match_gpu_scan(table);
}

TEST(TimeTable, GatherOmittingAClassAggregatesOverPresentGpusOnly) {
  // Classes A (GPUs 0, 3), B (1, 4), C (2, 5). A is the fastest and has the
  // smallest sync time; the subset leaves all of A out.
  TimeTable source(2, std::vector<std::uint32_t>{0, 1, 2, 0, 1, 2});
  const Time tc[3] = {1.0, 5.0, 2.0};
  const Time ts[3] = {0.1, 0.5, 0.3};
  source.bind_row(JobId(0), source.intern_row(tc, ts));
  source.bind_row(JobId(1), source.row_of(JobId(0)));

  const std::vector<JobId> jobs{JobId(1)};
  const std::vector<GpuId> gpus{GpuId(4), GpuId(2), GpuId(5), GpuId(1)};
  GatherBuffers buffers;
  TimeTable gathered;
  gather_sub_table(source, jobs, gpus, buffers, gathered);
  EXPECT_EQ(gathered.gpu_count(), 4u);
  EXPECT_EQ(gathered.column_count(), 2u);  // B and C only

  TimeTable per_cell(1, gpus.size());
  for (std::size_t g = 0; g < gpus.size(); ++g) {
    per_cell.set(JobId(0), GpuId(static_cast<int>(g)),
                 source.tc(jobs[0], gpus[g]), source.ts(jobs[0], gpus[g]));
  }
  const JobId job(0);
  EXPECT_EQ(gathered.min_tc(job), 2.0);
  EXPECT_EQ(gathered.max_tc(job), 5.0);
  EXPECT_EQ(gathered.min_ts(job), 0.3);
  EXPECT_EQ(gathered.max_ts(job), 0.5);
  EXPECT_EQ(gathered.fastest_gpu(job), GpuId(1));  // source GPU 2
  EXPECT_EQ(gathered.alpha(), std::max(5.0 / 2.0, 0.5 / 0.3));
  EXPECT_EQ(gathered.min_tc(job), per_cell.min_tc(job));
  EXPECT_EQ(gathered.max_ts(job), per_cell.max_ts(job));
  EXPECT_EQ(gathered.fastest_gpu(job), per_cell.fastest_gpu(job));
  EXPECT_EQ(gathered.alpha(), per_cell.alpha());
  expect_aggregates_match_gpu_scan(gathered);
}

TEST(Profiler, ExactMatchesPerfModel) {
  const auto cluster = cluster::make_testbed_cluster();
  const auto jobs = make_jobs(5);
  const workload::PerfModel perf;
  Profiler profiler(perf, ProfilerConfig{}, 1);
  const TimeTable exact = profiler.exact(jobs, cluster);

  for (const auto& job : jobs.jobs()) {
    for (const auto& gpu : cluster.gpus()) {
      const Time expected = perf.task_compute_time(
          job.spec.model, gpu.type, job.effective_batch_size(),
          job.spec.batches_per_task);
      EXPECT_DOUBLE_EQ(exact.tc(job.id, gpu.id), expected);
      EXPECT_GT(exact.ts(job.id, gpu.id), 0.0);
    }
  }
}

TEST(Profiler, ProfiledCloseToExact) {
  const auto cluster = cluster::make_testbed_cluster();
  const auto jobs = make_jobs(8);
  const workload::PerfModel perf;
  ProfilerConfig config;
  config.measurement_noise_cv = 0.03;
  config.sample_batches = 8;
  Profiler profiler(perf, config, 2);

  const TimeTable exact = profiler.exact(jobs, cluster);
  const TimeTable measured = profiler.profile(jobs, cluster);
  for (const auto& job : jobs.jobs()) {
    for (const auto& gpu : cluster.gpus()) {
      EXPECT_LT(common::relative_difference(measured.tc(job.id, gpu.id),
                                            exact.tc(job.id, gpu.id)),
                0.10);
    }
  }
}

TEST(Profiler, ProfilingCostAccumulates) {
  const auto cluster = cluster::make_testbed_cluster();
  const auto jobs = make_jobs(3);
  Profiler profiler(workload::PerfModel{}, ProfilerConfig{}, 3);
  (void)profiler.profile(jobs, cluster);
  EXPECT_GT(profiler.last_profiling_cost(), 0.0);
}

TEST(Profiler, DbSkipsRepeatedWork) {
  const auto cluster = cluster::make_testbed_cluster();
  const auto jobs = make_jobs(6);
  Profiler profiler(workload::PerfModel{}, ProfilerConfig{}, 4);
  ProfileDb db;

  (void)profiler.profile(jobs, cluster, &db);
  const Time first_cost = profiler.last_profiling_cost();
  EXPECT_GT(db.size(), 0u);

  db.reset_counters();
  const TimeTable again = profiler.profile(jobs, cluster, &db);
  EXPECT_EQ(db.misses(), 0u);
  EXPECT_GT(db.hits(), 0u);
  EXPECT_DOUBLE_EQ(profiler.last_profiling_cost(), 0.0);
  EXPECT_GT(first_cost, 0.0);
  EXPECT_GT(again.job_count(), 0u);
}

TEST(Profiler, DbKeyedByGpuTypeNotInstance) {
  // A cluster with 8 identical V100s must require only one profile entry
  // per (model, batch, uplink) combination.
  const auto cluster =
      cluster::ClusterBuilder{}.add_machine(GpuType::V100, 8, 25.0).build();
  workload::JobSet jobs;
  workload::JobSpec spec;
  spec.model = ModelType::ResNet50;
  jobs.add_job(spec);

  Profiler profiler(workload::PerfModel{}, ProfilerConfig{}, 5);
  ProfileDb db;
  (void)profiler.profile(jobs, cluster, &db);
  EXPECT_EQ(db.size(), 1u);
}

TEST(Profiler, ShapeMemoSharesRowsBitwise) {
  // Ten duplicates of three distinct shapes: the memo must measure each
  // (shape, GPU type) once, bind every duplicate onto one interned row,
  // and produce values bitwise equal to profiling the deduplicated job set
  // under the same seed (the per-key seeds are drawn in canonical
  // first-seen shape order, which the two sets share).
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(8, 25.0, 4);
  workload::JobSet unique_jobs;
  workload::JobSet dup_jobs;
  for (int rep = 0; rep < 10; ++rep) {
    for (int shape = 0; shape < 3; ++shape) {
      workload::JobSpec spec;
      spec.model = shape == 0   ? ModelType::ResNet50
                   : shape == 1 ? ModelType::VGG19
                                : ModelType::Transformer;
      spec.rounds = 2;
      spec.tasks_per_round = 2;
      spec.batches_per_task = 10 + shape;
      if (rep == 0) unique_jobs.add_job(spec);
      dup_jobs.add_job(spec);
    }
  }

  const workload::PerfModel perf;
  Profiler deduped(perf, ProfilerConfig{}, 999);
  const TimeTable reference = deduped.profile(unique_jobs, cluster);
  EXPECT_EQ(deduped.last_rows_computed(), 3u);

  Profiler duplicated(perf, ProfilerConfig{}, 999);
  const TimeTable table = duplicated.profile(dup_jobs, cluster);
  EXPECT_EQ(duplicated.last_rows_computed(), 3u);
  // Same measurement keys (shape × GPU type) → same misses; the 10x job
  // duplication shows up purely as extra memo hits.
  EXPECT_EQ(duplicated.last_memo_misses(), deduped.last_memo_misses());
  EXPECT_GT(duplicated.last_memo_hits(), deduped.last_memo_hits());
  // Duplicates of a shape share one physical row; the arena stays at the
  // deduplicated size (unique rows + the zero row).
  EXPECT_EQ(table.row_of(JobId(0)), table.row_of(JobId(3)));
  EXPECT_EQ(table.row_count(), reference.row_count());

  for (std::size_t j = 0; j < dup_jobs.job_count(); ++j) {
    const JobId ref_job(static_cast<int>(j % 3));
    for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
      const GpuId gpu(static_cast<int>(g));
      EXPECT_EQ(table.tc(JobId(static_cast<int>(j)), gpu),
                reference.tc(ref_job, gpu));
      EXPECT_EQ(table.ts(JobId(static_cast<int>(j)), gpu),
                reference.ts(ref_job, gpu));
    }
  }
  // Memoized cost: the duplicated set pays for 3 shapes, not 30 jobs.
  EXPECT_EQ(duplicated.last_profiling_cost(), deduped.last_profiling_cost());
}

TEST(Profiler, ParallelProfileBitIdenticalToSerial) {
  // The measurement fan-out draws every per-key seed serially before any
  // worker runs, so the parallel path must reproduce the serial path bit
  // for bit — for the noisy profile() and the exact() table alike.
  const cluster::Cluster cluster =
      cluster::make_simulation_cluster(16, 25.0, 4);
  const workload::JobSet jobs = make_jobs(40);
  const workload::PerfModel perf;

  ProfilerConfig serial_config;
  serial_config.serial = true;
  Profiler serial(perf, serial_config, 4242);
  Profiler parallel(perf, ProfilerConfig{}, 4242);

  const TimeTable noisy_serial = serial.profile(jobs, cluster);
  const TimeTable noisy_parallel = parallel.profile(jobs, cluster);
  const TimeTable exact_serial = serial.exact(jobs, cluster);
  const TimeTable exact_parallel = parallel.exact(jobs, cluster);
  for (std::size_t j = 0; j < jobs.job_count(); ++j) {
    const JobId job(static_cast<int>(j));
    for (std::size_t g = 0; g < cluster.gpu_count(); ++g) {
      const GpuId gpu(static_cast<int>(g));
      EXPECT_EQ(noisy_serial.tc(job, gpu), noisy_parallel.tc(job, gpu));
      EXPECT_EQ(noisy_serial.ts(job, gpu), noisy_parallel.ts(job, gpu));
      EXPECT_EQ(exact_serial.tc(job, gpu), exact_parallel.tc(job, gpu));
      EXPECT_EQ(exact_serial.ts(job, gpu), exact_parallel.ts(job, gpu));
    }
  }
  EXPECT_EQ(serial.last_rows_computed(), parallel.last_rows_computed());
}

// ------------------------------------------------------ profiler oracle --

void expect_tables_identical(const TimeTable& library,
                             const TimeTable& oracle) {
  ASSERT_EQ(library.job_count(), oracle.job_count());
  ASSERT_EQ(library.gpu_count(), oracle.gpu_count());
  EXPECT_EQ(library.row_count(), oracle.row_count());
  for (std::size_t j = 0; j < oracle.job_count(); ++j) {
    const JobId job(static_cast<int>(j));
    for (std::size_t g = 0; g < oracle.gpu_count(); ++g) {
      const GpuId gpu(static_cast<int>(g));
      ASSERT_EQ(library.tc(job, gpu), oracle.tc(job, gpu))
          << "job " << j << " gpu " << g;
      ASSERT_EQ(library.ts(job, gpu), oracle.ts(job, gpu))
          << "job " << j << " gpu " << g;
    }
  }
  EXPECT_EQ(library.alpha(), oracle.alpha());
}

/// Types interleave across machines and classes repeat: (V100, 25.0)
/// comes back after three other classes. 25.0002 Gbit/s rounds to the
/// same 25,000 Mbit/s db key as 25.0 but has its own exact sync time.
cluster::Cluster interleaved_cluster() {
  return cluster::ClusterBuilder{}
      .add_machine(GpuType::T4, 2, 10.0)
      .add_machine(GpuType::V100, 2, 25.0)
      .add_machine(GpuType::K80, 1, 25.0002)
      .add_machine(GpuType::T4, 3, 25.0)
      .add_machine(GpuType::V100, 1, 25.0002)
      .add_machine(GpuType::T4, 2, 10.0)
      .add_machine(GpuType::M60, 2, 25.0)
      .add_machine(GpuType::V100, 3, 10.0)
      .add_machine(GpuType::V100, 2, 25.0)
      .build();
}

enum class DbState { None, Empty, Warm, Partial };

/// Profile `jobs` twice (one RNG stream) and build the exact table with
/// the library and with the per-GPU oracle, from identical db copies, and
/// require every observable to agree bit for bit.
void expect_profiler_matches_oracle(const cluster::Cluster& cluster,
                                    const workload::JobSet& jobs,
                                    DbState state) {
  const workload::PerfModel perf;
  ProfileDb seed_db;
  if (state == DbState::Warm) {
    Profiler earlier(perf, ProfilerConfig{}, 11);
    (void)earlier.profile(jobs, cluster, &seed_db);
  } else if (state == DbState::Partial) {
    Profiler earlier(perf, ProfilerConfig{}, 11);
    (void)earlier.profile(make_jobs(6), cluster, &seed_db);
  }
  ProfileDb library_db = seed_db;
  ProfileDb oracle_db = seed_db;
  ProfileDb* library_db_ptr = state == DbState::None ? nullptr : &library_db;
  ProfileDb* oracle_db_ptr = state == DbState::None ? nullptr : &oracle_db;

  Profiler library(perf, ProfilerConfig{}, 2024);
  testing::OracleProfiler oracle(perf, ProfilerConfig{}, 2024);
  for (int call = 0; call < 2; ++call) {
    SCOPED_TRACE("profile call " + std::to_string(call));
    const TimeTable table = library.profile(jobs, cluster, library_db_ptr);
    const TimeTable reference = oracle.profile(jobs, cluster, oracle_db_ptr);
    expect_tables_identical(table, reference);
    EXPECT_EQ(library.last_profiling_cost(), oracle.last_profiling_cost());
    EXPECT_EQ(library.last_memo_hits(), oracle.last_memo_hits());
    EXPECT_EQ(library.last_rows_computed(), oracle.last_rows_computed());
    EXPECT_EQ(testing::profile_db_lines(library_db),
              testing::profile_db_lines(oracle_db));
    EXPECT_EQ(library_db.hits(), oracle_db.hits());
    EXPECT_EQ(library_db.misses(), oracle_db.misses());
  }
  if (state == DbState::Partial) {
    // The partial db must really be partial: some keys served, some not.
    EXPECT_GT(library_db.hits(), 0u);
    EXPECT_GT(library_db.misses(), 0u);
  }

  const TimeTable exact = library.exact(jobs, cluster);
  expect_tables_identical(exact, oracle.exact(jobs, cluster));
  EXPECT_EQ(library.last_rows_computed(), oracle.last_rows_computed());
}

void expect_matches_oracle_for_every_db_state(const cluster::Cluster& cluster,
                                              const workload::JobSet& jobs) {
  for (const DbState state :
       {DbState::None, DbState::Empty, DbState::Warm, DbState::Partial}) {
    SCOPED_TRACE("db state " + std::to_string(static_cast<int>(state)));
    expect_profiler_matches_oracle(cluster, jobs, state);
  }
}

TEST(ProfilerOracle, SimulationCluster16MatchesPerGpuWalk) {
  expect_matches_oracle_for_every_db_state(
      cluster::make_simulation_cluster(16, 25.0, 4), make_jobs(40));
}

TEST(ProfilerOracle, SimulationCluster1024MatchesPerGpuWalk) {
  expect_matches_oracle_for_every_db_state(
      cluster::make_simulation_cluster(1024), make_jobs(40));
}

TEST(ProfilerOracle, InterleavedMixedUplinkClusterMatchesPerGpuWalk) {
  expect_matches_oracle_for_every_db_state(interleaved_cluster(),
                                           make_jobs(40));
}

TEST(GpuClasses, FirstGpuOrderAndExactUplinks) {
  const cluster::Cluster cluster = interleaved_cluster();
  const GpuClasses classes(cluster);
  // (T4,10) (V100,25) (K80,25.0002) (T4,25) (V100,25.0002) (M60,25)
  // (V100,10): repeats of an earlier class join it.
  ASSERT_EQ(classes.size(), 7u);
  ASSERT_EQ(classes.gpu_count(), cluster.gpu_count());
  const std::size_t first[] = {0, 2, 4, 5, 8, 11, 13};
  for (std::size_t c = 0; c < classes.size(); ++c) {
    EXPECT_EQ(classes.representative(c), first[c]);
    EXPECT_EQ(classes.class_of(first[c]), c);
  }
  EXPECT_EQ(classes.class_of(9), 0u);   // T4 at 10 Gbit/s again
  EXPECT_EQ(classes.class_of(16), 1u);  // V100 at 25 Gbit/s again
  EXPECT_EQ(classes.uplink_gbps(4), 25.0002);
  EXPECT_EQ(classes.type(4), GpuType::V100);
}

TEST(Profiler, MismatchedTableRejectedBySimUsers) {
  TimeTable table(1, 2);
  EXPECT_EQ(table.job_count(), 1u);
  EXPECT_EQ(table.gpu_count(), 2u);
}

// -------------------------------------------------------------- database --

TEST(ProfileDb, LookupMissThenHit) {
  ProfileDb db;
  ProfileKey key;
  key.model = ModelType::VGG19;
  key.gpu = GpuType::V100;
  key.batch_size = 128;
  key.batches_per_task = 20;
  key.network_mbps = 25000;

  EXPECT_FALSE(db.lookup(key).has_value());
  EXPECT_EQ(db.misses(), 1u);

  db.store(key, ProfileEntry{1.5, 0.3, 5});
  const auto hit = db.lookup(key);
  ASSERT_TRUE(hit.has_value());
  EXPECT_DOUBLE_EQ(hit->tc, 1.5);
  EXPECT_DOUBLE_EQ(hit->ts, 0.3);
  EXPECT_EQ(db.hits(), 1u);
}

TEST(ProfileDb, DistinguishesKeys) {
  ProfileDb db;
  ProfileKey a;
  a.model = ModelType::VGG19;
  a.gpu = GpuType::V100;
  a.batch_size = 128;
  ProfileKey b = a;
  b.batch_size = 64;
  db.store(a, ProfileEntry{1.0, 0.1, 1});
  EXPECT_FALSE(db.lookup(b).has_value());
}

TEST(ProfileDb, SaveLoadRoundTrip) {
  ProfileDb db;
  for (int i = 0; i < 10; ++i) {
    ProfileKey key;
    key.model = static_cast<ModelType>(i % 8);
    key.gpu = static_cast<GpuType>(i % 4);
    key.batch_size = 32 + static_cast<std::uint32_t>(i);
    key.batches_per_task = 20;
    key.network_mbps = 25000;
    db.store(key, ProfileEntry{1.0 + i, 0.1 * i, 5});
  }
  std::stringstream stream;
  db.save(stream);

  ProfileDb loaded;
  loaded.load(stream);
  EXPECT_EQ(loaded.size(), db.size());

  ProfileKey probe;
  probe.model = static_cast<ModelType>(3);
  probe.gpu = static_cast<GpuType>(3);
  probe.batch_size = 35;
  probe.batches_per_task = 20;
  probe.network_mbps = 25000;
  const auto entry = loaded.lookup(probe);
  ASSERT_TRUE(entry.has_value());
  EXPECT_DOUBLE_EQ(entry->tc, 4.0);
}

TEST(ProfileDb, RejectsCorruptStream) {
  std::stringstream stream("garbage 5");
  ProfileDb db;
  EXPECT_THROW(db.load(stream), common::Error);
}

TEST(ProfileDb, FileRoundTrip) {
  ProfileDb db;
  ProfileKey key;
  key.model = ModelType::BertBase;
  key.gpu = GpuType::T4;
  key.batch_size = 32;
  key.batches_per_task = 20;
  key.network_mbps = 25000;
  db.store(key, ProfileEntry{2.0, 0.2, 5});

  const std::string path = ::testing::TempDir() + "/hare_profile_db.txt";
  db.save_file(path);
  ProfileDb loaded;
  loaded.load_file(path);
  EXPECT_EQ(loaded.size(), 1u);
  std::remove(path.c_str());

  EXPECT_THROW(loaded.load_file("/nonexistent/path/db.txt"), common::Error);
}

}  // namespace
}  // namespace hare::profiler
