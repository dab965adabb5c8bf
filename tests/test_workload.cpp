// Unit tests for the workload substrate: model zoo, performance model
// (Fig 2/3 shapes), jobs/rounds/tasks, trace generation.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "cluster/gpu.hpp"
#include "common/error.hpp"
#include "workload/job.hpp"
#include "workload/model_zoo.hpp"
#include "workload/perf_model.hpp"
#include "workload/trace.hpp"

namespace hare::workload {
namespace {

using cluster::GpuType;

// ------------------------------------------------------------- model zoo --

TEST(ModelZoo, SpecsAreConsistent) {
  for (ModelType type : all_models()) {
    const ModelSpec& spec = model_spec(type);
    EXPECT_EQ(spec.type, type);
    EXPECT_GT(spec.default_batch_size, 0u);
    EXPECT_GT(spec.train_gflops_per_sample, 0.0);
    EXPECT_GT(spec.parameter_bytes, 0u);
    EXPECT_GT(spec.layer_count, 0u);
    EXPECT_GT(spec.typical_rounds, 0u);
    EXPECT_FALSE(spec.name.empty());
    EXPECT_FALSE(spec.dataset.empty());
  }
}

TEST(ModelZoo, Table2Membership) {
  // The workload mix has exactly the 8 Table 2 models; ResNet152 is only
  // for the motivation experiments.
  EXPECT_EQ(workload_models().size(), 8u);
  for (ModelType type : workload_models()) {
    EXPECT_NE(type, ModelType::ResNet152);
  }
}

TEST(ModelZoo, Table2BatchSizes) {
  EXPECT_EQ(model_spec(ModelType::VGG19).default_batch_size, 128u);
  EXPECT_EQ(model_spec(ModelType::ResNet50).default_batch_size, 64u);
  EXPECT_EQ(model_spec(ModelType::InceptionV3).default_batch_size, 32u);
  EXPECT_EQ(model_spec(ModelType::BertBase).default_batch_size, 32u);
  EXPECT_EQ(model_spec(ModelType::Transformer).default_batch_size, 128u);
  EXPECT_EQ(model_spec(ModelType::DeepSpeech).default_batch_size, 8u);
  EXPECT_EQ(model_spec(ModelType::FastGCN).default_batch_size, 128u);
  EXPECT_EQ(model_spec(ModelType::GraphSAGE).default_batch_size, 16u);
}

TEST(ModelZoo, CategoriesMatchTable2) {
  EXPECT_EQ(model_spec(ModelType::VGG19).category, JobCategory::CV);
  EXPECT_EQ(model_spec(ModelType::BertBase).category, JobCategory::NLP);
  EXPECT_EQ(model_spec(ModelType::DeepSpeech).category, JobCategory::Speech);
  EXPECT_EQ(model_spec(ModelType::GraphSAGE).category, JobCategory::Rec);
}

TEST(ModelZoo, FootprintsFitTestbedGpus) {
  // Every Table 2 job at its default batch size must fit the smallest
  // testbed GPU memory (M60, 8 GiB) — the paper trains them all there.
  for (ModelType type : workload_models()) {
    const ModelSpec& spec = model_spec(type);
    const Bytes footprint =
        task_memory_footprint(spec, spec.default_batch_size);
    EXPECT_LT(footprint, cluster::gpu_spec(GpuType::M60).memory)
        << spec.name;
  }
}

TEST(ModelZoo, ModelStateSmallerThanFootprint) {
  for (ModelType type : all_models()) {
    const ModelSpec& spec = model_spec(type);
    EXPECT_LT(model_state_bytes(spec),
              task_memory_footprint(spec, spec.default_batch_size));
  }
}

// ------------------------------------------------------------ perf model --

TEST(PerfModel, Fig2ResNet50Speedups) {
  // Fig 2: ResNet50 ~2x on T4, ~7x on V100 (vs K80).
  const PerfModel perf;
  const auto batch = model_spec(ModelType::ResNet50).default_batch_size;
  EXPECT_NEAR(perf.speedup_vs_k80(ModelType::ResNet50, GpuType::T4, batch),
              2.0, 0.4);
  EXPECT_NEAR(perf.speedup_vs_k80(ModelType::ResNet50, GpuType::V100, batch),
              7.0, 0.8);
}

TEST(PerfModel, Fig2GraphSageCapped) {
  // Fig 2/3: GraphSAGE gains at most ~2x even on V100 (input-bound).
  const PerfModel perf;
  const auto batch = model_spec(ModelType::GraphSAGE).default_batch_size;
  const double speedup =
      perf.speedup_vs_k80(ModelType::GraphSAGE, GpuType::V100, batch);
  EXPECT_GT(speedup, 1.2);
  EXPECT_LT(speedup, 2.4);
}

TEST(PerfModel, Fig3GraphSageUtilizationLow) {
  // Fig 3: GraphSAGE keeps a V100 under ~30-40% busy.
  const PerfModel perf;
  const auto batch = model_spec(ModelType::GraphSAGE).default_batch_size;
  EXPECT_LT(perf.gpu_utilization(ModelType::GraphSAGE, GpuType::V100, batch),
            0.45);
  // A compute-bound model saturates the GPU.
  EXPECT_GT(perf.gpu_utilization(ModelType::ResNet50, GpuType::V100,
                                 model_spec(ModelType::ResNet50)
                                     .default_batch_size),
            0.95);
}

TEST(PerfModel, SpeedupOrderingAcrossGenerations) {
  const PerfModel perf;
  for (ModelType type : workload_models()) {
    const auto batch = model_spec(type).default_batch_size;
    // K80 is the baseline (speedup 1); nothing in the testbed is slower
    // than ~0.9x of it, and V100 is never slower than T4.
    EXPECT_DOUBLE_EQ(perf.speedup_vs_k80(type, GpuType::K80, batch), 1.0);
    EXPECT_GE(perf.speedup_vs_k80(type, GpuType::V100, batch),
              perf.speedup_vs_k80(type, GpuType::T4, batch) * 0.99)
        << model_name(type);
  }
}

TEST(PerfModel, BatchTimeScalesWithBatchForComputeBound) {
  const PerfModel perf;
  const Time t32 = perf.batch_time(ModelType::ResNet50, GpuType::V100, 32);
  const Time t64 = perf.batch_time(ModelType::ResNet50, GpuType::V100, 64);
  EXPECT_NEAR(t64 / t32, 2.0, 1e-9);
}

TEST(PerfModel, SyncFasterThanTrainingOnTestbed) {
  // §5.1 assumes training time exceeds sync time; verify for every Table 2
  // model on every testbed GPU at 25 Gbps with the default 20-batch task.
  const PerfModel perf;
  for (ModelType type : workload_models()) {
    const auto batch = model_spec(type).default_batch_size;
    const Time sync = perf.sync_time(type, 25.0);
    for (GpuType gpu : {GpuType::V100, GpuType::T4, GpuType::K80,
                        GpuType::M60}) {
      const Time train = perf.task_compute_time(type, gpu, batch, 20);
      EXPECT_GT(train, sync) << model_name(type) << " on "
                             << cluster::gpu_type_name(gpu);
    }
  }
}

TEST(PerfModel, SyncScalesInverselyWithBandwidth) {
  const PerfModel perf;
  const Time s10 = perf.sync_time(ModelType::BertBase, 10.0);
  const Time s25 = perf.sync_time(ModelType::BertBase, 25.0);
  EXPECT_GT(s10, s25);
  // Minus the fixed latency, volume/bandwidth is exactly inverse.
  const Time latency = perf.config().sync_latency_s;
  EXPECT_NEAR((s10 - latency) / (s25 - latency), 2.5, 1e-9);
}

TEST(PerfModel, EfficiencyTableBounds) {
  for (auto arch : {cluster::GpuArch::Kepler, cluster::GpuArch::Maxwell,
                    cluster::GpuArch::Pascal, cluster::GpuArch::Volta,
                    cluster::GpuArch::Turing, cluster::GpuArch::Ampere}) {
    for (auto family : {ModelFamily::ConvNet, ModelFamily::Transformer,
                        ModelFamily::Recurrent, ModelFamily::Graph}) {
      const double eff = PerfModel::efficiency(arch, family);
      EXPECT_GT(eff, 0.0);
      EXPECT_LT(eff, 1.0);
    }
  }
}

TEST(PerfModel, InvalidBandwidthThrows) {
  const PerfModel perf;
  EXPECT_THROW((void)perf.sync_time(ModelType::VGG19, 0.0), common::Error);
}

// ------------------------------------------------------------------ jobs --

TEST(JobSet, AddJobCreatesRoundMajorTasks) {
  JobSet jobs;
  JobSpec spec;
  spec.rounds = 3;
  spec.tasks_per_round = 2;
  const JobId id = jobs.add_job(spec);
  EXPECT_EQ(jobs.job_count(), 1u);
  EXPECT_EQ(jobs.task_count(), 6u);

  const Job& job = jobs.job(id);
  EXPECT_EQ(job.task_count(), 6u);
  for (std::uint32_t r = 0; r < 3; ++r) {
    const auto round = jobs.round_tasks(id, static_cast<RoundIndex>(r));
    ASSERT_EQ(round.size(), 2u);
    for (std::uint32_t k = 0; k < 2; ++k) {
      const Task& task = jobs.task(round[k]);
      EXPECT_EQ(task.job, id);
      EXPECT_EQ(task.round, static_cast<RoundIndex>(r));
      EXPECT_EQ(task.slot, k);
    }
  }
}

TEST(JobSet, TaskIdsAreGloballyDense) {
  JobSet jobs;
  JobSpec spec;
  spec.rounds = 2;
  spec.tasks_per_round = 2;
  jobs.add_job(spec);
  jobs.add_job(spec);
  for (std::size_t i = 0; i < jobs.task_count(); ++i) {
    EXPECT_EQ(jobs.task(TaskId(static_cast<int>(i))).id.value(),
              static_cast<int>(i));
  }
}

TEST(JobSet, EffectiveBatchSizeDefaults) {
  JobSet jobs;
  JobSpec spec;
  spec.model = ModelType::BertBase;
  const JobId a = jobs.add_job(spec);
  spec.batch_size = 64;
  const JobId b = jobs.add_job(spec);
  EXPECT_EQ(jobs.job(a).effective_batch_size(), 32u);
  EXPECT_EQ(jobs.job(b).effective_batch_size(), 64u);
}

TEST(JobSet, RejectsInvalidSpecs) {
  JobSet jobs;
  JobSpec spec;
  spec.rounds = 0;
  EXPECT_THROW(jobs.add_job(spec), common::Error);
  spec.rounds = 1;
  spec.tasks_per_round = 0;
  EXPECT_THROW(jobs.add_job(spec), common::Error);
  spec.tasks_per_round = 1;
  spec.weight = 0.0;
  EXPECT_THROW(jobs.add_job(spec), common::Error);
  spec.weight = 1.0;
  spec.arrival = -1.0;
  EXPECT_THROW(jobs.add_job(spec), common::Error);
  spec.arrival = 0.0;
  spec.batches_per_task = 0;
  EXPECT_THROW(jobs.add_job(spec), common::Error);
  // 2^16 rounds x 2^15 tasks = 2^31 tasks: one more than an int32 TaskId
  // can number, rejected before any task is allocated.
  spec.batches_per_task = 1;
  spec.rounds = 65536;
  spec.tasks_per_round = 32768;
  EXPECT_THROW(jobs.add_job(spec), common::Error);
  EXPECT_EQ(jobs.task_count(), 0u);
}

TEST(JobSet, RoundTasksOutOfRangeThrows) {
  JobSet jobs;
  JobSpec spec;
  spec.rounds = 2;
  const JobId id = jobs.add_job(spec);
  EXPECT_THROW((void)jobs.round_tasks(id, 2), common::Error);
  EXPECT_THROW((void)jobs.round_tasks(id, -1), common::Error);
}

TEST(JobSet, AggregateHelpers) {
  JobSet jobs;
  JobSpec spec;
  spec.arrival = 5.0;
  spec.weight = 2.0;
  jobs.add_job(spec);
  spec.arrival = 3.0;
  spec.weight = 1.0;
  jobs.add_job(spec);
  EXPECT_DOUBLE_EQ(jobs.earliest_arrival(), 3.0);
}

// ----------------------------------------------------------------- trace --

TEST(TraceGenerator, DeterministicForSeed) {
  TraceConfig config;
  config.job_count = 50;
  const JobSet a = TraceGenerator(99).generate(config);
  const JobSet b = TraceGenerator(99).generate(config);
  ASSERT_EQ(a.job_count(), b.job_count());
  for (std::size_t j = 0; j < a.job_count(); ++j) {
    const auto& sa = a.job(JobId(static_cast<int>(j))).spec;
    const auto& sb = b.job(JobId(static_cast<int>(j))).spec;
    EXPECT_EQ(sa.model, sb.model);
    EXPECT_DOUBLE_EQ(sa.arrival, sb.arrival);
    EXPECT_EQ(sa.rounds, sb.rounds);
    EXPECT_EQ(sa.tasks_per_round, sb.tasks_per_round);
  }
}

TEST(TraceGenerator, ArrivalsAreMonotonic) {
  TraceConfig config;
  config.job_count = 200;
  const JobSet jobs = TraceGenerator(5).generate(config);
  Time previous = 0.0;
  for (const auto& job : jobs.jobs()) {
    EXPECT_GE(job.spec.arrival, previous);
    previous = job.spec.arrival;
  }
}

TEST(TraceGenerator, UniformMixIsRoughlyBalanced) {
  TraceConfig config;
  config.job_count = 4000;
  const JobSet jobs = TraceGenerator(123).generate(config);
  std::map<JobCategory, std::size_t> counts;
  for (const auto& job : jobs.jobs()) {
    ++counts[model_spec(job.spec.model).category];
  }
  for (const auto& [category, count] : counts) {
    (void)category;
    EXPECT_NEAR(static_cast<double>(count) / 4000.0, 0.25, 0.05);
  }
}

class MixFavourTest : public ::testing::TestWithParam<JobCategory> {};

TEST_P(MixFavourTest, FavouredCategoryDominates) {
  TraceConfig config;
  config.job_count = 3000;
  config.mix = WorkloadMix::favour(GetParam(), 0.55);
  const JobSet jobs = TraceGenerator(321).generate(config);
  std::size_t favoured = 0;
  for (const auto& job : jobs.jobs()) {
    if (model_spec(job.spec.model).category == GetParam()) ++favoured;
  }
  EXPECT_NEAR(static_cast<double>(favoured) / 3000.0, 0.55, 0.05);
}

INSTANTIATE_TEST_SUITE_P(Categories, MixFavourTest,
                         ::testing::Values(JobCategory::CV, JobCategory::NLP,
                                           JobCategory::Speech,
                                           JobCategory::Rec));

TEST(TraceGenerator, SyncScalesComeFromConfig) {
  TraceConfig config;
  config.job_count = 500;
  config.sync_scales = {2, 2, 2, 2};
  const JobSet jobs = TraceGenerator(7).generate(config);
  for (const auto& job : jobs.jobs()) {
    EXPECT_EQ(job.spec.tasks_per_round, 2u);
  }
}

TEST(TraceGenerator, BatchScaleApplies) {
  TraceConfig config;
  config.job_count = 100;
  config.batch_scale = 2.0;
  const JobSet jobs = TraceGenerator(9).generate(config);
  for (const auto& job : jobs.jobs()) {
    EXPECT_EQ(job.spec.batch_size,
              model_spec(job.spec.model).default_batch_size * 2);
  }
}

TEST(TraceGenerator, InvalidMixThrows) {
  EXPECT_THROW((void)WorkloadMix::favour(JobCategory::CV, 1.5), common::Error);
  TraceConfig config;
  config.mix.category_weight = {0.0, 0.0, 0.0, 0.0};
  EXPECT_THROW(TraceGenerator(1).generate(config), common::Error);
}

TEST(TraceSerialization, RoundTrips) {
  TraceConfig config;
  config.job_count = 30;
  const JobSet original = TraceGenerator(55).generate(config);

  std::stringstream stream;
  save_trace(original, stream);
  const JobSet loaded = load_trace(stream);

  ASSERT_EQ(loaded.job_count(), original.job_count());
  for (std::size_t j = 0; j < original.job_count(); ++j) {
    const auto& a = original.job(JobId(static_cast<int>(j))).spec;
    const auto& b = loaded.job(JobId(static_cast<int>(j))).spec;
    EXPECT_EQ(a.model, b.model);
    EXPECT_DOUBLE_EQ(a.arrival, b.arrival);
    EXPECT_DOUBLE_EQ(a.weight, b.weight);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.tasks_per_round, b.tasks_per_round);
    EXPECT_EQ(a.batch_size, b.batch_size);
    EXPECT_EQ(a.batches_per_task, b.batches_per_task);
    EXPECT_EQ(a.name, b.name);
  }
}

TEST(TraceSerialization, RejectsCorruptHeader) {
  std::stringstream stream("not-a-trace 3");
  EXPECT_THROW(load_trace(stream), common::Error);
}

TEST(TraceSerialization, RejectsTruncatedBody) {
  TraceConfig config;
  config.job_count = 5;
  const JobSet original = TraceGenerator(55).generate(config);
  std::stringstream stream;
  save_trace(original, stream);
  std::string text = stream.str();
  text.resize(text.size() / 2);
  std::stringstream broken(text);
  EXPECT_THROW(load_trace(broken), common::Error);

  // A well-formed line whose task count (2^16 x 2^15 = 2^31) overflows
  // int32 task ids.
  std::stringstream oversized("hare-trace-v1 1\n0 0 1 65536 32768 32 1 -\n");
  EXPECT_THROW(load_trace(oversized), common::Error);
}

}  // namespace
}  // namespace hare::workload
