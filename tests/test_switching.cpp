// Unit tests for fast task switching (§4): speculative memory manager and
// the three-policy switch cost model (Table 3 shapes).
#include <gtest/gtest.h>

#include <optional>

#include "common/error.hpp"
#include "workload/perf_model.hpp"
#include "switching/memory_manager.hpp"
#include "switching/switch_model.hpp"

namespace hare::switching {
namespace {

using cluster::GpuType;
using workload::ModelType;

constexpr Bytes GB = 1024ull * 1024 * 1024;

// --------------------------------------------------------- memory manager --

TEST(MemoryManager, FirstStartIsMiss) {
  SpeculativeMemoryManager mm(16 * GB);
  const auto info = mm.on_task_start(JobId(0), 4 * GB, 1 * GB);
  EXPECT_FALSE(info.model_resident);
  EXPECT_EQ(info.bytes_to_load, 1 * GB);
  EXPECT_EQ(mm.used(), 4 * GB);
  EXPECT_TRUE(mm.has_active());
}

TEST(MemoryManager, KeepsStateAfterCompletion) {
  SpeculativeMemoryManager mm(16 * GB);
  mm.on_task_start(JobId(0), 4 * GB, 1 * GB);
  mm.on_task_complete(10.0);
  EXPECT_FALSE(mm.has_active());
  EXPECT_TRUE(mm.resident(JobId(0)));
  EXPECT_EQ(mm.kept_bytes(), 1 * GB);
}

TEST(MemoryManager, RevisitIsHit) {
  SpeculativeMemoryManager mm(16 * GB);
  mm.on_task_start(JobId(0), 4 * GB, 1 * GB);
  mm.on_task_complete(10.0);
  const auto info = mm.on_task_start(JobId(0), 4 * GB, 1 * GB);
  EXPECT_TRUE(info.model_resident);
  EXPECT_EQ(info.bytes_to_load, 0u);
  EXPECT_EQ(mm.hit_count(), 1u);
  EXPECT_EQ(mm.miss_count(), 1u);
}

TEST(MemoryManager, EvictsEarliestCompletedFirst) {
  SpeculativeMemoryManager mm(10 * GB);
  // Three jobs leave 3 GB of state each (9 GB kept).
  for (int j = 0; j < 3; ++j) {
    mm.on_task_start(JobId(j), 4 * GB, 3 * GB);
    mm.on_task_complete(static_cast<Time>(j));
  }
  EXPECT_EQ(mm.kept_count(), 3u);
  // A 7 GB task forces eviction of the two earliest states (jobs 0, 1).
  const auto info = mm.on_task_start(JobId(9), 7 * GB, 1 * GB);
  EXPECT_EQ(info.evicted_bytes, 6 * GB);
  EXPECT_FALSE(mm.resident(JobId(0)));
  EXPECT_FALSE(mm.resident(JobId(1)));
  EXPECT_TRUE(mm.resident(JobId(2)));  // latest completed survives
}

TEST(MemoryManager, NeverEvictsOwnState) {
  SpeculativeMemoryManager mm(10 * GB);
  mm.on_task_start(JobId(0), 8 * GB, 8 * GB);
  mm.on_task_complete(0.0);
  // Revisit with a bigger footprint: own kept state must be reused, not
  // evicted.
  const auto info = mm.on_task_start(JobId(0), 10 * GB, 8 * GB);
  EXPECT_TRUE(info.model_resident);
  EXPECT_EQ(mm.used(), 10 * GB);
}

TEST(MemoryManager, JobFinishDropsState) {
  SpeculativeMemoryManager mm(16 * GB);
  mm.on_task_start(JobId(0), 4 * GB, 1 * GB);
  mm.on_task_complete(1.0);
  mm.on_job_finished(JobId(0));
  EXPECT_FALSE(mm.resident(JobId(0)));
  EXPECT_EQ(mm.kept_bytes(), 0u);
}

TEST(MemoryManager, CapacityNeverExceeded) {
  SpeculativeMemoryManager mm(8 * GB);
  for (int j = 0; j < 10; ++j) {
    mm.on_task_start(JobId(j), 5 * GB, 2 * GB);
    EXPECT_LE(mm.used(), 8 * GB);
    mm.on_task_complete(static_cast<Time>(j));
    EXPECT_LE(mm.used(), 8 * GB);
  }
}

TEST(MemoryManager, RejectsInvalidUse) {
  SpeculativeMemoryManager mm(8 * GB);
  EXPECT_THROW(mm.on_task_complete(0.0), common::Error);  // nothing active
  EXPECT_THROW(mm.on_task_start(JobId(0), 9 * GB, 1 * GB), common::Error);
  EXPECT_THROW(mm.on_task_start(JobId(0), 2 * GB, 3 * GB), common::Error);
  mm.on_task_start(JobId(0), 2 * GB, 1 * GB);
  EXPECT_THROW(mm.on_task_start(JobId(1), 2 * GB, 1 * GB),
               common::Error);  // non-preemption: one active task
}

// ------------------------------------------------------------ switch model --

class SwitchPolicyTest : public ::testing::TestWithParam<ModelType> {};

TEST_P(SwitchPolicyTest, Table3Ordering) {
  // Table 3's shape: Default is seconds; PipeSwitch is milliseconds; Hare
  // is below PipeSwitch; each policy strictly improves on the previous.
  const ModelType model = GetParam();
  const auto cost = [&](SwitchPolicy policy) {
    SwitchModelConfig config;
    config.policy = policy;
    const SwitchCostModel scm(config);
    return scm
        .switch_cost(JobId(1), model, GpuType::V100, JobId(0), nullptr)
        .total();
  };
  const Time def = cost(SwitchPolicy::Default);
  const Time pipe = cost(SwitchPolicy::PipeSwitch);
  const Time hare = cost(SwitchPolicy::Hare);
  EXPECT_GT(def, 3.0) << "Default switches cost seconds";
  EXPECT_LT(pipe, 0.020) << "PipeSwitch switches cost milliseconds";
  EXPECT_LT(hare, pipe);
  EXPECT_LT(hare, 0.010) << "Hare stays under ~6ms (Table 3)";
}

INSTANTIATE_TEST_SUITE_P(
    Models, SwitchPolicyTest,
    ::testing::Values(ModelType::VGG19, ModelType::ResNet50,
                      ModelType::InceptionV3, ModelType::BertBase,
                      ModelType::Transformer, ModelType::DeepSpeech,
                      ModelType::FastGCN, ModelType::GraphSAGE));

TEST(SwitchModel, SameJobContinuationIsNearFree) {
  for (SwitchPolicy policy :
       {SwitchPolicy::Default, SwitchPolicy::PipeSwitch, SwitchPolicy::Hare}) {
    SwitchModelConfig config;
    config.policy = policy;
    const SwitchCostModel scm(config);
    const auto breakdown = scm.switch_cost(JobId(3), ModelType::BertBase,
                                           GpuType::V100, JobId(3), nullptr);
    EXPECT_LT(breakdown.total(), 0.001);
    EXPECT_TRUE(breakdown.model_resident);
  }
}

TEST(SwitchModel, HareResidentSkipsTransfer) {
  SpeculativeMemoryManager mm(16 * GB);
  const workload::ModelSpec& spec =
      workload::model_spec(ModelType::BertBase);
  mm.on_task_start(JobId(5), workload::task_memory_footprint(spec, 32),
                   workload::model_state_bytes(spec));
  mm.on_task_complete(1.0);

  SwitchModelConfig config;
  config.policy = SwitchPolicy::Hare;
  const SwitchCostModel scm(config);
  const auto hit = scm.switch_cost(JobId(5), ModelType::BertBase,
                                   GpuType::V100, JobId(4), &mm);
  const auto miss = scm.switch_cost(JobId(6), ModelType::BertBase,
                                    GpuType::V100, JobId(4), &mm);
  EXPECT_TRUE(hit.model_resident);
  EXPECT_DOUBLE_EQ(hit.transfer, 0.0);
  EXPECT_FALSE(miss.model_resident);
  EXPECT_GT(miss.transfer, 0.0);
  EXPECT_LT(hit.total(), miss.total());
}

TEST(SwitchModel, EarlyCleaningRemovesExposedCleanup) {
  SwitchModelConfig pipe_config;
  pipe_config.policy = SwitchPolicy::PipeSwitch;
  SwitchModelConfig hare_config;
  hare_config.policy = SwitchPolicy::Hare;
  const auto pipe = SwitchCostModel(pipe_config)
                        .switch_cost(JobId(1), ModelType::VGG19,
                                     GpuType::V100, JobId(0), nullptr);
  const auto hare = SwitchCostModel(hare_config)
                        .switch_cost(JobId(1), ModelType::VGG19,
                                     GpuType::V100, JobId(0), nullptr);
  EXPECT_GT(pipe.clean, 0.0);
  EXPECT_DOUBLE_EQ(hare.clean, 0.0);
}

TEST(SwitchModel, ColdGpuSkipsPredecessorCleanup) {
  SwitchModelConfig config;
  config.policy = SwitchPolicy::Default;
  const SwitchCostModel scm(config);
  const auto cold = scm.switch_cost(JobId(0), ModelType::ResNet50,
                                    GpuType::V100, std::nullopt, nullptr);
  const auto warm = scm.switch_cost(JobId(0), ModelType::ResNet50,
                                    GpuType::V100, JobId(9), nullptr);
  EXPECT_DOUBLE_EQ(cold.clean, 0.0);
  EXPECT_GT(warm.clean, 0.0);
  EXPECT_LT(cold.total(), warm.total());
}

TEST(SwitchModel, BreakdownComponentsNonNegative) {
  for (SwitchPolicy policy :
       {SwitchPolicy::Default, SwitchPolicy::PipeSwitch, SwitchPolicy::Hare}) {
    SwitchModelConfig config;
    config.policy = policy;
    const SwitchCostModel scm(config);
    for (ModelType model : workload::all_models()) {
      const auto b = scm.switch_cost(JobId(1), model, GpuType::K80, JobId(0),
                                     nullptr);
      EXPECT_GE(b.clean, 0.0);
      EXPECT_GE(b.context, 0.0);
      EXPECT_GE(b.init, 0.0);
      EXPECT_GE(b.alloc, 0.0);
      EXPECT_GE(b.transfer, 0.0);
      EXPECT_NEAR(b.total(),
                  b.clean + b.context + b.init + b.alloc + b.transfer, 1e-12);
    }
  }
}

TEST(SwitchModel, Fig7OverheadRatio) {
  // Fig 7: alternating GraphSAGE/ResNet50 single batches on a V100 makes
  // the default switch cost ~9x the combined batch time; Hare's is tiny.
  const workload::PerfModel perf;
  const Time batch_pair =
      perf.batch_time(ModelType::GraphSAGE, GpuType::V100, 16) +
      perf.batch_time(ModelType::ResNet50, GpuType::V100, 64);

  SwitchModelConfig def;
  def.policy = SwitchPolicy::Default;
  const Time default_switch =
      SwitchCostModel(def)
          .switch_cost(JobId(1), ModelType::ResNet50, GpuType::V100, JobId(0),
                       nullptr)
          .total() +
      SwitchCostModel(def)
          .switch_cost(JobId(0), ModelType::GraphSAGE, GpuType::V100, JobId(1),
                       nullptr)
          .total();
  EXPECT_GT(default_switch / batch_pair, 5.0);

  SwitchModelConfig hare;
  hare.policy = SwitchPolicy::Hare;
  const Time hare_switch =
      SwitchCostModel(hare)
          .switch_cost(JobId(1), ModelType::ResNet50, GpuType::V100, JobId(0),
                       nullptr)
          .total();
  EXPECT_LT(hare_switch / batch_pair, 0.05);
}

TEST(SwitchModel, StandbyContextsAreAlwaysWarm) {
  // Five distinct jobs alternate on one GPU, more than the prototype's
  // three standby contexts. PipeSwitch and Hare still pay no context
  // creation on any cross-job switch; Default creates one every time.
  const cluster::GpuSpec& gpu = cluster::gpu_spec(GpuType::V100);
  ASSERT_GT(gpu.context_create_s, 0.0);
  const ModelType models[] = {ModelType::ResNet50, ModelType::VGG19,
                              ModelType::BertBase, ModelType::GraphSAGE,
                              ModelType::DeepSpeech};
  for (SwitchPolicy policy :
       {SwitchPolicy::Default, SwitchPolicy::PipeSwitch, SwitchPolicy::Hare}) {
    SwitchModelConfig config;
    config.policy = policy;
    const SwitchCostModel scm(config);
    SpeculativeMemoryManager mm(gpu.memory);
    std::optional<JobId> previous;
    for (int step = 0; step < 20; ++step) {
      const JobId job(step % 5);
      const workload::ModelSpec& spec = workload::model_spec(models[step % 5]);
      const auto breakdown = scm.switch_cost(
          job, spec.type, GpuType::V100, previous,
          policy == SwitchPolicy::Hare ? &mm : nullptr);
      const double expected =
          policy == SwitchPolicy::Default ? gpu.context_create_s : 0.0;
      EXPECT_EQ(breakdown.context, expected)
          << switch_policy_name(policy) << " step " << step;
      mm.on_task_start(job,
                       workload::task_memory_footprint(
                           spec, spec.default_batch_size),
                       workload::model_state_bytes(spec));
      mm.on_task_complete(static_cast<Time>(step + 1));
      previous = job;
    }
  }
}

TEST(SwitchModel, PolicyNames) {
  EXPECT_EQ(switch_policy_name(SwitchPolicy::Default), "Default");
  EXPECT_EQ(switch_policy_name(SwitchPolicy::PipeSwitch), "PipeSwitch");
  EXPECT_EQ(switch_policy_name(SwitchPolicy::Hare), "Hare");
}

}  // namespace
}  // namespace hare::switching
