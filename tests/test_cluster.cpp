// Unit tests for the cluster substrate: GPU catalogue, builder, presets.
#include <gtest/gtest.h>

#include <map>

#include "cluster/cluster.hpp"
#include "cluster/gpu.hpp"
#include "common/error.hpp"

namespace hare::cluster {
namespace {

TEST(GpuCatalogue, SpecsAreConsistent) {
  for (GpuType type : all_gpu_types()) {
    const GpuSpec& spec = gpu_spec(type);
    EXPECT_EQ(spec.type, type);
    EXPECT_GT(spec.fp32_tflops, 0.0);
    EXPECT_GT(spec.mem_bandwidth_gbps, 0.0);
    EXPECT_GT(spec.memory, 0u);
    EXPECT_GT(spec.pcie_gbps, 0.0);
    EXPECT_GT(spec.context_create_s, 0.0);
    EXPECT_GT(spec.context_destroy_s, 0.0);
    EXPECT_FALSE(spec.name.empty());
  }
}

TEST(GpuCatalogue, RelativeSpeedsMatchGenerations) {
  // V100 is the fastest of the paper's testbed; K80 and M60 the slowest.
  EXPECT_GT(gpu_spec(GpuType::V100).fp32_tflops,
            gpu_spec(GpuType::T4).fp32_tflops);
  EXPECT_GT(gpu_spec(GpuType::T4).fp32_tflops,
            gpu_spec(GpuType::K80).fp32_tflops);
  EXPECT_GT(gpu_spec(GpuType::A100).fp32_tflops,
            gpu_spec(GpuType::V100).fp32_tflops);
}

TEST(GpuCatalogue, PcieMatchesPaperTestbed) {
  // §7.1: all GPUs use PCIe-3 x16 at 15.75 GB/s.
  for (GpuType type : all_gpu_types()) {
    EXPECT_DOUBLE_EQ(gpu_spec(type).pcie_gbps, 15.75);
  }
}

TEST(GpuCatalogue, Names) {
  EXPECT_EQ(gpu_type_name(GpuType::V100), "V100");
}

TEST(ClusterBuilder, BuildsMachinesAndGpus) {
  const Cluster c = ClusterBuilder{}
                        .add_machine(GpuType::V100, 4, 25.0, "v100-box")
                        .add_machine(GpuType::K80, 2, 10.0)
                        .build();
  EXPECT_EQ(c.gpu_count(), 6u);
  EXPECT_EQ(c.machine_count(), 2u);
  EXPECT_EQ(c.machine(MachineId(0)).name, "v100-box");
  EXPECT_EQ(c.machine(MachineId(0)).gpus.size(), 4u);
  EXPECT_DOUBLE_EQ(c.machine(MachineId(1)).network_gbps, 10.0);
  EXPECT_EQ(c.gpu(GpuId(5)).type, GpuType::K80);
  EXPECT_EQ(c.gpu(GpuId(5)).machine, MachineId(1));
}

TEST(ClusterBuilder, GpuIdsAreDense) {
  const Cluster c = ClusterBuilder{}
                        .add_machine(GpuType::T4, 3)
                        .add_machine(GpuType::M60, 2)
                        .build();
  for (std::size_t g = 0; g < c.gpu_count(); ++g) {
    EXPECT_EQ(c.gpu(GpuId(static_cast<int>(g))).id.value(),
              static_cast<int>(g));
  }
}

TEST(ClusterBuilder, RejectsEmptyMachine) {
  ClusterBuilder b;
  EXPECT_THROW(b.add_machine(GpuType::V100, 0), common::Error);
}

TEST(Cluster, InvalidIdsThrow) {
  const Cluster c = ClusterBuilder{}.add_machine(GpuType::V100, 1).build();
  EXPECT_THROW((void)c.gpu(GpuId(5)), common::Error);
  EXPECT_THROW((void)c.gpu(GpuId{}), common::Error);
  EXPECT_THROW((void)c.machine(MachineId(9)), common::Error);
}

TEST(Cluster, TypeHistogram) {
  const Cluster c = make_testbed_cluster();
  std::map<GpuType, std::size_t> hist;
  for (const auto& [type, count] : c.type_histogram()) hist[type] = count;
  EXPECT_EQ(hist[GpuType::V100], 8u);
  EXPECT_EQ(hist[GpuType::T4], 4u);
  EXPECT_EQ(hist[GpuType::K80], 1u);
  EXPECT_EQ(hist[GpuType::M60], 2u);
}

TEST(Cluster, TestbedMatchesPaper) {
  // §7.1: 15 GPUs on 4 EC2 instances, 25 Gbps Ethernet.
  const Cluster c = make_testbed_cluster();
  EXPECT_EQ(c.gpu_count(), 15u);
  EXPECT_EQ(c.machine_count(), 4u);
  for (const auto& m : c.machines()) {
    EXPECT_DOUBLE_EQ(m.network_gbps, 25.0);
  }
  EXPECT_FALSE(c.homogeneous());
}

TEST(HeterogeneityPresets, LowIsHomogeneousV100) {
  const Cluster c =
      make_heterogeneity_cluster(HeterogeneityLevel::Low, 32);
  EXPECT_EQ(c.gpu_count(), 32u);
  EXPECT_TRUE(c.homogeneous());
  EXPECT_EQ(c.gpus().front().type, GpuType::V100);
}

TEST(HeterogeneityPresets, MidHasTwoTypes) {
  const Cluster c =
      make_heterogeneity_cluster(HeterogeneityLevel::Mid, 32);
  EXPECT_EQ(c.gpu_count(), 32u);
  EXPECT_EQ(c.type_histogram().size(), 2u);
}

TEST(HeterogeneityPresets, HighHasFourTypes) {
  const Cluster c =
      make_heterogeneity_cluster(HeterogeneityLevel::High, 32);
  EXPECT_EQ(c.gpu_count(), 32u);
  EXPECT_EQ(c.type_histogram().size(), 4u);
}

TEST(HeterogeneityPresets, Names) {
  EXPECT_EQ(heterogeneity_level_name(HeterogeneityLevel::Low), "low (V100)");
  EXPECT_EQ(heterogeneity_level_name(HeterogeneityLevel::High),
            "high (V100+T4+K80+M60)");
}

class ApportionmentTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ApportionmentTest, SimulationClusterExactTotal) {
  const std::size_t total = GetParam();
  const Cluster c = make_simulation_cluster(total);
  EXPECT_EQ(c.gpu_count(), total);
  // Testbed proportions 8:4:1:2 — V100 should be the plurality for any
  // total of at least 4.
  std::map<GpuType, std::size_t> hist;
  for (const auto& [type, count] : c.type_histogram()) hist[type] = count;
  if (total >= 15) {
    EXPECT_GT(hist[GpuType::V100], hist[GpuType::T4]);
    EXPECT_GT(hist[GpuType::T4], hist[GpuType::K80]);
  }
}

TEST_P(ApportionmentTest, MachinesRespectCapacity) {
  const std::size_t total = GetParam();
  const Cluster c = make_simulation_cluster(total, 25.0, 8);
  for (const auto& m : c.machines()) {
    EXPECT_GE(m.gpus.size(), 1u);
    EXPECT_LE(m.gpus.size(), 8u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ApportionmentTest,
                         ::testing::Values(1, 4, 15, 16, 40, 80, 120, 160,
                                           200));

}  // namespace
}  // namespace hare::cluster
