// Cluster composition and network topology.
//
// A `Cluster` is a set of machines, each hosting one or more GPUs and an
// uplink of a given bandwidth (the paper's testbed: 4 EC2 instances on
// 25 Gbps Ethernet). Parameter-server synchronization traffic crosses the
// machine uplinks; intra-machine traffic uses PCIe. `ClusterBuilder`
// assembles arbitrary configurations, and presets reproduce the paper's
// testbed and the simulator's low / mid / high heterogeneity levels
// (Fig 16).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "cluster/gpu.hpp"
#include "common/types.hpp"

namespace hare::cluster {

struct Gpu {
  GpuId id;
  MachineId machine;
  GpuType type{};

  [[nodiscard]] const GpuSpec& spec() const { return gpu_spec(type); }
};

struct Machine {
  MachineId id;
  std::string name;
  /// Uplink/downlink bandwidth in Gbit/s (network, shared by the machine's
  /// GPUs for PS traffic).
  double network_gbps = 25.0;
  /// Network domain (rack / pod / spine block) the machine's uplink hangs
  /// off. PS traffic between a job's tasks stays cheap within a domain;
  /// the hierarchical planner shards the cluster along these boundaries.
  std::size_t domain = 0;
  std::vector<GpuId> gpus;
};

class Cluster {
 public:
  [[nodiscard]] std::size_t gpu_count() const { return gpus_.size(); }
  [[nodiscard]] std::size_t machine_count() const { return machines_.size(); }

  [[nodiscard]] const Gpu& gpu(GpuId id) const;
  [[nodiscard]] const Machine& machine(MachineId id) const;
  [[nodiscard]] const std::vector<Gpu>& gpus() const { return gpus_; }
  [[nodiscard]] const std::vector<Machine>& machines() const {
    return machines_;
  }

  /// Number of GPUs of each type present.
  [[nodiscard]] std::vector<std::pair<GpuType, std::size_t>> type_histogram()
      const;

  /// True when every GPU is of the same type.
  [[nodiscard]] bool homogeneous() const;

  /// Number of distinct network domains (max machine domain + 1; 1 for a
  /// flat single-domain cluster, 0 when empty).
  [[nodiscard]] std::size_t domain_count() const;

 private:
  friend class ClusterBuilder;
  std::vector<Gpu> gpus_;
  std::vector<Machine> machines_;
};

class ClusterBuilder {
 public:
  /// Add a machine hosting `count` GPUs of `type` in network `domain`.
  /// Returns the machine id.
  ClusterBuilder& add_machine(GpuType type, std::size_t count,
                              double network_gbps = 25.0,
                              std::string name = {}, std::size_t domain = 0);

  [[nodiscard]] Cluster build() const { return cluster_; }

 private:
  Cluster cluster_;
};

/// The paper's 15-GPU testbed: 8 V100 + 4 T4 + 1 K80 + 2 M60 on four
/// machines connected by 25 Gbps Ethernet (§7.1).
[[nodiscard]] Cluster make_testbed_cluster(double network_gbps = 25.0);

/// Heterogeneity levels used in Fig 16 (160 GPUs by default):
///   low  = V100 only, mid = V100 × K80, high = V100 × T4 × K80 × M60.
enum class HeterogeneityLevel { Low, Mid, High };

[[nodiscard]] Cluster make_heterogeneity_cluster(HeterogeneityLevel level,
                                                 std::size_t total_gpus,
                                                 double network_gbps = 25.0,
                                                 std::size_t gpus_per_machine = 8);

/// Large-scale simulator cluster with the testbed's type proportions
/// (8:4:1:2 V100:T4:K80:M60), `gpus_per_machine` GPUs per machine.
/// `machines_per_domain > 0` groups consecutive machines into network
/// domains of that size (racks); 0 keeps the whole cluster in domain 0.
[[nodiscard]] Cluster make_simulation_cluster(
    std::size_t total_gpus, double network_gbps = 25.0,
    std::size_t gpus_per_machine = 8, std::size_t machines_per_domain = 0);

[[nodiscard]] std::string_view heterogeneity_level_name(HeterogeneityLevel level);

}  // namespace hare::cluster
