#include "cluster/cluster.hpp"

#include <algorithm>
#include <array>
#include <map>
#include <span>

#include "common/error.hpp"

namespace hare::cluster {

const Gpu& Cluster::gpu(GpuId id) const {
  HARE_CHECK_MSG(id.valid() && static_cast<std::size_t>(id.value()) < gpus_.size(),
                 "GPU id out of range: " << id);
  return gpus_[static_cast<std::size_t>(id.value())];
}

const Machine& Cluster::machine(MachineId id) const {
  HARE_CHECK_MSG(
      id.valid() && static_cast<std::size_t>(id.value()) < machines_.size(),
      "machine id out of range: " << id);
  return machines_[static_cast<std::size_t>(id.value())];
}

std::vector<std::pair<GpuType, std::size_t>> Cluster::type_histogram() const {
  std::map<GpuType, std::size_t> counts;
  for (const auto& gpu : gpus_) ++counts[gpu.type];
  return {counts.begin(), counts.end()};
}

bool Cluster::homogeneous() const {
  return std::all_of(gpus_.begin(), gpus_.end(), [&](const Gpu& g) {
    return g.type == gpus_.front().type;
  });
}

std::size_t Cluster::domain_count() const {
  if (machines_.empty()) return 0;
  std::size_t max_domain = 0;
  for (const auto& m : machines_) max_domain = std::max(max_domain, m.domain);
  return max_domain + 1;
}

ClusterBuilder& ClusterBuilder::add_machine(GpuType type, std::size_t count,
                                            double network_gbps,
                                            std::string name,
                                            std::size_t domain) {
  HARE_CHECK_MSG(count > 0, "a machine must host at least one GPU");
  Machine machine;
  machine.id = MachineId(static_cast<MachineId::underlying_type>(
      cluster_.machines_.size()));
  machine.network_gbps = network_gbps;
  machine.domain = domain;
  machine.name = name.empty()
                     ? std::string(gpu_type_name(type)) + "-node-" +
                           std::to_string(machine.id.value())
                     : std::move(name);
  for (std::size_t i = 0; i < count; ++i) {
    Gpu gpu;
    gpu.id = GpuId(static_cast<GpuId::underlying_type>(cluster_.gpus_.size()));
    gpu.machine = machine.id;
    gpu.type = type;
    machine.gpus.push_back(gpu.id);
    cluster_.gpus_.push_back(gpu);
  }
  cluster_.machines_.push_back(std::move(machine));
  return *this;
}

Cluster make_testbed_cluster(double network_gbps) {
  // 4 EC2 instances: p3.16xlarge (8×V100), g4dn.12xlarge (4×T4),
  // p2.xlarge (1×K80), g3.8xlarge (2×M60).
  return ClusterBuilder{}
      .add_machine(GpuType::V100, 8, network_gbps, "p3-v100")
      .add_machine(GpuType::T4, 4, network_gbps, "g4dn-t4")
      .add_machine(GpuType::K80, 1, network_gbps, "p2-k80")
      .add_machine(GpuType::M60, 2, network_gbps, "g3-m60")
      .build();
}

namespace {

Cluster build_by_proportion(std::span<const std::pair<GpuType, double>> mix,
                            std::size_t total_gpus, double network_gbps,
                            std::size_t gpus_per_machine,
                            std::size_t machines_per_domain = 0) {
  HARE_CHECK_MSG(total_gpus > 0, "cluster needs at least one GPU");
  HARE_CHECK_MSG(gpus_per_machine > 0, "machines need at least one GPU");
  // Largest-remainder apportionment of GPU counts to types.
  std::vector<std::size_t> counts(mix.size(), 0);
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  double weight_sum = 0.0;
  for (const auto& [type, w] : mix) weight_sum += w;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const double exact =
        static_cast<double>(total_gpus) * mix[i].second / weight_sum;
    counts[i] = static_cast<std::size_t>(exact);
    assigned += counts[i];
    remainders.emplace_back(exact - static_cast<double>(counts[i]), i);
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (std::size_t k = 0; assigned < total_gpus; ++k, ++assigned) {
    ++counts[remainders[k % remainders.size()].second];
  }

  ClusterBuilder builder;
  std::size_t machine_index = 0;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    std::size_t remaining = counts[i];
    while (remaining > 0) {
      const std::size_t host = std::min(remaining, gpus_per_machine);
      const std::size_t domain =
          machines_per_domain > 0 ? machine_index / machines_per_domain : 0;
      builder.add_machine(mix[i].first, host, network_gbps, {}, domain);
      remaining -= host;
      ++machine_index;
    }
  }
  return builder.build();
}

}  // namespace

Cluster make_heterogeneity_cluster(HeterogeneityLevel level,
                                   std::size_t total_gpus, double network_gbps,
                                   std::size_t gpus_per_machine) {
  using P = std::pair<GpuType, double>;
  switch (level) {
    case HeterogeneityLevel::Low: {
      const std::array<P, 1> mix = {P{GpuType::V100, 1.0}};
      return build_by_proportion(mix, total_gpus, network_gbps,
                                 gpus_per_machine);
    }
    case HeterogeneityLevel::Mid: {
      const std::array<P, 2> mix = {P{GpuType::V100, 1.0},
                                    P{GpuType::K80, 1.0}};
      return build_by_proportion(mix, total_gpus, network_gbps,
                                 gpus_per_machine);
    }
    case HeterogeneityLevel::High: {
      const std::array<P, 4> mix = {P{GpuType::V100, 1.0}, P{GpuType::T4, 1.0},
                                    P{GpuType::K80, 1.0}, P{GpuType::M60, 1.0}};
      return build_by_proportion(mix, total_gpus, network_gbps,
                                 gpus_per_machine);
    }
  }
  HARE_CHECK_MSG(false, "unknown heterogeneity level");
  return {};
}

Cluster make_simulation_cluster(std::size_t total_gpus, double network_gbps,
                                std::size_t gpus_per_machine,
                                std::size_t machines_per_domain) {
  using P = std::pair<GpuType, double>;
  const std::array<P, 4> mix = {P{GpuType::V100, 8.0}, P{GpuType::T4, 4.0},
                                P{GpuType::K80, 1.0}, P{GpuType::M60, 2.0}};
  return build_by_proportion(mix, total_gpus, network_gbps, gpus_per_machine,
                             machines_per_domain);
}

std::string_view heterogeneity_level_name(HeterogeneityLevel level) {
  switch (level) {
    case HeterogeneityLevel::Low: return "low (V100)";
    case HeterogeneityLevel::Mid: return "mid (V100+K80)";
    case HeterogeneityLevel::High: return "high (V100+T4+K80+M60)";
  }
  return "?";
}

}  // namespace hare::cluster
