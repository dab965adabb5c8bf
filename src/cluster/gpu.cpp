#include "cluster/gpu.hpp"

#include "common/error.hpp"

namespace hare::cluster {

namespace {

constexpr std::array<GpuSpec, kGpuTypeCount> kCatalogue = {{
    {GpuType::K80, GpuArch::Kepler, "K80", 4.37, 240.0, 12ull * 1024 * 1024 * 1024,
     15.75, 3.1, 1.2},
    {GpuType::M60, GpuArch::Maxwell, "M60", 4.85, 160.0, 8ull * 1024 * 1024 * 1024,
     15.75, 2.6, 1.0},
    {GpuType::P100, GpuArch::Pascal, "P100", 9.30, 732.0, 16ull * 1024 * 1024 * 1024,
     15.75, 2.2, 0.9},
    {GpuType::V100, GpuArch::Volta, "V100", 15.70, 900.0, 16ull * 1024 * 1024 * 1024,
     15.75, 2.0, 0.8},
    {GpuType::T4, GpuArch::Turing, "T4", 8.14, 320.0, 16ull * 1024 * 1024 * 1024,
     15.75, 2.0, 0.8},
    {GpuType::A100, GpuArch::Ampere, "A100", 19.50, 1555.0, 40ull * 1024 * 1024 * 1024,
     15.75, 1.8, 0.7},
}};

constexpr std::array<GpuType, kGpuTypeCount> kAllTypes = {
    GpuType::K80, GpuType::M60, GpuType::P100,
    GpuType::V100, GpuType::T4, GpuType::A100};

}  // namespace

const GpuSpec& gpu_spec(GpuType type) {
  const auto index = static_cast<std::size_t>(type);
  HARE_CHECK_MSG(index < kCatalogue.size(), "unknown GPU type");
  return kCatalogue[index];
}

std::string_view gpu_type_name(GpuType type) { return gpu_spec(type).name; }

const std::array<GpuType, kGpuTypeCount>& all_gpu_types() { return kAllTypes; }

}  // namespace hare::cluster
