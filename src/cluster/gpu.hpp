// GPU hardware catalogue.
//
// The paper's testbed mixes four NVIDIA generations (8×V100, 4×T4, 1×K80,
// 2×M60 across 4 EC2 instances). Scheduling decisions depend on
// per-(model, GPU) batch times, GPU memory capacity, and interconnect
// bandwidth, so that is what the catalogue captures. Peak-FLOPS numbers are
// the published per-die figures; the per-model efficiency that turns peak
// into achieved throughput lives in workload/perf_model.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace hare::cluster {

/// Microarchitecture generation; the performance model keys efficiency
/// factors by generation.
enum class GpuArch : std::uint8_t {
  Kepler,   // K80
  Maxwell,  // M60
  Pascal,   // P100
  Volta,    // V100
  Turing,   // T4
  Ampere,   // A100 (extension beyond the paper's testbed)
};

enum class GpuType : std::uint8_t {
  K80,
  M60,
  P100,
  V100,
  T4,
  A100,
};

inline constexpr std::size_t kGpuTypeCount = 6;

struct GpuSpec {
  GpuType type{};
  GpuArch arch{};
  std::string_view name;
  double fp32_tflops = 0.0;      ///< peak single-precision, per die
  double mem_bandwidth_gbps = 0.0;  ///< GB/s device memory
  Bytes memory = 0;              ///< device memory capacity
  double pcie_gbps = 15.75;      ///< host<->device, PCIe 3.0 x16 per paper
  /// Baseline CUDA context creation / destruction cost when *not* using a
  /// pre-created context pool (seconds). Older parts are slower.
  Time context_create_s = 0.0;
  Time context_destroy_s = 0.0;
};

/// Static spec lookup. Values: NVIDIA datasheets (K80/M60 per-die);
/// context costs follow the magnitudes reported by PipeSwitch (OSDI'20).
[[nodiscard]] const GpuSpec& gpu_spec(GpuType type);

[[nodiscard]] std::string_view gpu_type_name(GpuType type);

/// All types in catalogue order (stable for iteration in tests/benches).
[[nodiscard]] const std::array<GpuType, kGpuTypeCount>& all_gpu_types();

}  // namespace hare::cluster
