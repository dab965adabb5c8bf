// Deep-learning model catalogue (paper Table 2 + ResNet152 from §2.2).
//
// The real system profiles each (model, GPU) pair by training a few
// mini-batches on the testbed. Offline we replace the measurement with an
// analytic description per model: training FLOPs per sample, parameter
// bytes (drives PS sync traffic, pipelined transfer, and GPU memory),
// activation bytes (drives the memory footprint and early-cleaning
// behaviour), an input-pipeline cost per sample (CPU-side preprocessing
// that caps speedup for input-bound models such as GraphSAGE, Fig 2/3),
// and the layer count used by the pipelined model-transfer model (§4).
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/types.hpp"

namespace hare::workload {

/// Model family; the performance model keys architecture-efficiency by
/// family (convolution-heavy vs attention vs recurrent vs graph kernels).
enum class ModelFamily : std::uint8_t { ConvNet, Transformer, Recurrent, Graph };

/// Job category used for the workload mix (Table 2: CV/NLP/Speech/Rec.).
enum class JobCategory : std::uint8_t { CV, NLP, Speech, Rec };

enum class ModelType : std::uint8_t {
  VGG19,
  ResNet50,
  InceptionV3,
  BertBase,
  Transformer,
  DeepSpeech,
  FastGCN,
  GraphSAGE,
  ResNet152,  // motivation experiments (Figs 5-6); not in the Table 2 mix
};

inline constexpr std::size_t kModelCount = 9;
/// Models participating in the Table 2 workload mix (excludes ResNet152).
inline constexpr std::size_t kWorkloadModelCount = 8;

struct ModelSpec {
  ModelType type{};
  ModelFamily family{};
  JobCategory category{};
  std::string_view name;
  std::string_view dataset;
  std::uint32_t default_batch_size = 0;   ///< Table 2 batch size
  double train_gflops_per_sample = 0.0;   ///< fwd+bwd FLOPs, in GFLOP
  Bytes parameter_bytes = 0;              ///< fp32 weights
  Bytes activation_bytes_per_sample = 0;  ///< intermediate tensors
  /// CPU-side input pipeline (decode/augment/sample) seconds per sample;
  /// lower-bounds batch time regardless of GPU speed.
  Time input_pipeline_s_per_sample = 0.0;
  std::uint32_t layer_count = 0;  ///< granularity of pipelined transfer
  /// Representative number of training rounds for a job of this model in
  /// the downscaled workloads (§7.1 downscales SQuAD/WMT16 so jobs finish
  /// within hours; we scale further so simulations finish in minutes).
  std::uint32_t typical_rounds = 0;
};

[[nodiscard]] const ModelSpec& model_spec(ModelType type);
[[nodiscard]] std::string_view model_name(ModelType type);

/// All models, catalogue order.
[[nodiscard]] const std::array<ModelType, kModelCount>& all_models();
/// The 8 workload-mix models of Table 2.
[[nodiscard]] const std::array<ModelType, kWorkloadModelCount>&
workload_models();

/// Total GPU memory footprint of a training task: weights + gradients +
/// optimizer state (SGD w/ momentum: 1 extra copy) + activations for the
/// batch + framework overhead.
[[nodiscard]] Bytes task_memory_footprint(const ModelSpec& spec,
                                          std::uint32_t batch_size);

/// Model-state-only footprint (what speculative memory management keeps
/// resident between a job's rounds: weights + optimizer state).
[[nodiscard]] Bytes model_state_bytes(const ModelSpec& spec);

}  // namespace hare::workload
