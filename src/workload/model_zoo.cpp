#include "workload/model_zoo.hpp"

#include "common/error.hpp"

namespace hare::workload {

namespace {

constexpr Bytes MB = 1024ull * 1024ull;

// Calibration: GFLOPs are chosen so that per-batch training times on a K80
// (the paper's Fig 2 baseline) land at realistic magnitudes, and the
// family-efficiency table in perf_model.cpp then reproduces the measured
// speedup matrix of Fig 2 (ResNet50: ~2x on T4 / ~7x on V100; GraphSAGE
// capped near 2x on any GPU by its input pipeline). Parameter counts are
// the published model sizes.
constexpr std::array<ModelSpec, kModelCount> kZoo = {{
    {ModelType::VGG19, ModelFamily::ConvNet, JobCategory::CV, "VGG19",
     "Cifar10", 128, 3.755, 575 * MB, 10 * MB, 0.00020, 19, 30},
    {ModelType::ResNet50, ModelFamily::ConvNet, JobCategory::CV, "ResNet50",
     "Cifar100", 64, 8.19, 102 * MB, 20 * MB, 0.00020, 50, 35},
    {ModelType::InceptionV3, ModelFamily::ConvNet, JobCategory::CV,
     "InceptionV3", "Cifar100", 32, 13.66, 95 * MB, 15 * MB, 0.00020, 48, 30},
    {ModelType::BertBase, ModelFamily::Transformer, JobCategory::NLP,
     "Bert_base", "SQuAD", 32, 65.55, 440 * MB, 40 * MB, 0.00010, 14, 60},
    {ModelType::Transformer, ModelFamily::Transformer, JobCategory::NLP,
     "Transformer", "WMT16", 128, 12.29, 260 * MB, 30 * MB, 0.00010, 12, 50},
    {ModelType::DeepSpeech, ModelFamily::Recurrent, JobCategory::Speech,
     "DeepSpeech", "ComVoice", 8, 109.25, 152 * MB, 50 * MB, 0.00500, 9, 40},
    {ModelType::FastGCN, ModelFamily::Graph, JobCategory::Rec, "FastGCN",
     "Cora", 128, 0.6828, 2 * MB, 2 * MB, 0.0003125, 2, 20},
    {ModelType::GraphSAGE, ModelFamily::Graph, JobCategory::Rec, "GraphSAGE",
     "Cora", 16, 4.37, 2 * MB, 4 * MB, 0.00250, 2, 20},
    {ModelType::ResNet152, ModelFamily::ConvNet, JobCategory::CV, "ResNet152",
     "ImageNet-100", 32, 49.2, 241 * MB, 45 * MB, 0.00020, 152, 40},
}};

constexpr std::array<ModelType, kModelCount> kAllModels = {
    ModelType::VGG19,      ModelType::ResNet50,   ModelType::InceptionV3,
    ModelType::BertBase,   ModelType::Transformer, ModelType::DeepSpeech,
    ModelType::FastGCN,    ModelType::GraphSAGE,  ModelType::ResNet152};

constexpr std::array<ModelType, kWorkloadModelCount> kWorkloadModels = {
    ModelType::VGG19,    ModelType::ResNet50,    ModelType::InceptionV3,
    ModelType::BertBase, ModelType::Transformer, ModelType::DeepSpeech,
    ModelType::FastGCN,  ModelType::GraphSAGE};

}  // namespace

const ModelSpec& model_spec(ModelType type) {
  const auto index = static_cast<std::size_t>(type);
  HARE_CHECK_MSG(index < kZoo.size(), "unknown model type");
  return kZoo[index];
}

std::string_view model_name(ModelType type) { return model_spec(type).name; }

const std::array<ModelType, kModelCount>& all_models() { return kAllModels; }

const std::array<ModelType, kWorkloadModelCount>& workload_models() {
  return kWorkloadModels;
}

Bytes task_memory_footprint(const ModelSpec& spec, std::uint32_t batch_size) {
  // Weights + gradients + SGD momentum, activations for the whole batch,
  // plus a flat framework/CUDA allocator reserve.
  constexpr Bytes kFrameworkReserve = 512ull * MB;
  return 3 * spec.parameter_bytes +
         static_cast<Bytes>(batch_size) * spec.activation_bytes_per_sample +
         kFrameworkReserve;
}

Bytes model_state_bytes(const ModelSpec& spec) {
  // What persists across a job's rounds: weights + optimizer state.
  return 2 * spec.parameter_bytes;
}

}  // namespace hare::workload
