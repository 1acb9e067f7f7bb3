// Public facade: one object that goes dataset -> trained failure predictor
// -> drive-level detection, with the paper's configurations as ready-made
// named presets.
//
// Quickstart:
//   auto fleet  = hdd::sim::generate_fleet(hdd::sim::paper_fleet_config(0.05));
//   auto split  = hdd::data::split_dataset(fleet, {});
//   auto pred   = hdd::core::FailurePredictor(hdd::core::preset("ct"));
//   pred.fit(fleet, split);
//   auto result = pred.evaluate(fleet, split);
//   // result.fdr(), result.far(), result.mean_tia()
//
// All model dispatch goes through the SampleScorer interface (scorer.h):
// the facade trains whichever backend the config selects and keeps it
// behind one polymorphic pointer, so new model types plug in without
// touching this class. For scoring whole data centers per SMART interval —
// batched, multi-threaded, with incremental per-drive voting — see
// core::FleetScorer (fleet.h).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <string_view>

#include "ann/mlp.h"
#include "core/scorer.h"
#include "data/training.h"
#include "eval/detection.h"
#include "forest/adaboost.h"
#include "forest/random_forest.h"
#include "tree/tree.h"

namespace hdd::core {

enum class ModelType {
  kClassificationTree,  // the paper's CT model
  kRegressionTree,      // RT trained as a +1/-1 "classifier" (Fig. 10 control)
  kBpAnn,               // the BP ANN baseline
  kRandomForest,        // future-work extension
  kAdaBoost,            // ablation from [11]
};

// Display name of a model type; throws ConfigError for out-of-range values.
const char* model_type_name(ModelType t);

struct PredictorConfig {
  ModelType model = ModelType::kClassificationTree;
  data::TrainingConfig training;
  tree::TreeParams tree_params;
  ann::MlpConfig ann;
  forest::ForestConfig forest;
  forest::AdaBoostConfig adaboost;
  eval::VoteConfig vote;

  // Checks the voting/training parameters plus the parameters of the
  // selected model; throws ConfigError with a specific message. Called by
  // the FailurePredictor constructor.
  void validate() const;
};

// The paper's published settings: CT with the stat13 features, 168 h failed
// window, 20% failed prior, 10:1 false-alarm loss, Minsplit 20, Minbucket 7,
// CP 0.001, 11 voters.
PredictorConfig paper_ct_config();
// BP ANN per [11]: 12 h window, no reweighting, hidden layer sized per the
// feature set (13-13-1), learning rate 0.1, <= 400 epochs.
PredictorConfig paper_ann_config();
// RT control group for Figure 10 (binary +1/-1 targets, average-mode vote).
PredictorConfig paper_rt_classifier_config();
// Random-forest ensemble over the CT settings (the Section VI ensemble
// direction): 40 bootstrap trees on random feature subspaces, majority
// margin, same stat13 features / windows / voting as the CT preset.
PredictorConfig forest_config();

// Named preset registry over the paper configurations above.
struct PresetInfo {
  std::string_view name;
  std::string_view description;
  PredictorConfig (*make)();
};

// All registered presets ("ct", "ann", "rt").
std::span<const PresetInfo> presets();

// Looks up a preset by name; throws ConfigError listing the known names.
PredictorConfig preset(std::string_view name);

class FailurePredictor {
 public:
  explicit FailurePredictor(PredictorConfig config);

  const PredictorConfig& config() const { return config_; }

  // Trains on the train side of the split.
  void fit(const data::DriveDataset& dataset, const data::DatasetSplit& split);

  bool trained() const { return scorer_ != nullptr; }

  // The trained model behind the polymorphic scorer interface — the hook
  // for FleetScorer and batched evaluation. Throws if untrained.
  const SampleScorer& scorer() const;

  // Sample-level model (margin in [-1,1], negative = failing).
  eval::SampleModel sample_model() const;

  // Health of one observed sample of a drive record.
  double score_sample(const smart::DriveRecord& drive,
                      std::size_t sample_index) const;

  // Drive-level detection with the configured voting parameters.
  eval::DriveOutcome detect(const smart::DriveRecord& drive,
                            std::size_t begin_index = 0) const;

  // Full test-side evaluation (batched scoring, parallel across drives).
  eval::EvalResult evaluate(const data::DriveDataset& dataset,
                            const data::DatasetSplit& split) const;

  // The underlying tree, when the model is tree-based (interpretability:
  // Figure 1 / Section V-B1). Null otherwise.
  const tree::DecisionTree* tree() const;

  std::string describe() const;

 private:
  // scorer()'s predict_batch behind the eval block interface.
  eval::BatchSampleModel batch_model() const;

  PredictorConfig config_;
  // The trained backend; model dispatch happens only inside fit_scorer().
  std::unique_ptr<SampleScorer> scorer_;
};

}  // namespace hdd::core
