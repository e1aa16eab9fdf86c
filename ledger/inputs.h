// The ledger's workload inputs. They are generated from the seed by
// bench::BuildPaperExperiment in a process of their own and handed to the
// measured process as a file, so the generator's memory never shows in the
// measured process's peak RSS. The program under test receives only these
// inputs: SQL texts for the offline path, plan feature vectors with their
// optimizer costs for the online path.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "ml/feature_vector.h"

namespace qpp::ledger {

/// How many training sets the offline workload cycles through.
constexpr size_t kBuildSets = 16;

/// One training set of the offline model build: SQL texts, and the plan
/// features and simulated metrics (all eight fields) they compile and run
/// to, row-aligned.
struct BuildSet {
  std::vector<std::string> sql;
  std::vector<ml::TrainingExample> examples;
};

struct Inputs {
  uint64_t seed = 0;
  /// builds[0] is the paper's Experiment-1 training split (767 feathers,
  /// 230 golf balls, 30 bowling balls), the one the serve workloads train
  /// on. builds[1..kBuildSets) are further splits of the same sizes drawn
  /// from the same pool with derived seeds: training time moves ~12% from
  /// one draw to the next, so the workloads spread their set-ups (and the
  /// offline workload its rounds) over several of them, and no median rests
  /// on a single draw.
  std::vector<BuildSet> builds;
  /// Optimizer cost of each builds[0] plan (the fallback's calibration).
  std::vector<double> train_cost;
  /// The Experiment-1 test split (45/7/9), for the golden-risk check.
  std::vector<ml::TrainingExample> test;
  /// Every distinct plan feature vector of the candidate pool outside the
  /// Experiment-1 training split, in pool order, with its optimizer cost.
  std::vector<linalg::Vector> serve_features;
  std::vector<double> serve_cost;

  const std::vector<ml::TrainingExample>& train() const {
    return builds[0].examples;
  }
};

Inputs GenerateInputs(uint64_t seed);

/// Binary round trip through common/serde.h. Load reads only the first
/// `builds` training sets, and throws qpp::CheckFailure on a truncated or
/// foreign file.
void SaveInputs(const Inputs& inputs, const std::string& path);
Inputs LoadInputs(const std::string& path, size_t builds);

/// Bitwise equality of every field of two metric records (the six paper
/// metrics plus the simulator's auxiliary fields).
bool SameMetrics(const engine::QueryMetrics& a, const engine::QueryMetrics& b);

/// Bitwise equality of two double vectors (NaN-safe, -0.0 != +0.0).
bool SameBits(const linalg::Vector& a, const linalg::Vector& b);

}  // namespace qpp::ledger
