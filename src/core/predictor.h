// The public prediction API — the tool the paper's Fig. 1 ships from the
// vendor to customer sites.
//
// A Predictor is trained on (query feature vector, measured metrics) pairs
// from one system configuration and predicts all six metrics for unseen
// queries before they run, using only compile-time information. The default
// configuration is the paper's winner: query-plan features, KCCA projection,
// 3 nearest neighbors by Euclidean distance, equally weighted.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "engine/metrics.h"
#include "linalg/matrix.h"
#include "ml/feature_vector.h"
#include "ml/kcca.h"
#include "ml/kdtree.h"
#include "ml/knn.h"
#include "ml/linear_regression.h"
#include "ml/preprocess.h"
#include "obs/trace.h"
#include "par/workspace.h"
#include "workload/pools.h"

namespace qpp::core {

enum class ModelKind {
  kKcca,        ///< the paper's technique
  kRegression,  ///< OLS baseline (Section V-A)
};

struct PredictorConfig {
  ModelKind model = ModelKind::kKcca;
  size_t k_neighbors = 3;                       // Table II
  ml::DistanceKind distance = ml::DistanceKind::kEuclidean;   // Table I
  ml::NeighborWeighting weighting = ml::NeighborWeighting::kEqual;  // Table III
  ml::KccaOptions kcca;
  bool preprocess_log1p = true;
  bool preprocess_standardize = true;
  /// Test points whose mean neighbor distance exceeds anomaly_factor times
  /// the 99th percentile of the training self-distance distribution are
  /// flagged anomalous (paper Section VII-C.3). Quantiles, not z-scores:
  /// projection-space distances are heavy-tailed.
  double anomaly_factor = 1.5;
  /// Serve both neighbor searches (projection space and preprocessed
  /// feature space) from exact k-d trees (ml::KdTree) instead of the
  /// brute scan. Euclidean only; results are bit-identical either way (the
  /// tree is pinned to the brute oracle by tests/kdtree_test.cpp), so this
  /// is purely a latency knob. Off runs ml::FindNearestBatch, every
  /// distance then the k smallest, the same scan cosine distance always
  /// uses: the oracle path the tests and A/B benches compare against.
  /// Runtime-only: deliberately NOT serialized (the model format is
  /// unchanged; Load rebuilds the indexes under the loading config).
  bool use_knn_index = true;
};

struct Prediction {
  engine::QueryMetrics metrics;
  /// Mean distance to the k neighbors in the query projection.
  double mean_neighbor_distance = 0.0;
  /// 1 / (1 + normalized neighbor distance): 1 = high confidence.
  double confidence = 1.0;
  bool anomalous = false;
  /// Training-example indices of the neighbors used.
  std::vector<size_t> neighbor_indices;
  /// Majority feather/golf/bowling vote of the neighbors' measured elapsed
  /// times; Predictor::Classify computes it alone.
  workload::QueryType predicted_type = workload::QueryType::kFeather;
};

/// Thread-safety contract
/// ----------------------
/// A Predictor is immutable once trained: Train()/Load() write the model
/// state exactly once, and every const member function (Predict, Classify,
/// PredictBatch, PreprocessFeatures, the accessors) only reads it — no
/// lazy initialization or internal caching anywhere in the predict path
/// (audited down through ml::Preprocessor, ml::KccaModel and the neighbor
/// searches, which are all pure reads too). Any number of threads may
/// therefore call const methods on one shared instance concurrently,
/// which is how the serving worker pool uses it
/// (serve::PredictionService workers predict against one
/// std::shared_ptr<const Predictor> snapshot).
///
/// The one piece of mutable state is scratch, never model state.
/// PredictBatchInto writes only the caller's BatchScratch. Predict and
/// Classify run the same pipeline at B = 1 through one thread_local
/// BatchScratch per calling thread, shared by every Predictor that thread
/// calls. Concurrent calls stay safe because each thread owns its scratch,
/// and a call cannot re-enter itself on one thread: nothing in the
/// pipeline calls back into a Predictor.
///
/// Train() itself is NOT safe to run concurrently with reads on the same
/// instance. Never retrain in place under traffic: train a fresh Predictor
/// and publish it atomically through serve::ModelRegistry instead.
class Predictor {
 public:
  explicit Predictor(PredictorConfig config = {});

  /// Trains on examples from one system configuration.
  void Train(const std::vector<ml::TrainingExample>& examples);
  bool trained() const { return trained_; }

  /// Predicts all six metrics for a query feature vector: the
  /// PredictBatchInto pipeline at B = 1, through this thread's scratch.
  Prediction Predict(const linalg::Vector& query_features) const;

  /// The category Predict(query_features).predicted_type reports, always
  /// equal to it. A KCCA model runs only what the vote reads, at B = 1
  /// through this thread's scratch: preprocess, projection, the
  /// projection-space neighbor search and the vote over their measured
  /// elapsed times. It skips the feature-space search, the metric
  /// averaging and the confidence. With the default k-d tree index it
  /// allocates nothing after its first call on a thread. This is the
  /// two-step predictor's first step and the serving front door's router.
  workload::QueryType Classify(const linalg::Vector& query_features) const;

  /// Micro-batch prediction: result i is bit-identical to
  /// Predict(queries[i]), because Predict is this pipeline at B = 1. One
  /// call runs the query-blocked KCCA projection
  /// (ml::KccaModel::ProjectXBatchInto: batched kernel tiles, one blocked
  /// triangular solve over the whole batch) and one batched neighbor
  /// search per space, amortizing the per-query factor traffic that
  /// dominates single-query latency. This is the path the serving
  /// micro-batcher drains queued requests through.
  ///
  /// When `trace` is non-null, the internal stages (preprocess, KCCA
  /// kernel/projection, the two kNN searches, prediction assembly) are
  /// recorded as spans; a null trace costs one branch per stage. Tracing
  /// never changes the arithmetic.
  std::vector<Prediction> PredictBatch(
      const std::vector<linalg::Vector>& queries,
      obs::TraceRecorder* trace = nullptr) const;

  /// Reusable per-caller scratch for PredictBatchInto. All buffers grow to
  /// the steady-state batch shape on the first calls and are then reused:
  /// after warmup, PredictBatchInto performs no heap allocations (pinned
  /// by tests/alloc_test.cpp). Not thread-safe; give each serving worker
  /// its own instance.
  struct BatchScratch {
    par::Workspace ws;              ///< KCCA kernel/solve staging
    linalg::Matrix xp;              ///< B x p preprocessed queries
    linalg::Matrix projections;     ///< B x d KCCA projections
    std::vector<std::vector<ml::Neighbor>> nbrs;       ///< projection space
    std::vector<std::vector<ml::Neighbor>> feat_nbrs;  ///< feature space
    /// Predictions a smaller batch took off the caller's output, kept with
    /// their neighbor buffers until a larger batch takes them back.
    std::vector<Prediction> spare;
  };

  /// Wall-clock seconds per internal stage, accumulated (+=) across calls
  /// so a bench can sum over repetitions. kernel/solve/project split the
  /// KCCA projection stage (see ml::KccaProjectTimes); knn covers both
  /// neighbor searches.
  struct BatchStageTimes {
    double preprocess_s = 0.0;
    double kernel_s = 0.0;
    double solve_s = 0.0;
    double project_s = 0.0;
    double knn_s = 0.0;
    double assemble_s = 0.0;
  };

  /// PredictBatch into caller-owned storage. (*out)[i] is bit-identical to
  /// Predict(queries[i]); `out` is resized to the batch. Prediction objects
  /// and their neighbor_indices capacity are reused: a smaller batch parks
  /// the surplus in `scratch` and a larger one takes it back. With a warmed
  /// `scratch` this is the zero-allocation serving hot path, whatever the
  /// batch sizes. `times`, when non-null, receives the per-stage breakdown.
  void PredictBatchInto(const std::vector<linalg::Vector>& queries,
                        BatchScratch* scratch, std::vector<Prediction>* out,
                        obs::TraceRecorder* trace = nullptr,
                        BatchStageTimes* times = nullptr) const;

  const PredictorConfig& config() const { return config_; }
  /// The trained KCCA model (kKcca only). Exposed for the projection
  /// diagnostics of Fig. 6 and for the KNN design-sweep benches.
  const ml::KccaModel& kcca() const;
  /// N x 6 matrix of training metrics in paper order.
  const linalg::Matrix& training_metrics() const { return train_y_; }
  /// N x p preprocessed training features (diagnostics / feature probes).
  const linalg::Matrix& preprocessed_training_features() const {
    return train_xp_;
  }
  /// Applies the fitted preprocessing to a raw feature vector.
  linalg::Vector PreprocessFeatures(const linalg::Vector& raw) const {
    return preprocessor_.TransformRow(raw);
  }
  size_t num_training_examples() const { return train_y_.rows(); }

  /// Training self neighbor-distance statistics (the anomaly/confidence
  /// thresholds): mean and 99th percentile in the projection space and in
  /// the preprocessed feature space. Exposed for diagnostics dashboards
  /// and for the seed-equivalent reference predictor in
  /// bench_timing_batch_predict.
  struct DistanceStats {
    double mean = 0.0;
    double p99 = 0.0;
    double feat_mean = 0.0;
    double feat_p99 = 0.0;
  };
  DistanceStats training_distance_stats() const {
    return {train_dist_mean_, train_dist_p99_, train_feat_dist_mean_,
            train_feat_dist_p99_};
  }

  void Save(std::ostream* os) const;
  static Predictor Load(std::istream* is);

 private:
  friend class TwoStepPredictor;

  /// The stages every KCCA prediction starts with, for queries[0..b):
  /// preprocess into scratch->xp, the KCCA projection into
  /// scratch->projections, and the projection-space neighbor search into
  /// scratch->nbrs. PredictBatchInto runs it on the whole batch; Predict
  /// and Classify pass one query. Spans go to `trace` and stage times to
  /// `times` when non-null.
  void ProjectAndSearch(const linalg::Vector* queries, size_t b,
                        BatchScratch* scratch, obs::TraceRecorder* trace,
                        BatchStageTimes* times) const;

  /// The whole prediction of a regression model for one query, into a
  /// (possibly reused) Prediction: every field is reassigned.
  void RegressionPredictInto(const linalg::Vector& query_features,
                             Prediction* out) const;

  /// Majority feather/golf/bowling vote of the neighbors' measured elapsed
  /// times, ties to the lowest category. The only source of
  /// Prediction::predicted_type for a KCCA model, on every path.
  workload::QueryType VoteCategory(
      const std::vector<ml::Neighbor>& projection_neighbors) const;

  /// Everything downstream of the neighbor searches (metric averaging,
  /// confidence, anomaly flags, category vote) for one query, into a
  /// (possibly reused) Prediction object. Every field is reassigned —
  /// stale state from a previous batch cannot leak — and the neighbor
  /// list is cleared, not reallocated.
  void AssembleKccaPredictionInto(
      const std::vector<ml::Neighbor>& projection_neighbors,
      const std::vector<ml::Neighbor>& feature_neighbors,
      Prediction* out) const;

  /// k nearest rows of `points` for every row of `queries`, into rows
  /// [0, queries.rows()) of caller-owned storage: `index` when built (it
  /// must have been built over exactly `points`), else the brute batch
  /// search — bit-identical either way. The indexed path only grows `out`,
  /// so rows a larger batch left keep their buffers and it allocates
  /// nothing after warmup (the brute fallback — non-default configs only —
  /// assigns a fresh batch result). Serves both search spaces and the
  /// training self-stats.
  void IndexedNeighborsInto(const ml::KdTree& index,
                            const linalg::Matrix& points,
                            const linalg::Matrix& queries, size_t k,
                            std::vector<std::vector<ml::Neighbor>>* out) const;

  /// Builds (or clears) proj_index_ / feat_index_ from the trained
  /// projection and feature matrices according to the config. Called from
  /// Train and Load.
  void RebuildIndexes();

  PredictorConfig config_;
  bool trained_ = false;
  ml::Preprocessor preprocessor_;
  ml::KccaModel kcca_;
  /// Exact k-d trees over kcca_.x_projection() and train_xp_ (Euclidean +
  /// kKcca + use_knn_index only; empty otherwise). Derived state: rebuilt
  /// by Train/Load, never serialized, immutable after training.
  ml::KdTree proj_index_;
  ml::KdTree feat_index_;
  ml::MultiOutputRegression regression_;
  linalg::Matrix train_y_;       ///< N x 6 raw metrics
  linalg::Matrix train_xp_;      ///< N x p preprocessed query features
  /// Training neighbor-distance distributions (anomaly thresholding) in
  /// the projection space and in the preprocessed feature space. Both are
  /// needed: a Gaussian kernel saturates for far-away inputs, which can
  /// project them deceptively close to the training mass, while the raw
  /// feature distance still exposes them.
  double train_dist_mean_ = 0.0;
  double train_dist_p99_ = 0.0;
  double train_feat_dist_mean_ = 0.0;
  double train_feat_dist_p99_ = 0.0;
};

}  // namespace qpp::core
