#include "core/predictor.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <ostream>

#include "common/check.h"
#include "common/serde.h"
#include "linalg/serde.h"
#include "par/parallel_for.h"

namespace qpp::core {

namespace {
/// Queries per parallel chunk when batching k-d tree lookups (matches the
/// brute batch path's kQueryGrain; fixed — see par/thread_pool.h).
constexpr size_t kIndexQueryGrain = 4;

using Clock = std::chrono::steady_clock;

double Secs(Clock::time_point a, Clock::time_point z) {
  return std::chrono::duration<double>(z - a).count();
}

/// The clock, read only for a caller that asked for stage times.
Clock::time_point StampIf(const Predictor::BatchStageTimes* times) {
  return times != nullptr ? Clock::now() : Clock::time_point();
}

/// The scratch Predict and Classify run their B = 1 batch through: one per
/// thread (see the thread-safety contract in predictor.h).
Predictor::BatchScratch& ThreadScratch() {
  thread_local Predictor::BatchScratch scratch;
  return scratch;
}
}  // namespace

Predictor::Predictor(PredictorConfig config) : config_(std::move(config)) {
  QPP_CHECK(config_.k_neighbors >= 1);
}

void Predictor::Train(const std::vector<ml::TrainingExample>& examples) {
  QPP_CHECK_MSG(examples.size() >= config_.k_neighbors + 1,
                "need more training examples than neighbors");
  const ml::FeatureMatrices mats = ml::StackExamples(examples);
  train_y_ = mats.y;

  preprocessor_ = ml::Preprocessor(config_.preprocess_log1p,
                                   config_.preprocess_standardize);
  preprocessor_.Fit(mats.x);
  const linalg::Matrix xp = preprocessor_.Transform(mats.x);

  if (config_.model == ModelKind::kRegression) {
    regression_.Fit(xp, mats.y, /*ridge=*/1e-8);
    proj_index_.Clear();
    feat_index_.Clear();
    trained_ = true;
    return;
  }

  // Performance features enter the kernel preprocessed the same way the
  // query features do (log1p compresses seconds vs. byte counts).
  ml::Preprocessor y_prep(true, true);
  y_prep.Fit(mats.y);
  const linalg::Matrix yp = y_prep.Transform(mats.y);

  kcca_ = ml::KccaModel::Train(xp, yp, config_.kcca);

  train_xp_ = xp;
  RebuildIndexes();

  // Self neighbor-distance distributions over the training projection and
  // the preprocessed feature space, for anomaly thresholds: for each
  // training point, the mean distance to its k nearest other points. The
  // searches run batched (tree or brute); per-row results are bit-identical
  // to a per-row FindNearest loop (the contract in ml/knn.h and
  // ml/kdtree.h), so the stored thresholds don't depend on the index or
  // the thread count.
  const auto self_stats = [&](const std::vector<std::vector<ml::Neighbor>>&
                                  all_nbrs,
                              double* mean_out, double* p99_out) {
    const size_t n = train_xp_.rows();
    linalg::Vector self_dist(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      double sum = 0.0;
      size_t used = 0;
      for (const ml::Neighbor& nb : all_nbrs[i]) {
        if (nb.index == i) continue;
        sum += nb.distance;
        if (++used == config_.k_neighbors) break;
      }
      self_dist[i] = used > 0 ? sum / static_cast<double>(used) : 0.0;
    }
    double mean = 0.0;
    for (double v : self_dist) mean += v;
    mean /= static_cast<double>(n);
    std::sort(self_dist.begin(), self_dist.end());
    *mean_out = mean;
    *p99_out = self_dist[static_cast<size_t>(0.99 * (n - 1))];
  };
  std::vector<std::vector<ml::Neighbor>> nbrs;
  IndexedNeighborsInto(proj_index_, kcca_.x_projection(), kcca_.x_projection(),
                       config_.k_neighbors + 1, &nbrs);
  self_stats(nbrs, &train_dist_mean_, &train_dist_p99_);
  IndexedNeighborsInto(feat_index_, train_xp_, train_xp_,
                       config_.k_neighbors + 1, &nbrs);
  self_stats(nbrs, &train_feat_dist_mean_, &train_feat_dist_p99_);
  trained_ = true;
}

void Predictor::RebuildIndexes() {
  proj_index_.Clear();
  feat_index_.Clear();
  if (config_.model == ModelKind::kKcca &&
      config_.distance == ml::DistanceKind::kEuclidean &&
      config_.use_knn_index) {
    proj_index_.Build(kcca_.x_projection());
    feat_index_.Build(train_xp_);
  }
}

void Predictor::IndexedNeighborsInto(
    const ml::KdTree& index, const linalg::Matrix& points,
    const linalg::Matrix& queries, size_t k,
    std::vector<std::vector<ml::Neighbor>>* out) const {
  if (index.empty()) {
    *out = ml::FindNearestBatch(points, queries, k, config_.distance);
    return;
  }
  QPP_CHECK(queries.cols() == index.dims());
  // Grow only: rows past this batch keep their buffers for a larger one,
  // and FindNearestRaw overwrites each inner vector in place.
  if (out->size() < queries.rows()) out->resize(queries.rows());
  // One-pointer context so the std::function built by ParallelFor stays
  // inside the small-buffer optimization (a multi-reference capture would
  // heap-allocate on every call).
  struct Ctx {
    const ml::KdTree* index;
    const double* qbase;
    size_t dims;
    size_t k;
    std::vector<std::vector<ml::Neighbor>>* out;
  } ctx{&index, queries.data().data(), queries.cols(), k, out};
  par::ParallelFor(
      0, queries.rows(), kIndexQueryGrain,
      [&ctx](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          ctx.index->FindNearestRaw(ctx.qbase + r * ctx.dims, ctx.k,
                                    &(*ctx.out)[r]);
        }
      },
      "kdtree_batch");
}

Prediction Predictor::Predict(const linalg::Vector& query_features) const {
  QPP_CHECK_MSG(trained_, "Predict before Train");
  Prediction out;
  if (config_.model == ModelKind::kRegression) {
    RegressionPredictInto(query_features, &out);
    return out;
  }
  BatchScratch& scratch = ThreadScratch();
  ProjectAndSearch(&query_features, 1, &scratch, nullptr, nullptr);
  IndexedNeighborsInto(feat_index_, train_xp_, scratch.xp, config_.k_neighbors,
                       &scratch.feat_nbrs);
  out.neighbor_indices.reserve(config_.k_neighbors);
  AssembleKccaPredictionInto(scratch.nbrs[0], scratch.feat_nbrs[0], &out);
  return out;
}

workload::QueryType Predictor::Classify(
    const linalg::Vector& query_features) const {
  QPP_CHECK_MSG(trained_, "Classify before Train");
  if (config_.model == ModelKind::kRegression) {
    // No neighbors: the category is that of the predicted elapsed time.
    return Predict(query_features).predicted_type;
  }
  BatchScratch& scratch = ThreadScratch();
  ProjectAndSearch(&query_features, 1, &scratch, nullptr, nullptr);
  return VoteCategory(scratch.nbrs[0]);
}

void Predictor::RegressionPredictInto(const linalg::Vector& query_features,
                                      Prediction* out) const {
  // No neighbors, distances or confidence: a fresh Prediction carrying the
  // linear model's metrics and their category.
  *out = Prediction();
  out->metrics = engine::QueryMetrics::FromVector(
      regression_.Predict(preprocessor_.TransformRow(query_features)));
  out->predicted_type = workload::ClassifyElapsed(out->metrics.elapsed_seconds);
}

void Predictor::ProjectAndSearch(const linalg::Vector* queries, size_t b,
                                 BatchScratch* scratch,
                                 obs::TraceRecorder* trace,
                                 BatchStageTimes* times) const {
  const auto t0 = StampIf(times);
  {
    obs::Span span(trace, "preprocess", "predict");
    const size_t dims = preprocessor_.dims();
    scratch->xp.Reshape(b, dims);
    double* base = scratch->xp.data().data();
    for (size_t r = 0; r < b; ++r) {
      preprocessor_.TransformRowTo(queries[r], base + r * dims);
    }
  }
  const auto t1 = StampIf(times);
  ml::KccaProjectTimes ptimes;
  {
    obs::Span span(trace, "kcca_project", "predict");
    kcca_.ProjectXBatchInto(scratch->xp, &scratch->ws, &scratch->projections,
                            times != nullptr ? &ptimes : nullptr);
  }
  const auto t2 = StampIf(times);
  {
    obs::Span span(trace, "knn_projection_space", "predict");
    IndexedNeighborsInto(proj_index_, kcca_.x_projection(),
                         scratch->projections, config_.k_neighbors,
                         &scratch->nbrs);
  }
  if (times != nullptr) {
    times->preprocess_s += Secs(t0, t1);
    times->kernel_s += ptimes.kernel_s;
    times->solve_s += ptimes.solve_s;
    times->project_s += ptimes.project_s;
    times->knn_s += Secs(t2, Clock::now());
  }
}

std::vector<Prediction> Predictor::PredictBatch(
    const std::vector<linalg::Vector>& queries,
    obs::TraceRecorder* trace) const {
  // Convenience wrapper: same pipeline with call-local scratch. Callers on
  // the steady-state serving path hold a warmed BatchScratch and use
  // PredictBatchInto directly.
  BatchScratch scratch;
  std::vector<Prediction> out;
  PredictBatchInto(queries, &scratch, &out, trace, nullptr);
  return out;
}

void Predictor::PredictBatchInto(const std::vector<linalg::Vector>& queries,
                                 BatchScratch* scratch,
                                 std::vector<Prediction>* out,
                                 obs::TraceRecorder* trace,
                                 BatchStageTimes* times) const {
  QPP_CHECK_MSG(trained_, "PredictBatch before Train");
  const size_t b = queries.size();
  // Reuse the Prediction objects (and their neighbor_indices buffers) of
  // earlier batches: a shrink parks the surplus in the scratch rather
  // than freeing it, and a growth takes it back before constructing any.
  while (out->size() > b) {
    scratch->spare.push_back(std::move(out->back()));
    out->pop_back();
  }
  while (out->size() < b && !scratch->spare.empty()) {
    out->push_back(std::move(scratch->spare.back()));
    scratch->spare.pop_back();
  }
  out->resize(b);
  if (b == 0) return;

  if (config_.model == ModelKind::kRegression) {
    // No shared work to amortize in the linear model.
    obs::Span span(trace, "regression_predict", "predict");
    for (size_t r = 0; r < b; ++r) {
      RegressionPredictInto(queries[r], &(*out)[r]);
    }
    return;
  }

  ProjectAndSearch(queries.data(), b, scratch, trace, times);
  const auto t3 = StampIf(times);
  {
    // Feature-space neighbors, searched independently of the projection
    // ones (see the header: they catch far-away inputs the saturating
    // kernel would hide, while the projection legitimately ignores
    // performance-irrelevant dimensions).
    obs::Span span(trace, "knn_feature_space", "predict");
    IndexedNeighborsInto(feat_index_, train_xp_, scratch->xp,
                         config_.k_neighbors, &scratch->feat_nbrs);
  }
  const auto t4 = StampIf(times);
  {
    obs::Span span(trace, "assemble", "predict");
    for (size_t r = 0; r < b; ++r) {
      AssembleKccaPredictionInto(scratch->nbrs[r], scratch->feat_nbrs[r],
                                 &(*out)[r]);
    }
  }
  if (times != nullptr) {
    times->knn_s += Secs(t3, t4);
    times->assemble_s += Secs(t4, Clock::now());
  }
}

void Predictor::AssembleKccaPredictionInto(
    const std::vector<ml::Neighbor>& projection_neighbors,
    const std::vector<ml::Neighbor>& feature_neighbors,
    Prediction* outp) const {
  Prediction& out = *outp;
  // `out` may be a reused object from a previous batch: every field is
  // reassigned below; the neighbor list is cleared (keeping capacity).
  out.neighbor_indices.clear();
  double metrics[engine::QueryMetrics::kNumMetrics];
  ml::WeightedAverageTo(projection_neighbors, train_y_, config_.weighting,
                        metrics);
  out.metrics = engine::QueryMetrics::FromArray(metrics);

  double sum = 0.0;
  for (const ml::Neighbor& nb : projection_neighbors) {
    sum += nb.distance;
    out.neighbor_indices.push_back(nb.index);
  }
  out.mean_neighbor_distance =
      sum / static_cast<double>(projection_neighbors.size());
  double feat_sum = 0.0;
  for (const ml::Neighbor& nb : feature_neighbors) feat_sum += nb.distance;
  const double feat_dist =
      feat_sum / static_cast<double>(feature_neighbors.size());
  // Confidence maps the worse of the two normalized distances through
  // 1/(1+d/10): a typical query (distance ~= the training mean) scores
  // ~0.9, ten times the training mean scores 0.5, and far-out queries
  // decay toward 0. The /10 softening keeps in-distribution scores high so
  // thresholding at ~0.5 separates trust from review.
  const double scale = train_dist_mean_ + 1e-12;
  const double feat_scale = train_feat_dist_mean_ + 1e-12;
  out.confidence =
      1.0 / (1.0 + std::max(out.mean_neighbor_distance / scale,
                            feat_dist / feat_scale) /
                       10.0);
  out.anomalous =
      out.mean_neighbor_distance > config_.anomaly_factor * train_dist_p99_ ||
      feat_dist > config_.anomaly_factor * train_feat_dist_p99_;
  out.predicted_type = VoteCategory(projection_neighbors);
}

workload::QueryType Predictor::VoteCategory(
    const std::vector<ml::Neighbor>& projection_neighbors) const {
  // A fixed tally array: no allocation on the classify path.
  size_t votes[workload::kNumQueryTypes] = {};
  for (const ml::Neighbor& nb : projection_neighbors) {
    const double elapsed = train_y_(nb.index, 0);
    votes[workload::QueryTypeIndex(workload::ClassifyElapsed(elapsed))] += 1;
  }
  workload::QueryType type = workload::QueryType::kFeather;
  size_t best = 0;
  for (size_t t = 0; t < workload::kNumQueryTypes; ++t) {
    if (votes[t] > best) {
      best = votes[t];
      type = workload::kQueryTypes[t];
    }
  }
  return type;
}

const ml::KccaModel& Predictor::kcca() const {
  QPP_CHECK(trained_ && config_.model == ModelKind::kKcca);
  return kcca_;
}

namespace {
constexpr uint32_t kMagic = 0x4D505051;  // "QPPM"
constexpr uint32_t kVersion = 1;

/// Reads an enum or 0/1 flag field and refuses any value above `max`: an
/// unchecked enum cast would reach code that has no case for it.
uint32_t ReadField(BinaryReader* r, uint32_t max, const char* what) {
  const uint32_t v = r->ReadU32();
  QPP_CHECK_MSG(v <= max, "model file: bad " << what << " " << v);
  return v;
}
}  // namespace

void Predictor::Save(std::ostream* os) const {
  QPP_CHECK(trained_);
  BinaryWriter w(*os);
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);
  w.WriteU32(config_.model == ModelKind::kKcca ? 0u : 1u);
  w.WriteU64(config_.k_neighbors);
  w.WriteU32(static_cast<uint32_t>(config_.distance));
  w.WriteU32(static_cast<uint32_t>(config_.weighting));
  w.WriteU32(config_.preprocess_log1p ? 1 : 0);
  w.WriteU32(config_.preprocess_standardize ? 1 : 0);
  w.WriteDouble(config_.anomaly_factor);
  preprocessor_.Save(&w);
  linalg::WriteMatrix(&w, train_y_);
  linalg::WriteMatrix(&w, train_xp_);
  w.WriteDouble(train_dist_mean_);
  w.WriteDouble(train_dist_p99_);
  w.WriteDouble(train_feat_dist_mean_);
  w.WriteDouble(train_feat_dist_p99_);
  if (config_.model == ModelKind::kKcca) {
    kcca_.Save(&w);
  } else {
    // Regression: per-metric models.
    w.WriteU64(engine::QueryMetrics::kNumMetrics);
    for (const ml::LinearRegression& m : regression_.models()) {
      m.Save(&w);
    }
  }
}

Predictor Predictor::Load(std::istream* is) {
  BinaryReader r(*is);
  QPP_CHECK_MSG(r.ReadU32() == kMagic, "not a qpp model file");
  QPP_CHECK_MSG(r.ReadU32() == kVersion, "unsupported model version");
  PredictorConfig cfg;
  cfg.model = ReadField(&r, 1, "model kind") == 0 ? ModelKind::kKcca
                                                  : ModelKind::kRegression;
  cfg.k_neighbors = static_cast<size_t>(r.ReadU64());
  cfg.distance = static_cast<ml::DistanceKind>(ReadField(
      &r, static_cast<uint32_t>(ml::DistanceKind::kCosine), "distance"));
  cfg.weighting = static_cast<ml::NeighborWeighting>(ReadField(
      &r, static_cast<uint32_t>(ml::NeighborWeighting::kInverseDistance),
      "weighting"));
  cfg.preprocess_log1p = ReadField(&r, 1, "log1p flag") != 0;
  cfg.preprocess_standardize = ReadField(&r, 1, "standardize flag") != 0;
  cfg.anomaly_factor = r.ReadDouble();
  Predictor p(cfg);
  p.preprocessor_ = ml::Preprocessor::Load(&r);
  p.train_y_ = linalg::ReadMatrix(&r);
  p.train_xp_ = linalg::ReadMatrix(&r);
  // Prediction indexes train_y_ by neighbor index and reads every metric
  // column, so a section whose shape disagrees would read or write out of
  // bounds later instead of failing here.
  const size_t n = p.train_y_.rows();
  QPP_CHECK_MSG(p.train_y_.cols() == engine::QueryMetrics::kNumMetrics,
                "model file: training metrics are not n x 6");
  // Train needs more examples than neighbors; a file with k >= n would
  // average all n rows, or reserve k entries, on every prediction.
  QPP_CHECK_MSG(cfg.k_neighbors < n, "model file: neighbor count "
                                         << cfg.k_neighbors
                                         << " is not below the " << n
                                         << " training rows");
  p.train_dist_mean_ = r.ReadDouble();
  p.train_dist_p99_ = r.ReadDouble();
  p.train_feat_dist_mean_ = r.ReadDouble();
  p.train_feat_dist_p99_ = r.ReadDouble();
  if (cfg.model == ModelKind::kKcca) {
    QPP_CHECK_MSG(p.train_xp_.rows() == n &&
                      p.train_xp_.cols() == p.preprocessor_.dims(),
                  "model file: training features are not n x p");
    p.kcca_ = ml::KccaModel::Load(&r);
    QPP_CHECK_MSG(p.kcca_.x_projection().rows() == n,
                  "model file: KCCA projection does not have n rows");
    QPP_CHECK_MSG(p.kcca_.input_dims() == p.preprocessor_.dims(),
                  "model file: KCCA input width is not p");
    // Derived, not serialized: the indexes are rebuilt from the loaded
    // projection and features so serve/fabric reloads stay
    // byte-identical on the wire while still getting the fast lookup path.
    p.RebuildIndexes();
  } else {
    // Regression reload rebuilds the multi-output wrapper.
    const size_t m = static_cast<size_t>(r.ReadU64());
    QPP_CHECK(m == engine::QueryMetrics::kNumMetrics);
    // MultiOutputRegression has no direct setter; reconstruct via Fit-free
    // assignment through a friend-less copy: reload each model and push.
    std::vector<ml::LinearRegression> models;
    models.reserve(m);
    for (size_t i = 0; i < m; ++i) {
      models.push_back(ml::LinearRegression::Load(&r));
    }
    p.regression_ = ml::MultiOutputRegression();
    p.regression_.set_models(std::move(models));
  }
  p.trained_ = true;
  return p;
}

}  // namespace qpp::core
