// The outside replay of TwoStepPredictor::Train: the same public ml::
// calls Predictor::Train makes, in the same order and with the same
// arguments, each wrapped in a span. Its digest is checked against a model
// trained the normal way, so its stage times are the stage times of the
// real training.
#include <algorithm>
#include <map>
#include <sstream>

#include "common/serde.h"
#include "ledger.h"
#include "ml/kdtree.h"
#include "ml/preprocess.h"
#include "par/parallel_for.h"

namespace qpp::ledger {

namespace {

/// Folds one model's KCCA state and self-distance thresholds into `h`.
uint64_t AddModel(uint64_t h, const ml::KccaModel& kcca,
                  const core::Predictor::DistanceStats& stats) {
  std::ostringstream os;
  BinaryWriter w(os);
  kcca.Save(&w);
  for (const double v : {stats.mean, stats.p99, stats.feat_mean, stats.feat_p99}) {
    w.WriteDouble(v);
  }
  return Fnv1a(os.str(), Fnv1a("+", h));
}

/// Mean distance to the k nearest other training points, then the mean
/// and 99th percentile over all points — Predictor::Train's anomaly
/// thresholds, from a (k+1)-nearest self search.
void SelfStats(const ml::KdTree& index, const linalg::Matrix& points, size_t k,
               double* mean_out, double* p99_out) {
  const size_t n = points.rows();
  std::vector<std::vector<ml::Neighbor>> nbrs(n);
  par::ParallelFor(
      0, n, /*grain=*/4,
      [&](size_t r0, size_t r1) {
        for (size_t r = r0; r < r1; ++r) {
          index.FindNearestRaw(points.data().data() + r * points.cols(), k + 1,
                               &nbrs[r]);
        }
      },
      "ledger_self_knn");
  linalg::Vector self_dist(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    size_t used = 0;
    for (const ml::Neighbor& nb : nbrs[i]) {
      if (nb.index == i) continue;
      sum += nb.distance;
      if (++used == k) break;
    }
    self_dist[i] = used > 0 ? sum / static_cast<double>(used) : 0.0;
  }
  double mean = 0.0;
  for (const double v : self_dist) mean += v;
  mean /= static_cast<double>(n);
  std::sort(self_dist.begin(), self_dist.end());
  *mean_out = mean;
  *p99_out = self_dist[static_cast<size_t>(0.99 * static_cast<double>(n - 1))];
}

/// Predictor::Train for a KCCA config, call by call, folded into `h`.
uint64_t ReplayPredictorTrain(const std::vector<ml::TrainingExample>& examples,
                              const core::PredictorConfig& cfg,
                              SpanStore* spans, uint64_t op, uint64_t h) {
  int64_t t0 = NowNs();
  const ml::FeatureMatrices mats = ml::StackExamples(examples);
  ml::Preprocessor x_prep(cfg.preprocess_log1p, cfg.preprocess_standardize);
  x_prep.Fit(mats.x);
  const linalg::Matrix xp = x_prep.Transform(mats.x);
  ml::Preprocessor y_prep(true, true);
  y_prep.Fit(mats.y);
  const linalg::Matrix yp = y_prep.Transform(mats.y);
  int64_t t1 = NowNs();
  spans->Add("ml.preprocess", op, SpanStore::kNoParent, t0, t1);

  t0 = NowNs();
  const ml::KccaModel kcca = ml::KccaModel::Train(xp, yp, cfg.kcca);
  t1 = NowNs();
  spans->Add("ml.kcca_train", op, SpanStore::kNoParent, t0, t1);

  t0 = NowNs();
  ml::KdTree proj_index;
  ml::KdTree feat_index;
  proj_index.Build(kcca.x_projection());
  feat_index.Build(xp);
  t1 = NowNs();
  spans->Add("ml.kdtree_build", op, SpanStore::kNoParent, t0, t1);

  t0 = NowNs();
  core::Predictor::DistanceStats stats;
  SelfStats(proj_index, kcca.x_projection(), cfg.k_neighbors, &stats.mean,
            &stats.p99);
  SelfStats(feat_index, xp, cfg.k_neighbors, &stats.feat_mean,
            &stats.feat_p99);
  t1 = NowNs();
  spans->Add("ml.self_knn", op, SpanStore::kNoParent, t0, t1);
  return AddModel(h, kcca, stats);
}

}  // namespace

uint64_t TrainDigest(const core::TwoStepPredictor& model) {
  uint64_t h = AddModel(Fnv1a(""), model.base().kcca(),
                        model.base().training_distance_stats());
  for (const workload::QueryType type : kCategories) {
    const core::Predictor* expert = model.CategoryModel(type);
    h = expert == nullptr
            ? Fnv1a("-", h)
            : AddModel(h, expert->kcca(), expert->training_distance_stats());
  }
  return h;
}

uint64_t ReplayTwoStepTrain(const std::vector<ml::TrainingExample>& examples,
                            SpanStore* spans, uint64_t op) {
  // TwoStepPredictor::Train: the base model on everything, then one model
  // per elapsed-time category with at least 12 members, on the exact KCCA
  // solver when the category is small enough.
  const core::PredictorConfig config;
  uint64_t h = ReplayPredictorTrain(examples, config, spans, op, Fnv1a(""));
  std::map<workload::QueryType, std::vector<ml::TrainingExample>> by_type;
  for (const ml::TrainingExample& ex : examples) {
    by_type[workload::ClassifyElapsed(ex.metrics.elapsed_seconds)].push_back(
        ex);
  }
  for (const workload::QueryType type : kCategories) {
    const std::vector<ml::TrainingExample>& members = by_type[type];
    if (members.size() < std::max<size_t>(12, config.k_neighbors + 1)) {
      h = Fnv1a("-", h);
      continue;
    }
    core::PredictorConfig cfg = config;
    if (members.size() <= cfg.kcca.exact_threshold) {
      cfg.kcca.solver = ml::KccaSolver::kExact;
    }
    h = ReplayPredictorTrain(members, cfg, spans, op, h);
  }
  return h;
}

}  // namespace qpp::ledger
