// Microbenchmark for the serving-path prediction latency.
//
// Three jobs:
//  * The original one: Predictor::PredictBatch(B queries) vs B sequential
//    Predict() calls (the micro-batching win qpp::serve relies on), plus
//    qpp::par thread scaling of the batch path with a bit-identity check.
//  * The SIMD/index A/B report: single-prediction latency of the seed
//    algorithm (scalar kernel projection, full O(n log n) distance
//    materialization — both reconstructed here verbatim from the pre-SIMD
//    code, so the baseline runs no library projection or search code, and
//    asserted byte-identical to the shipping path) against the brute scan
//    (every distance, then the k smallest: the library's DistancesToAll +
//    KeepNearestK, reached with use_knn_index = false) on scalar and on
//    SIMD kernels, and the vectorized indexed path (ml::KdTree). The
//    acceptance gate is >= 3x vs the seed
//    algorithm: hard on multi-core hosts, soft (warn only) on 1-core CI
//    boxes where a background-load spike can dwarf the margin.
//  * The batch-blocking report: PredictBatchInto (query-blocked kernel
//    tiles + blocked triangular solve + reused scratch) vs B sequential
//    Predict() calls (the same pipeline at B = 1) across B in
//    {1,4,16,64,256}, with a per-stage breakdown (preprocess / kernel /
//    solve / project / knn / assemble). Gates: byte-identity is hard
//    everywhere; the >= 2x blocked-vs-per-query speedup at B=64 is hard on
//    multi-core hosts and soft on 1-core boxes (same convention as the seed
//    gate). The zero-allocation check on the warmed paths lives in
//    tests/alloc_test.cpp.
//
// `--quick` runs only the reports (CI smoke); `--json-out FILE` writes
// them as JSON for artifact upload.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/serde.h"
#include "core/predictor.h"
#include "linalg/serde.h"
#include "par/simd.h"
#include "par/thread_pool.h"
#include "workload/pools.h"

using namespace qpp;

namespace {

std::vector<ml::TrainingExample> SyntheticExamples(size_t n) {
  Rng rng(1234);
  std::vector<ml::TrainingExample> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    ml::TrainingExample ex;
    ex.query_features.resize(ml::kPlanFeatureDims);
    for (double& v : ex.query_features) {
      v = rng.Bernoulli(0.3) ? rng.LogNormal(6.0, 3.0) : 0.0;
    }
    ex.metrics.elapsed_seconds = rng.LogNormal(1.0, 2.0);
    ex.metrics.records_accessed = rng.LogNormal(12.0, 2.0);
    ex.metrics.records_used = rng.LogNormal(10.0, 2.0);
    ex.metrics.message_count = rng.LogNormal(6.0, 2.0);
    ex.metrics.message_bytes = rng.LogNormal(14.0, 2.0);
    out.push_back(std::move(ex));
  }
  return out;
}

const core::Predictor& TrainedPredictor(size_t n) {
  static std::map<size_t, core::Predictor> cache;
  auto it = cache.find(n);
  if (it == cache.end()) {
    core::Predictor pred;
    pred.Train(SyntheticExamples(n));
    it = cache.emplace(n, std::move(pred)).first;
  }
  return it->second;
}

std::vector<linalg::Vector> ProbeBatch(size_t batch, size_t train_n) {
  const auto examples = SyntheticExamples(train_n);
  std::vector<linalg::Vector> probes;
  probes.reserve(batch);
  for (size_t i = 0; i < batch; ++i) {
    probes.push_back(examples[(i * 13 + 7) % examples.size()].query_features);
  }
  return probes;
}

constexpr size_t kTrainN = 1024;

// --- Seed-algorithm reference predictor ------------------------------------
//
// The pre-SIMD serving path, reconstructed from the seed revision of
// ml/kcca.cpp, ml/knn.cpp and core/predictor.cpp: the projection runs the
// scalar ICD chain over the model's own state, every training distance is
// materialized (sqrt included), and the k nearest survive an
// nth_element + sort pass. Byte-identical to Predictor::Predict by the
// determinism contract — RunSingleLatency asserts it — so timing it
// against the shipping path measures exactly the algorithmic + SIMD win
// of the current code over the seed, in-process and under the same load.

/// The ICD projection state the seed's ProjectX read. KccaModel keeps it
/// private, so it is read back from the model's Save stream, in
/// KccaModel::Save's field order.
struct SeedIcdState {
  double tau = 0.0;
  linalg::Matrix pivots;  ///< m x p pivot feature rows
  linalg::Matrix lpp;     ///< m x m lower factor of K[P,P]
  linalg::Vector means;   ///< m G_x column means
  linalg::Matrix wx;      ///< m x d CCA directions
};

SeedIcdState ReadSeedIcdState(const ml::KccaModel& kcca) {
  std::stringstream bytes;
  BinaryWriter w(bytes);
  kcca.Save(&w);
  BinaryReader r(bytes);
  QPP_CHECK(r.ReadU32() == 1u);  // the ICD solver
  r.ReadU64();                   // num_dims
  r.ReadDouble();                // kappa
  r.ReadDouble();                // tau_factor_x
  r.ReadDouble();                // tau_factor_y
  SeedIcdState s;
  s.tau = r.ReadDouble();
  linalg::ReadMatrix(&r);  // x projection
  linalg::ReadMatrix(&r);  // y projection
  r.ReadDoubles();         // correlations
  linalg::ReadMatrix(&r);  // exact solver: training rows
  linalg::ReadMatrix(&r);  // exact solver: dual coefficients
  r.ReadDoubles();         // exact solver: kernel row means
  r.ReadDouble();          // exact solver: kernel grand mean
  s.pivots = linalg::ReadMatrix(&r);
  s.lpp = linalg::ReadMatrix(&r);
  s.means = r.ReadDoubles();
  s.wx = linalg::ReadMatrix(&r);
  return s;
}

/// The seed's ProjectX: the row-major kernel vector against the pivots,
/// the row-oriented forward substitution, then one CCA direction (column
/// of W_x) at a time.
linalg::Vector SeedProjectX(const SeedIcdState& s, const linalg::Vector& x) {
  const size_t m = s.lpp.rows();
  const size_t dims = s.pivots.cols();
  linalg::Vector kp(m);
  for (size_t i = 0; i < m; ++i) {
    const double* p = s.pivots.data().data() + i * dims;
    double sq = 0.0;
    for (size_t j = 0; j < dims; ++j) {
      const double d = p[j] - x[j];
      sq += d * d;
    }
    kp[i] = std::exp(-sq / s.tau);
  }
  linalg::Vector g(m);
  for (size_t i = 0; i < m; ++i) {
    double v = kp[i];
    for (size_t j = 0; j < i; ++j) v -= s.lpp(i, j) * g[j];
    g[i] = v / s.lpp(i, i);
  }
  const size_t d = s.wx.cols();
  linalg::Vector out(d, 0.0);
  for (size_t c = 0; c < d; ++c) {
    double acc = 0.0;
    for (size_t j = 0; j < m; ++j) acc += (g[j] - s.means[j]) * s.wx(j, c);
    out[c] = acc;
  }
  return out;
}

std::vector<ml::Neighbor> SeedFindNearest(const linalg::Matrix& points,
                                          const linalg::Vector& query,
                                          size_t k) {
  const size_t n = points.rows();
  const size_t dims = points.cols();
  const double* base = points.data().data();
  std::vector<ml::Neighbor> all(n);
  for (size_t i = 0; i < n; ++i) {
    const double* row = base + i * dims;
    double s = 0.0;
    for (size_t j = 0; j < dims; ++j) {
      const double d = row[j] - query[j];
      s += d * d;
    }
    all[i].index = i;
    all[i].distance = std::sqrt(s);
  }
  const size_t kk = std::min(k, n);
  const auto cmp = [](const ml::Neighbor& a, const ml::Neighbor& b) {
    return a.distance < b.distance ||
           (a.distance == b.distance && a.index < b.index);
  };
  if (kk > 0 && kk < n) {
    std::nth_element(all.begin(), all.begin() + static_cast<ptrdiff_t>(kk - 1),
                     all.end(), cmp);
  }
  std::sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(kk), cmp);
  all.resize(kk);
  return all;
}

core::Prediction SeedPredict(const core::Predictor& p,
                             const SeedIcdState& seed,
                             const linalg::Vector& raw) {
  const core::PredictorConfig& cfg = p.config();
  const auto stats = p.training_distance_stats();
  const linalg::Vector xp = p.PreprocessFeatures(raw);
  const linalg::Vector q = SeedProjectX(seed, xp);
  const std::vector<ml::Neighbor> nbrs =
      SeedFindNearest(p.kcca().x_projection(), q, cfg.k_neighbors);
  const std::vector<ml::Neighbor> feat_nbrs = SeedFindNearest(
      p.preprocessed_training_features(), xp, cfg.k_neighbors);

  // Seed prediction assembly (averaging, confidence, anomaly, vote).
  core::Prediction out;
  out.metrics = engine::QueryMetrics::FromVector(
      ml::WeightedAverage(nbrs, p.training_metrics(), cfg.weighting));
  double sum = 0.0;
  for (const ml::Neighbor& nb : nbrs) {
    sum += nb.distance;
    out.neighbor_indices.push_back(nb.index);
  }
  out.mean_neighbor_distance = sum / static_cast<double>(nbrs.size());
  double feat_sum = 0.0;
  for (const ml::Neighbor& nb : feat_nbrs) feat_sum += nb.distance;
  const double feat_dist = feat_sum / static_cast<double>(feat_nbrs.size());
  const double scale = stats.mean + 1e-12;
  const double feat_scale = stats.feat_mean + 1e-12;
  out.confidence =
      1.0 / (1.0 + std::max(out.mean_neighbor_distance / scale,
                            feat_dist / feat_scale) /
                       10.0);
  out.anomalous =
      out.mean_neighbor_distance > cfg.anomaly_factor * stats.p99 ||
      feat_dist > cfg.anomaly_factor * stats.feat_p99;
  std::map<workload::QueryType, size_t> votes;
  for (const ml::Neighbor& nb : nbrs) {
    votes[workload::ClassifyElapsed(p.training_metrics()(nb.index, 0))] += 1;
  }
  size_t best = 0;
  for (const auto& [type, count] : votes) {
    if (count > best) {
      best = count;
      out.predicted_type = type;
    }
  }
  return out;
}

bool SamePrediction(const core::Prediction& a, const core::Prediction& b) {
  return a.metrics.ToVector() == b.metrics.ToVector() &&
         a.mean_neighbor_distance == b.mean_neighbor_distance &&
         a.confidence == b.confidence && a.anomalous == b.anomalous &&
         a.neighbor_indices == b.neighbor_indices &&
         a.predicted_type == b.predicted_type;
}

// --- Single-prediction latency A/B -----------------------------------------

struct SingleLatencyReport {
  size_t n = 0;
  size_t threads_available = 0;
  std::string isa;
  double seed_us = 0.0;          ///< seed algorithm, scalar kernels
  double scalar_brute_us = 0.0;  ///< brute scan, scalar kernels, no index
  double simd_brute_us = 0.0;    ///< brute scan, SIMD kernels, no index
  double simd_index_us = 0.0;    ///< KdTree + SIMD (the shipping default)
  double speedup_vs_seed = 0.0;
  double speedup_vs_scalar_brute = 0.0;
  bool byte_identical = false;
};

template <class F>
double TimePerCallUs(F f, int reps) {
  f();  // warm caches / allocators outside the timed region
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < reps; ++i) f();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
             .count() /
         reps;
}

SingleLatencyReport RunSingleLatency(size_t n, int reps) {
  SingleLatencyReport rep;
  rep.n = n;
  rep.threads_available = std::thread::hardware_concurrency();
  rep.isa = simd::CompiledIsa();
  const auto examples = SyntheticExamples(n);
  core::PredictorConfig brute_cfg;
  brute_cfg.use_knn_index = false;
  core::Predictor brute(brute_cfg);
  brute.Train(examples);
  core::Predictor indexed;
  indexed.Train(examples);
  const SeedIcdState seed_state = ReadSeedIcdState(brute.kcca());

  const auto probes = ProbeBatch(16, n);
  // Every mode must produce byte-identical predictions before any of the
  // timings mean anything.
  rep.byte_identical = true;
  for (const auto& probe : probes) {
    const core::Prediction want = indexed.Predict(probe);
    const bool prev = simd::SetForceScalar(true);
    const core::Prediction seed = SeedPredict(brute, seed_state, probe);
    const core::Prediction scalar_brute = brute.Predict(probe);
    simd::SetForceScalar(prev);
    const core::Prediction simd_brute = brute.Predict(probe);
    rep.byte_identical = rep.byte_identical && SamePrediction(want, seed) &&
                         SamePrediction(want, scalar_brute) &&
                         SamePrediction(want, simd_brute);
  }

  size_t next = 0;
  const auto cycle = [&]() -> const linalg::Vector& {
    return probes[next++ % probes.size()];
  };
  {
    const bool prev = simd::SetForceScalar(true);
    rep.seed_us = TimePerCallUs(
        [&] { SeedPredict(brute, seed_state, cycle()); }, reps);
    rep.scalar_brute_us =
        TimePerCallUs([&] { brute.Predict(cycle()); }, reps);
    simd::SetForceScalar(prev);
  }
  rep.simd_brute_us = TimePerCallUs([&] { brute.Predict(cycle()); }, reps);
  rep.simd_index_us = TimePerCallUs([&] { indexed.Predict(cycle()); }, reps);
  rep.speedup_vs_seed =
      rep.simd_index_us > 0.0 ? rep.seed_us / rep.simd_index_us : 0.0;
  rep.speedup_vs_scalar_brute =
      rep.simd_index_us > 0.0 ? rep.scalar_brute_us / rep.simd_index_us : 0.0;
  return rep;
}

// --- Batch thread scaling (the original report) -----------------------------

struct BatchScalingReport {
  double ms_1t = 0.0;
  double ms_8t = 0.0;
  double speedup_8v1 = 0.0;
  bool byte_identical = false;
};

BatchScalingReport RunBatchThreadScaling() {
  const core::Predictor& pred = TrainedPredictor(kTrainN);
  const auto probes = ProbeBatch(256, kTrainN);
  const size_t counts[2] = {1, 8};
  double ms[2] = {0.0, 0.0};
  std::vector<core::Prediction> results[2];
  for (size_t t = 0; t < 2; ++t) {
    par::SetGlobalThreads(counts[t]);
    pred.PredictBatch(probes);  // warm the caches once
    const auto t0 = std::chrono::steady_clock::now();
    for (int rep = 0; rep < 8; ++rep) results[t] = pred.PredictBatch(probes);
    ms[t] = std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            8.0;
  }
  par::SetGlobalThreads(par::DefaultThreads());
  BatchScalingReport rep;
  rep.ms_1t = ms[0];
  rep.ms_8t = ms[1];
  rep.speedup_8v1 = ms[1] > 0.0 ? ms[0] / ms[1] : 0.0;
  rep.byte_identical = results[0].size() == results[1].size();
  for (size_t i = 0; rep.byte_identical && i < results[0].size(); ++i) {
    rep.byte_identical = SamePrediction(results[0][i], results[1][i]);
  }
  return rep;
}

// --- Batch-blocking sweep (PredictBatchInto vs per-query) -------------------

struct BatchSweepPoint {
  size_t b = 0;
  double per_query_us = 0.0;  ///< B sequential Predict() calls, per query
  double blocked_us = 0.0;    ///< PredictBatchInto with warmed scratch
  double speedup = 0.0;
};

struct BatchSweepReport {
  std::vector<BatchSweepPoint> points;
  /// Per-query stage breakdown at B=256 (microseconds).
  double stage_preprocess_us = 0.0;
  double stage_kernel_us = 0.0;
  double stage_solve_us = 0.0;
  double stage_project_us = 0.0;
  double stage_knn_us = 0.0;
  double stage_assemble_us = 0.0;
  bool byte_identical = true;
  double speedup_b64 = 0.0;
};

BatchSweepReport RunBatchSweep(int reps) {
  const core::Predictor& pred = TrainedPredictor(kTrainN);
  BatchSweepReport rep;
  core::Predictor::BatchScratch scratch;
  std::vector<core::Prediction> blocked;

  const size_t sizes[] = {1, 4, 16, 64, 256};
  for (const size_t b : sizes) {
    const auto probes = ProbeBatch(b, kTrainN);
    // Byte-identity before timing: every blocked result must equal the
    // per-query path bit for bit.
    pred.PredictBatchInto(probes, &scratch, &blocked);
    for (size_t i = 0; i < probes.size(); ++i) {
      rep.byte_identical =
          rep.byte_identical && SamePrediction(blocked[i], pred.Predict(probes[i]));
    }
    const int calls = std::max(4, reps / static_cast<int>(b));
    BatchSweepPoint pt;
    pt.b = b;
    pt.per_query_us = TimePerCallUs(
                          [&] {
                            for (const auto& probe : probes) {
                              benchmark::DoNotOptimize(
                                  pred.Predict(probe).confidence);
                            }
                          },
                          calls) /
                      static_cast<double>(b);
    pt.blocked_us = TimePerCallUs(
                        [&] { pred.PredictBatchInto(probes, &scratch, &blocked); },
                        calls) /
                    static_cast<double>(b);
    pt.speedup = pt.blocked_us > 0.0 ? pt.per_query_us / pt.blocked_us : 0.0;
    if (b == 64) rep.speedup_b64 = pt.speedup;
    rep.points.push_back(pt);
  }

  // Per-stage breakdown at B=256: where a blocked batch actually spends
  // its time (the JSON artifact tracks this across commits).
  {
    const auto probes = ProbeBatch(256, kTrainN);
    pred.PredictBatchInto(probes, &scratch, &blocked);  // warm shapes
    core::Predictor::BatchStageTimes stages;
    const int calls = std::max(4, reps / 64);
    for (int i = 0; i < calls; ++i) {
      pred.PredictBatchInto(probes, &scratch, &blocked, nullptr, &stages);
    }
    const double per_query =
        1e6 / (static_cast<double>(calls) * static_cast<double>(probes.size()));
    rep.stage_preprocess_us = stages.preprocess_s * per_query;
    rep.stage_kernel_us = stages.kernel_s * per_query;
    rep.stage_solve_us = stages.solve_s * per_query;
    rep.stage_project_us = stages.project_s * per_query;
    rep.stage_knn_us = stages.knn_s * per_query;
    rep.stage_assemble_us = stages.assemble_s * per_query;
  }

  return rep;
}

void WriteJson(const SingleLatencyReport& single,
               const BatchScalingReport& batch, const BatchSweepReport& sweep,
               const std::string& path) {
  std::ofstream out(path);
  out << "{\n"
      << "  \"bench\": \"bench_timing_batch_predict\",\n"
      << "  \"n\": " << single.n << ",\n"
      << "  \"threads_available\": " << single.threads_available << ",\n"
      << "  \"isa\": \"" << single.isa << "\",\n"
      << "  \"single_seed_us\": " << single.seed_us << ",\n"
      << "  \"single_scalar_brute_us\": " << single.scalar_brute_us << ",\n"
      << "  \"single_simd_brute_us\": " << single.simd_brute_us << ",\n"
      << "  \"single_simd_index_us\": " << single.simd_index_us << ",\n"
      << "  \"single_speedup_vs_seed\": " << single.speedup_vs_seed << ",\n"
      << "  \"single_speedup_vs_scalar_brute\": "
      << single.speedup_vs_scalar_brute << ",\n"
      << "  \"single_byte_identical\": "
      << (single.byte_identical ? "true" : "false") << ",\n"
      << "  \"batch256_ms_1t\": " << batch.ms_1t << ",\n"
      << "  \"batch256_ms_8t\": " << batch.ms_8t << ",\n"
      << "  \"batch256_speedup_8v1\": " << batch.speedup_8v1 << ",\n"
      << "  \"batch256_byte_identical\": "
      << (batch.byte_identical ? "true" : "false") << ",\n";
  for (const BatchSweepPoint& pt : sweep.points) {
    out << "  \"sweep_b" << pt.b << "_per_query_us\": " << pt.per_query_us
        << ",\n"
        << "  \"sweep_b" << pt.b << "_blocked_us\": " << pt.blocked_us
        << ",\n"
        << "  \"sweep_b" << pt.b << "_speedup\": " << pt.speedup << ",\n";
  }
  out << "  \"stage256_preprocess_us\": " << sweep.stage_preprocess_us
      << ",\n"
      << "  \"stage256_kernel_us\": " << sweep.stage_kernel_us << ",\n"
      << "  \"stage256_solve_us\": " << sweep.stage_solve_us << ",\n"
      << "  \"stage256_project_us\": " << sweep.stage_project_us << ",\n"
      << "  \"stage256_knn_us\": " << sweep.stage_knn_us << ",\n"
      << "  \"stage256_assemble_us\": " << sweep.stage_assemble_us << ",\n"
      << "  \"sweep_byte_identical\": "
      << (sweep.byte_identical ? "true" : "false") << ",\n"
      << "  \"sweep_speedup_b64\": " << sweep.speedup_b64 << "\n}\n";
}

// --- google-benchmark suites ------------------------------------------------

void BM_PredictOneByOne(benchmark::State& state) {
  const core::Predictor& pred = TrainedPredictor(kTrainN);
  const auto probes = ProbeBatch(static_cast<size_t>(state.range(0)), kTrainN);
  for (auto _ : state) {
    for (const auto& probe : probes) {
      benchmark::DoNotOptimize(pred.Predict(probe).metrics.elapsed_seconds);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_PredictOneByOne)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_PredictBatch(benchmark::State& state) {
  const core::Predictor& pred = TrainedPredictor(kTrainN);
  const auto probes = ProbeBatch(static_cast<size_t>(state.range(0)), kTrainN);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pred.PredictBatch(probes).size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

void BM_PredictBatchInto(benchmark::State& state) {
  const core::Predictor& pred = TrainedPredictor(kTrainN);
  const auto probes = ProbeBatch(static_cast<size_t>(state.range(0)), kTrainN);
  core::Predictor::BatchScratch scratch;
  std::vector<core::Prediction> out;
  for (auto _ : state) {
    pred.PredictBatchInto(probes, &scratch, &out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(probes.size()));
}
BENCHMARK(BM_PredictBatchInto)->Arg(1)->Arg(4)->Arg(16)->Arg(64)->Arg(256)
    ->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_out;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json-out") == 0 && i + 1 < argc) {
      json_out = argv[++i];
    } else {
      argv[out_argc++] = argv[i];
    }
  }
  argc = out_argc;

  bench::PrintHeader(
      "timing — serving-path prediction latency: seed algorithm vs SIMD "
      "kernels vs indexed kNN, plus micro-batching and thread scaling",
      "every mode is byte-identical (asserted); target >=3x single-"
      "prediction speedup vs the seed algorithm (hard on multi-core hosts, "
      "soft on 1-core where load noise can eat the margin)");

  const SingleLatencyReport single =
      RunSingleLatency(kTrainN, quick ? 400 : 2000);
  std::printf(
      "single predict on N=%zu model [%s]:\n"
      "  seed algorithm (scalar, full sort):  %7.2f us\n"
      "  brute scan (scalar kernels):         %7.2f us\n"
      "  brute scan (SIMD kernels):           %7.2f us\n"
      "  indexed kNN + SIMD (shipping path):  %7.2f us\n"
      "  speedup vs seed=%.2fx  vs scalar brute=%.2fx  byte_identical=%s\n",
      single.n, single.isa.c_str(), single.seed_us, single.scalar_brute_us,
      single.simd_brute_us, single.simd_index_us, single.speedup_vs_seed,
      single.speedup_vs_scalar_brute, single.byte_identical ? "yes" : "NO");

  const BatchScalingReport batch = RunBatchThreadScaling();
  std::printf("PredictBatch(256) on N=%zu model: %.2f ms @1T, %.2f ms @8T  "
              "speedup=%.2fx  bit_identical=%s\n",
              kTrainN, batch.ms_1t, batch.ms_8t, batch.speedup_8v1,
              batch.byte_identical ? "yes" : "NO");

  const BatchSweepReport sweep = RunBatchSweep(quick ? 512 : 2048);
  std::printf("batch blocking (PredictBatchInto vs per-query Predict):\n");
  for (const BatchSweepPoint& pt : sweep.points) {
    std::printf("  B=%-3zu per-query %7.2f us/q  blocked %7.2f us/q  "
                "speedup %.2fx\n",
                pt.b, pt.per_query_us, pt.blocked_us, pt.speedup);
  }
  std::printf("  stages @B=256 (us/query): preprocess %.2f  kernel %.2f  "
              "solve %.2f  project %.2f  knn %.2f  assemble %.2f\n",
              sweep.stage_preprocess_us, sweep.stage_kernel_us,
              sweep.stage_solve_us, sweep.stage_project_us, sweep.stage_knn_us,
              sweep.stage_assemble_us);
  std::printf("  byte_identical=%s\n", sweep.byte_identical ? "yes" : "NO");

  std::printf("BENCH bench_timing_batch_predict n=%zu "
              "single_speedup_vs_seed=%.2f batch_speedup_8v1=%.2f "
              "blocked_speedup_b64=%.2f byte_identical=%d\n",
              single.n, single.speedup_vs_seed, batch.speedup_8v1,
              sweep.speedup_b64,
              (single.byte_identical && batch.byte_identical &&
               sweep.byte_identical)
                  ? 1
                  : 0);
  if (!json_out.empty()) WriteJson(single, batch, sweep, json_out);

  if (!single.byte_identical || !batch.byte_identical ||
      !sweep.byte_identical) {
    std::fprintf(stderr, "FAIL: prediction modes are not byte-identical\n");
    return 1;
  }
  if (single.speedup_vs_seed < 3.0) {
    if (single.threads_available > 1) {
      std::fprintf(stderr,
                   "FAIL: single-prediction speedup vs seed %.2fx < 3x\n",
                   single.speedup_vs_seed);
      return 1;
    }
    std::fprintf(stderr,
                 "WARN: single-prediction speedup vs seed %.2fx < 3x "
                 "(soft gate: 1-core host)\n",
                 single.speedup_vs_seed);
  }
  if (sweep.speedup_b64 < 2.0) {
    if (single.threads_available > 1) {
      std::fprintf(stderr,
                   "FAIL: blocked batch speedup at B=64 %.2fx < 2x\n",
                   sweep.speedup_b64);
      return 1;
    }
    std::fprintf(stderr,
                 "WARN: blocked batch speedup at B=64 %.2fx < 2x "
                 "(soft gate: 1-core host)\n",
                 sweep.speedup_b64);
  }
  if (quick) return 0;

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
