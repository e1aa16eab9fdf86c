// The offline path: the vendor-side model build, repeated in rounds. Each
// round takes the 1027 Experiment-1 training SQL texts through
// sql::Parse -> Optimizer::Plan -> ExecutionSimulator::Execute ->
// ml::PlanFeatureVector -> TwoStepPredictor::Train on one client thread;
// training runs on the par pool at its default size.
#include <algorithm>
#include <memory>
#include <sstream>

#include "catalog/tpcds.h"
#include "core/experiment.h"
#include "ledger.h"
#include "optimizer/optimizer.h"
#include "sql/parser.h"

namespace qpp::ledger {

namespace {

/// The catalog, optimizer and simulator the generator planned and ran the
/// inputs with (core::ExperimentOptions' defaults).
struct Toolchain {
  std::unique_ptr<catalog::Catalog> catalog;
  std::unique_ptr<optimizer::Optimizer> optimizer;
  std::unique_ptr<engine::ExecutionSimulator> simulator;
};

Toolchain MakeToolchain() {
  const core::ExperimentOptions defaults;
  Toolchain t;
  t.catalog = std::make_unique<catalog::Catalog>(
      catalog::MakeTpcdsCatalog(defaults.scale_factor));
  optimizer::OptimizerOptions opt;
  opt.world_seed = defaults.world_seed;
  opt.nodes_used = defaults.config.nodes_used;
  t.optimizer = std::make_unique<optimizer::Optimizer>(t.catalog.get(), opt);
  t.simulator = std::make_unique<engine::ExecutionSimulator>(t.catalog.get(),
                                                             defaults.config);
  return t;
}

std::string ModelBytes(const core::TwoStepPredictor& model) {
  std::ostringstream os;
  model.base().Save(&os);
  for (const workload::QueryType type : kCategories) {
    const core::Predictor* expert = model.CategoryModel(type);
    os << (expert != nullptr ? "+" : "-");
    if (expert != nullptr) expert->Save(&os);
  }
  return os.str();
}

struct Round {
  double seconds = 0.0;
  bool inputs_match = true;  ///< features and metrics re-derived bit-exactly
  uint64_t model_digest = 0;  ///< of Predictor::Save of every model
  uint64_t train_digest = 0;  ///< TrainDigest, or the replay's digest
};

/// One model build from a training set's SQL texts. With `spans` (the
/// traced run) each call into a layer is a span and training is the
/// outside replay instead of a TwoStepPredictor::Train call.
Round BuildModel(const Toolchain& t, const BuildSet& set, uint64_t round_no,
                 SpanStore* spans) {
  Round r;
  const size_t n = set.sql.size();
  std::vector<ml::TrainingExample> examples(n);
  const int64_t start = NowNs();
  for (size_t i = 0; i < n; ++i) {
    const std::string& sql = set.sql[i];
    const int64_t t0 = NowNs();
    auto stmt = sql::Parse(sql);
    const int64_t t1 = NowNs();
    if (!stmt.ok()) {
      r.inputs_match = false;
      continue;
    }
    auto plan = t.optimizer->Plan(*stmt.value(), sql);
    const int64_t t2 = NowNs();
    if (!plan.ok()) {
      r.inputs_match = false;
      continue;
    }
    examples[i].metrics = t.simulator->Execute(plan.value());
    const int64_t t3 = NowNs();
    examples[i].query_features = ml::PlanFeatureVector(plan.value());
    const int64_t t4 = NowNs();
    if (spans != nullptr) {
      spans->Add("sql.parse", round_no, SpanStore::kNoParent, t0, t1);
      spans->Add("optimizer.plan", round_no, SpanStore::kNoParent, t1, t2);
      spans->Add("engine.simulate", round_no, SpanStore::kNoParent, t2, t3);
      spans->Add("ml.features", round_no, SpanStore::kNoParent, t3, t4);
    }
  }
  if (!r.inputs_match) return r;  // a query failed to compile
  if (spans == nullptr) {
    core::TwoStepPredictor model;
    model.Train(examples);
    r.seconds = static_cast<double>(NowNs() - start) / 1e9;
    r.model_digest = Fnv1a(ModelBytes(model));
    r.train_digest = TrainDigest(model);
  } else {
    r.train_digest = ReplayTwoStepTrain(examples, spans, round_no);
    const int64_t end = NowNs();
    r.seconds = static_cast<double>(end - start) / 1e9;
    spans->Add("round", round_no, SpanStore::kNoParent, start, end);
  }
  for (size_t i = 0; i < n; ++i) {
    r.inputs_match = r.inputs_match &&
                     SameBits(examples[i].query_features,
                              set.examples[i].query_features) &&
                     SameMetrics(examples[i].metrics, set.examples[i].metrics);
  }
  return r;
}

}  // namespace

void RunOffline(const Inputs& in, const Options& opt, Report* report) {
  // Round r builds from training set r mod kBuildSets. A round fails when
  // it re-derives any feature or metric differently from the generated
  // inputs, or trains a model whose saved bytes (or, traced, whose replayed
  // training) differ from the first untraced round's on the same set.
  const size_t nsets = in.builds.size();
  std::vector<Round> first(nsets);
  std::vector<bool> seen(nsets, false);
  uint64_t round_no = 0;
  const auto run_round = [&](const Toolchain& t, SpanStore* spans) {
    const size_t set = round_no % nsets;
    const Round r = BuildModel(t, in.builds[set], round_no++, spans);
    ++report->attempted;
    bool ok = r.inputs_match;
    if (spans == nullptr && !seen[set]) {
      first[set] = r;
      seen[set] = true;
    } else {
      ok = ok && r.train_digest == first[set].train_digest &&
           (spans != nullptr || r.model_digest == first[set].model_digest);
    }
    if (!ok) ++report->failed;
    return r.seconds;
  };

  // Set-up, several times: catalog, optimizer and simulator construction
  // plus one warm-up round.
  std::vector<double> setup_s;
  Toolchain t;
  for (int i = 0; i < kSetups; ++i) {
    const int64_t t0 = NowNs();
    t = MakeToolchain();
    run_round(t, nullptr);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }

  // Timed rounds in whole cycles over the training sets, so every set
  // weighs the same in the median (and is built untraced before the
  // traced run replays it).
  std::vector<double> rounds;
  const int64_t stop_at = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  while (rounds.empty() || rounds.size() % nsets != 0 || NowNs() < stop_at) {
    rounds.push_back(run_round(t, nullptr));
  }
  std::printf("timed: %zu rounds over %zu training sets of %zu queries, "
              "round min %.3f s max %.3f s\n",
              rounds.size(), nsets, in.train().size(),
              *std::min_element(rounds.begin(), rounds.end()),
              *std::max_element(rounds.begin(), rounds.end()));
  const double train_s = Median(rounds);
  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("lat_p50_us", train_s * 1e6, "us");
  report->E2e("rss_mb", PeakRssMb(), "MB");
  double total_s = 0.0;
  for (const double s : rounds) total_s += s;
  report->Layer("diag.samples", static_cast<double>(rounds.size()), "count");
  report->Layer("diag.qps", static_cast<double>(rounds.size()) / total_s, "1/s");
  report->Layer("diag.lat_p90_us", Quantile(rounds, 0.90) * 1e6, "us");
  report->Layer("diag.lat_p99_us", Quantile(rounds, 0.99) * 1e6, "us");
  if (!opt.trace) return;

  SpanStore spans;
  std::vector<double> traced;
  const int64_t traced_stop = NowNs() + static_cast<int64_t>(opt.seconds * 1e9);
  while (traced.empty() || traced.size() % nsets != 0 || NowNs() < traced_stop) {
    traced.push_back(run_round(t, &spans));
  }
  const double nrounds = static_cast<double>(traced.size());
  report->Layer("sql.parse_us", spans.MeanUs("sql.parse"), "us");
  report->Layer("optimizer.plan_us", spans.MeanUs("optimizer.plan"), "us");
  report->Layer("engine.simulate_us", spans.MeanUs("engine.simulate"), "us");
  report->Layer("ml.features_us", spans.MeanUs("ml.features"), "us");
  report->Layer("ml.preprocess_ms", spans.TotalNs("ml.preprocess") / 1e6 / nrounds, "ms");
  report->Layer("ml.kcca_train_ms", spans.TotalNs("ml.kcca_train") / 1e6 / nrounds, "ms");
  report->Layer("ml.kdtree_build_ms", spans.TotalNs("ml.kdtree_build") / 1e6 / nrounds, "ms");
  report->Layer("ml.self_knn_ms", spans.TotalNs("ml.self_knn") / 1e6 / nrounds, "ms");

  // Every call of a round is inside one of the layer spans; what is left
  // is the client loop and the training's own glue.
  double layers_ns = 0.0;
  for (const char* name :
       {"sql.parse", "optimizer.plan", "engine.simulate", "ml.features",
        "ml.preprocess", "ml.kcca_train", "ml.kdtree_build", "ml.self_knn"}) {
    layers_ns += spans.TotalNs(name);
  }
  const double ratio = layers_ns / spans.TotalNs("round");
  report->Layer("reconcile.ratio", ratio, "ratio");
  report->Check("layers reconcile with end to end within 10%",
                ratio >= 0.9 && ratio <= 1.1);
  report->Layer("trace.overhead_pct", (Median(traced) / train_s - 1.0) * 100.0, "%");
  if (!opt.spans_out.empty() && !spans.Write(opt.spans_out)) {
    report->Check("spans written to " + opt.spans_out, false);
  }
}

}  // namespace qpp::ledger
