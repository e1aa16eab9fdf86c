#include "golden_metrics.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "catalog/tpcds.h"
#include "common/check.h"
#include "core/predictor.h"
#include "engine/simulator.h"
#include "fault/chaos.h"
#include "ml/risk.h"
#include "optimizer/optimizer.h"
#include "workload/generator.h"
#include "workload/tpcds_templates.h"

namespace qpp::bench {
namespace {

// Stores `key` plus its `_null` indicator, never a NaN, so Null<->number
// flips change the key set and trip the golden key-coverage check.
void AddRisk(GoldenMap& m, const std::string& key, double risk) {
  const bool is_null = std::isnan(risk);
  m[key + "_null"] = is_null ? 1.0 : 0.0;
  if (!is_null) m[key] = risk;
}

core::PredictFn Predicts(const core::Predictor& pred) {
  return [&pred](const linalg::Vector& f) { return pred.Predict(f).metrics; };
}

}  // namespace

Fig03Golden ComputeFig03(const PaperExperiment& exp) {
  core::PredictorConfig cfg;
  cfg.model = core::ModelKind::kRegression;
  core::Predictor reg(cfg);
  reg.Train(exp.train);

  Fig03Golden out;
  // The paper's Fig. 3 plots the TRAINING queries.
  for (const auto& ex : exp.train) {
    out.predicted.push_back(
        reg.Predict(ex.query_features).metrics.elapsed_seconds);
    out.actual.push_back(ex.metrics.elapsed_seconds);
  }
  out.negatives = ml::CountNegative(out.predicted);
  for (size_t i = 0; i < out.predicted.size(); ++i) {
    const double ratio = out.predicted[i] / std::max(out.actual[i], 1e-6);
    if (ratio > 10.0 || (out.predicted[i] > 0 && ratio < 0.1)) ++out.order_off;
  }
  out.within20 = ml::FractionWithinRelative(out.predicted, out.actual, 0.20);
  out.risk = ml::PredictiveRisk(out.predicted, out.actual);

  out.values["fig03_train_queries"] = double(out.predicted.size());
  out.values["fig03_negative_predictions"] = double(out.negatives);
  out.values["fig03_order_of_magnitude_off"] = double(out.order_off);
  out.values["fig03_within20"] = out.within20;
  AddRisk(out.values, "fig03_train_risk", out.risk);
  return out;
}

Exp1Golden ComputeExp1(const PaperExperiment& exp) {
  core::Predictor pred;
  pred.Train(exp.train);

  Exp1Golden out;
  out.evals = core::EvaluatePredictions(Predicts(pred), exp.test);

  out.values["exp1_test_queries"] = double(exp.test.size());
  const auto& elapsed = out.evals[0];
  AddRisk(out.values, "exp1_elapsed_risk", elapsed.risk);
  AddRisk(out.values, "exp1_elapsed_risk_drop1", elapsed.risk_drop1);
  out.values["exp1_elapsed_within20"] = elapsed.within20;
  const auto& accessed = out.evals[1];
  AddRisk(out.values, "exp1_records_accessed_risk", accessed.risk);
  out.values["exp1_records_accessed_within20"] = accessed.within20;
  const auto& used = out.evals[2];
  AddRisk(out.values, "exp1_records_used_risk", used.risk);
  AddRisk(out.values, "exp1_records_used_risk_drop1", used.risk_drop1);
  AddRisk(out.values, "exp1_disk_ios_risk", out.evals[3].risk);
  const auto& msg = out.evals[4];
  AddRisk(out.values, "exp1_message_count_risk", msg.risk);
  AddRisk(out.values, "exp1_message_count_risk_drop1", msg.risk_drop1);
  out.values["exp1_message_count_within20"] = msg.within20;
  AddRisk(out.values, "exp1_message_bytes_risk", out.evals[5].risk);
  return out;
}

Tab2Golden ComputeTab2(const PaperExperiment& exp) {
  Tab2Golden out;
  out.ks = {3, 4, 5, 6, 7};
  for (size_t k : out.ks) {
    core::PredictorConfig cfg;
    cfg.k_neighbors = k;
    core::Predictor pred(cfg);
    pred.Train(exp.train);
    out.per_k.push_back(core::EvaluatePredictions(Predicts(pred), exp.test));
  }
  double lo = 2.0, hi = -2.0;
  for (size_t i = 0; i < out.ks.size(); ++i) {
    const double r = out.per_k[i][0].risk;
    lo = std::min(lo, r);
    hi = std::max(hi, r);
    const std::string suffix = "_k" + std::to_string(out.ks[i]);
    AddRisk(out.values, "tab2_elapsed_risk" + suffix, r);
    AddRisk(out.values, "tab2_disk_ios_risk" + suffix, out.per_k[i][3].risk);
  }
  out.elapsed_spread = hi - lo;
  out.values["tab2_elapsed_risk_spread"] = out.elapsed_spread;
  return out;
}

Fig13Golden ComputeFig13(
    const PaperExperiment& exp,
    const std::vector<core::MetricEvaluation>& evals1027) {
  // Re-sample 30/30/30 for training while keeping the SAME 61 test
  // queries as Experiment 1.
  const workload::TrainTestSplit balanced = workload::SampleSplit(
      exp.data.pools, 30, 30, 30, kTestFeathers, kTestGolf, kTestBowling,
      /*seed=*/42 ^ 0x5713A7ull);
  const auto train90 = core::MakeExamples(exp.data.pools, balanced.train);

  core::PredictorConfig cfg;
  cfg.kcca.solver = ml::KccaSolver::kExact;  // 90 points: exact solver
  core::Predictor small(cfg);
  small.Train(train90);

  Fig13Golden out;
  out.evals90 = core::EvaluatePredictions(Predicts(small), exp.test);
  out.evals1027 = evals1027;

  AddRisk(out.values, "fig13_elapsed_risk_train90", out.evals90[0].risk);
  AddRisk(out.values, "fig13_elapsed_risk_train1027", out.evals1027[0].risk);
  out.values["fig13_elapsed_within20_train90"] = out.evals90[0].within20;
  out.values["fig13_elapsed_within20_train1027"] = out.evals1027[0].within20;
  return out;
}

Fig16Golden ComputeFig16() {
  const catalog::Catalog catalog = catalog::MakeTpcdsCatalog(1.0);
  // The paper re-ran TPC-DS queries (no problem templates) on the
  // production system: 197 train + 83 test = 280 queries.
  const auto queries =
      workload::GenerateWorkload(workload::TpcdsTemplates(), 280, /*seed=*/7);

  Fig16Golden out;
  for (int nodes : {4, 8, 16, 32}) {
    const engine::SystemConfig config = engine::SystemConfig::Neoview32(nodes);
    optimizer::OptimizerOptions opts;
    opts.nodes_used = nodes;
    const optimizer::Optimizer opt(&catalog, opts);
    const engine::ExecutionSimulator sim(&catalog, config);
    size_t failed = 0;
    const workload::QueryPools pools =
        workload::BuildPools(queries, opt, sim, &failed);
    QPP_CHECK_MSG(failed == 0, "Fig. 16 plan failures");

    Fig16Config c;
    c.name = config.name;
    c.nodes = nodes;
    c.plan_signature = pools.queries[5].plan.ToString();
    const auto summaries = pools.Summaries();
    c.feathers = summaries[0].count;
    c.max_elapsed = summaries[0].max_elapsed;
    for (const auto& q : pools.queries) c.io_queries += q.metrics.disk_ios > 0;

    const auto all = core::MakeAllExamples(pools);
    const std::vector<ml::TrainingExample> train(all.begin(),
                                                 all.begin() + 197);
    const std::vector<ml::TrainingExample> test(all.begin() + 197, all.end());
    core::Predictor pred;
    pred.Train(train);
    c.evals = core::EvaluatePredictions(Predicts(pred), test);

    std::string suffix = "_";
    suffix.append(std::to_string(nodes)).append("nodes");
    AddRisk(out.values, "fig16_elapsed_risk" + suffix, c.evals[0].risk);
    AddRisk(out.values, "fig16_disk_ios_risk" + suffix, c.evals[3].risk);
    out.values["fig16_io_queries" + suffix] = double(c.io_queries);
    out.configs.push_back(std::move(c));
  }
  out.plans_differ =
      out.configs.front().plan_signature != out.configs.back().plan_signature;
  out.values["fig16_plans_differ"] = out.plans_differ ? 1.0 : 0.0;
  return out;
}

Fig17Golden ComputeFig17(
    const PaperExperiment& exp,
    const std::vector<core::MetricEvaluation>& exp1_evals) {
  Fig17Golden out;
  for (size_t idx : exp.split.test) {
    const auto& q = exp.data.pools.queries[idx];
    out.log_cost.push_back(std::log10(std::max(q.plan.optimizer_cost, 1e-9)));
    out.log_time.push_back(
        std::log10(std::max(q.metrics.elapsed_seconds, 1e-6)));
  }
  const size_t n = out.log_cost.size();

  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < n; ++i) {
    sx += out.log_cost[i];
    sy += out.log_time[i];
    sxx += out.log_cost[i] * out.log_cost[i];
    sxy += out.log_cost[i] * out.log_time[i];
  }
  out.slope = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  out.intercept = (sy - out.slope * sx) / n;

  double ss_res = 0, ss_tot = 0;
  const double mean_y = sy / n;
  for (size_t i = 0; i < n; ++i) {
    const double fit = out.slope * out.log_cost[i] + out.intercept;
    const double resid = std::abs(out.log_time[i] - fit);
    if (resid >= 1.0) ++out.off10;
    if (resid >= 2.0) ++out.off100;
    if (out.log_time[i] > std::log10(60.0)) {
      ++out.over_minute;
      if (resid >= 1.0) ++out.off10_over_minute;
    }
    ss_res += (out.log_time[i] - fit) * (out.log_time[i] - fit);
    ss_tot += (out.log_time[i] - mean_y) * (out.log_time[i] - mean_y);
  }
  out.r2 = 1.0 - ss_res / ss_tot;

  const auto& elapsed = exp1_evals[0];
  for (size_t i = 0; i < elapsed.predicted.size(); ++i) {
    const double r = elapsed.predicted[i] / std::max(elapsed.actual[i], 1e-9);
    if (r >= 10.0 || r <= 0.1) ++out.kcca_off10;
  }

  out.values["fig17_test_queries"] = double(n);
  out.values["fig17_loglog_slope"] = out.slope;
  out.values["fig17_loglog_intercept"] = out.intercept;
  out.values["fig17_loglog_r2"] = out.r2;
  out.values["fig17_off10"] = double(out.off10);
  out.values["fig17_off100"] = double(out.off100);
  out.values["fig17_over_minute"] = double(out.over_minute);
  out.values["fig17_off10_over_minute"] = double(out.off10_over_minute);
  out.values["fig17_kcca_off10"] = double(out.kcca_off10);
  return out;
}

FabricSoakGolden ComputeFabricSoak() {
  fault::ChaosOptions opts;
  opts.seed = 42;
  opts.requests = 50000;
  const fault::ScenarioResult soak =
      fault::RunChaosScenario("fabric-soak", opts);
  FabricSoakGolden out;
  out.report = soak.report;
  out.ok = soak.ok();
  for (const auto& [key, value] : soak.counters) out.values[key] = value;
  return out;
}

LifecycleGolden ComputeLifecycleChaos() {
  fault::ChaosOptions opts;
  opts.seed = 42;
  const fault::ScenarioResult run =
      fault::RunChaosScenario("model-lifecycle", opts);
  LifecycleGolden out;
  out.report = run.report;
  out.ok = run.ok();
  for (const auto& [key, value] : run.counters) out.values[key] = value;
  return out;
}

std::string GoldenJson(const GoldenMap& values) {
  std::ostringstream os;
  os << "{\n";
  size_t i = 0;
  for (const auto& [key, value] : values) {
    QPP_CHECK_MSG(!std::isnan(value), "NaN golden value: " + key);
    char num[64];
    std::snprintf(num, sizeof num, "%.10g", value);
    os << "  \"" << key << "\": " << num;
    if (++i < values.size()) os << ",";
    os << "\n";
  }
  os << "}\n";
  return os.str();
}

void WriteGoldenJson(const std::string& path, const GoldenMap& values) {
  std::ofstream f(path);
  QPP_CHECK_MSG(f.good(), "cannot open for write: " + path);
  f << GoldenJson(values);
  QPP_CHECK_MSG(f.good(), "write failed: " + path);
}

GoldenMap ReadGoldenJson(const std::string& path) {
  std::ifstream f(path);
  QPP_CHECK_MSG(f.good(), "cannot open golden file: " + path);
  std::ostringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  GoldenMap out;
  size_t i = 0;
  auto skip_ws = [&] {
    while (i < text.size() && std::isspace(uint8_t(text[i]))) ++i;
  };
  auto expect = [&](char c) {
    skip_ws();
    QPP_CHECK_MSG(i < text.size() && text[i] == c,
                  path + ": expected '" + std::string(1, c) + "' at offset " +
                      std::to_string(i));
    ++i;
  };
  expect('{');
  skip_ws();
  if (i < text.size() && text[i] == '}') return out;  // empty object
  while (true) {
    expect('"');
    const size_t key_start = i;
    while (i < text.size() && text[i] != '"') ++i;
    QPP_CHECK_MSG(i < text.size(), path + ": unterminated key");
    const std::string key = text.substr(key_start, i - key_start);
    ++i;  // closing quote
    expect(':');
    skip_ws();
    char* end = nullptr;
    const double value = std::strtod(text.c_str() + i, &end);
    QPP_CHECK_MSG(end != text.c_str() + i,
                  path + ": bad number for key " + key);
    i = size_t(end - text.c_str());
    QPP_CHECK_MSG(!out.count(key), path + ": duplicate key " + key);
    out[key] = value;
    skip_ws();
    QPP_CHECK_MSG(i < text.size() && (text[i] == ',' || text[i] == '}'),
                  path + ": expected ',' or '}' after key " + key);
    if (text[i] == '}') break;
    ++i;  // comma
  }
  return out;
}

std::string JsonOutPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::string(argv[i]) == "--json-out") return argv[i + 1];
  }
  return "";
}

void MaybeWriteGolden(int argc, char** argv, const GoldenMap& values) {
  const std::string path = JsonOutPath(argc, argv);
  if (path.empty()) return;
  WriteGoldenJson(path, values);
  std::printf("\nwrote %zu golden values to %s\n", values.size(),
              path.c_str());
}

}  // namespace qpp::bench
