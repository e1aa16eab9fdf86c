// qpp_tool — command-line front end for the library.
//
//   qpp_tool pools   [--candidates N] [--seed S]
//       generate a workload, run it on the simulated 4-node system, print
//       the Fig. 2 pool table.
//   qpp_tool train   --out MODEL [--candidates N] [--seed S]
//       train a predictor on a generated workload and write the model file.
//   qpp_tool plan    --sql "SELECT ..." [--dot] [--out PLAN]
//       print (or save) the optimizer plan for a query.
//   qpp_tool predict --model MODEL (--sql "SELECT ..." | --plan PLAN)
//       predict all six metrics for a query before running it.
//   qpp_tool explain --model MODEL --sql "SELECT ..."
//       predict AND simulate, printing predicted vs actual side by side.
//   qpp_tool serve   [--model MODEL] [--clients C] [--requests R] ...
//       run the concurrent prediction service against a simulated
//       multi-client workload and print service stats, drift-monitor
//       EWMAs, and admission decisions. --trace-out FILE drops a Chrome
//       trace-event JSON (chrome://tracing / Perfetto) of the serve
//       pipeline plus simulated operator spans; --prom FILE writes the
//       service's metrics registry as the Prometheus exposition.
//   qpp_tool obs     --sql SQL [--model MODEL] --trace-out FILE
//       trace one query end to end: traced prediction stages + the
//       simulator's per-operator critical path, in one loadable file.
//   qpp_tool obs     --flight-dump FILE [--trace-out FILE] [--prom FILE]
//                    [--seed S] [--requests R]
//       run the deterministic observability flight demo (docs/
//       OBSERVABILITY.md): a traced fabric is driven through overload
//       waves until an SLO window breaches, and the flight-recorder dump
//       captured at the breach is written to FILE. --trace-out adds the
//       Chrome trace (the breach trace id resolves to a full span chain),
//       --prom the Prometheus exposition with trace-id exemplars. The
//       flight dump and exposition are byte-identical per seed (CI diffs
//       two runs); exit 1 on any violated invariant.
//   qpp_tool chaos   [--scenario NAME|all] [--seed S] [--requests R]
//       run the seeded fault-injection scenarios (docs/FAULTS.md) and
//       print their deterministic reports; exit 1 on any violated
//       invariant. --soak runs the high-volume concurrent soak instead of
//       the scenarios; --fabric-soak runs the deterministic
//       replicated-serving capacity soak (docs/FABRIC.md). --save-plan
//       FILE ships the selected run's FaultPlan and --plan FILE replays a
//       saved one; both need one run selected (--scenario NAME, --soak or
//       --fabric-soak). --json-out FILE writes the runs' byte-replayable
//       counters: the fabric soak's for the CI artifact/diff, the
//       model-lifecycle scenario's (tests/golden/lifecycle.json;
//       docs/LIFECYCLE.md).
//
// All commands run against the TPC-DS SF-1 catalog on the Neoview-4
// configuration; this is a demonstration surface, not a kitchen sink. A
// flag the command does not read, a count or seed that is not an unsigned
// 64-bit integer, or a stray argument prints the usage text and exits 2.
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "catalog/tpcds.h"
#include "common/rng.h"
#include "fault/chaos.h"
#include "fault/fault_plan.h"
#include "common/str_util.h"
#include "core/experiment.h"
#include "core/model_io.h"
#include "core/workload_manager.h"
#include "engine/simulator.h"
#include "ml/feature_vector.h"
#include "obs/drift_monitor.h"
#include "obs/trace.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_serde.h"
#include "par/thread_pool.h"
#include "serve/prediction_service.h"

using namespace qpp;

namespace {

struct Args {
  std::string command;
  std::map<std::string, std::string> options;
  /// The numeric flags' values, checked by ParseArgs.
  std::map<std::string, uint64_t> numbers;
  bool flag(const std::string& name) const { return options.count(name) > 0; }
  std::string get(const std::string& name,
                  const std::string& fallback = "") const {
    auto it = options.find(name);
    return it == options.end() ? fallback : it->second;
  }
  uint64_t number(const std::string& name, uint64_t fallback) const {
    auto it = numbers.find(name);
    return it == numbers.end() ? fallback : it->second;
  }
};

/// Flags whose value is a count or a seed, in every command that reads
/// them.
bool IsNumericFlag(const std::string& name) {
  static const std::set<std::string> kNumeric = {
      "candidates", "seed",     "clients", "requests", "queries",
      "distinct",   "workers", "batch",   "cache"};
  return kNumeric.count(name) > 0;
}

/// An unsigned decimal integer: digits only (no sign, space or prefix)
/// that fits in 64 bits.
bool ParseUnsigned(const std::string& text, uint64_t* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && ptr == end;
}

/// The flags one command reads: `values` take the next argument, `switches`
/// take none.
struct FlagSpec {
  std::set<std::string> values;
  std::set<std::string> switches;
};

FlagSpec FlagsFor(const std::string& command, bool flight_demo) {
  if (command == "pools") return {{"candidates", "seed"}, {}};
  if (command == "train") return {{"out", "candidates", "seed"}, {}};
  if (command == "plan") return {{"sql", "out"}, {"dot"}};
  if (command == "predict") return {{"model", "sql", "plan"}, {}};
  if (command == "explain") return {{"model", "sql"}, {}};
  if (command == "serve") {
    return {{"model", "candidates", "seed", "clients", "requests", "distinct",
             "workers", "batch", "cache", "trace-out", "prom"},
            {}};
  }
  if (command == "obs" && flight_demo) {
    return {{"flight-dump", "trace-out", "prom", "seed", "requests"}, {}};
  }
  if (command == "obs") {
    return {{"sql", "trace-out", "model", "candidates", "seed"}, {}};
  }
  if (command == "chaos") {
    return {{"scenario", "seed", "requests", "queries", "json-out", "plan",
             "save-plan"},
            {"soak", "fabric-soak"}};
  }
  return {};
}

/// Parses argv[2..] against the command's flags. Prints what is wrong and
/// returns false on a flag the command does not read, a value flag with no
/// value, a numeric flag whose value is not an unsigned integer, or a
/// stray positional argument.
bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc >= 2) args->command = argv[1];
  bool flight_demo = false;
  for (int i = 2; i < argc; ++i) {
    flight_demo = flight_demo || std::strcmp(argv[i], "--flight-dump") == 0;
  }
  const FlagSpec spec = FlagsFor(args->command, flight_demo);
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: unexpected argument '%s'\n", arg.c_str());
      return false;
    }
    const std::string key = arg.substr(2);
    if (spec.switches.count(key) > 0) {
      args->options[key] = "";
    } else if (spec.values.count(key) == 0) {
      std::fprintf(stderr, "error: unknown flag --%s for '%s'\n", key.c_str(),
                   args->command.c_str());
      return false;
    } else if (i + 1 >= argc) {
      std::fprintf(stderr, "error: --%s needs a value\n", key.c_str());
      return false;
    } else {
      const std::string value = argv[++i];
      if (IsNumericFlag(key) && !ParseUnsigned(value, &args->numbers[key])) {
        std::fprintf(stderr,
                     "error: --%s needs an unsigned integer, got '%s'\n",
                     key.c_str(), value.c_str());
        return false;
      }
      args->options[key] = value;
    }
  }
  return true;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  qpp_tool pools   [--candidates N] [--seed S]\n"
               "  qpp_tool train   --out MODEL [--candidates N] [--seed S]\n"
               "  qpp_tool plan    --sql SQL [--dot] [--out PLAN]\n"
               "  qpp_tool predict --model MODEL (--sql SQL | --plan PLAN)\n"
               "  qpp_tool explain --model MODEL --sql SQL\n"
               "  qpp_tool serve   [--model MODEL] [--candidates N] [--seed "
               "S]\n"
               "                   [--clients C] [--requests R] [--workers "
               "W]\n"
               "                   [--batch B] [--cache N] [--distinct D]\n"
               "                   [--trace-out FILE] [--prom FILE]\n"
               "  qpp_tool obs     --sql SQL --trace-out FILE [--model "
               "MODEL]\n"
               "                   [--candidates N] [--seed S]\n"
               "  qpp_tool obs     --flight-dump FILE [--trace-out FILE]\n"
               "                   [--prom FILE] [--seed S] [--requests R]\n"
               "  qpp_tool chaos   [--scenario NAME|all] [--seed S]\n"
               "                   [--requests R] [--queries Q] [--soak]\n"
               "                   [--fabric-soak] [--json-out FILE]\n"
               "                   [--plan FILE] [--save-plan FILE]\n");
  return 2;
}

bool WriteTextFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "error: cannot open %s for writing\n", path.c_str());
    return false;
  }
  out << content;
  return out.good();
}

core::ExperimentData BuildData(const Args& args) {
  core::ExperimentOptions opt;
  opt.num_candidates = args.number("candidates", 3000);
  opt.seed = args.number("seed", 42);
  return core::BuildTpcdsExperiment(opt);
}

void PrintPrediction(const core::Prediction& p) {
  const auto names = engine::QueryMetrics::MetricNames();
  const auto v = p.metrics.ToVector();
  for (size_t m = 0; m < names.size(); ++m) {
    if (m == 0) {
      std::printf("  %-18s %s\n", names[m].c_str(),
                  FormatDuration(v[m]).c_str());
    } else {
      std::printf("  %-18s %.0f\n", names[m].c_str(), v[m]);
    }
  }
  std::printf("  %-18s %.2f%s\n", "confidence", p.confidence,
              p.anomalous ? "  (ANOMALOUS: far from all training queries)"
                          : "");
  std::printf("  %-18s %s\n", "category",
              workload::QueryTypeName(p.predicted_type));
}

int CmdPools(const Args& args) {
  const core::ExperimentData data = BuildData(args);
  std::printf("%s", data.pools.ToTable().c_str());
  return 0;
}

int CmdTrain(const Args& args) {
  const std::string out = args.get("out");
  if (out.empty()) return Usage();
  const core::ExperimentData data = BuildData(args);
  core::Predictor pred;
  pred.Train(core::MakeAllExamples(data.pools));
  const Status s = core::SaveModelFile(pred, out);
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.message().c_str());
    return 1;
  }
  std::printf("trained on %zu queries; model written to %s\n",
              pred.num_training_examples(), out.c_str());
  return 0;
}

int CmdPlan(const Args& args) {
  const std::string sql = args.get("sql");
  if (sql.empty()) return Usage();
  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&cat, {});
  const auto plan = opt.Plan(sql);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().message().c_str());
    return 1;
  }
  if (args.flag("dot")) {
    std::printf("%s", plan.value().ToDot().c_str());
  } else {
    std::printf("%s", plan.value().ToString().c_str());
    std::printf("optimizer cost: %.1f units\n", plan.value().optimizer_cost);
  }
  const std::string out = args.get("out");
  if (!out.empty()) {
    const Status s = optimizer::SavePlanFile(plan.value(), out);
    if (!s.ok()) {
      std::fprintf(stderr, "error: %s\n", s.message().c_str());
      return 1;
    }
    std::printf("plan written to %s\n", out.c_str());
  }
  return 0;
}

Result<optimizer::PhysicalPlan> ResolvePlan(const Args& args) {
  const std::string plan_path = args.get("plan");
  if (!plan_path.empty()) return optimizer::LoadPlanFile(plan_path);
  const std::string sql = args.get("sql");
  if (sql.empty()) return Status::Error("need --sql or --plan");
  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&cat, {});
  return opt.Plan(sql);
}

int CmdPredict(const Args& args) {
  const std::string model_path = args.get("model");
  if (model_path.empty()) return Usage();
  auto model = core::LoadModelFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  auto plan = ResolvePlan(args);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().message().c_str());
    return 1;
  }
  const core::Prediction p =
      model.value().Predict(ml::PlanFeatureVector(plan.value()));
  std::printf("prediction (before execution):\n");
  PrintPrediction(p);
  return 0;
}

int CmdExplain(const Args& args) {
  const std::string model_path = args.get("model");
  const std::string sql = args.get("sql");
  if (model_path.empty() || sql.empty()) return Usage();
  auto model = core::LoadModelFile(model_path);
  if (!model.ok()) {
    std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
    return 1;
  }
  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&cat, {});
  const auto plan = opt.Plan(sql);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().message().c_str());
    return 1;
  }
  std::printf("plan:\n%s\n", plan.value().ToString().c_str());
  const core::Prediction p =
      model.value().Predict(ml::PlanFeatureVector(plan.value()));
  std::printf("prediction:\n");
  PrintPrediction(p);
  const engine::ExecutionSimulator sim(&cat,
                                       engine::SystemConfig::Neoview4());
  const engine::QueryMetrics actual = sim.Execute(plan.value());
  std::printf("simulated actual:\n  %s\n", actual.ToString().c_str());
  return 0;
}

// Runs the online prediction service against a simulated multi-client
// workload: C client threads each submit R requests drawn from a pool of D
// distinct queries (decision-support traffic is template-heavy, so repeats
// are the realistic case and exercise the result cache), admission
// decisions ride on the responses, and the built-in service stats are
// printed at the end.
int CmdServe(const Args& args) {
  const size_t clients = args.number("clients", 4);
  const size_t requests_per_client = args.number("requests", 500);
  const size_t distinct = args.number("distinct", 64);
  serve::ServiceConfig service_config;
  service_config.num_workers = args.number("workers", 2);
  service_config.max_batch = args.number("batch", 16);
  service_config.cache_capacity = args.number("cache", 4096);
  const std::string trace_path = args.get("trace-out");
  const std::string prom_path = args.get("prom");
  std::unique_ptr<obs::TraceRecorder> trace;
  if (!trace_path.empty()) {
    trace = std::make_unique<obs::TraceRecorder>();
    service_config.trace = trace.get();
  }

  std::printf("building workload...\n");
  const core::ExperimentData data = BuildData(args);
  QPP_CHECK(!data.pools.queries.empty());

  // The optimizer-cost fallback baseline, calibrated Fig. 17-style on the
  // measured pool.
  std::vector<double> costs, elapsed;
  for (const auto& q : data.pools.queries) {
    costs.push_back(q.plan.optimizer_cost);
    elapsed.push_back(q.metrics.elapsed_seconds);
  }
  const serve::CostCalibration calibration =
      serve::CostCalibration::Fit(costs, elapsed);

  serve::ModelRegistry registry;
  const std::string model_path = args.get("model");
  if (!model_path.empty()) {
    auto model = core::LoadModelFile(model_path);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
      return 1;
    }
    registry.Publish(std::move(model).value());
    std::printf("serving model %s (generation %llu)\n", model_path.c_str(),
                static_cast<unsigned long long>(registry.generation()));
  } else {
    std::printf("training in-process (pass --model to serve a file)...\n");
    core::Predictor pred;
    pred.Train(core::MakeAllExamples(data.pools));
    registry.Publish(pred);
    std::printf("trained on %zu queries, published as generation %llu\n",
                pred.num_training_examples(),
                static_cast<unsigned long long>(registry.generation()));
  }

  serve::PredictionService service(&registry, service_config, calibration);
  // Compute-pool metrics (qpp_par_*) land in the service registry and
  // parallel regions show up under trace category "par", next to the
  // serve-pipeline spans. Detached before the registry/trace die.
  par::SetObservability(service.metrics(), trace.get());
  const core::WorkloadManager manager;

  // The distinct request pool every client draws from, plus each entry's
  // simulator-observed metrics — the "actuals" the drift monitor scores
  // served predictions against.
  std::vector<serve::ServeRequest> request_pool;
  std::vector<const workload::PooledQuery*> pool_queries;
  const size_t pool_size = std::min(distinct, data.pools.queries.size());
  for (size_t i = 0; i < pool_size; ++i) {
    const auto& q =
        data.pools.queries[i * data.pools.queries.size() / pool_size];
    request_pool.push_back(
        {ml::PlanFeatureVector(q.plan), q.plan.optimizer_cost});
    pool_queries.push_back(&q);
  }

  // Online drift monitoring: every response is compared against the
  // simulator's observed metrics for its query; EWMAs land in the
  // service's own registry (so --prom exposes them too).
  obs::DriftMonitor drift(service.metrics());

  std::printf("serving %zu clients x %zu requests (%zu distinct queries, "
              "%zu workers, batch <= %zu)...\n",
              clients, requests_per_client, pool_size,
              service_config.num_workers, service_config.max_batch);
  std::map<core::AdmissionDecision, size_t> decisions;
  std::map<serve::ResponseSource, size_t> sources;
  std::mutex agg_mu;
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> client_threads;
  for (size_t c = 0; c < clients; ++c) {
    client_threads.emplace_back([&, c] {
      Rng rng(0xC11E47ull * (c + 1));
      std::vector<std::future<serve::ServeResponse>> futures;
      std::vector<size_t> picks;
      futures.reserve(requests_per_client);
      picks.reserve(requests_per_client);
      for (size_t r = 0; r < requests_per_client; ++r) {
        const size_t pick = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(request_pool.size()) - 1));
        futures.push_back(service.Submit(request_pool[pick]));
        picks.push_back(pick);
      }
      std::map<core::AdmissionDecision, size_t> local_decisions;
      std::map<serve::ResponseSource, size_t> local_sources;
      for (size_t i = 0; i < futures.size(); ++i) {
        const serve::ServeResponse resp = futures[i].get();
        const auto outcome = serve::AdmitServed(manager, resp);
        local_decisions[outcome.decision] += 1;
        local_sources[resp.source] += 1;
        drift.Observe(resp.source == serve::ResponseSource::kOptimizerFallback
                          ? obs::DriftMonitor::Source::kFallback
                          : obs::DriftMonitor::Source::kModel,
                      resp.prediction.metrics, pool_queries[picks[i]]->metrics);
      }
      std::lock_guard<std::mutex> lock(agg_mu);
      for (const auto& [d, n] : local_decisions) decisions[d] += n;
      for (const auto& [s, n] : local_sources) sources[s] += n;
    });
  }
  for (auto& t : client_threads) t.join();
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  service.Shutdown();

  const size_t total = clients * requests_per_client;
  std::printf("\n%zu responses in %.3fs (%.0f predictions/sec)\n\n", total,
              wall, static_cast<double>(total) / wall);
  std::printf("admission decisions:\n");
  for (const auto& [d, n] : decisions) {
    std::printf("  %-10s %zu\n", core::AdmissionDecisionName(d), n);
  }
  std::printf("response sources:\n");
  for (const auto& [s, n] : sources) {
    std::printf("  %-15s %zu\n", serve::ResponseSourceName(s), n);
  }
  std::printf("\nservice stats:\n%s", service.stats().ToString().c_str());
  std::printf("\n%s", drift.ToString().c_str());
  par::SetObservability(nullptr, nullptr);

  if (trace != nullptr) {
    // Append the simulated critical path of a few distinct queries to the
    // same trace, so the serve-pipeline spans and the simulator's
    // per-operator breakdown load side by side in Perfetto.
    const engine::ExecutionSimulator sim(data.catalog.get(), data.config);
    const size_t traced = std::min<size_t>(3, pool_queries.size());
    for (size_t i = 0; i < traced; ++i) {
      sim.Execute(pool_queries[i]->plan, trace.get());
    }
    if (!WriteTextFile(trace_path, trace->ToJson())) return 1;
    std::printf("\ntrace: %zu events written to %s "
                "(load in chrome://tracing or ui.perfetto.dev)\n",
                trace->event_count(), trace_path.c_str());
  }
  if (!prom_path.empty()) {
    const obs::MetricsRegistry& registry = std::as_const(service).metrics();
    if (!WriteTextFile(prom_path, registry.PrometheusText())) return 1;
    std::printf("prometheus exposition: %zu metrics written to %s\n",
                registry.num_metrics(), prom_path.c_str());
  }
  return 0;
}

// The black-box leg of `qpp_tool obs`: runs the deterministic flight demo
// (fault::RunObsFlightDemo) and ships its three artifacts. The flight dump
// and the Prometheus exposition must be byte-identical across two runs
// with the same --seed/--requests — CI diffs them — so both are written
// exactly as the demo produced them, with no tool-added decoration.
int CmdObsFlightDemo(const Args& args) {
  fault::ChaosOptions opts;
  opts.seed = args.number("seed", 42);
  // The demo needs enough requests for several SLO windows per wave; its
  // floor is 512, so round the chaos-wide default of 400 up.
  opts.requests = std::max<size_t>(512, args.number("requests", 2048));

  const fault::ObsFlightDemoResult demo = fault::RunObsFlightDemo(opts);
  const fault::ScenarioResult& r = demo.scenario;
  std::printf("=== %s (seed %llu): %s ===\n%s", r.name.c_str(),
              static_cast<unsigned long long>(opts.seed),
              r.ok() ? "PASS" : "FAIL", r.report.c_str());
  for (const std::string& violation : r.violations) {
    std::printf("  VIOLATION: %s\n", violation.c_str());
  }

  const std::string dump_path = args.get("flight-dump");
  if (!WriteTextFile(dump_path, demo.flight_dump)) return 1;
  // Paths go to stderr so the stdout report stays byte-comparable across
  // runs that write to different files (CI diffs two runs' stdout).
  std::fprintf(stderr, "flight dump written to %s\n", dump_path.c_str());

  const std::string trace_path = args.get("trace-out");
  if (!trace_path.empty()) {
    if (!WriteTextFile(trace_path, demo.trace_json)) return 1;
    std::fprintf(stderr,
                 "trace written to %s (search for trace id %016llx)\n",
                 trace_path.c_str(),
                 static_cast<unsigned long long>(demo.breach_trace_id));
  }
  const std::string prom_path = args.get("prom");
  if (!prom_path.empty()) {
    if (!WriteTextFile(prom_path, demo.prometheus_text)) return 1;
    std::fprintf(stderr, "prometheus exposition written to %s\n",
                 prom_path.c_str());
  }
  return r.ok() ? 0 : 1;
}

// Traces a single query end to end: the predictor's internal stages
// (preprocess, kcca_project, knn, assemble) measured in wall time, then the
// execution simulator's per-operator critical path with cpu/io/net lanes in
// simulated time — one file, two track groups.
int CmdObs(const Args& args) {
  if (args.flag("flight-dump")) return CmdObsFlightDemo(args);
  const std::string sql = args.get("sql");
  const std::string trace_path = args.get("trace-out");
  if (sql.empty() || trace_path.empty()) return Usage();

  core::Predictor predictor;
  const std::string model_path = args.get("model");
  if (!model_path.empty()) {
    auto model = core::LoadModelFile(model_path);
    if (!model.ok()) {
      std::fprintf(stderr, "error: %s\n", model.status().message().c_str());
      return 1;
    }
    predictor = std::move(model).value();
  } else {
    std::printf("training in-process (pass --model to use a file)...\n");
    Args train_args = args;
    train_args.options.emplace("candidates", "600");  // keeps no-op if set
    const core::ExperimentData data = BuildData(train_args);
    predictor.Train(core::MakeAllExamples(data.pools));
  }

  const catalog::Catalog cat = catalog::MakeTpcdsCatalog(1.0);
  const optimizer::Optimizer opt(&cat, {});
  const auto plan = opt.Plan(sql);
  if (!plan.ok()) {
    std::fprintf(stderr, "error: %s\n", plan.status().message().c_str());
    return 1;
  }

  obs::TraceRecorder trace;
  std::vector<core::Prediction> predictions;
  {
    obs::Span span(&trace, "predict");
    predictions = predictor.PredictBatch(
        {ml::PlanFeatureVector(plan.value())}, &trace);
  }
  std::printf("prediction:\n");
  PrintPrediction(predictions[0]);

  const engine::ExecutionSimulator sim(&cat,
                                       engine::SystemConfig::Neoview4());
  const engine::QueryMetrics actual = sim.Execute(plan.value(), &trace);
  std::printf("simulated actual:\n  %s\n", actual.ToString().c_str());

  if (!WriteTextFile(trace_path, trace.ToJson())) return 1;
  std::printf("trace: %zu events written to %s "
              "(load in chrome://tracing or ui.perfetto.dev)\n",
              trace.event_count(), trace_path.c_str());
  return 0;
}

int CmdChaos(const Args& args) {
  fault::ChaosOptions opts;
  opts.seed = args.number("seed", 42);
  opts.requests = args.number("requests", 400);
  opts.queries = args.number("queries", 24);

  // The selected run; with none, the six scenarios run in table order.
  const std::string run = args.flag("fabric-soak") ? "fabric-soak"
                          : args.flag("soak")
                              ? "soak"
                              : args.get("scenario", "all");
  const std::vector<std::string> runs =
      run == "all" ? fault::ChaosScenarioNames()
                   : std::vector<std::string>{run};
  if (run == "fabric-soak" && opts.requests < fault::kFabricSoakMinRequests) {
    std::fprintf(stderr,
                 "error: --fabric-soak needs --requests >= %zu for its "
                 "replica kill to fire, got %zu\n",
                 fault::kFabricSoakMinRequests, opts.requests);
    return Usage();
  }

  // A plan belongs to one run: saving or replaying one needs that run
  // named, so a replay injects exactly the schedule that was saved.
  const std::string plan_path = args.get("plan");
  const std::string save_path = args.get("save-plan");
  for (const char* flag : {"plan", "save-plan"}) {
    if (args.flag(flag) &&
        (run == "all" || !fault::ChaosScenarioPlan(run, opts).has_value())) {
      std::fprintf(stderr,
                   "error: --%s needs one known run: --scenario NAME, "
                   "--soak or --fabric-soak\n",
                   flag);
      return Usage();
    }
  }
  if (!plan_path.empty()) {
    const auto loaded = fault::LoadFaultPlanFile(plan_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: %s\n", loaded.status().message().c_str());
      return 1;
    }
    opts.plan = loaded.value();
    // The fabric soak sizes its counted replica kill to --requests, which
    // the plan file does not record: a plan saved at another size would
    // never fire its kill, so refuse it instead of running a failing soak.
    if (run == "fabric-soak") {
      const uint64_t saved = opts.plan->serve.replica_kill_after_picks;
      const uint64_t sized =
          fault::ChaosScenarioPlan(run, opts)->serve.replica_kill_after_picks;
      if (saved != sized) {
        std::fprintf(stderr,
                     "error: --plan %s kills its replica after %llu picks, "
                     "but a fabric soak of --requests %llu kills after %llu; "
                     "replay it at the --requests it was saved with\n",
                     plan_path.c_str(), static_cast<unsigned long long>(saved),
                     static_cast<unsigned long long>(opts.requests),
                     static_cast<unsigned long long>(sized));
        return Usage();
      }
    }
  } else if (!save_path.empty()) {
    opts.plan = fault::ChaosScenarioPlan(run, opts);
  }
  if (!save_path.empty()) {
    const Status st = fault::SaveFaultPlanFile(*opts.plan, save_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.message().c_str());
      return 1;
    }
    std::printf("fault plan saved to %s\n%s", save_path.c_str(),
                opts.plan->ToString().c_str());
  }

  std::vector<fault::ScenarioResult> results;
  for (const std::string& name : runs) {
    results.push_back(fault::RunChaosScenario(name, opts));
  }

  const std::string json_path = args.get("json-out");
  if (!json_path.empty()) {
    // Flat {"name": value} JSON in the fixed counter order: two runs with
    // the same options must produce identical bytes (CI diffs them), so
    // nothing wall-clock-derived belongs here.
    std::vector<std::pair<std::string, double>> counters;
    for (const fault::ScenarioResult& r : results) {
      counters.insert(counters.end(), r.counters.begin(), r.counters.end());
    }
    std::string json = "{\n";
    for (size_t i = 0; i < counters.size(); ++i) {
      json += StrFormat("  \"%s\": %.17g%s\n", counters[i].first.c_str(),
                        counters[i].second,
                        i + 1 < counters.size() ? "," : "");
    }
    json += "}\n";
    if (!WriteTextFile(json_path, json)) return 1;
    // stderr, not stdout: the stdout report must stay byte-identical
    // across same-seed runs even when the --json-out paths differ.
    std::fprintf(stderr, "counters written to %s\n", json_path.c_str());
  }

  bool ok = true;
  for (const fault::ScenarioResult& r : results) {
    std::printf("=== %s (seed %llu): %s ===\n%s", r.name.c_str(),
                static_cast<unsigned long long>(opts.seed),
                r.ok() ? "PASS" : "FAIL", r.report.c_str());
    for (const std::string& violation : r.violations) {
      std::printf("  VIOLATION: %s\n", violation.c_str());
      ok = false;
    }
    std::printf("\n");
  }
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return Usage();
  try {
    if (args.command == "pools") return CmdPools(args);
    if (args.command == "train") return CmdTrain(args);
    if (args.command == "plan") return CmdPlan(args);
    if (args.command == "predict") return CmdPredict(args);
    if (args.command == "explain") return CmdExplain(args);
    if (args.command == "serve") return CmdServe(args);
    if (args.command == "obs") return CmdObs(args);
    if (args.command == "chaos") return CmdChaos(args);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "internal error: %s\n", e.what());
    return 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return Usage();
}
