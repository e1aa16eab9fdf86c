// qpp_ledger: one benchmark for both of the paper's paths (README.md).
//
//   qpp_ledger gen --seed N --out FILE
//       generates the workload inputs for seed N into FILE
//   qpp_ledger run --inputs FILE --workload serve-cold|serve-hot|offline
//                  [--seconds S] [--trace 0|1] [--spans-out FILE]
//       sets the program up, measures for S seconds, checks every output,
//       and prints one metric per line and, last, one JSON object: the
//       end-to-end metrics (--trace 0) or the per-layer ones (--trace 1).
//
// ledger/run.py builds this binary and runs both steps.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "common/check.h"
#include "golden_metrics.h"
#include "ledger.h"
#include "par/simd.h"
#include "par/thread_pool.h"

namespace qpp::ledger {
namespace {

struct MetricName {
  const char* name;
  const char* unit;
};

// Every run prints the same names, the ones BENCHMARK.json lists: a layer
// the workload does not pass through reads 0.
constexpr MetricName kEndToEnd[] = {
    {"setup_s", "s"}, {"lat_p50_us", "us"}, {"rss_mb", "MB"}};
constexpr MetricName kLayers[] = {
    {"fabric.submit_us", "us"},        {"fabric.route_hit_share", "ratio"},
    {"core.predict_us", "us"},         {"client.wait_us", "us"},
    {"client.own_us", "us"},
    {"serve.service_us", "us"},        {"serve.wake_us", "us"},
    {"serve.cache_hit_share", "ratio"}, {"serve.batch_mean", "count"},
    {"core.batch_preprocess_us", "us"}, {"core.batch_kernel_us", "us"},
    {"core.batch_solve_us", "us"},     {"core.batch_project_us", "us"},
    {"core.batch_knn_us", "us"},       {"core.batch_assemble_us", "us"},
    {"serve.fallback_us", "us"},       {"sql.parse_us", "us"},
    {"optimizer.plan_us", "us"},       {"engine.simulate_us", "us"},
    {"ml.features_us", "us"},          {"ml.preprocess_ms", "ms"},
    {"ml.kcca_train_ms", "ms"},        {"ml.kdtree_build_ms", "ms"},
    {"ml.self_knn_ms", "ms"},          {"reconcile.ratio", "ratio"},
    {"trace.overhead_pct", "%"},       {"host.probe_us", "us"},
    {"host.probe_drift_pct", "%"},     {"host.nproc", "count"},
    {"host.par_threads", "count"},     {"host.simd_lanes", "count"},
    {"diag.samples", "count"},         {"diag.qps", "1/s"},
    {"diag.lat_p90_us", "us"},         {"diag.lat_p99_us", "us"},
};

int Usage() {
  std::fprintf(stderr,
               "usage: qpp_ledger gen --seed N --out FILE\n"
               "       qpp_ledger run --inputs FILE --workload "
               "serve-cold|serve-hot|offline [--seconds S] [--trace 0|1] "
               "[--spans-out FILE]\n");
  return 2;
}

/// At the paper's seed the base model must still reproduce the pinned
/// Experiment-1 risks (tests/golden/exp1.json within tolerances.json).
bool GoldenRisksHold(const Inputs& in) {
  bench::PaperExperiment exp;
  exp.train = in.train();
  exp.test = in.test;
  const bench::GoldenMap computed = bench::ComputeExp1(exp).values;
  const std::string dir = QPP_LEDGER_GOLDEN_DIR;
  const bench::GoldenMap golden = bench::ReadGoldenJson(dir + "/exp1.json");
  const bench::GoldenMap tol = bench::ReadGoldenJson(dir + "/tolerances.json");
  if (computed.size() != golden.size()) return false;
  for (const auto& [key, pinned] : golden) {
    const auto c = computed.find(key);
    const auto t = tol.find(key);
    if (c == computed.end() || t == tol.end()) return false;
    if (!(std::abs(c->second - pinned) <= t->second)) return false;
  }
  return true;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Run(const std::map<std::string, std::string>& args) {
  Options opt;
  opt.workload = args.count("workload") ? args.at("workload") : "";
  if (opt.workload != "serve-cold" && opt.workload != "serve-hot" &&
      opt.workload != "offline") {
    return Usage();
  }
  if (args.count("seconds")) opt.seconds = std::stod(args.at("seconds"));
  if (args.count("trace")) opt.trace = args.at("trace") == "1";
  if (args.count("spans-out")) opt.spans_out = args.at("spans-out");
  if (!args.count("inputs") || !(opt.seconds > 0.0)) return Usage();

  const Inputs in = LoadInputs(args.at("inputs"), opt.workload == "offline"
                                                      ? kBuildSets
                                                      : size_t{kSetups});
  const char* threads_env = std::getenv("QPP_THREADS");
  std::printf("ledger: workload %s, seed %llu, %.0f s, trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(in.seed),
              opt.seconds, opt.trace ? 1 : 0);
  std::printf("host: nproc %u, QPP_THREADS %s, par pool %zu threads, "
              "simd %s (%zu lanes)\n",
              std::thread::hardware_concurrency(),
              threads_env != nullptr ? threads_env : "unset",
              par::EffectiveThreads(), simd::ActiveIsa(),
              simd::CompiledLanes());
  const double probe_before = HostProbeUs();

  Report report;
  if (opt.workload == "offline") {
    RunOffline(in, opt, &report);
  } else {
    RunServe(in, opt, opt.workload == "serve-hot", &report);
  }
  if (in.seed == 42) {
    report.Check("seed 42: base model reproduces the golden Exp-1 risks",
                 GoldenRisksHold(in));
  }
  const double probe_after = HostProbeUs();
  report.Layer("host.probe_us", (probe_before + probe_after) / 2.0, "us");
  report.Layer("host.probe_drift_pct", (probe_after / probe_before - 1.0) * 100.0, "%");
  report.Layer("host.nproc", std::thread::hardware_concurrency(), "count");
  report.Layer("host.par_threads", static_cast<double>(par::EffectiveThreads()), "count");
  report.Layer("host.simd_lanes", static_cast<double>(simd::CompiledLanes()), "count");

  for (const auto& [what, ok] : report.checks) {
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
  }
  for (const Report::Metric& m : report.end_to_end) {
    std::printf("metric %-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const Report::Metric& m : report.layers) {
    std::printf("layer  %-24s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::vector<Report::Metric> shown;
  const auto collect = [&](const auto& names,
                           const std::vector<Report::Metric>& measured) {
    for (const MetricName& m : names) {
      const auto it = std::find_if(
          measured.begin(), measured.end(),
          [&](const Report::Metric& x) { return x.name == m.name; });
      QPP_CHECK_MSG(it != measured.end() || opt.trace,
                    "end-to-end metric not measured: " << m.name);
      QPP_CHECK(it == measured.end() || it->unit == m.unit);
      shown.push_back({m.name, it == measured.end() ? 0.0 : it->value, m.unit});
    }
  };
  if (opt.trace) {
    collect(kLayers, report.layers);
  } else {
    collect(kEndToEnd, report.end_to_end);
  }
  std::ostringstream json;
  json << "{\"correct\": " << (report.correct() ? "true" : "false")
       << ", \"attempted\": " << report.attempted
       << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (size_t i = 0; i < shown.size(); ++i) {
    json << (i == 0 ? "" : ", ") << "\"" << shown[i].name
         << "\": {\"value\": " << JsonNumber(shown[i].value)
         << ", \"unit\": \"" << shown[i].unit << "\"}";
  }
  json << "}}";
  std::printf("%s\n", json.str().c_str());
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return Usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if ((argc - 2) % 2 != 0) return Usage();
  if (mode == "gen") {
    if (!args.count("seed") || !args.count("out")) return Usage();
    SaveInputs(GenerateInputs(std::stoull(args.at("seed"))), args.at("out"));
    return 0;
  }
  if (mode == "run") return Run(args);
  return Usage();
}

}  // namespace
}  // namespace qpp::ledger

int main(int argc, char** argv) {
  try {
    return qpp::ledger::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qpp_ledger: %s\n", e.what());
    return 1;
  }
}
