#include "inputs.h"

#include <cstring>
#include <fstream>
#include <set>

#include "bench_util.h"
#include "common/check.h"
#include "common/serde.h"
#include "core/experiment.h"

namespace qpp::ledger {

namespace {

constexpr uint32_t kMagic = 0x4C505051;  // "QPPL"
constexpr uint32_t kVersion = 2;

void WriteMetrics(BinaryWriter* w, const engine::QueryMetrics& m) {
  w->WriteDoubles(m.ToVector());
  w->WriteDouble(m.cpu_seconds);
  w->WriteDouble(m.peak_memory_bytes);
}

engine::QueryMetrics ReadMetrics(BinaryReader* r) {
  engine::QueryMetrics m = engine::QueryMetrics::FromVector(r->ReadDoubles());
  m.cpu_seconds = r->ReadDouble();
  m.peak_memory_bytes = r->ReadDouble();
  return m;
}

void WriteExamples(BinaryWriter* w,
                   const std::vector<ml::TrainingExample>& examples) {
  w->WriteU64(examples.size());
  for (const ml::TrainingExample& ex : examples) {
    w->WriteDoubles(ex.query_features);
    WriteMetrics(w, ex.metrics);
  }
}

std::vector<ml::TrainingExample> ReadExamples(BinaryReader* r) {
  std::vector<ml::TrainingExample> out(r->ReadU64());
  for (ml::TrainingExample& ex : out) {
    ex.query_features = r->ReadDoubles();
    ex.metrics = ReadMetrics(r);
  }
  return out;
}

void WriteBuild(BinaryWriter* w, const BuildSet& b) {
  w->WriteU64(b.sql.size());
  for (const std::string& sql : b.sql) w->WriteString(sql);
  WriteExamples(w, b.examples);
}

BuildSet ReadBuild(BinaryReader* r, const std::string& path) {
  BuildSet b;
  b.sql.resize(r->ReadU64());
  for (std::string& sql : b.sql) sql = r->ReadString();
  b.examples = ReadExamples(r);
  QPP_CHECK_MSG(b.sql.size() == b.examples.size(),
                path << ": misaligned training set");
  return b;
}

BuildSet MakeBuild(const workload::QueryPools& pools,
                   const std::vector<size_t>& rows) {
  BuildSet b;
  for (const size_t idx : rows) b.sql.push_back(pools.queries[idx].query.sql);
  b.examples = core::MakeExamples(pools, rows);
  return b;
}

}  // namespace

bool SameBits(const linalg::Vector& a, const linalg::Vector& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameMetrics(const engine::QueryMetrics& a,
                 const engine::QueryMetrics& b) {
  return SameBits(a.ToVector(), b.ToVector()) &&
         SameBits({a.cpu_seconds, a.peak_memory_bytes},
                  {b.cpu_seconds, b.peak_memory_bytes});
}

Inputs GenerateInputs(uint64_t seed) {
  const bench::PaperExperiment exp = bench::BuildPaperExperiment(seed);
  const std::vector<workload::PooledQuery>& queries = exp.data.pools.queries;
  Inputs in;
  in.seed = seed;
  in.builds.push_back(MakeBuild(exp.data.pools, exp.split.train));
  for (const size_t idx : exp.split.train) {
    in.train_cost.push_back(queries[idx].plan.optimizer_cost);
  }
  for (size_t k = 1; k < kBuildSets; ++k) {
    // BuildPaperExperiment draws the Experiment-1 split with seed ^ 0x5713A7.
    const workload::TrainTestSplit split = workload::SampleSplit(
        exp.data.pools, bench::kTrainFeathers, bench::kTrainGolf,
        bench::kTrainBowling, 0, 0, 0, (seed ^ 0x5713A7ull) + k);
    in.builds.push_back(MakeBuild(exp.data.pools, split.train));
  }
  in.test = exp.test;
  std::set<size_t> train_rows(exp.split.train.begin(), exp.split.train.end());
  std::set<linalg::Vector> seen;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (train_rows.count(i) > 0) continue;
    linalg::Vector features = ml::PlanFeatureVector(queries[i].plan);
    if (!seen.insert(features).second) continue;
    in.serve_features.push_back(std::move(features));
    in.serve_cost.push_back(queries[i].plan.optimizer_cost);
  }
  return in;
}

void SaveInputs(const Inputs& in, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  QPP_CHECK_MSG(os.good(), "cannot write " << path);
  BinaryWriter w(os);
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);
  w.WriteU64(in.seed);
  WriteBuild(&w, in.builds[0]);
  w.WriteDoubles(in.train_cost);
  WriteExamples(&w, in.test);
  w.WriteU64(in.serve_features.size());
  for (const linalg::Vector& f : in.serve_features) w.WriteDoubles(f);
  w.WriteDoubles(in.serve_cost);
  w.WriteU64(in.builds.size());
  for (size_t k = 1; k < in.builds.size(); ++k) WriteBuild(&w, in.builds[k]);
  os.flush();
  QPP_CHECK_MSG(os.good(), "short write to " << path);
}

Inputs LoadInputs(const std::string& path, size_t builds) {
  std::ifstream is(path, std::ios::binary);
  QPP_CHECK_MSG(is.good(), "cannot read " << path);
  BinaryReader r(is);
  QPP_CHECK_MSG(r.ReadU32() == kMagic, path << " is not a ledger input file");
  QPP_CHECK_MSG(r.ReadU32() == kVersion, path << ": unsupported version");
  Inputs in;
  in.seed = r.ReadU64();
  in.builds.push_back(ReadBuild(&r, path));
  in.train_cost = r.ReadDoubles();
  in.test = ReadExamples(&r);
  in.serve_features.resize(r.ReadU64());
  for (linalg::Vector& f : in.serve_features) f = r.ReadDoubles();
  in.serve_cost = r.ReadDoubles();
  QPP_CHECK_MSG(in.train_cost.size() == in.train().size() &&
                    in.serve_cost.size() == in.serve_features.size(),
                path << ": misaligned sections");
  const uint64_t stored = r.ReadU64();
  QPP_CHECK_MSG(builds <= stored, path << " holds only " << stored
                                      << " training sets");
  while (in.builds.size() < builds) in.builds.push_back(ReadBuild(&r, path));
  return in;
}

}  // namespace qpp::ledger
