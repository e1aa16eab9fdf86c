#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

#include "ledger.h"

namespace qpp::ledger {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

bool Report::correct() const {
  if (attempted == 0 || failed != 0) return false;
  for (const auto& [what, ok] : checks) {
    if (!ok) return false;
  }
  return true;
}

uint32_t SpanStore::Add(const char* name, uint64_t op, uint32_t parent,
                        int64_t start_ns, int64_t end_ns, uint64_t weight) {
  auto it = std::find_if(totals_.begin(), totals_.end(),
                         [name](const Total& t) { return t.name == name; });
  if (it == totals_.end()) it = totals_.insert(totals_.end(), Total{name});
  it->ns += static_cast<double>(end_ns - start_ns);
  it->count += weight;
  if (kept_.size() < kKept) {
    kept_.push_back({name, op, parent, start_ns, end_ns});
  }
  return next_id_++;
}

const SpanStore::Total* SpanStore::Find(const std::string& name) const {
  for (const Total& t : totals_) {
    if (name == t.name) return &t;
  }
  return nullptr;
}

double SpanStore::TotalNs(const std::string& name) const {
  const Total* t = Find(name);
  return t == nullptr ? 0.0 : t->ns;
}

double SpanStore::MeanUs(const std::string& name) const {
  const Total* t = Find(name);
  return t == nullptr || t->count == 0
             ? 0.0
             : t->ns / 1e3 / static_cast<double>(t->count);
}

bool SpanStore::Write(const std::string& path) const {
  std::ofstream os(path, std::ios::trunc);
  if (!os.good()) return false;
  const int64_t origin = kept_.empty() ? 0 : kept_.front().start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Rec& r = kept_[i];
    os << (i == 0 ? "" : ",") << "\n{\"name\":\"" << r.name
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":"
       << static_cast<double>(r.start_ns - origin) / 1e3
       << ",\"dur\":" << static_cast<double>(r.end_ns - r.start_ns) / 1e3
       << ",\"args\":{\"span\":" << i << ",\"op\":" << r.op;
    if (r.parent != kNoParent) os << ",\"parent\":" << r.parent;
    os << "}}";
  }
  os << "\n]}\n";
  return os.good();
}

uint64_t Fnv1a(std::string_view bytes, uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  return h;
}

double HostProbeUs() {
  // A dependent multiply-add chain: no memory traffic, no threads, no
  // library code, so its time moves only with the core's speed.
  constexpr int kReps = 31;
  constexpr int kSteps = 200000;
  std::vector<double> us;
  volatile double sink = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const int64_t t0 = NowNs();
    double x = 1.0 + rep * 1e-9;
    for (int i = 0; i < kSteps; ++i) x = x * 0.9999999 + 1e-7;
    sink = sink + x;
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
  }
  return Median(std::move(us));
}

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace qpp::ledger
