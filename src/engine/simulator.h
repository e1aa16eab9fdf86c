// The parallel shared-nothing execution simulator.
//
// This substitutes for the HP Neoview hardware the paper measured (see
// DESIGN.md §2). Given a physical plan annotated with TRUE cardinalities and
// a SystemConfig, it produces the six performance metrics. The model is a
// resource-time simulation, not a discrete-event engine:
//
//   elapsed = startup + Σ_op max(cpu_op, io_op, net_op) * noise
//
// where each operator's resource times are computed from its true input /
// output cardinalities, divided by the effective parallelism (nodes_used
// discounted by a deterministic per-query skew factor). The important
// properties for the reproduction are that metrics are
//   (a) deterministic per (query, configuration),
//   (b) strongly nonlinear in the plan feature vector — nested-loop joins
//       cost outer*inner, sorts n·log n, hash joins and sorts step up when
//       they spill past working memory, and the max() composition defeats
//       any linear model — exactly why the paper's regression baseline
//       fails while KCCA's neighbor interpolation succeeds.
#pragma once

#include "catalog/catalog.h"
#include "engine/metrics.h"
#include "engine/system_config.h"
#include "fault/fault_injector.h"
#include "obs/trace.h"
#include "optimizer/physical_plan.h"

namespace qpp::engine {

class ExecutionSimulator {
 public:
  ExecutionSimulator(const catalog::Catalog* catalog, SystemConfig config);

  /// Runs the plan; deterministic for a given (plan.query_hash, config).
  ///
  /// When `trace` is non-null, the run additionally emits profiling spans
  /// in *simulated* time onto the recorder's timeline (pid kSimulatorPid):
  /// a whole-query span containing one span per operator (laid out along
  /// the simulated critical path, pre-noise), plus cpu/io/net resource
  /// lanes showing each operator's per-resource time so the max() that
  /// decided its elapsed contribution is visible. Each traced call takes a
  /// fresh group of tracks, so successive queries never interleave.
  /// Tracing does not change the returned metrics.
  ///
  /// When `faults` is non-null and its plan enables engine faults, the run
  /// suffers the injected faults — disk stalls, message loss with
  /// retransmits, straggler nodes, node failures with work re-partitioning,
  /// buffer-pool pressure — sampled deterministically per
  /// (fault seed, query_hash, operator), so a faulted run is exactly as
  /// replayable as a clean one. Faults only ever slow the query down:
  /// every faulted metric is >= its clean value. A null injector (or a
  /// disabled plan) leaves the metrics bit-identical to the pre-fault
  /// code path.
  QueryMetrics Execute(const optimizer::PhysicalPlan& plan,
                       obs::TraceRecorder* trace = nullptr,
                       const fault::FaultInjector* faults = nullptr) const;

 private:
  struct OpCosts {
    double cpu_seconds = 0.0;   // total across nodes
    double io_pages = 0.0;      // total pages
    double net_bytes = 0.0;
    double net_messages = 0.0;
    double working_bytes = 0.0; // operator working set
  };

  /// `nodes` and `work_mem_bytes` default to the configured values; fault
  /// injection passes survivors-after-failure and pressured working memory.
  OpCosts CostOf(const optimizer::PhysicalNode& node, int nodes,
                 double work_mem_bytes) const;

  const catalog::Catalog* catalog_;
  SystemConfig config_;
};

}  // namespace qpp::engine
