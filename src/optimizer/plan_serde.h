// Binary (de)serialization of physical plans.
//
// The paper's deployment (Fig. 1) featurizes queries at the customer site
// from plans produced by a configuration-matched optimizer ("most
// commercial databases provide tools that can be configured to simulate a
// given system and obtain the same query plans as would be produced on the
// target system"). Serialized plans are the interchange format for that
// flow: the sizing tool dumps candidate-system plans, and the predictor
// featurizes them without re-planning.
#pragma once

#include <iosfwd>

#include "common/status.h"
#include "optimizer/physical_plan.h"

namespace qpp::optimizer {

/// The deepest plan tree ReadPlan accepts, counting the root as level 1.
/// The optimizer's deepest plan over the TPC-DS and retailbank template
/// sets has 15 levels; the bound keeps the recursive readers and walkers
/// far inside the stack, sanitizer frames included.
inline constexpr size_t kMaxPlanDepth = 1024;

/// Writes a plan (tree, cardinalities, annotations, cost) to a stream.
void WritePlan(const PhysicalPlan& plan, std::ostream* os);

/// Reads a plan written by WritePlan: the stream must hold exactly one
/// plan. Fails on malformed input: a bad magic or version, an unknown
/// operator or flag bit, a non-finite or negative cardinality, width or
/// cost, a tree deeper than kMaxPlanDepth, truncation, or bytes after the
/// root node.
Result<PhysicalPlan> ReadPlan(std::istream* is);

/// File-level convenience wrappers.
Status SavePlanFile(const PhysicalPlan& plan, const std::string& path);
Result<PhysicalPlan> LoadPlanFile(const std::string& path);

}  // namespace qpp::optimizer
