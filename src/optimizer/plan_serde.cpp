#include "optimizer/plan_serde.h"

#include <cmath>
#include <istream>
#include <ostream>
#include <string>

#include "common/serde.h"

namespace qpp::optimizer {

namespace {

constexpr uint32_t kMagic = 0x4E4C5051;  // "QPLN"
constexpr uint32_t kVersion = 1;
constexpr uint64_t kMaxNodes = 1 << 20;  // sanity bound on corrupt input
constexpr uint32_t kKnownFlags = 1u | 2u;  // semi | broadcast

void WriteNode(const PhysicalNode& node, BinaryWriter* w) {
  w->WriteU32(static_cast<uint32_t>(node.op));
  w->WriteDouble(node.est_rows);
  w->WriteDouble(node.true_rows);
  w->WriteDouble(node.est_input_rows);
  w->WriteDouble(node.true_input_rows);
  w->WriteDouble(node.row_width);
  w->WriteString(node.table);
  w->WriteString(node.detail);
  w->WriteU32((node.semi ? 1u : 0u) | (node.broadcast ? 2u : 0u));
  w->WriteU64(node.num_predicates);
  w->WriteU64(node.num_group_cols);
  w->WriteU64(node.num_aggs);
  w->WriteU64(node.children.size());
  for (const auto& child : node.children) WriteNode(*child, w);
}

/// Reads a cardinality, width or cost: finite and non-negative.
double ReadQuantity(BinaryReader* r, const char* what) {
  const double v = r->ReadDouble();
  QPP_CHECK_MSG(std::isfinite(v) && v >= 0.0,
                "plan file " << what << " is negative or not finite");
  return v;
}

std::unique_ptr<PhysicalNode> ReadNode(BinaryReader* r, size_t* budget,
                                       size_t depth) {
  QPP_CHECK_MSG(*budget > 0, "plan node count exceeds sanity bound");
  QPP_CHECK_MSG(depth <= kMaxPlanDepth,
                "plan tree deeper than " << kMaxPlanDepth << " levels");
  --*budget;
  auto node = std::make_unique<PhysicalNode>();
  const uint32_t op = r->ReadU32();
  QPP_CHECK_MSG(op < kNumPhysOps, "unknown operator id in plan file");
  node->op = static_cast<PhysOp>(op);
  node->est_rows = ReadQuantity(r, "est_rows");
  node->true_rows = ReadQuantity(r, "true_rows");
  node->est_input_rows = ReadQuantity(r, "est_input_rows");
  node->true_input_rows = ReadQuantity(r, "true_input_rows");
  node->row_width = ReadQuantity(r, "row_width");
  node->table = r->ReadString();
  node->detail = r->ReadString();
  const uint32_t flags = r->ReadU32();
  QPP_CHECK_MSG((flags & ~kKnownFlags) == 0, "unknown flag bits in plan file");
  node->semi = (flags & 1u) != 0;
  node->broadcast = (flags & 2u) != 0;
  node->num_predicates = static_cast<size_t>(r->ReadU64());
  node->num_group_cols = static_cast<size_t>(r->ReadU64());
  node->num_aggs = static_cast<size_t>(r->ReadU64());
  const uint64_t n_children = r->ReadU64();
  QPP_CHECK_MSG(n_children <= kMaxNodes, "implausible child count");
  // No reserve: the claimed count is not backed by any bytes yet, so the
  // vector grows only as children actually arrive.
  for (uint64_t i = 0; i < n_children; ++i) {
    node->children.push_back(ReadNode(r, budget, depth + 1));
  }
  return node;
}

}  // namespace

void WritePlan(const PhysicalPlan& plan, std::ostream* os) {
  QPP_CHECK(plan.root != nullptr);
  BinaryWriter w(*os);
  w.WriteU32(kMagic);
  w.WriteU32(kVersion);
  w.WriteString(plan.sql);
  w.WriteU64(plan.query_hash);
  w.WriteDouble(plan.optimizer_cost);
  WriteNode(*plan.root, &w);
}

Result<PhysicalPlan> ReadPlan(std::istream* is) {
  try {
    BinaryReader r(*is);
    if (r.ReadU32() != kMagic) return Status::Error("not a qpp plan file");
    if (r.ReadU32() != kVersion) {
      return Status::Error("unsupported plan file version");
    }
    PhysicalPlan plan;
    plan.sql = r.ReadString();
    plan.query_hash = r.ReadU64();
    plan.optimizer_cost = ReadQuantity(&r, "optimizer_cost");
    size_t budget = kMaxNodes;
    plan.root = ReadNode(&r, &budget, /*depth=*/1);
    if (is->peek() != std::char_traits<char>::eof()) {
      return Status::Error("plan read failed: bytes after the root node");
    }
    return plan;
  } catch (const CheckFailure& e) {
    return Status::Error(std::string("plan read failed: ") + e.what());
  }
}

Status SavePlanFile(const PhysicalPlan& plan, const std::string& path) {
  return WriteFile(path, "plan",
                   [&](std::ostream& os) { WritePlan(plan, &os); });
}

Result<PhysicalPlan> LoadPlanFile(const std::string& path) {
  return ReadFile<PhysicalPlan>(
      path, "plan", [](std::istream& is) { return ReadPlan(&is); });
}

}  // namespace qpp::optimizer
