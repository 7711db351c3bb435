#include "sensjoin/join/executor_context.h"

#include <set>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/query/expr_eval.h"

namespace sensjoin::join {
namespace {

/// Evaluates table `t`'s selection over `tuple` standing in for that table.
bool PassesSelection(const query::AnalyzedQuery& q, int t,
                     const data::Tuple& tuple) {
  const query::Expr* selection = q.table(t).selection.get();
  if (selection == nullptr) return true;
  std::vector<const data::Tuple*> assignment(q.num_tables(), nullptr);
  assignment[t] = &tuple;
  query::TupleContext ctx(std::move(assignment));
  return query::EvalPredicate(*selection, ctx);
}

}  // namespace

ExecutorContext::ExecutorContext(const data::NetworkData& data,
                                 const query::AnalyzedQuery& q,
                                 uint64_t epoch)
    : data_(&data), query_(&q) {
  relation_names_ = q.RelationNames();
  table_relation_bit_ = TableRelationBits(q);
  SENSJOIN_CHECK_LE(relation_names_.size(), 6u);

  // Shipped-projection wire bytes per membership mask.
  std::vector<int> bytes_by_membership(1 << relation_names_.size(), 0);
  for (int mask = 1; mask < (1 << static_cast<int>(relation_names_.size()));
       ++mask) {
    std::set<int> attrs;
    for (size_t r = 0; r < relation_names_.size(); ++r) {
      if ((mask >> r) & 1) {
        const std::vector<int> idx = q.UnionQueriedAttrIndices(
            relation_names_[r]);
        attrs.insert(idx.begin(), idx.end());
      }
    }
    bytes_by_membership[mask] = q.schema().ProjectionWireBytes(
        std::vector<int>(attrs.begin(), attrs.end()));
  }

  const data::NetworkData::SnapshotDrift drift = data.DriftOf(epoch);
  infos_.resize(data.num_nodes());
  for (sim::NodeId id = 0; id < data.num_nodes(); ++id) {
    NodeInfo& info = infos_[id];
    // The base station (node 0) is a powered access point, not a sensor
    // tuple source.
    if (id == 0) continue;
    data::Tuple tuple = data.Sense(id, drift);
    uint8_t membership = 0;
    for (int t = 0; t < q.num_tables(); ++t) {
      const int r = table_relation_bit_[t];
      if (!data.BelongsTo(id, relation_names_[r])) continue;
      if (!PassesSelection(q, t, tuple)) continue;
      membership |= static_cast<uint8_t>(1u << r);
    }
    if (membership == 0) continue;
    info.membership = membership;
    info.has_tuple = true;
    info.tuple = std::move(tuple);
    info.full_tuple_bytes = bytes_by_membership[membership];
  }
}

bool ExecutorContext::PassesTable(const data::Tuple& tuple, int table) const {
  const int r = table_relation_bit_[table];
  if (!data_->BelongsTo(tuple.node, relation_names_[r])) return false;
  return PassesSelection(*query_, table, tuple);
}

std::vector<std::vector<const data::Tuple*>> ExecutorContext::
    PerTableCandidates(const std::vector<data::Tuple>& candidates) const {
  std::vector<std::vector<const data::Tuple*>> per_table(query_->num_tables());
  for (const data::Tuple& tuple : candidates) {
    for (int t = 0; t < query_->num_tables(); ++t) {
      if (PassesTable(tuple, t)) per_table[t].push_back(&tuple);
    }
  }
  return per_table;
}

}  // namespace sensjoin::join
