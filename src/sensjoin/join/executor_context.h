#ifndef SENSJOIN_JOIN_EXECUTOR_CONTEXT_H_
#define SENSJOIN_JOIN_EXECUTOR_CONTEXT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sensjoin/data/network_data.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::join {

/// Per-execution node-side state shared by the join executors: which
/// relations each node contributes to (membership and pushed-down
/// selections applied, Fig. 1 line 9), its sensed snapshot tuple, and the
/// wire size of the attributes it would ship.
class ExecutorContext {
 public:
  /// Senses every node once for `epoch` (ONCE semantics: sensors are read
  /// exactly once per execution; Sec. IV-D).
  ExecutorContext(const data::NetworkData& data,
                  const query::AnalyzedQuery& q, uint64_t epoch);

  struct NodeInfo {
    /// Bit r set iff the node contributes a tuple through some FROM entry
    /// of the r-th distinct relation (selection predicates applied).
    uint8_t membership = 0;
    bool has_tuple = false;  ///< membership != 0
    data::Tuple tuple;       ///< full sensed tuple (valid iff has_tuple)
    /// Wire bytes of the shipped projection of this node's tuple.
    int full_tuple_bytes = 0;
  };

  const NodeInfo& info(sim::NodeId id) const { return infos_[id]; }
  int num_nodes() const { return static_cast<int>(infos_.size()); }

  const query::AnalyzedQuery& query() const { return *query_; }
  const std::vector<std::string>& relation_names() const {
    return relation_names_;
  }
  int num_relations() const { return static_cast<int>(relation_names_.size()); }

  /// True if `tuple` qualifies for FROM entry `table` (relation membership
  /// of the owning node and the table's selection predicate).
  bool PassesTable(const data::Tuple& tuple, int table) const;

  /// Splits `candidates` (borrowed) into per-table tuple lists for the
  /// base station's exact join.
  std::vector<std::vector<const data::Tuple*>> PerTableCandidates(
      const std::vector<data::Tuple>& candidates) const;

 private:
  /// Evaluates table `table`'s selection over `tuple` standing in for it.
  bool PassesSelection(int table, const data::Tuple& tuple) const;

  const data::NetworkData* data_;
  const query::AnalyzedQuery* query_;
  /// Compiled selection per FROM entry (nullopt: none).
  std::vector<std::optional<query::CompiledPredicate>> selections_;
  std::vector<std::string> relation_names_;
  std::vector<int> table_relation_bit_;
  std::vector<NodeInfo> infos_;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_EXECUTOR_CONTEXT_H_
