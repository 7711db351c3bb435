#ifndef SENSJOIN_JOIN_RESULT_H_
#define SENSJOIN_JOIN_RESULT_H_

#include <string>
#include <vector>

#include "sensjoin/data/tuple.h"
#include "sensjoin/query/query.h"
#include "sensjoin/sim/time.h"

namespace sensjoin::join {

/// The query answer computed at the base station. For aggregate queries
/// there is a single row; otherwise one row per matching tuple combination.
struct JoinResult {
  std::vector<std::string> column_labels;
  std::vector<std::vector<double>> rows;

  /// Number of tuple combinations satisfying all predicates.
  size_t matched_combinations = 0;

  /// Distinct nodes contributing a tuple to some matching combination
  /// (sorted). |contributing_nodes| / network size is the paper's "fraction
  /// of nodes in the result" parameter.
  std::vector<sim::NodeId> contributing_nodes;

  /// Per-row contributor sets: row_nodes[i] holds the distinct (sorted)
  /// nodes whose tuples formed rows[i]. Empty for aggregate queries (one
  /// synthetic row). This is what lets a completeness certificate be
  /// checked against the result exactly: a degraded execution must contain
  /// precisely the truth rows with no excluded contributor.
  std::vector<std::vector<sim::NodeId>> row_nodes;
};

/// Computes the exact join over full-precision tuples, applying the
/// query's join predicates, SELECT list and aggregates. `per_table_tuples`
/// holds, for each FROM entry, the candidate tuples of that table's
/// relation (full schema width; selections are assumed already applied).
/// Borrowed pointers must outlive the call.
JoinResult ComputeExactJoin(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples);

/// The same plan as ComputeExactJoin, asked only which candidates have a
/// join partner: element [t][p] is true iff per_table_tuples[t][p] takes
/// part in at least one combination satisfying all join predicates. Builds
/// no rows; a combination whose candidates are all marked already is not
/// checked at all.
std::vector<std::vector<bool>> PartneredCandidates(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples);

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_RESULT_H_
