#ifndef SENSJOIN_JOIN_FILTER_INDEX_H_
#define SENSJOIN_JOIN_FILTER_INDEX_H_

#include <cstdint>
#include <vector>

#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/constraint.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {

/// The execution plan of the base station's pre-computation join: a table
/// probing order plus, per nesting level, the compiled predicates to
/// evaluate and the probe constraints that restrict that level's candidates
/// to a contiguous range of a sorted per-dimension key index.
///
/// Ordering heuristic (estimated selectivity proxy): the first table is the
/// one referenced by the most join predicates — placing it early unlocks
/// constraints against its neighbors — and each following slot greedily
/// takes the table with the most extractable probe constraints against the
/// tables already placed, so every level after the first is probed through
/// an index whenever the predicates allow it. Reordering is free: a full
/// assignment matches iff every predicate is non-false, independent of the
/// nesting order, so the result is identical to a left-to-right nested loop.
class FilterJoinPlan {
 public:
  FilterJoinPlan(const query::AnalyzedQuery& q, const JoinAttrCodec& codec);

  /// One probe constraint mapped onto a quantizer dimension.
  struct Probe {
    query::ProbeConstraint constraint;
    int dim;  ///< quantizer dimension index of the constrained attribute
  };

  /// One nesting level of the DFS.
  struct Level {
    int table;  ///< original FROM index assigned at this level
    /// Predicates whose last referenced table (in probing order) is this
    /// level's; each is evaluated on every surviving candidate.
    std::vector<query::CompiledPredicate> preds;
    std::vector<Probe> probes;
  };

  const std::vector<Level>& levels() const { return levels_; }

  /// True if at least one level can be probed through an index; when false,
  /// every level enumerates its eligible keys.
  bool has_probes() const { return num_constraints_ > 0; }
  int num_constraints() const { return num_constraints_; }

 private:
  std::vector<Level> levels_;
  int num_constraints_ = 0;
};

/// Runs the plan's DFS over the keys of `collected`: probed levels visit the
/// candidates inside their constraints' cell windows, the others all
/// eligible keys, and every candidate is re-evaluated against the level's
/// predicates, so the windows only skip certainly-false combinations. The
/// result's filter holds the keys of every enumerated combination that no
/// predicate rejects.
///
/// With `added` null, every combination of eligible keys is enumerated.
/// Otherwise (`added` ⊆ collected) exactly the combinations touching at
/// least one added key are, each once: for every pivot level p, the levels
/// before p draw from the other keys only, level p from the added keys
/// (evaluated without probing: they are few), and the levels after p from
/// all keys.
FilterJoinResult RunFilterJoinPlan(const FilterJoinPlan& plan,
                                   const query::AnalyzedQuery& q,
                                   const JoinAttrCodec& codec,
                                   const PointSet& collected,
                                   const std::vector<uint64_t>* added);

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_FILTER_INDEX_H_
