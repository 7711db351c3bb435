#ifndef SENSJOIN_JOIN_JOIN_FILTER_H_
#define SENSJOIN_JOIN_JOIN_FILTER_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {

/// Output of the base station's pre-computation join (step 1a).
struct FilterJoinResult {
  /// The join filter: the subset of collected keys that participate in at
  /// least one (conservatively) matching combination. Nodes whose
  /// join-attribute tuple is in this set ship their complete tuple.
  PointSet filter;

  /// Key combinations whose predicates were evaluated.
  size_t combinations_evaluated = 0;
  /// Combinations that were not certainly false.
  size_t combinations_matched = 0;

  /// Index range lookups performed.
  size_t index_probes = 0;
  /// Probe constraints the planner extracted from the join predicates.
  size_t constraints_extracted = 0;

  FilterJoinResult() : filter(nullptr) {}
  explicit FilterJoinResult(PointSet f) : filter(std::move(f)) {}
};

/// Maps the FROM-list tables of `q` to relation bit indices (bit r of a
/// key's flags = membership in the r-th distinct relation of the query, in
/// FROM order).
std::vector<int> TableRelationBits(const query::AnalyzedQuery& q);

/// Joins the collected (quantized) join-attribute tuples at the base
/// station. Join predicates are evaluated over cell intervals with
/// three-valued logic; a combination is kept unless some predicate is
/// certainly false, so quantization can only add false positives, never
/// drop a real result tuple (footnote 2). A key is eligible for table t iff
/// its relation flags include t's relation. Runs the DFS of a
/// FilterJoinPlan (filter_index.h) built for `q`.
FilterJoinResult ComputeJoinFilter(const query::AnalyzedQuery& q,
                                   const JoinAttrCodec& codec,
                                   const PointSet& collected);

/// Incrementally extends `previous` — the filter of the previous epoch's
/// collected set — to the filter of `collected`, where `added` is the
/// set-level difference collected_now \ collected_before.
///
/// Precondition (caller-checked): no key removed since the previous epoch
/// was in `previous`. A key outside the filter matched no combination, so
/// its removal cannot invalidate any other key's membership; every key of
/// `previous` therefore still matches, and new members can only come from
/// combinations touching at least one added key. The plan's DFS enumerates
/// exactly those, each once (pivoting on the first plan level holding an
/// added key), so the filter is bit-identical to
/// ComputeJoinFilter(q, codec, collected).filter at a cost proportional to
/// the added fraction instead of the full join; combinations_matched counts
/// the matching combinations that touch an added key.
FilterJoinResult ComputeJoinFilterDelta(const query::AnalyzedQuery& q,
                                        const JoinAttrCodec& codec,
                                        const PointSet& collected,
                                        const PointSet& previous,
                                        const std::vector<uint64_t>& added);

/// Epoch-to-epoch join-filter cache for continuous execution: picks the
/// cheapest sound maintenance path per epoch (reuse / delta join / full
/// recompute) from the set-level collection delta reported by
/// DeltaGroupExecutor. The produced filter is always bit-identical to a
/// from-scratch ComputeJoinFilter over the same collected set.
class IncrementalJoinFilter {
 public:
  /// Returns the filter for `collected`. `added`/`removed` describe the
  /// set-level change since the previous Update; they are ignored when the
  /// cache is empty (first call or after Reset), which forces a full
  /// computation.
  const FilterJoinResult& Update(const query::AnalyzedQuery& q,
                                 const JoinAttrCodec& codec,
                                 const PointSet& collected,
                                 const std::vector<uint64_t>& added,
                                 const std::vector<uint64_t>& removed);

  /// Drops the cache; the next Update recomputes from scratch.
  void Reset() { valid_ = false; }

  bool valid() const { return valid_; }
  /// Last produced result (valid() only).
  const FilterJoinResult& last() const { return *last_; }

  /// Maintenance-path counters (cumulative since construction).
  size_t reuses() const { return reuses_; }
  size_t incremental_updates() const { return incremental_updates_; }
  size_t full_recomputes() const { return full_recomputes_; }

 private:
  bool valid_ = false;
  /// Engaged after the first Update (PointSet has no null state, so the
  /// cache cannot be default-constructed).
  std::optional<FilterJoinResult> last_;
  size_t reuses_ = 0;
  size_t incremental_updates_ = 0;
  size_t full_recomputes_ = 0;
};

}  // namespace sensjoin::join

#endif  // SENSJOIN_JOIN_JOIN_FILTER_H_
