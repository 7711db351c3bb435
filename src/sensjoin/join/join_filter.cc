#include "sensjoin/join/join_filter.h"

#include <algorithm>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/filter_index.h"

namespace sensjoin::join {

std::vector<int> TableRelationBits(const query::AnalyzedQuery& q) {
  const std::vector<std::string> names = q.RelationNames();
  std::vector<int> bits(q.num_tables(), -1);
  for (int t = 0; t < q.num_tables(); ++t) {
    for (size_t r = 0; r < names.size(); ++r) {
      if (names[r] == q.table(t).relation) {
        bits[t] = static_cast<int>(r);
        break;
      }
    }
    SENSJOIN_CHECK_GE(bits[t], 0);
  }
  return bits;
}

FilterJoinResult ComputeJoinFilter(const query::AnalyzedQuery& q,
                                   const JoinAttrCodec& codec,
                                   const PointSet& collected) {
  return RunFilterJoinPlan(FilterJoinPlan(q, codec), q, codec, collected,
                           /*added=*/nullptr);
}

FilterJoinResult ComputeJoinFilterDelta(const query::AnalyzedQuery& q,
                                        const JoinAttrCodec& codec,
                                        const PointSet& collected,
                                        const PointSet& previous,
                                        const std::vector<uint64_t>& added) {
  // All-old combinations were settled by the previous epoch.
  FilterJoinResult result =
      RunFilterJoinPlan(FilterJoinPlan(q, codec), q, codec, collected, &added);
  result.filter.UnionInPlace(previous);
  return result;
}

const FilterJoinResult& IncrementalJoinFilter::Update(
    const query::AnalyzedQuery& q, const JoinAttrCodec& codec,
    const PointSet& collected, const std::vector<uint64_t>& added,
    const std::vector<uint64_t>& removed) {
  if (valid_) {
    const bool removal_safe =
        std::none_of(removed.begin(), removed.end(), [this](uint64_t key) {
          return last_->filter.Contains(key);
        });
    if (removal_safe && added.empty()) {
      // Every filter member still matches its witnessing combination, and
      // no combination gained a participant: the filter is unchanged.
      ++reuses_;
      return *last_;
    }
    if (removal_safe && added.size() < collected.size()) {
      ++incremental_updates_;
      last_ =
          ComputeJoinFilterDelta(q, codec, collected, last_->filter, added);
      return *last_;
    }
    // A removed key was in the filter (its partners may have lost their
    // only witness) or the delta dominates the set: recompute.
  }
  ++full_recomputes_;
  last_ = ComputeJoinFilter(q, codec, collected);
  valid_ = true;
  return *last_;
}

}  // namespace sensjoin::join
