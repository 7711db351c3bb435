#include "sensjoin/join/filter_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "sensjoin/common/logging.h"

namespace sensjoin::join {
namespace {

/// Maps a conservative allowed interval of raw values to the inclusive
/// coordinate range of quantization cells whose intervals intersect it,
/// widened by one cell on each side: the inverse constraint arithmetic and
/// the forward predicate evaluation round independently, and a full cell of
/// slack (orders of magnitude above ulp-level disagreement) keeps the probe
/// a strict superset of what the predicates retain. Returns false when
/// the range is empty (the predicate is certainly false for every cell).
bool CellRange(const Quantizer& quant, int dim, query::Interval allowed,
               uint32_t* lo_out, uint32_t* hi_out) {
  if (!(allowed.lo <= allowed.hi)) return false;  // empty (or NaN: callers
                                                  // return full range first)
  const uint32_t size = quant.size_of_dim(dim);
  // First cell whose upper edge reaches allowed.lo. The top cell extends to
  // +inf, so the search always lands inside [0, size).
  uint32_t lo = 0;
  uint32_t hi = size - 1;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo) / 2;
    if (quant.CellInterval(dim, mid).hi >= allowed.lo) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  const uint32_t first = lo;
  // Last cell whose lower edge stays below allowed.hi. Cell 0 extends to
  // -inf, so this search lands inside [0, size) as well.
  lo = 0;
  hi = size - 1;
  while (lo < hi) {
    const uint32_t mid = lo + (hi - lo + 1) / 2;
    if (quant.CellInterval(dim, mid).lo <= allowed.hi) {
      lo = mid;
    } else {
      hi = mid - 1;
    }
  }
  const uint32_t last = lo;
  if (first > last) return false;
  *lo_out = first > 0 ? first - 1 : 0;
  *hi_out = last < size - 1 ? last + 1 : size - 1;
  return true;
}

/// Keys of one eligibility class sorted by one dimension's coordinate:
/// coord[i] ascending, key_index[i] the position in the collected key
/// vector. Ties keep key order, so probing is deterministic.
struct DimIndex {
  std::vector<uint32_t> coord;
  std::vector<uint32_t> key_index;
};

}  // namespace

FilterJoinPlan::FilterJoinPlan(const query::AnalyzedQuery& q,
                               const JoinAttrCodec& codec) {
  const int num_tables = q.num_tables();
  const Quantizer& quant = codec.quantizer();
  std::map<int, int> dim_of_attr;
  for (int d = 0; d < quant.num_dims(); ++d) {
    dim_of_attr[quant.dim(d).attr_index] = d;
  }

  const auto& preds = q.join_predicates();
  const int num_preds = static_cast<int>(preds.size());
  std::vector<std::set<int>> pred_tables(num_preds);
  // ext[p][t]: probe constraints of predicate p with table t as the probe,
  // restricted to attributes the quantizer actually indexes.
  std::vector<std::vector<std::vector<Probe>>> ext(
      num_preds, std::vector<std::vector<Probe>>(num_tables));
  std::vector<int> pred_count(num_tables, 0);
  for (int p = 0; p < num_preds; ++p) {
    preds[p]->CollectTableIndices(&pred_tables[p]);
    for (int t : pred_tables[p]) {
      ++pred_count[t];
      for (query::ProbeConstraint& c :
           query::ProbeConstraint::Extract(*preds[p], t)) {
        const auto it = dim_of_attr.find(c.attr_index());
        if (it != dim_of_attr.end()) {
          ext[p][t].push_back(Probe{std::move(c), it->second});
        }
      }
    }
  }

  // Greedy probing order (see class comment).
  std::vector<bool> placed(num_tables, false);
  std::vector<bool> scheduled(num_preds, false);
  for (int slot = 0; slot < num_tables; ++slot) {
    int best = -1;
    size_t best_probes = 0;
    int best_preds = -1;
    for (int t = 0; t < num_tables; ++t) {
      if (placed[t]) continue;
      size_t probes = 0;
      if (slot > 0) {
        for (int p = 0; p < num_preds; ++p) {
          if (scheduled[p] || pred_tables[p].count(t) == 0) continue;
          bool complete = true;
          for (int other : pred_tables[p]) {
            if (other != t && !placed[other]) complete = false;
          }
          if (complete) probes += ext[p][t].size();
        }
      }
      if (best < 0 || probes > best_probes ||
          (probes == best_probes && pred_count[t] > best_preds)) {
        best = t;
        best_probes = probes;
        best_preds = pred_count[t];
      }
    }
    placed[best] = true;

    Level level;
    level.table = best;
    for (int p = 0; p < num_preds; ++p) {
      if (scheduled[p]) continue;
      bool complete = true;
      for (int other : pred_tables[p]) {
        if (!placed[other]) complete = false;
      }
      if (!complete) continue;
      scheduled[p] = true;
      level.preds.push_back(query::CompiledPredicate::Compile(*preds[p]));
      // A predicate completing at this level necessarily references this
      // level's table, so its probe extraction targets `best`.
      for (Probe& probe : ext[p][best]) {
        level.probes.push_back(std::move(probe));
        ++num_constraints_;
      }
    }
    levels_.push_back(std::move(level));
  }
}

FilterJoinResult RunFilterJoinPlan(const FilterJoinPlan& plan,
                                   const query::AnalyzedQuery& q,
                                   const JoinAttrCodec& codec,
                                   const PointSet& collected,
                                   const std::vector<uint64_t>* added) {
  const std::vector<uint64_t>& keys = collected.keys();
  const int num_tables = q.num_tables();
  const int num_attrs = q.schema().num_attributes();
  const Quantizer& quant = codec.quantizer();
  const int num_dims = quant.num_dims();
  SENSJOIN_CHECK(keys.size() < std::numeric_limits<uint32_t>::max());

  // Interval row and per-dimension coordinates per key (the cell decoding
  // plus the raw coordinates the indexes sort by). Rows live in one
  // contiguous block — the candidate re-evaluation loop is the hot path and
  // reads them in random key order.
  std::vector<query::Interval> rows(keys.size() * num_attrs);
  std::vector<uint32_t> coords(keys.size() * num_dims);
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::vector<uint32_t> cell = codec.KeyCoordinates(keys[k]);
    for (int d = 0; d < num_dims; ++d) {
      coords[k * num_dims + d] = cell[d];
      rows[k * num_attrs + quant.dim(d).attr_index] =
          quant.CellInterval(d, cell[d]);
    }
  }

  // Eligibility per table: a key serves table t iff its relation flags
  // include t's relation. Tables of the same relation share the class, so
  // indexes are cached per relation bit.
  const std::vector<int> rel_bits = TableRelationBits(q);
  std::vector<std::vector<uint32_t>> eligible(num_tables);
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint8_t flags = codec.KeyFlags(keys[k]);
    for (int t = 0; t < num_tables; ++t) {
      if (codec.flag_bits() == 0 || ((flags >> rel_bits[t]) & 1)) {
        eligible[t].push_back(static_cast<uint32_t>(k));
      }
    }
  }

  // Candidate pools of the delta enumeration: per table, the eligible keys
  // split into added and other ("old") ones.
  enum class Pool : uint8_t { kAll, kOld, kAdded };
  std::vector<char> is_added;
  std::vector<std::vector<uint32_t>> old_only;
  std::vector<std::vector<uint32_t>> added_only;
  if (added != nullptr) {
    is_added.assign(keys.size(), 0);
    for (uint64_t key : *added) {
      const auto it = std::lower_bound(keys.begin(), keys.end(), key);
      SENSJOIN_CHECK(it != keys.end() && *it == key)
          << "added key missing from the collected set";
      is_added[static_cast<size_t>(it - keys.begin())] = 1;
    }
    old_only.resize(num_tables);
    added_only.resize(num_tables);
    for (int t = 0; t < num_tables; ++t) {
      for (uint32_t k : eligible[t]) {
        (is_added[k] ? added_only[t] : old_only[t]).push_back(k);
      }
    }
  }

  // Lazily built sorted indexes, keyed by (relation bit, dimension).
  std::map<std::pair<int, int>, DimIndex> indexes;
  auto index_for = [&](int table, int dim) -> const DimIndex& {
    const int rel = codec.flag_bits() == 0 ? 0 : rel_bits[table];
    auto [it, inserted] = indexes.try_emplace({rel, dim});
    if (inserted) {
      DimIndex& idx = it->second;
      idx.key_index = eligible[table];
      std::stable_sort(idx.key_index.begin(), idx.key_index.end(),
                       [&](uint32_t a, uint32_t b) {
                         return coords[a * num_dims + dim] <
                                coords[b * num_dims + dim];
                       });
      idx.coord.reserve(idx.key_index.size());
      for (uint32_t k : idx.key_index) {
        idx.coord.push_back(coords[k * num_dims + dim]);
      }
    }
    return it->second;
  };

  FilterJoinResult result(codec.EmptySet());
  result.constraints_extracted =
      static_cast<size_t>(plan.num_constraints());
  std::vector<char> matched(keys.size(), 0);
  std::vector<const query::Interval*> assignment(num_tables, nullptr);
  std::vector<uint32_t> level_key(num_tables, 0);
  const std::vector<FilterJoinPlan::Level>& levels = plan.levels();

  // Per-dimension combined coordinate window, scratch per level.
  struct DimWindow {
    int dim;
    uint32_t lo;
    uint32_t hi;
  };
  std::vector<std::vector<DimWindow>> windows(levels.size());

  int pivot = 0;
  auto dfs = [&](auto&& self, int li) -> void {
    if (li == num_tables) {
      ++result.combinations_matched;
      for (int i = 0; i < num_tables; ++i) matched[level_key[i]] = 1;
      return;
    }
    const FilterJoinPlan::Level& level = levels[li];
    const int t = level.table;
    const Pool pool = added == nullptr ? Pool::kAll
                      : li < pivot     ? Pool::kOld
                      : li == pivot    ? Pool::kAdded
                                       : Pool::kAll;
    const std::vector<uint32_t>& pool_keys =
        pool == Pool::kAll ? eligible[t]
                           : (pool == Pool::kOld ? old_only[t] : added_only[t]);

    auto try_key = [&](uint32_t k) {
      assignment[t] = &rows[static_cast<size_t>(k) * num_attrs];
      level_key[li] = k;
      for (const query::CompiledPredicate& pred : level.preds) {
        ++result.combinations_evaluated;
        if (pred.Eval(assignment.data()) == query::Tri::kFalse) return;
      }
      self(self, li + 1);
    };

    // The pivot's added keys are few: probing them would cost more than
    // evaluating them.
    if (level.probes.empty() || pool == Pool::kAdded) {
      for (uint32_t k : pool_keys) try_key(k);
      assignment[t] = nullptr;
      return;
    }

    // Intersect the probes into per-dimension coordinate windows.
    std::vector<DimWindow>& wins = windows[li];
    wins.clear();
    bool empty = false;
    for (const FilterJoinPlan::Probe& probe : level.probes) {
      ++result.index_probes;
      const query::Interval allowed =
          probe.constraint.AllowedRange(assignment.data());
      uint32_t lo = 0;
      uint32_t hi = 0;
      if (!CellRange(quant, probe.dim, allowed, &lo, &hi)) {
        empty = true;
        break;
      }
      bool found = false;
      for (DimWindow& w : wins) {
        if (w.dim == probe.dim) {
          w.lo = std::max(w.lo, lo);
          w.hi = std::min(w.hi, hi);
          if (w.lo > w.hi) empty = true;
          found = true;
          break;
        }
      }
      if (!found) wins.push_back({probe.dim, lo, hi});
    }
    if (empty) {
      assignment[t] = nullptr;
      return;
    }
    // Probe the narrowest window's index; the other windows filter by a
    // plain coordinate compare.
    size_t best = 0;
    size_t best_count = std::numeric_limits<size_t>::max();
    const uint32_t* best_begin = nullptr;
    const uint32_t* best_end = nullptr;
    for (size_t w = 0; w < wins.size(); ++w) {
      const DimIndex& idx = index_for(t, wins[w].dim);
      const auto begin = std::lower_bound(idx.coord.begin(), idx.coord.end(),
                                          wins[w].lo);
      const auto end =
          std::upper_bound(begin, idx.coord.end(), wins[w].hi);
      const size_t count = static_cast<size_t>(end - begin);
      if (count < best_count) {
        best = w;
        best_count = count;
        const size_t off = static_cast<size_t>(begin - idx.coord.begin());
        best_begin = idx.key_index.data() + off;
        best_end = best_begin + count;
      }
    }
    for (const uint32_t* p = best_begin; p != best_end; ++p) {
      const uint32_t k = *p;
      if (pool == Pool::kOld && is_added[k]) continue;
      bool inside = true;
      for (size_t w = 0; w < wins.size(); ++w) {
        if (w == best) continue;
        const uint32_t c = coords[k * num_dims + wins[w].dim];
        if (c < wins[w].lo || c > wins[w].hi) {
          inside = false;
          break;
        }
      }
      if (inside) try_key(k);
    }
    assignment[t] = nullptr;
  };
  if (added == nullptr) {
    dfs(dfs, 0);
  } else {
    for (pivot = 0; pivot < num_tables; ++pivot) dfs(dfs, 0);
  }

  std::vector<uint64_t> filter_keys;
  for (size_t k = 0; k < keys.size(); ++k) {
    if (matched[k]) filter_keys.push_back(keys[k]);
  }
  result.filter = PointSet::FromKeys(codec.layout(), std::move(filter_keys));
  return result;
}

}  // namespace sensjoin::join
