#include "sensjoin/join/result.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "sensjoin/common/logging.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/constraint.h"

namespace sensjoin::join {
namespace {

/// Running state of one aggregate SELECT item.
struct Accumulator {
  query::AggregateKind kind = query::AggregateKind::kNone;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  uint64_t count = 0;

  void Update(double v) {
    min = std::min(min, v);
    max = std::max(max, v);
    sum += v;
    ++count;
  }

  double Finish() const {
    switch (kind) {
      case query::AggregateKind::kMin:
        return count ? min : std::numeric_limits<double>::quiet_NaN();
      case query::AggregateKind::kMax:
        return count ? max : std::numeric_limits<double>::quiet_NaN();
      case query::AggregateKind::kSum:
        return sum;
      case query::AggregateKind::kAvg:
        return count ? sum / static_cast<double>(count)
                     : std::numeric_limits<double>::quiet_NaN();
      case query::AggregateKind::kCount:
        return static_cast<double>(count);
      case query::AggregateKind::kNone:
        break;
    }
    SENSJOIN_CHECK(false) << "not an aggregate";
    return 0.0;
  }
};

/// One FROM entry's candidates sorted by one attribute. NaN values have no
/// place in the order (std::sort needs a strict weak ordering); they sit in
/// a side list that every probe visits.
struct SortedIndex {
  int attr = -1;
  std::vector<double> values;        ///< ascending, NaN-free
  std::vector<uint32_t> positions;   ///< candidate position of values[i]
  std::vector<uint32_t> nan_positions;  ///< ascending

  SortedIndex(int attr_index, const std::vector<const data::Tuple*>& cands)
      : attr(attr_index) {
    for (uint32_t p = 0; p < cands.size(); ++p) {
      if (std::isnan(cands[p]->values[attr])) {
        nan_positions.push_back(p);
      } else {
        positions.push_back(p);
      }
    }
    std::sort(positions.begin(), positions.end(),
              [&](uint32_t a, uint32_t b) {
                return cands[a]->values[attr] < cands[b]->values[attr];
              });
    values.reserve(positions.size());
    for (uint32_t p : positions) values.push_back(cands[p]->values[attr]);
  }
};

/// One DFS level: FROM entry t, which the level assigns.
struct Level {
  /// Join predicates whose highest referenced table is t, in query order;
  /// each candidate must pass all of them.
  std::vector<query::CompiledPredicate> residual;
  struct Probe {
    query::ProbeConstraint constraint;  ///< bounds an attribute of table t
    size_t index;                       ///< into `indexes`
  };
  std::vector<Probe> probes;
  std::vector<SortedIndex> indexes;  ///< one per probed attribute
  std::vector<uint64_t> bits;        ///< VisitInRange scratch, all zero
};

/// Calls visit(p) for every position of idx.positions[begin, end) and every
/// NaN position, in ascending position order, which is the order the
/// nested loop visits candidates in: the positions are set in the level's
/// bitmap over its candidates and read back word by word, which clears it
/// for the next visit.
template <typename Visit>
void VisitInRange(std::vector<uint64_t>& bits, const SortedIndex& idx,
                  size_t begin, size_t end, const Visit& visit) {
  for (size_t i = begin; i < end; ++i) {
    bits[idx.positions[i] / 64] |= uint64_t{1} << (idx.positions[i] % 64);
  }
  for (uint32_t p : idx.nan_positions) bits[p / 64] |= uint64_t{1} << (p % 64);
  for (size_t w = 0; w < bits.size(); ++w) {
    uint64_t word = bits[w];
    bits[w] = 0;
    for (; word != 0; word &= word - 1) {
      visit(static_cast<uint32_t>(w * 64 + std::countr_zero(word)));
    }
  }
}

using PerTable = std::vector<std::vector<const data::Tuple*>>;

/// The indexed plan of one call: per FROM entry t, the join predicates
/// whose highest referenced table is t and the probe constraints they yield
/// on t; plus the search's current assignment.
struct Plan {
  const PerTable& per_table;
  std::vector<Level> levels;
  std::vector<const double*> rows;  ///< values of the chosen candidates
  std::vector<uint32_t> chosen;     ///< candidate position per level

  Plan(const query::AnalyzedQuery& q, const PerTable& per_table_tuples)
      : per_table(per_table_tuples),
        levels(q.num_tables()),
        rows(q.num_tables(), nullptr),
        chosen(q.num_tables(), 0) {
    SENSJOIN_CHECK_EQ(static_cast<int>(per_table.size()), q.num_tables());
    for (const auto& p : q.join_predicates()) {
      std::set<int> tables;
      p->CollectTableIndices(&tables);
      SENSJOIN_CHECK(!tables.empty());
      const int t = *tables.rbegin();
      Level& level = levels[t];
      level.residual.push_back(query::CompiledPredicate::Compile(*p));
      for (query::ProbeConstraint& c :
           query::ProbeConstraint::Extract(*p, t)) {
        size_t index = 0;
        while (index < level.indexes.size() &&
               level.indexes[index].attr != c.attr_index()) {
          ++index;
        }
        if (index == level.indexes.size()) {
          level.indexes.emplace_back(c.attr_index(), per_table[t]);
        }
        level.probes.push_back({std::move(c), index});
      }
    }
    for (size_t t = 0; t < levels.size(); ++t) {
      levels[t].bits.assign((per_table[t].size() + 63) / 64, 0);
    }
  }

  /// Depth-first search in FROM order. A constrained level binary-searches
  /// its narrowest probe range and residual-checks only the candidates in
  /// it, in ascending candidate order, so match() sees the matching
  /// combinations (in rows / chosen) in the nested loop's order. At the
  /// last level a candidate p with skip_last(p) is passed over before its
  /// residual runs.
  template <typename SkipLast, typename Match>
  void Search(const SkipLast& skip_last, const Match& match) {
    const int num_tables = static_cast<int>(levels.size());
    auto dfs = [&](auto&& self, int t) -> void {
      if (t == num_tables) {
        match();
        return;
      }
      Level& level = levels[t];
      const std::vector<const data::Tuple*>& cands = per_table[t];
      auto try_candidate = [&](uint32_t p) {
        if (t == num_tables - 1 && skip_last(p)) return;
        rows[t] = cands[p]->values.data();
        chosen[t] = p;
        for (const query::CompiledPredicate& pred : level.residual) {
          if (!pred.Eval(rows.data())) return;
        }
        self(self, t + 1);
      };
      if (level.probes.empty()) {
        for (uint32_t p = 0; p < cands.size(); ++p) try_candidate(p);
      } else {
        // The narrowest probe range; the residual check re-tests every
        // candidate in it, so the other probes need not be intersected.
        const SortedIndex* best = nullptr;
        size_t best_begin = 0;
        size_t best_end = 0;
        for (const Level::Probe& probe : level.probes) {
          const query::Interval range =
              probe.constraint.ScalarRange(rows.data());
          const SortedIndex& idx = level.indexes[probe.index];
          size_t begin = 0;
          size_t end = 0;
          if (range.lo <= range.hi) {
            begin = static_cast<size_t>(
                std::lower_bound(idx.values.begin(), idx.values.end(),
                                 range.lo) -
                idx.values.begin());
            end = static_cast<size_t>(
                std::upper_bound(idx.values.begin() + begin, idx.values.end(),
                                 range.hi) -
                idx.values.begin());
          }
          if (best == nullptr || end - begin + idx.nan_positions.size() <
                                     best_end - best_begin +
                                         best->nan_positions.size()) {
            best = &idx;
            best_begin = begin;
            best_end = end;
          }
        }
        VisitInRange(level.bits, *best, best_begin, best_end, try_candidate);
      }
      rows[t] = nullptr;
    };
    dfs(dfs, 0);
  }
};

}  // namespace

JoinResult ComputeExactJoin(const query::AnalyzedQuery& q,
                            const PerTable& per_table_tuples) {
  const int num_tables = q.num_tables();
  JoinResult result;

  // Output columns.
  if (q.select_star()) {
    for (int t = 0; t < num_tables; ++t) {
      for (int a = 0; a < q.schema().num_attributes(); ++a) {
        result.column_labels.push_back(q.table(t).alias + "." +
                                       q.schema().attribute(a).name);
      }
    }
  } else {
    for (const query::SelectItem& item : q.select()) {
      result.column_labels.push_back(item.label);
    }
  }

  // Projections or aggregate inputs. COUNT(*) counts through the constant
  // 1.0 (a literal program keeps no pointer into its temporary tree).
  std::vector<query::CompiledPredicate> outputs;
  std::vector<Accumulator> accumulators;
  for (const query::SelectItem& item : q.select()) {
    outputs.push_back(
        item.expr != nullptr
            ? query::CompiledPredicate::CompileValue(*item.expr)
            : query::CompiledPredicate::CompileValue(
                  *query::Expr::Literal(1.0)));
    if (q.has_aggregates()) accumulators.push_back({.kind = item.aggregate});
  }

  Plan plan(q, per_table_tuples);

  // Contributors as bits over the distinct candidate node ids (sorted, so
  // reading the bits back in order yields contributing_nodes sorted).
  std::vector<sim::NodeId> node_ids;
  for (const auto& cands : per_table_tuples) {
    for (const data::Tuple* tup : cands) node_ids.push_back(tup->node);
  }
  std::sort(node_ids.begin(), node_ids.end());
  node_ids.erase(std::unique(node_ids.begin(), node_ids.end()),
                 node_ids.end());
  std::vector<std::vector<uint32_t>> node_rank(num_tables);
  for (int t = 0; t < num_tables; ++t) {
    for (const data::Tuple* tup : per_table_tuples[t]) {
      node_rank[t].push_back(static_cast<uint32_t>(
          std::lower_bound(node_ids.begin(), node_ids.end(), tup->node) -
          node_ids.begin()));
    }
  }
  std::vector<uint64_t> contributors((node_ids.size() + 63) / 64, 0);

  std::vector<sim::NodeId> row_contributors(num_tables);
  const double* const* rows = plan.rows.data();
  const std::vector<uint32_t>& chosen = plan.chosen;
  plan.Search(
      [](uint32_t) { return false; },
      [&] {
        ++result.matched_combinations;
        for (int i = 0; i < num_tables; ++i) {
          const uint32_t rank = node_rank[i][chosen[i]];
          contributors[rank / 64] |= uint64_t{1} << (rank % 64);
        }
        if (q.has_aggregates()) {
          for (size_t i = 0; i < outputs.size(); ++i) {
            accumulators[i].Update(outputs[i].EvalValue(rows));
          }
          return;
        }
        std::vector<double> row;
        if (q.select_star()) {
          row.reserve(static_cast<size_t>(num_tables) *
                      q.schema().num_attributes());
          for (int i = 0; i < num_tables; ++i) {
            const std::vector<double>& v =
                per_table_tuples[i][chosen[i]]->values;
            row.insert(row.end(), v.begin(), v.end());
          }
        } else {
          row.reserve(outputs.size());
          for (const query::CompiledPredicate& out : outputs) {
            row.push_back(out.EvalValue(rows));
          }
        }
        result.rows.push_back(std::move(row));
        for (int i = 0; i < num_tables; ++i) {
          row_contributors[i] = per_table_tuples[i][chosen[i]]->node;
        }
        std::sort(row_contributors.begin(), row_contributors.end());
        result.row_nodes.emplace_back(
            row_contributors.begin(),
            std::unique(row_contributors.begin(), row_contributors.end()));
      });

  if (q.has_aggregates()) {
    std::vector<double> row;
    row.reserve(accumulators.size());
    for (const Accumulator& acc : accumulators) row.push_back(acc.Finish());
    result.rows.push_back(std::move(row));
  }

  for (size_t w = 0; w < contributors.size(); ++w) {
    for (uint64_t word = contributors[w]; word != 0; word &= word - 1) {
      result.contributing_nodes.push_back(
          node_ids[w * 64 + std::countr_zero(word)]);
    }
  }
  return result;
}

std::vector<std::vector<bool>> PartneredCandidates(
    const query::AnalyzedQuery& q, const PerTable& per_table_tuples) {
  Plan plan(q, per_table_tuples);
  const int last = q.num_tables() - 1;
  std::vector<std::vector<bool>> partnered;
  for (const auto& cands : per_table_tuples) {
    partnered.emplace_back(cands.size(), false);
  }
  // A match whose positions are all marked already can mark nothing new.
  plan.Search(
      [&](uint32_t p) {
        for (int i = 0; i < last; ++i) {
          if (!partnered[i][plan.chosen[i]]) return false;
        }
        return static_cast<bool>(partnered[last][p]);
      },
      [&] {
        for (int i = 0; i <= last; ++i) partnered[i][plan.chosen[i]] = true;
      });
  return partnered;
}

}  // namespace sensjoin::join
