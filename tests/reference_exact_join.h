// The nested-loop DFS that ComputeExactJoin ran before the indexed exact
// join plan, kept verbatim (plus an optional record of each match's
// candidate positions) as the differential oracle of
// exact_join_oracle_test and exact_join_fuzz: it tree-walks every predicate
// for every candidate combination in FROM order, so its rows, row_nodes,
// contributing_nodes, matched_combinations and aggregate accumulation order
// define what the plan must reproduce bit for bit, and the candidate
// positions of its matches what PartneredCandidates must mark. Test-only
// code.

#ifndef SENSJOIN_TESTS_REFERENCE_EXACT_JOIN_H_
#define SENSJOIN_TESTS_REFERENCE_EXACT_JOIN_H_

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>

#include "reference_expr_eval.h"
#include "sensjoin/common/logging.h"
#include "sensjoin/join/result.h"

namespace sensjoin::join::reference {
namespace detail {

/// ScalarContext over an in-progress table->tuple assignment.
class AssignmentContext : public query::reference::ScalarContext {
 public:
  explicit AssignmentContext(const std::vector<const data::Tuple*>* assignment)
      : assignment_(assignment) {}

  double Value(int table_index, int attr_index) const override {
    const data::Tuple* t = (*assignment_)[table_index];
    SENSJOIN_DCHECK(t != nullptr);
    return t->values[attr_index];
  }

 private:
  const std::vector<const data::Tuple*>* assignment_;
};

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

}  // namespace detail

/// When `partnered` is non-null it receives, per FROM entry, whether each
/// candidate position took part in some match.
inline JoinResult ReferenceExactJoin(
    const query::AnalyzedQuery& q,
    const std::vector<std::vector<const data::Tuple*>>& per_table_tuples,
    std::vector<std::vector<bool>>* partnered = nullptr) {
  const int num_tables = q.num_tables();
  SENSJOIN_CHECK_EQ(static_cast<int>(per_table_tuples.size()), num_tables);

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

  std::vector<detail::Accumulator> accumulators;
  if (q.has_aggregates()) {
    accumulators.resize(q.select().size());
    for (size_t i = 0; i < q.select().size(); ++i) {
      accumulators[i].kind = q.select()[i].aggregate;
    }
  }

  // Join predicates grouped by the last table they reference.
  std::vector<std::vector<const query::Expr*>> preds_at(num_tables);
  for (const auto& p : q.join_predicates()) {
    std::set<int> tables;
    p->CollectTableIndices(&tables);
    SENSJOIN_CHECK(!tables.empty());
    preds_at[*tables.rbegin()].push_back(p.get());
  }

  std::vector<const data::Tuple*> assignment(num_tables, nullptr);
  std::vector<size_t> chosen(num_tables, 0);
  detail::AssignmentContext ctx(&assignment);
  if (partnered != nullptr) {
    partnered->clear();
    for (const auto& cands : per_table_tuples) {
      partnered->emplace_back(cands.size(), false);
    }
  }
  std::set<sim::NodeId> contributors;

  std::function<void(int)> dfs = [&](int t) {
    if (t == num_tables) {
      ++result.matched_combinations;
      for (const data::Tuple* tup : assignment) contributors.insert(tup->node);
      if (partnered != nullptr) {
        for (int i = 0; i < num_tables; ++i) (*partnered)[i][chosen[i]] = true;
      }
      if (q.has_aggregates()) {
        for (size_t i = 0; i < q.select().size(); ++i) {
          const query::SelectItem& item = q.select()[i];
          const double v = item.expr != nullptr
                               ? query::reference::EvalScalar(*item.expr, ctx)
                               : 1.0;  // COUNT(*)
          accumulators[i].Update(v);
        }
      } else {
        std::vector<double> row;
        if (q.select_star()) {
          row.reserve(static_cast<size_t>(num_tables) *
                      q.schema().num_attributes());
          for (const data::Tuple* tup : assignment) {
            row.insert(row.end(), tup->values.begin(), tup->values.end());
          }
        } else {
          row.reserve(q.select().size());
          for (const query::SelectItem& item : q.select()) {
            row.push_back(query::reference::EvalScalar(*item.expr, ctx));
          }
        }
        result.rows.push_back(std::move(row));
        std::set<sim::NodeId> row_contributors;
        for (const data::Tuple* tup : assignment) {
          row_contributors.insert(tup->node);
        }
        result.row_nodes.emplace_back(row_contributors.begin(),
                                      row_contributors.end());
      }
      return;
    }
    for (size_t p = 0; p < per_table_tuples[t].size(); ++p) {
      assignment[t] = per_table_tuples[t][p];
      chosen[t] = p;
      bool alive = true;
      for (const query::Expr* p : preds_at[t]) {
        if (!query::reference::EvalPredicate(*p, ctx)) {
          alive = false;
          break;
        }
      }
      if (alive) dfs(t + 1);
    }
    assignment[t] = nullptr;
  };
  dfs(0);

  if (q.has_aggregates()) {
    std::vector<double> row;
    row.reserve(accumulators.size());
    for (const detail::Accumulator& acc : accumulators) {
      row.push_back(acc.Finish());
    }
    result.rows.push_back(std::move(row));
  }

  result.contributing_nodes.assign(contributors.begin(), contributors.end());
  return result;
}

}  // namespace sensjoin::join::reference

#endif  // SENSJOIN_TESTS_REFERENCE_EXACT_JOIN_H_
