// The exhaustive nested-loop filter join that ComputeJoinFilter ran before
// every filter join went through FilterJoinPlan, kept verbatim with the
// interval tree walkers it evaluated predicates with (EvalInterval /
// EvalTri over a virtual IntervalContext). It visits every eligible key
// combination in FROM order, so its filter keys and combinations_matched
// define what the planned DFS (full and delta) must reproduce, and
// EvalInterval / EvalTri define what the compiled interval interpreter must
// reproduce bit for bit. Test-only code.

#ifndef SENSJOIN_TESTS_REFERENCE_FILTER_JOIN_H_
#define SENSJOIN_TESTS_REFERENCE_FILTER_JOIN_H_

#include <functional>
#include <set>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/join/join_attr_codec.h"
#include "sensjoin/join/join_filter.h"
#include "sensjoin/join/point_set.h"
#include "sensjoin/query/ast.h"
#include "sensjoin/query/interval.h"
#include "sensjoin/query/query.h"

namespace sensjoin::query::reference {

/// Supplies per-attribute intervals during conservative evaluation. The
/// filter join at the base station sees quantized join-attribute tuples; the
/// context maps each quantized coordinate to the interval of raw values that
/// quantize into it.
class IntervalContext {
 public:
  virtual ~IntervalContext() = default;
  virtual Interval Value(int table_index, int attr_index) const = 0;
};

/// An IntervalContext over explicit per-table attribute-interval rows
/// (borrowed pointers; must outlive the context). Row i corresponds to FROM
/// entry i; each row holds one Interval per schema attribute index used.
class RowIntervalContext : public IntervalContext {
 public:
  explicit RowIntervalContext(std::vector<const std::vector<Interval>*> rows)
      : rows_(std::move(rows)) {}

  Interval Value(int table_index, int attr_index) const override {
    SENSJOIN_DCHECK(table_index >= 0 &&
                    table_index < static_cast<int>(rows_.size()));
    const std::vector<Interval>* row = rows_[table_index];
    SENSJOIN_DCHECK(row != nullptr);
    SENSJOIN_DCHECK(attr_index >= 0 &&
                    attr_index < static_cast<int>(row->size()));
    return (*row)[attr_index];
  }

 private:
  std::vector<const std::vector<Interval>*> rows_;
};

/// Evaluates a numeric expression over intervals; result is conservative
/// (contains every value reachable from operand values in the inputs).
/// Requires a validated, resolved tree (ValidateExpr).
inline Interval EvalInterval(const Expr& expr, const IntervalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Interval::Single(expr.literal);
    case ExprKind::kAttrRef:
      return ctx.Value(expr.table_index, expr.attr_index);
    case ExprKind::kUnary:
      SENSJOIN_DCHECK(expr.unary_op == UnaryOp::kNeg);
      return Neg(EvalInterval(*expr.args[0], ctx));
    case ExprKind::kBinary: {
      const Interval lhs = EvalInterval(*expr.args[0], ctx);
      const Interval rhs = EvalInterval(*expr.args[1], ctx);
      switch (expr.binary_op) {
        case BinaryOp::kAdd: return Add(lhs, rhs);
        case BinaryOp::kSub: return Sub(lhs, rhs);
        case BinaryOp::kMul: return Mul(lhs, rhs);
        case BinaryOp::kDiv: return Div(lhs, rhs);
        default:
          SENSJOIN_CHECK(false) << "boolean operator in numeric context:"
                                << expr.ToString();
      }
      return {};
    }
    case ExprKind::kFunc: {
      if (expr.func == "abs") return Abs(EvalInterval(*expr.args[0], ctx));
      if (expr.func == "sqrt") return Sqrt(EvalInterval(*expr.args[0], ctx));
      if (expr.func == "min") {
        return Min(EvalInterval(*expr.args[0], ctx),
                   EvalInterval(*expr.args[1], ctx));
      }
      if (expr.func == "max") {
        return Max(EvalInterval(*expr.args[0], ctx),
                   EvalInterval(*expr.args[1], ctx));
      }
      if (expr.func == "distance") {
        const Interval dx = Sub(EvalInterval(*expr.args[0], ctx),
                                EvalInterval(*expr.args[2], ctx));
        const Interval dy = Sub(EvalInterval(*expr.args[1], ctx),
                                EvalInterval(*expr.args[3], ctx));
        return Sqrt(Add(Square(dx), Square(dy)));
      }
      SENSJOIN_CHECK(false) << "unknown function" << expr.func;
      return {};
    }
  }
  SENSJOIN_CHECK(false) << "unreachable";
  return {};
}

/// Evaluates a predicate over intervals to three-valued truth. A result of
/// kFalse is definitive; kMaybe/kTrue must be retained by the filter join.
inline Tri EvalTri(const Expr& expr, const IntervalContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kUnary:
      SENSJOIN_DCHECK(expr.unary_op == UnaryOp::kNot);
      return Not(EvalTri(*expr.args[0], ctx));
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
          return And(EvalTri(*expr.args[0], ctx), EvalTri(*expr.args[1], ctx));
        case BinaryOp::kOr:
          return Or(EvalTri(*expr.args[0], ctx), EvalTri(*expr.args[1], ctx));
        case BinaryOp::kLt:
          return Lt(EvalInterval(*expr.args[0], ctx),
                    EvalInterval(*expr.args[1], ctx));
        case BinaryOp::kLe:
          return Le(EvalInterval(*expr.args[0], ctx),
                    EvalInterval(*expr.args[1], ctx));
        case BinaryOp::kGt:
          return Gt(EvalInterval(*expr.args[0], ctx),
                    EvalInterval(*expr.args[1], ctx));
        case BinaryOp::kGe:
          return Ge(EvalInterval(*expr.args[0], ctx),
                    EvalInterval(*expr.args[1], ctx));
        case BinaryOp::kEq:
          return Eq(EvalInterval(*expr.args[0], ctx),
                    EvalInterval(*expr.args[1], ctx));
        case BinaryOp::kNe:
          return Ne(EvalInterval(*expr.args[0], ctx),
                    EvalInterval(*expr.args[1], ctx));
        default:
          break;
      }
      break;
    default:
      break;
  }
  SENSJOIN_CHECK(false) << "not a predicate:" << expr.ToString();
  return Tri::kMaybe;
}

}  // namespace sensjoin::query::reference

namespace sensjoin::join::reference {
namespace detail {

/// IntervalContext over an in-progress table->row assignment.
class IntervalAssignmentContext : public query::reference::IntervalContext {
 public:
  explicit IntervalAssignmentContext(
      const std::vector<const std::vector<query::Interval>*>* assignment)
      : assignment_(assignment) {}

  query::Interval Value(int table_index, int attr_index) const override {
    const std::vector<query::Interval>* row = (*assignment_)[table_index];
    SENSJOIN_DCHECK(row != nullptr);
    return (*row)[attr_index];
  }

 private:
  const std::vector<const std::vector<query::Interval>*>* assignment_;
};

/// Interval row per collected key, indexed by schema attribute index (only
/// the quantizer's dimensions are meaningful; join predicates reference
/// only those).
inline std::vector<std::vector<query::Interval>> BuildIntervalRows(
    const query::AnalyzedQuery& q, const JoinAttrCodec& codec,
    const std::vector<uint64_t>& keys) {
  const Quantizer& quant = codec.quantizer();
  std::vector<std::vector<query::Interval>> rows(
      keys.size(),
      std::vector<query::Interval>(q.schema().num_attributes()));
  for (size_t k = 0; k < keys.size(); ++k) {
    const std::vector<query::Interval> cell = codec.KeyIntervals(keys[k]);
    for (int d = 0; d < quant.num_dims(); ++d) {
      rows[k][quant.dim(d).attr_index] = cell[d];
    }
  }
  return rows;
}

/// Eligibility: key usable for table t iff its flags contain t's relation.
inline std::vector<std::vector<size_t>> BuildEligibility(
    const query::AnalyzedQuery& q, const JoinAttrCodec& codec,
    const std::vector<uint64_t>& keys) {
  const std::vector<int> rel_bits = TableRelationBits(q);
  std::vector<std::vector<size_t>> eligible(q.num_tables());
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint8_t flags = codec.KeyFlags(keys[k]);
    for (int t = 0; t < q.num_tables(); ++t) {
      if (codec.flag_bits() == 0 || ((flags >> rel_bits[t]) & 1)) {
        eligible[t].push_back(k);
      }
    }
  }
  return eligible;
}

/// Evaluate each join predicate as soon as its last referenced table is
/// assigned.
inline std::vector<std::vector<const query::Expr*>> BuildPredsAt(
    const query::AnalyzedQuery& q) {
  std::vector<std::vector<const query::Expr*>> preds_at(q.num_tables());
  for (const auto& p : q.join_predicates()) {
    std::set<int> tables;
    p->CollectTableIndices(&tables);
    SENSJOIN_CHECK(!tables.empty());
    preds_at[*tables.rbegin()].push_back(p.get());
  }
  return preds_at;
}

}  // namespace detail

/// Exhaustive reference engine: nested-loop DFS over all eligible key
/// combinations.
inline FilterJoinResult ReferenceJoinFilter(const query::AnalyzedQuery& q,
                                            const JoinAttrCodec& codec,
                                            const PointSet& collected) {
  const std::vector<uint64_t>& keys = collected.keys();
  const int num_tables = q.num_tables();
  const auto rows = detail::BuildIntervalRows(q, codec, keys);
  const auto eligible = detail::BuildEligibility(q, codec, keys);
  const auto preds_at = detail::BuildPredsAt(q);

  FilterJoinResult result(codec.EmptySet());
  std::vector<char> matched(keys.size(), 0);
  std::vector<const std::vector<query::Interval>*> assignment(num_tables,
                                                              nullptr);
  std::vector<size_t> assigned_key(num_tables, 0);
  detail::IntervalAssignmentContext ctx(&assignment);

  std::function<void(int)> dfs = [&](int t) {
    if (t == num_tables) {
      ++result.combinations_matched;
      for (int i = 0; i < num_tables; ++i) matched[assigned_key[i]] = 1;
      return;
    }
    for (size_t k : eligible[t]) {
      assignment[t] = &rows[k];
      assigned_key[t] = k;
      bool alive = true;
      for (const query::Expr* p : preds_at[t]) {
        ++result.combinations_evaluated;
        if (query::reference::EvalTri(*p, ctx) == query::Tri::kFalse) {
          alive = false;
          break;
        }
      }
      if (alive) dfs(t + 1);
    }
    assignment[t] = nullptr;
  };
  dfs(0);

  std::vector<uint64_t> filter_keys;
  for (size_t k = 0; k < keys.size(); ++k) {
    if (matched[k]) filter_keys.push_back(keys[k]);
  }
  result.filter = PointSet::FromKeys(codec.layout(), std::move(filter_keys));
  return result;
}

}  // namespace sensjoin::join::reference

#endif  // SENSJOIN_TESTS_REFERENCE_FILTER_JOIN_H_
