// The exact-value tree walkers the library evaluated predicates with before
// every caller ran compiled programs (query::CompiledPredicate), kept
// verbatim as the reference the scalar interpreter must reproduce bit for
// bit: EvalScalar / EvalPredicate recurse over the resolved AST and read
// attribute values through a virtual ScalarContext. Test-only code.

#ifndef SENSJOIN_TESTS_REFERENCE_EXPR_EVAL_H_
#define SENSJOIN_TESTS_REFERENCE_EXPR_EVAL_H_

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "sensjoin/common/logging.h"
#include "sensjoin/data/tuple.h"
#include "sensjoin/query/ast.h"

namespace sensjoin::query::reference {

/// Supplies attribute values during evaluation: one value per
/// (table_index, attr_index) pair resolved by Analyze().
class ScalarContext {
 public:
  virtual ~ScalarContext() = default;
  virtual double Value(int table_index, int attr_index) const = 0;
};

/// A ScalarContext over one tuple per FROM-list entry (borrowed pointers;
/// must outlive the context).
class TupleContext : public ScalarContext {
 public:
  explicit TupleContext(std::vector<const data::Tuple*> tuples)
      : tuples_(std::move(tuples)) {}

  double Value(int table_index, int attr_index) const override {
    SENSJOIN_DCHECK(table_index >= 0 &&
                    table_index < static_cast<int>(tuples_.size()));
    const data::Tuple* t = tuples_[table_index];
    SENSJOIN_DCHECK(t != nullptr);
    SENSJOIN_DCHECK(attr_index >= 0 &&
                    attr_index < static_cast<int>(t->values.size()));
    return t->values[attr_index];
  }

 private:
  std::vector<const data::Tuple*> tuples_;
};

/// Evaluates a numeric expression. Requires a validated, resolved tree.
inline double EvalScalar(const Expr& expr, const ScalarContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kAttrRef:
      return ctx.Value(expr.table_index, expr.attr_index);
    case ExprKind::kUnary:
      SENSJOIN_DCHECK(expr.unary_op == UnaryOp::kNeg);
      return -EvalScalar(*expr.args[0], ctx);
    case ExprKind::kBinary: {
      const double lhs = EvalScalar(*expr.args[0], ctx);
      const double rhs = EvalScalar(*expr.args[1], ctx);
      switch (expr.binary_op) {
        case BinaryOp::kAdd: return lhs + rhs;
        case BinaryOp::kSub: return lhs - rhs;
        case BinaryOp::kMul: return lhs * rhs;
        case BinaryOp::kDiv: return lhs / rhs;
        default:
          SENSJOIN_CHECK(false) << "boolean operator in numeric context:"
                                << expr.ToString();
      }
      return 0.0;
    }
    case ExprKind::kFunc: {
      if (expr.func == "abs") return std::abs(EvalScalar(*expr.args[0], ctx));
      if (expr.func == "sqrt") {
        return std::sqrt(EvalScalar(*expr.args[0], ctx));
      }
      if (expr.func == "min") {
        return std::min(EvalScalar(*expr.args[0], ctx),
                        EvalScalar(*expr.args[1], ctx));
      }
      if (expr.func == "max") {
        return std::max(EvalScalar(*expr.args[0], ctx),
                        EvalScalar(*expr.args[1], ctx));
      }
      if (expr.func == "distance") {
        const double dx =
            EvalScalar(*expr.args[0], ctx) - EvalScalar(*expr.args[2], ctx);
        const double dy =
            EvalScalar(*expr.args[1], ctx) - EvalScalar(*expr.args[3], ctx);
        return std::sqrt(dx * dx + dy * dy);
      }
      SENSJOIN_CHECK(false) << "unknown function" << expr.func;
      return 0.0;
    }
  }
  SENSJOIN_CHECK(false) << "unreachable";
  return 0.0;
}

/// Evaluates a predicate. Requires a validated, resolved boolean tree.
inline bool EvalPredicate(const Expr& expr, const ScalarContext& ctx) {
  switch (expr.kind) {
    case ExprKind::kUnary:
      SENSJOIN_DCHECK(expr.unary_op == UnaryOp::kNot);
      return !EvalPredicate(*expr.args[0], ctx);
    case ExprKind::kBinary:
      switch (expr.binary_op) {
        case BinaryOp::kAnd:
          return EvalPredicate(*expr.args[0], ctx) &&
                 EvalPredicate(*expr.args[1], ctx);
        case BinaryOp::kOr:
          return EvalPredicate(*expr.args[0], ctx) ||
                 EvalPredicate(*expr.args[1], ctx);
        case BinaryOp::kLt:
          return EvalScalar(*expr.args[0], ctx) < EvalScalar(*expr.args[1], ctx);
        case BinaryOp::kLe:
          return EvalScalar(*expr.args[0], ctx) <=
                 EvalScalar(*expr.args[1], ctx);
        case BinaryOp::kGt:
          return EvalScalar(*expr.args[0], ctx) > EvalScalar(*expr.args[1], ctx);
        case BinaryOp::kGe:
          return EvalScalar(*expr.args[0], ctx) >=
                 EvalScalar(*expr.args[1], ctx);
        case BinaryOp::kEq:
          return EvalScalar(*expr.args[0], ctx) ==
                 EvalScalar(*expr.args[1], ctx);
        case BinaryOp::kNe:
          return EvalScalar(*expr.args[0], ctx) !=
                 EvalScalar(*expr.args[1], ctx);
        default:
          break;
      }
      break;
    default:
      break;
  }
  SENSJOIN_CHECK(false) << "not a predicate:" << expr.ToString();
  return false;
}

}  // namespace sensjoin::query::reference

#endif  // SENSJOIN_TESTS_REFERENCE_EXPR_EVAL_H_
