#include "sensjoin/query/expr_eval.h"

#include <string>

#include "sensjoin/common/logging.h"

namespace sensjoin::query {
namespace {

/// Arity of a supported scalar function, or -1 if unknown.
int FunctionArity(const std::string& name) {
  if (name == "abs" || name == "sqrt") return 1;
  if (name == "min" || name == "max") return 2;
  if (name == "distance") return 4;
  return -1;
}

}  // namespace

bool IsBooleanExpr(const Expr& expr) {
  switch (expr.kind) {
    case ExprKind::kBinary:
      return IsBooleanOp(expr.binary_op);
    case ExprKind::kUnary:
      return expr.unary_op == UnaryOp::kNot;
    default:
      return false;
  }
}

Status ValidateExpr(const Expr& expr, bool expect_boolean) {
  if (expect_boolean != IsBooleanExpr(expr)) {
    return Status::InvalidArgument(
        std::string(expect_boolean ? "expected a predicate but got a numeric "
                                     "expression: "
                                   : "expected a numeric expression but got "
                                     "a predicate: ") +
        expr.ToString());
  }
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return Status::Ok();
    case ExprKind::kAttrRef:
      if (expr.table_index < 0 || expr.attr_index < 0) {
        return Status::FailedPrecondition("unresolved attribute reference " +
                                          expr.ToString());
      }
      return Status::Ok();
    case ExprKind::kUnary:
      SENSJOIN_CHECK_EQ(expr.args.size(), 1u);
      return ValidateExpr(*expr.args[0], expr.unary_op == UnaryOp::kNot);
    case ExprKind::kBinary: {
      SENSJOIN_CHECK_EQ(expr.args.size(), 2u);
      const bool operands_boolean = expr.binary_op == BinaryOp::kAnd ||
                                    expr.binary_op == BinaryOp::kOr;
      SENSJOIN_RETURN_IF_ERROR(ValidateExpr(*expr.args[0], operands_boolean));
      SENSJOIN_RETURN_IF_ERROR(ValidateExpr(*expr.args[1], operands_boolean));
      return Status::Ok();
    }
    case ExprKind::kFunc: {
      const int arity = FunctionArity(expr.func);
      if (arity < 0) {
        return Status::InvalidArgument("unknown function '" + expr.func + "'");
      }
      if (static_cast<int>(expr.args.size()) != arity) {
        return Status::InvalidArgument(
            "function '" + expr.func + "' takes " + std::to_string(arity) +
            " argument(s), got " + std::to_string(expr.args.size()));
      }
      for (const auto& a : expr.args) {
        SENSJOIN_RETURN_IF_ERROR(ValidateExpr(*a, /*expect_boolean=*/false));
      }
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable expression kind");
}

}  // namespace sensjoin::query
