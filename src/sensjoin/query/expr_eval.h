#ifndef SENSJOIN_QUERY_EXPR_EVAL_H_
#define SENSJOIN_QUERY_EXPR_EVAL_H_

#include "sensjoin/common/status.h"
#include "sensjoin/query/ast.h"

namespace sensjoin::query {

/// True if `expr` produces a truth value (comparison / logical operator)
/// rather than a number.
bool IsBooleanExpr(const Expr& expr);

/// Structural validation: known functions with correct arity, numeric
/// operands where numbers are expected, resolved attribute references.
/// `expect_boolean` states whether the root must be a predicate.
/// Run once at analysis time, so every analysed predicate and SELECT
/// expression compiles (CompiledPredicate).
Status ValidateExpr(const Expr& expr, bool expect_boolean);

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_EXPR_EVAL_H_
