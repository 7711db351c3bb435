// Expression validation and the compiled predicate interpreters: values,
// truth over exact tuples and over intervals, and programs whose stacks
// outgrow the interpreter's fixed buffers, checked bit for bit against the
// reference tree walkers.

#include "sensjoin/query/expr_eval.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_expr_eval.h"
#include "reference_filter_join.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/parser.h"
#include "sensjoin/query/query.h"

namespace sensjoin::query {
namespace {

// Schema: x(0) y(1) temp(2) hum(3).
data::Schema MakeSchema() {
  return data::Schema({{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}});
}

/// Parses a two-table predicate/expression and resolves it through the
/// analyzer by embedding it in a query.
std::unique_ptr<Expr> ResolvedPredicate(const std::string& pred) {
  auto q = AnalyzedQuery::FromString(
      "SELECT A.hum, B.hum FROM s A, s B WHERE " + pred + " ONCE",
      MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status();
  // Re-AND whatever the analyzer split apart (join conjuncts + pushed-down
  // selections) so the helper accepts arbitrary WHERE clauses.
  std::unique_ptr<Expr> combined;
  auto add = [&combined](const Expr& e) {
    combined = combined == nullptr
                   ? e.Clone()
                   : Expr::Binary(BinaryOp::kAnd, std::move(combined),
                                  e.Clone());
  };
  for (const auto& p : q->join_predicates()) add(*p);
  for (int t = 0; t < q->num_tables(); ++t) {
    if (q->table(t).selection != nullptr) add(*q->table(t).selection);
  }
  SENSJOIN_CHECK(combined != nullptr);
  return combined;
}

std::unique_ptr<Expr> ResolvedSelectExpr(const std::string& expr) {
  auto q = AnalyzedQuery::FromString(
      "SELECT " + expr + " FROM s A, s B WHERE A.temp = B.temp ONCE",
      MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status();
  return q->select()[0].expr->Clone();
}

data::Tuple MakeTuple(double x, double y, double temp, double hum) {
  data::Tuple t;
  t.values = {x, y, temp, hum};
  return t;
}

double Value(const std::string& expr, const data::Tuple& a,
             const data::Tuple& b) {
  const double* rows[2] = {a.values.data(), b.values.data()};
  return CompiledPredicate::CompileValue(*ResolvedSelectExpr(expr))
      .EvalValue(rows);
}

bool Holds(const std::string& pred, const data::Tuple& a,
           const data::Tuple& b) {
  const double* rows[2] = {a.values.data(), b.values.data()};
  return CompiledPredicate::Compile(*ResolvedPredicate(pred)).Eval(rows);
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

TEST(CompiledValueTest, ArithmeticAndFunctions) {
  const data::Tuple a = MakeTuple(0, 0, 21.5, 40);
  const data::Tuple b = MakeTuple(3, 4, 20.0, 60);

  EXPECT_DOUBLE_EQ(Value("A.temp - B.temp", a, b), 1.5);
  EXPECT_DOUBLE_EQ(Value("abs(B.temp - A.temp)", a, b), 1.5);
  EXPECT_DOUBLE_EQ(Value("distance(A.x, A.y, B.x, B.y)", a, b), 5.0);
  EXPECT_DOUBLE_EQ(Value("min(A.hum, B.hum)", a, b), 40.0);
  EXPECT_DOUBLE_EQ(Value("max(A.hum, B.hum)", a, b), 60.0);
  EXPECT_DOUBLE_EQ(Value("sqrt(A.hum + 9)", a, b), 7.0);
  EXPECT_DOUBLE_EQ(Value("-A.hum * 2 + B.hum / 4", a, b), -65.0);
}

TEST(CompiledPredicateTest, ComparisonsAndLogic) {
  const data::Tuple a = MakeTuple(0, 0, 21.5, 40);
  const data::Tuple b = MakeTuple(3, 4, 20.0, 60);

  EXPECT_TRUE(Holds("A.temp > B.temp", a, b));
  EXPECT_FALSE(Holds("A.temp <= B.temp", a, b));
  EXPECT_TRUE(Holds("A.hum != B.hum", a, b));
  EXPECT_TRUE(Holds("A.temp > B.temp AND A.hum < B.hum", a, b));
  EXPECT_TRUE(Holds("A.temp < B.temp OR A.hum < B.hum", a, b));
  EXPECT_FALSE(Holds("NOT (A.temp - B.temp > 1 AND B.hum > A.hum)", a, b));
  EXPECT_TRUE(Holds("|A.temp - B.temp| < 2.0", a, b));
}

TEST(ValidateExprTest, RejectsUnresolvedRefs) {
  auto e = Expr::AttrRef("A", "temp");  // never resolved
  EXPECT_EQ(ValidateExpr(*e, false).code(), StatusCode::kFailedPrecondition);
}

TEST(ValidateExprTest, TypeDiscipline) {
  auto num = Expr::Literal(1.0);
  EXPECT_TRUE(ValidateExpr(*num, false).ok());
  EXPECT_FALSE(ValidateExpr(*num, true).ok());  // literal is not a predicate

  auto cmp = Expr::Binary(BinaryOp::kLt, Expr::Literal(1), Expr::Literal(2));
  EXPECT_TRUE(ValidateExpr(*cmp, true).ok());
  EXPECT_FALSE(ValidateExpr(*cmp, false).ok());

  // AND of numbers is ill-typed.
  auto bad = Expr::Binary(BinaryOp::kAnd, Expr::Literal(1), Expr::Literal(2));
  EXPECT_FALSE(ValidateExpr(*bad, true).ok());

  // Comparison of predicates is ill-typed.
  auto cmp2 = Expr::Binary(BinaryOp::kLt, Expr::Literal(1), Expr::Literal(2));
  auto bad2 = Expr::Binary(BinaryOp::kLt, std::move(cmp2), Expr::Literal(1));
  EXPECT_FALSE(ValidateExpr(*bad2, true).ok());
}

TEST(CompiledIntervalTest, MatchesScalarOnDegenerateIntervals) {
  const data::Tuple a = MakeTuple(0, 0, 21.5, 40);
  const data::Tuple b = MakeTuple(3, 4, 20.0, 60);
  std::vector<Interval> row_a;
  std::vector<Interval> row_b;
  for (double v : a.values) row_a.push_back(Interval::Single(v));
  for (double v : b.values) row_b.push_back(Interval::Single(v));
  const Interval* irows[2] = {row_a.data(), row_b.data()};

  for (const char* expr :
       {"A.temp - B.temp", "distance(A.x, A.y, B.x, B.y)",
        "abs(A.hum - B.hum)", "min(A.temp, B.temp) * 2"}) {
    const Interval iv =
        CompiledPredicate::CompileValue(*ResolvedSelectExpr(expr))
            .EvalValue(irows);
    const double s = Value(expr, a, b);
    EXPECT_DOUBLE_EQ(iv.lo, s) << expr;
    EXPECT_DOUBLE_EQ(iv.hi, s) << expr;
  }
  for (const char* pred :
       {"A.temp > B.temp", "A.hum = B.hum",
        "A.temp > B.temp AND A.hum < B.hum", "NOT A.temp < B.temp"}) {
    const Tri t = CompiledPredicate::Compile(*ResolvedPredicate(pred))
                      .Eval(irows);
    EXPECT_EQ(t, Holds(pred, a, b) ? Tri::kTrue : Tri::kFalse) << pred;
  }
}

TEST(CompiledIntervalTest, WideIntervalsGiveMaybe) {
  const std::vector<Interval> row_a = {{0, 10}, {0, 10}, {19, 22}, {0, 100}};
  const std::vector<Interval> row_b = {{0, 10}, {0, 10}, {20, 21}, {0, 100}};
  const Interval* rows[2] = {row_a.data(), row_b.data()};
  const auto tri = [&](const char* pred) {
    return CompiledPredicate::Compile(*ResolvedPredicate(pred)).Eval(rows);
  };
  EXPECT_EQ(tri("A.temp > B.temp"), Tri::kMaybe);
  EXPECT_EQ(tri("A.temp - B.temp < 10"), Tri::kTrue);
  EXPECT_EQ(tri("A.temp - B.temp > 10"), Tri::kFalse);
}

/// Programs longer and deeper than the interpreter's fixed 32-slot stacks:
/// a 40-term left-deep sum needs two number slots; a 40-level right-deep
/// nesting keeps every left operand on the stack and runs on heap stacks.
/// Both interpreters must match the reference walkers bit for bit.
TEST(CompiledDeepExpressionTest, MatchesReferenceWalkers) {
  const char* const kTerms[] = {"A.temp", "B.hum", "A.x", "0.1", "B.y"};
  std::string left_deep = kTerms[0];
  std::string right_deep = kTerms[0];
  for (int i = 1; i < 40; ++i) {
    left_deep += " + " + std::string(kTerms[i % 5]);
    right_deep = std::string(kTerms[i % 5]) + (i % 2 ? " - (" : " * (") +
                 right_deep + ")";
  }
  const data::Tuple a = MakeTuple(1.25, -3, 21.5, 0.3);
  const data::Tuple b = MakeTuple(3, 4.5, 20.0, 60.125);
  const double* rows[2] = {a.values.data(), b.values.data()};
  const std::vector<Interval> box_a = {{1, 1.5}, {-3, -2}, {21, 22}, {0, 1}};
  const std::vector<Interval> box_b = {{3, 4}, {4, 5}, {19, 21}, {60, 61}};
  const Interval* irows[2] = {box_a.data(), box_b.data()};
  const reference::TupleContext ctx({&a, &b});
  const reference::RowIntervalContext ictx({&box_a, &box_b});

  for (const std::string& side : {left_deep, right_deep}) {
    const auto value = ResolvedSelectExpr(side);
    const CompiledPredicate program = CompiledPredicate::CompileValue(*value);
    EXPECT_TRUE(SameBits(program.EvalValue(rows),
                         reference::EvalScalar(*value, ctx)));
    const Interval got = program.EvalValue(irows);
    const Interval want = reference::EvalInterval(*value, ictx);
    EXPECT_TRUE(SameBits(got.lo, want.lo) && SameBits(got.hi, want.hi))
        << got << " want " << want;

    for (const char* cmp : {" < ", " >= ", " != "}) {
      const auto pred = ResolvedPredicate(side + cmp + "A.hum + B.x");
      const CompiledPredicate compiled = CompiledPredicate::Compile(*pred);
      EXPECT_EQ(compiled.Eval(rows), reference::EvalPredicate(*pred, ctx))
          << cmp;
      EXPECT_EQ(compiled.Eval(irows), reference::EvalTri(*pred, ictx)) << cmp;
    }
  }
}

}  // namespace
}  // namespace sensjoin::query
