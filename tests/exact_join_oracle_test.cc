// Differential oracle of the base station's exact join: ComputeExactJoin
// (the indexed plan) against the nested-loop DFS it replaced
// (reference_exact_join.h), bit for bit, on seeded random 2- and 3-table
// queries and on adversarial tuples placed at the ulp-level boundaries of
// every threshold shape the probe ranges are derived from. The same inputs
// check PartneredCandidates against the candidate positions of the
// reference's matches.

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "reference_exact_join.h"
#include "reference_expr_eval.h"
#include "sensjoin/common/rng.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/result.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/expr_eval.h"
#include "sensjoin/query/query.h"

namespace sensjoin::join {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Schema: x(0), y(1), temp(2), hum(3).
data::Schema MakeSchema() {
  return data::Schema({{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}});
}

query::AnalyzedQuery MustAnalyze(const std::string& sql) {
  auto q = query::AnalyzedQuery::FromString(sql, MakeSchema());
  SENSJOIN_CHECK(q.ok()) << q.status() << " for " << sql;
  return std::move(q).value();
}

/// Round-trip literal text (the lexer reads it back with strtod).
std::string Lit(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

::testing::AssertionResult SameResult(const JoinResult& want,
                                      const JoinResult& got) {
  if (want.column_labels != got.column_labels) {
    return ::testing::AssertionFailure() << "column_labels differ";
  }
  if (want.matched_combinations != got.matched_combinations) {
    return ::testing::AssertionFailure()
           << "matched_combinations " << got.matched_combinations
           << ", want " << want.matched_combinations;
  }
  if (want.contributing_nodes != got.contributing_nodes) {
    return ::testing::AssertionFailure() << "contributing_nodes differ";
  }
  if (want.row_nodes != got.row_nodes) {
    return ::testing::AssertionFailure() << "row_nodes differ";
  }
  if (want.rows.size() != got.rows.size()) {
    return ::testing::AssertionFailure() << "rows " << got.rows.size()
                                         << ", want " << want.rows.size();
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    if (want.rows[r].size() != got.rows[r].size()) {
      return ::testing::AssertionFailure() << "row " << r << " width";
    }
    for (size_t c = 0; c < want.rows[r].size(); ++c) {
      if (!SameBits(want.rows[r][c], got.rows[r][c])) {
        return ::testing::AssertionFailure()
               << "row " << r << " column " << c << ": " << got.rows[r][c]
               << ", want " << want.rows[r][c];
      }
    }
  }
  return ::testing::AssertionSuccess();
}

using PerTable = std::vector<std::vector<const data::Tuple*>>;

/// Returns the reference's matched combinations, so callers can check that
/// a sweep exercised matches at all.
size_t ExpectSameAsReference(const std::string& sql,
                             const PerTable& per_table) {
  const query::AnalyzedQuery q = MustAnalyze(sql);
  std::vector<std::vector<bool>> partnered;
  const JoinResult want =
      reference::ReferenceExactJoin(q, per_table, &partnered);
  const JoinResult got = ComputeExactJoin(q, per_table);
  EXPECT_TRUE(SameResult(want, got)) << sql;
  EXPECT_EQ(PartneredCandidates(q, per_table), partnered) << sql;
  return want.matched_combinations;
}

data::Tuple MakeTuple(sim::NodeId node, double x, double y, double temp,
                      double hum) {
  data::Tuple t;
  t.node = node;
  t.values = {x, y, temp, hum};
  return t;
}

/// A special value now and then: NaN, infinities, signed zeros, huge and
/// subnormal magnitudes.
double MaybeSpecial(Rng* rng, double v) {
  if (!rng->NextBool(0.06)) return v;
  static constexpr double kSpecials[] = {
      kNaN, kInf, -kInf, 0.0, -0.0, 1e300, -1e300, 5e-324, -2.5e-310};
  return kSpecials[rng->UniformInt(0, 8)];
}

/// Value on a coarse grid half the time, so duplicates are common.
double Draw(Rng* rng, double lo, double hi) {
  const double v = rng->UniformDouble(lo, hi);
  return MaybeSpecial(rng, rng->NextBool(0.5) ? std::round(v * 2) / 2 : v);
}

std::vector<data::Tuple> RandomTuples(Rng* rng, int n) {
  std::vector<data::Tuple> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    // Few node ids: distinct tuples of one node, and one node on both sides.
    out.push_back(MakeTuple(static_cast<sim::NodeId>(rng->UniformInt(0, 24)),
                            Draw(rng, 0, 20), Draw(rng, 0, 20),
                            Draw(rng, -5, 5), Draw(rng, 0, 4)));
  }
  return out;
}

/// Candidate list of one table: a random subset of the pool in pool order
/// or shuffled, possibly empty.
std::vector<const data::Tuple*> RandomSide(
    Rng* rng, const std::vector<data::Tuple>& pool) {
  std::vector<const data::Tuple*> side;
  const double keep = rng->NextBool(0.2) ? 1.0 : rng->UniformDouble(0, 1);
  for (const data::Tuple& t : pool) {
    if (rng->NextDouble() < keep) side.push_back(&t);
  }
  if (rng->NextBool(0.5)) {
    for (size_t i = side.size(); i > 1; --i) {
      std::swap(side[i - 1], side[rng->UniformInt(0, i - 1)]);
    }
  }
  return side;
}

/// One join predicate between aliases p and q; covers every inversion step
/// of the probe constraints and the shapes that yield none.
std::string PairPredicate(Rng* rng, const std::string& p,
                          const std::string& q) {
  const std::string d = Lit(std::round(rng->UniformDouble(0, 3) * 8) / 8);
  const std::string r = Lit(rng->UniformDouble(0, 12));
  const std::string dist =
      "distance(" + p + ".x, " + p + ".y, " + q + ".x, " + q + ".y)";
  switch (rng->UniformInt(0, 22)) {
    case 0: return p + ".temp - " + q + ".temp > " + d;
    case 1: return p + ".temp < " + q + ".temp";
    case 2: return "abs(" + p + ".temp - " + q + ".temp) < " + d;
    case 3: return p + ".hum = " + q + ".hum";
    case 4: return dist + " < " + r;
    case 5: return dist + " > " + r;
    case 6: return p + ".temp * 2 + 1 < " + q + ".temp - " + d;
    case 7: return "(" + p + ".temp + " + q + ".hum) / 3 >= " + d;
    case 8: return "sqrt(abs(" + p + ".temp - " + q + ".temp)) <= " + d;
    case 9: return "-" + p + ".temp > " + q + ".temp - 10";
    case 10: return q + ".temp / 2 <= " + p + ".hum * " + d;
    case 11:
      return p + ".temp - " + q + ".temp > " + d + " OR " + p + ".hum < " +
             q + ".hum";
    case 12: return "NOT (abs(" + p + ".temp - " + q + ".temp) < " + d + ")";
    case 13: return p + ".hum != " + q + ".hum";
    case 14: return "min(" + p + ".temp, " + q + ".temp) > " + d;
    case 15: return p + ".x * " + q + ".y > " + r;
    case 16:
      return "abs(" + p + ".temp - " + q + ".temp) < " + d + " AND " + dist +
             " > " + r;
    case 17: return p + ".temp = " + q + ".temp + " + d;
    case 18: return q + ".temp - " + p + ".temp >= " + d;
    // Non-probe operands where the interval evaluator and the doubles
    // part ways: a divided operand (reciprocal times dividend over
    // intervals) and min/max swallowing a NaN from sqrt of a negative.
    case 19: return q + ".temp < " + p + ".temp / 3";
    case 20: return q + ".temp = max(" + p + ".temp, sqrt(" + p + ".hum - 2))";
    case 21:
      return q + ".hum - " + d + " >= min(" + p + ".hum, sqrt(" + p +
             ".temp))";
    default: return dist + " <= " + r + " AND " + p + ".hum >= " + q + ".hum";
  }
}

std::string RandomSelect(Rng* rng, bool three) {
  const std::string c = three ? "C" : "B";
  switch (rng->UniformInt(0, 8)) {
    case 0: return "*";
    case 1: return "A.temp, " + c + ".hum";
    case 2:
      return "A.temp - B.temp, distance(A.x, A.y, " + c + ".x, " + c +
             ".y), sqrt(" + c + ".hum)";
    case 3: return "COUNT(*)";
    case 4: return "MIN(A.temp - " + c + ".temp), MAX(B.hum)";
    case 5: return "SUM(A.temp * " + c + ".hum)";
    case 6: return "AVG(A.temp + B.temp / 3)";
    case 7:
      return "COUNT(*), SUM(A.temp), AVG(" + c + ".hum), MIN(A.x), MAX(" + c +
             ".y), SUM(B.temp - A.hum)";
    default: return "min(A.hum, " + c + ".hum), max(A.x, B.y) * 2";
  }
}

TEST(ExactJoinOracleTest, RandomTwoTableQueries) {
  Rng rng(20260417);
  size_t matched = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const std::vector<data::Tuple> pool =
        RandomTuples(&rng, static_cast<int>(rng.UniformInt(0, 40)));
    std::string where = PairPredicate(&rng, "A", "B");
    if (rng.NextBool(0.3)) where += " AND " + PairPredicate(&rng, "B", "A");
    const std::string sql = "SELECT " + RandomSelect(&rng, false) +
                            " FROM s A, s B WHERE " + where + " ONCE";
    matched += ExpectSameAsReference(
        sql, {RandomSide(&rng, pool), RandomSide(&rng, pool)});
    if (HasFailure()) return;
  }
  EXPECT_GT(matched, 50000u);
}

TEST(ExactJoinOracleTest, RandomThreeTableQueries) {
  Rng rng(77);
  size_t matched = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const std::vector<data::Tuple> pool =
        RandomTuples(&rng, static_cast<int>(rng.UniformInt(0, 16)));
    std::string where = PairPredicate(&rng, "A", "B") + " AND " +
                        PairPredicate(&rng, "B", "C");
    if (rng.NextBool(0.5)) where += " AND " + PairPredicate(&rng, "C", "A");
    const std::string sql = "SELECT " + RandomSelect(&rng, true) +
                            " FROM s A, s B, s C WHERE " + where + " ONCE";
    matched += ExpectSameAsReference(
        sql, {RandomSide(&rng, pool), RandomSide(&rng, pool),
              RandomSide(&rng, pool)});
    if (HasFailure()) return;
  }
  EXPECT_GT(matched, 10000u);
}

/// `v` moved by `k` ulps (negative: toward -inf).
double Ulps(double v, int k) {
  for (; k > 0; --k) v = std::nextafter(v, kInf);
  for (; k < 0; ++k) v = std::nextafter(v, -kInf);
  return v;
}

/// Tuples of table B placed within a few ulps of every boundary that
/// `make_b(a, threshold)` derives from an A tuple: the probe ranges must
/// keep each B whose comparison holds after rounding.
TEST(ExactJoinOracleTest, AdversarialThresholdBoundaries) {
  const std::vector<double> thresholds = {0.1, 0.3, 1e-3, 7.7, 1e6 + 0.1,
                                          1e-300, 0.0};
  const std::vector<double> anchors = {0.3, -2.5, 1e8 + 0.7, 1e-310, 0.0,
                                       -0.0, 3.0000000000000004};
  struct Shape {
    std::string pred;  ///< printf-free: "%" stands for the threshold
    double (*boundary)(double a, double d);
  };
  const std::vector<Shape> shapes = {
      {"A.temp - B.temp > %", [](double a, double d) { return a - d; }},
      {"A.temp - B.temp <= %", [](double a, double d) { return a - d; }},
      {"B.temp - A.temp >= %", [](double a, double d) { return a + d; }},
      {"abs(A.temp - B.temp) < %", [](double a, double d) { return a + d; }},
      {"abs(A.temp - B.temp) <= %", [](double a, double d) { return a - d; }},
      {"A.temp = B.temp + %", [](double a, double d) { return a - d; }},
      {"A.temp * 3 < B.temp + %",
       [](double a, double d) { return a * 3 - d; }},
      {"B.temp / 3 >= A.temp - %",
       [](double a, double d) { return (a - d) * 3; }},
      {"sqrt(abs(A.temp - B.temp)) < %",
       [](double a, double d) { return a + d * d; }},
      {"-B.temp > A.temp - %", [](double a, double d) { return d - a; }},
      {"B.temp * 0.1 < A.temp + %",
       [](double a, double d) { return (a + d) / 0.1; }},
      {"B.temp < A.temp / 3 + %",
       [](double a, double d) { return a / 3 + d; }},
      {"B.temp <= A.temp / 7 - %",
       [](double a, double d) { return a / 7 - d; }},
      // A.hum is 1: sqrt(A.hum - 2) is NaN, which max() swallows.
      {"B.temp = max(A.temp, sqrt(A.hum - 2)) + %",
       [](double a, double d) { return a + d; }},
  };
  for (const Shape& shape : shapes) {
    for (double d : thresholds) {
      std::string pred = shape.pred;
      pred.replace(pred.find('%'), 1, Lit(d));
      std::vector<data::Tuple> as;
      std::vector<data::Tuple> bs;
      sim::NodeId node = 1;
      for (double a : anchors) {
        as.push_back(MakeTuple(node++, 0, 0, a, 1));
        const double edge = shape.boundary(a, d);
        for (int k = -6; k <= 6; ++k) {
          bs.push_back(MakeTuple(node++, 0, 0, Ulps(edge, k), 2));
        }
      }
      for (double special : {kNaN, kInf, -kInf, 0.0, -0.0}) {
        as.push_back(MakeTuple(node++, 0, 0, special, 1));
        bs.push_back(MakeTuple(node++, 0, 0, special, 2));
      }
      // The same node on both sides, and duplicated values.
      bs.push_back(as.front());
      bs.push_back(bs.front());
      PerTable per_table(2);
      for (const data::Tuple& t : as) per_table[0].push_back(&t);
      for (const data::Tuple& t : bs) per_table[1].push_back(&t);
      ExpectSameAsReference("SELECT * FROM s A, s B WHERE " + pred + " ONCE",
                            per_table);
      std::swap(per_table[0], per_table[1]);
      ExpectSameAsReference(
          "SELECT COUNT(*), SUM(A.temp), AVG(B.temp) FROM s A, s B WHERE " +
              pred + " ONCE",
          per_table);
    }
  }
}

/// distance() bounds each axis difference through sqrt(dx*dx + dy*dy),
/// whose rounding and underflow the x/y ranges must absorb: B.x sits within
/// ulps of A.x ± r, and for r = 0 at subnormal offsets whose squares
/// underflow to zero.
TEST(ExactJoinOracleTest, AdversarialDistanceBoundaries) {
  for (double r : {0.0, 1e-300, 0.5, 3.0, 1234.5678}) {
    std::vector<data::Tuple> as;
    std::vector<data::Tuple> bs;
    sim::NodeId node = 1;
    for (double ax : {0.0, 1.1, -7.25, 1e5 + 0.3}) {
      const double ay = ax / 2;
      as.push_back(MakeTuple(node++, ax, ay, 0, 0));
      for (double edge : {ax + r, ax - r}) {
        for (int k = -5; k <= 5; ++k) {
          bs.push_back(MakeTuple(node++, Ulps(edge, k), ay, 0, 0));
          bs.push_back(MakeTuple(node++, ax, Ulps(ay + (edge - ax), k), 0, 0));
        }
      }
      for (double tiny : {1e-170, -1e-165, 1e-155, 5e-324}) {
        bs.push_back(MakeTuple(node++, ax + tiny, ay, 0, 0));
        bs.push_back(MakeTuple(node++, ax, ay + tiny, 0, 0));
      }
    }
    bs.push_back(MakeTuple(node++, kNaN, 0, 0, 0));
    bs.push_back(MakeTuple(node++, 0, kInf, 0, 0));
    PerTable per_table(2);
    for (const data::Tuple& t : as) per_table[0].push_back(&t);
    for (const data::Tuple& t : bs) per_table[1].push_back(&t);
    for (const char* cmp : {"<", "<=", "="}) {
      ExpectSameAsReference(
          "SELECT A.x, B.x, B.y FROM s A, s B WHERE "
          "distance(A.x, A.y, B.x, B.y) " +
              std::string(cmp) + " " + Lit(r) + " ONCE",
          per_table);
    }
  }
}

TEST(ExactJoinOracleTest, EmptyAndUnequalCandidateLists) {
  const data::Tuple a = MakeTuple(3, 1, 1, 2.0, 1);
  const data::Tuple b = MakeTuple(3, 1, 1, 1.0, 1);
  const data::Tuple c = MakeTuple(4, 2, 2, 0.5, 1);
  const std::string two =
      "SELECT A.temp, B.temp FROM s A, s B WHERE A.temp - B.temp > 0.25 ONCE";
  ExpectSameAsReference(two, {{}, {}});
  ExpectSameAsReference(two, {{&a}, {}});
  ExpectSameAsReference(two, {{}, {&a, &b}});
  ExpectSameAsReference(two, {{&a}, {&a, &b, &c}});
  ExpectSameAsReference(
      "SELECT COUNT(*), AVG(B.temp), MIN(A.temp) FROM s A, s B "
      "WHERE A.temp > B.temp ONCE",
      {{&a, &b}, {}});
  ExpectSameAsReference(
      "SELECT * FROM s A, s B, s C WHERE A.temp > B.temp AND "
      "B.temp > C.temp ONCE",
      {{&a, &b, &c}, {&a, &b, &c}, {&c}});
}

/// The scalar interpreter runs the same double operations as the tree
/// walkers: values compare bit for bit (NaN payloads and signed zeros
/// included), truth values exactly.
TEST(ExactJoinOracleTest, CompiledScalarMatchesTreeWalkers) {
  Rng rng(5);
  const query::AnalyzedQuery q = MustAnalyze(
      "SELECT A.temp - B.temp, abs(B.temp - A.temp), "
      "distance(A.x, A.y, B.x, B.y), min(A.hum, B.hum), max(A.hum, B.hum), "
      "sqrt(A.hum + 9), -A.hum * 2 + B.hum / 4, (A.x - 3) / (B.y + 1), "
      "min(A.temp, -B.temp) * max(A.x, B.x) FROM s A, s B "
      "WHERE A.temp - B.temp > 0.5 AND (abs(A.x - B.x) < 2 OR "
      "NOT (A.hum != B.hum)) AND distance(A.x, A.y, B.x, B.y) <= 3 AND "
      "A.temp * 2 >= B.temp AND B.hum = A.hum + 1 ONCE");
  std::vector<query::CompiledPredicate> values;
  for (const query::SelectItem& item : q.select()) {
    values.push_back(query::CompiledPredicate::CompileValue(*item.expr));
  }
  std::vector<const query::Expr*> preds;
  std::vector<query::CompiledPredicate> compiled;
  for (const auto& p : q.join_predicates()) {
    preds.push_back(p.get());
    compiled.push_back(query::CompiledPredicate::Compile(*p));
    // Each comparison of the conjunction also stands alone.
    for (const auto& arg : p->args) {
      if (query::IsBooleanExpr(*arg)) {
        preds.push_back(arg.get());
        compiled.push_back(query::CompiledPredicate::Compile(*arg));
      }
    }
  }
  for (int trial = 0; trial < 3000; ++trial) {
    const data::Tuple a = RandomTuples(&rng, 1)[0];
    const data::Tuple b = RandomTuples(&rng, 1)[0];
    const query::reference::TupleContext ctx({&a, &b});
    const double* rows[2] = {a.values.data(), b.values.data()};
    for (size_t i = 0; i < values.size(); ++i) {
      const double want =
          query::reference::EvalScalar(*q.select()[i].expr, ctx);
      const double got = values[i].EvalValue(rows);
      ASSERT_TRUE(SameBits(want, got))
          << q.select()[i].label << ": " << got << ", want " << want;
    }
    for (size_t i = 0; i < preds.size(); ++i) {
      ASSERT_EQ(query::reference::EvalPredicate(*preds[i], ctx),
                compiled[i].Eval(rows))
          << preds[i]->ToString();
    }
  }
}

}  // namespace
}  // namespace sensjoin::join
