// Fuzzes the base station's exact join and the compiled predicate
// interpreters on decoded queries and tuples. Three properties must hold for
// every input:
//   1. the compiled scalar programs (CompiledPredicate::Eval / EvalValue)
//      agree bit for bit with the reference tree walkers EvalPredicate /
//      EvalScalar on every join predicate and SELECT expression;
//   2. ComputeExactJoin (the indexed plan) returns the same JoinResult, bit
//      for bit, as the nested-loop reference DFS it replaced, and
//      PartneredCandidates marks exactly the candidate positions of the
//      reference's matches;
//   3. the compiled interval programs agree bit for bit with the reference
//      interval walkers EvalTri / EvalInterval, over interval rows that hull
//      each decoded value with the next pool tuple's value of the same
//      attribute (NaN and infinities included).
//
// Framing: byte 0 picks the table count and the SELECT list, byte 1 a
// probe-friendly template conjunct; then an expression program (one byte per
// grammar decision) builds a random join predicate, one branch of which
// nests deeper than the interpreters' fixed stacks; the remaining bytes
// decode tuples (one selector byte per value: small grid values, special
// values, or eight raw bytes bit-cast to a double) and each table's
// candidate subset.

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "reference_exact_join.h"
#include "reference_expr_eval.h"
#include "reference_filter_join.h"
#include "sensjoin/data/schema.h"
#include "sensjoin/join/result.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/query.h"

namespace {

using sensjoin::data::Tuple;
using sensjoin::join::JoinResult;
using sensjoin::query::AnalyzedQuery;
using sensjoin::query::CompiledPredicate;
using sensjoin::query::Interval;
namespace ref = sensjoin::query::reference;

/// Sequential reader over the input; yields zeros once exhausted.
class Bytes {
 public:
  Bytes(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

const char* const kAttrs[] = {"x", "y", "temp", "hum"};
const char* const kLiterals[] = {
    "0",   "0.5",   "1",      "2.5",       "3",   "0.1",
    "7.7", "1e-300", "1e300", "1e-320", "1000000.1", "0.3"};
const char* const kCmps[] = {" < ", " <= ", " > ", " >= ", " = ", " != "};

std::string Attr(Bytes* in, int num_tables) {
  const uint8_t b = in->Next();
  return std::string(1, static_cast<char>('A' + b % num_tables)) + "." +
         kAttrs[(b / 4) % 4];
}

std::string Num(Bytes* in, int num_tables, int depth) {
  const uint8_t b = in->Next();
  if (depth <= 0 || b % 13 < 2) {
    return b % 2 == 0 ? Attr(in, num_tables)
                      : kLiterals[in->Next() % std::size(kLiterals)];
  }
  // Operands are decoded into locals first: the order in which operands
  // of an expression are evaluated is unspecified, and decoding must
  // consume the bytes in one order on every compiler.
  static constexpr int kArity[13] = {0, 0, 0, 2, 2, 2, 2, 1, 1, 1, 2, 2, 4};
  std::string a[4];
  for (int i = 0; i < kArity[b % 13]; ++i) {
    a[i] = Num(in, num_tables, depth - 1);
  }
  switch (b % 13) {
    case 2: return Attr(in, num_tables);
    case 3: return "(" + a[0] + " + " + a[1] + ")";
    case 4: return "(" + a[0] + " - " + a[1] + ")";
    case 5: return "(" + a[0] + " * " + a[1] + ")";
    case 6: return "(" + a[0] + " / " + a[1] + ")";
    case 7: return "-(" + a[0] + ")";
    case 8: return "abs(" + a[0] + ")";
    case 9: return "sqrt(" + a[0] + ")";
    case 10: return "min(" + a[0] + ", " + a[1] + ")";
    case 11: return "max(" + a[0] + ", " + a[1] + ")";
    default:
      return "distance(" + a[0] + ", " + a[1] + ", " + a[2] + ", " + a[3] +
             ")";
  }
}

/// A right-deep chain of 33 to 48 binary operations: its postfix program
/// keeps every left operand on the stack, deeper than kMaxStack.
std::string Deep(Bytes* in, int num_tables) {
  const int n = 33 + in->Next() % 16;
  std::vector<std::string> terms;
  std::vector<uint8_t> ops;
  for (int i = 0; i <= n; ++i) {
    terms.push_back(Num(in, num_tables, 0));
    ops.push_back(in->Next());
  }
  std::string rest = terms[n];
  for (int i = n - 1; i >= 0; --i) {
    switch (ops[i] % 6) {
      case 0: rest = "(" + terms[i] + " + " + rest + ")"; break;
      case 1: rest = "(" + terms[i] + " - " + rest + ")"; break;
      case 2: rest = "(" + terms[i] + " * " + rest + ")"; break;
      case 3: rest = "(" + terms[i] + " / " + rest + ")"; break;
      case 4: rest = "min(" + terms[i] + ", " + rest + ")"; break;
      default: rest = "max(" + terms[i] + ", " + rest + ")"; break;
    }
  }
  return rest;
}

std::string Pred(Bytes* in, int num_tables, int depth) {
  const uint8_t b = in->Next();
  if (b % 9 == 5) {
    const char* cmp = kCmps[in->Next() % 6];
    return Deep(in, num_tables) + cmp + Num(in, num_tables, 1);
  }
  if (depth > 0 && b % 9 >= 6) {
    const std::string lhs = Pred(in, num_tables, depth - 1);
    if (b % 9 == 8) return "NOT (" + lhs + ")";
    const std::string rhs = Pred(in, num_tables, depth - 1);
    return "(" + lhs + (b % 9 == 6 ? " AND " : " OR ") + rhs + ")";
  }
  const std::string lhs = Num(in, num_tables, 3);
  const char* cmp = kCmps[in->Next() % 6];
  return lhs + cmp + Num(in, num_tables, 3);
}

/// Band, equality and distance conjuncts between A and B: the shapes whose
/// probe constraints bound a candidate range.
std::string Template(uint8_t b, const std::string& lit) {
  switch (b % 8) {
    case 0: return "A.temp - B.temp > " + lit;
    case 1: return "abs(A.temp - B.temp) < " + lit;
    case 2: return "distance(A.x, A.y, B.x, B.y) <= " + lit;
    case 3: return "A.hum = B.hum + " + lit;
    case 4: return "B.temp * 3 < A.temp - " + lit;
    case 5: return "sqrt(abs(B.x - A.x)) < " + lit;
    case 6: return "B.y / " + lit + " >= A.y";
    default: return "A.temp < B.temp";
  }
}

const char* SelectList(uint8_t b) {
  switch (b % 6) {
    case 0: return "*";
    case 1: return "A.temp, B.hum - A.x, distance(A.x, A.y, B.x, B.y)";
    case 2: return "COUNT(*), SUM(A.temp), AVG(B.hum)";
    case 3: return "MIN(A.temp - B.temp), MAX(A.x * B.y)";
    case 4: return "sqrt(A.hum), min(A.x, B.x), max(A.y, B.y) / 3";
    default: return "SUM(A.temp / B.hum), COUNT(*)";
  }
}

double Value(Bytes* in) {
  const uint8_t b = in->Next();
  if (b < 200) return (static_cast<int>(b) - 100) / 8.0;
  switch (b % 8) {
    case 0: return std::numeric_limits<double>::quiet_NaN();
    case 1: return std::numeric_limits<double>::infinity();
    case 2: return -std::numeric_limits<double>::infinity();
    case 3: return -0.0;
    case 4: return std::numeric_limits<double>::denorm_min();
    case 5: return std::nextafter(0.1, 1.0);
    default: {
      uint64_t raw = 0;
      for (int i = 0; i < 8; ++i) raw = raw << 8 | in->Next();
      return std::bit_cast<double>(raw);
    }
  }
}

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool SameResult(const JoinResult& a, const JoinResult& b) {
  if (a.column_labels != b.column_labels ||
      a.matched_combinations != b.matched_combinations ||
      a.contributing_nodes != b.contributing_nodes ||
      a.row_nodes != b.row_nodes || a.rows.size() != b.rows.size()) {
    return false;
  }
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (!SameBits(a.rows[r][c], b.rows[r][c])) return false;
    }
  }
  return true;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  if (size < 4) return 0;
  Bytes in(data, size);
  const uint8_t shape = in.Next();
  const int num_tables = 2 + shape % 2;
  const uint8_t tmpl = in.Next();
  std::string where = Pred(&in, num_tables, 2);
  if (tmpl % 3 != 0) {
    where += " AND " + Template(tmpl / 3, kLiterals[in.Next() %
                                                    std::size(kLiterals)]);
  }
  std::string from = " FROM s A, s B";
  if (num_tables == 3) from += ", s C";
  const std::string sql = std::string("SELECT ") + SelectList(shape / 2) +
                          from + " WHERE " + where + " ONCE";
  auto parsed = AnalyzedQuery::FromString(
      sql, sensjoin::data::Schema(
               {{"x", 2}, {"y", 2}, {"temp", 2}, {"hum", 2}}));
  if (!parsed.ok()) return 0;
  const AnalyzedQuery& q = *parsed;

  // Tuples: up to 16 in a pool, each table a subset chosen by a bit mask.
  const int pool_size = in.Next() % 17;
  std::vector<Tuple> pool(pool_size);
  for (int i = 0; i < pool_size; ++i) {
    pool[i].node = in.Next() % 8;
    for (int a = 0; a < 4; ++a) pool[i].values.push_back(Value(&in));
  }
  // Property 3's interval rows: each value hulled with the next tuple's.
  std::vector<std::vector<Interval>> boxes(pool_size);
  for (int i = 0; i < pool_size; ++i) {
    const Tuple& next = pool[(i + 1) % pool_size];
    for (int a = 0; a < 4; ++a) {
      const double u = pool[i].values[a];
      const double v = next.values[a];
      boxes[i].push_back({std::min(u, v), std::max(u, v)});
    }
  }
  std::vector<std::vector<const Tuple*>> per_table(num_tables);
  for (int t = 0; t < num_tables; ++t) {
    const uint16_t high = in.Next();
    const uint16_t mask = static_cast<uint16_t>(high << 8 | in.Next());
    for (int i = 0; i < pool_size; ++i) {
      if (mask == 0 || ((mask >> (i % 16)) & 1)) {
        per_table[t].push_back(&pool[i]);
      }
    }
  }

  // Properties 1 and 3 on every full assignment (bounded).
  std::vector<CompiledPredicate> preds;
  for (const auto& p : q.join_predicates()) {
    preds.push_back(CompiledPredicate::Compile(*p));
  }
  std::vector<CompiledPredicate> values;
  for (const auto& item : q.select()) {
    if (item.expr != nullptr) {
      values.push_back(CompiledPredicate::CompileValue(*item.expr));
    }
  }
  std::vector<size_t> pos(num_tables, 0);
  bool any = true;
  for (const auto& side : per_table) any = any && !side.empty();
  for (int n = 0; any && n < 256; ++n) {
    std::vector<const Tuple*> assignment(num_tables);
    std::vector<const double*> rows(num_tables);
    std::vector<const std::vector<Interval>*> box_rows(num_tables);
    std::vector<const Interval*> interval_rows(num_tables);
    for (int t = 0; t < num_tables; ++t) {
      assignment[t] = per_table[t][pos[t]];
      rows[t] = assignment[t]->values.data();
      box_rows[t] = &boxes[assignment[t] - pool.data()];
      interval_rows[t] = box_rows[t]->data();
    }
    const ref::TupleContext ctx(assignment);
    const ref::RowIntervalContext ictx(box_rows);
    for (size_t i = 0; i < preds.size(); ++i) {
      const sensjoin::query::Expr& pred = *q.join_predicates()[i];
      if (preds[i].Eval(rows.data()) != ref::EvalPredicate(pred, ctx) ||
          preds[i].Eval(interval_rows.data()) != ref::EvalTri(pred, ictx)) {
        __builtin_trap();
      }
    }
    size_t v = 0;
    for (const auto& item : q.select()) {
      if (item.expr == nullptr) continue;
      const CompiledPredicate& value = values[v++];
      const Interval got = value.EvalValue(interval_rows.data());
      const Interval want = ref::EvalInterval(*item.expr, ictx);
      if (!SameBits(value.EvalValue(rows.data()),
                    ref::EvalScalar(*item.expr, ctx)) ||
          !SameBits(got.lo, want.lo) || !SameBits(got.hi, want.hi)) {
        __builtin_trap();
      }
    }
    int t = num_tables - 1;
    while (t >= 0 && ++pos[t] == per_table[t].size()) pos[t--] = 0;
    if (t < 0) break;
  }

  // Property 2.
  std::vector<std::vector<bool>> partnered;
  const JoinResult want =
      sensjoin::join::reference::ReferenceExactJoin(q, per_table, &partnered);
  const JoinResult got = sensjoin::join::ComputeExactJoin(q, per_table);
  if (!SameResult(want, got) ||
      sensjoin::join::PartneredCandidates(q, per_table) != partnered) {
    __builtin_trap();
  }
  return 0;
}
