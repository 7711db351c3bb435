#ifndef SENSJOIN_QUERY_COMPILED_PREDICATE_H_
#define SENSJOIN_QUERY_COMPILED_PREDICATE_H_

#include <cstdint>
#include <vector>

#include "sensjoin/query/ast.h"
#include "sensjoin/query/interval.h"

namespace sensjoin::query {

/// A predicate or numeric expression compiled to a flat postfix program,
/// the library's only expression evaluator. Two interpreters run the same
/// program: one over attribute intervals (the conservative filter join and
/// its probe ranges) and one over exact doubles (the exact join,
/// selections, baselines). Each op runs the interval operation of
/// query/interval.h or the corresponding IEEE double operation, in the
/// order a left-to-right recursive walk of the tree would:
///
///   value:     a + b -> Add(a, b) | a + b;  min(a, b) -> Min | std::min;
///              distance -> Sqrt(Add(Square(dx), Square(dy))) |
///                          std::sqrt(dx * dx + dy * dy)
///   predicate: a < b -> Lt(a, b) | a < b;  AND -> And(p, q) | p && q
///
/// The program owns everything it needs (no pointers into the tree), so it
/// may outlive the expression it was compiled from.
class CompiledPredicate {
 public:
  /// Compiles a resolved, validated predicate (ValidateExpr). Every
  /// validated shape compiles; an invalid one is a CHECK failure.
  static CompiledPredicate Compile(const Expr& pred);

  /// Compiles a resolved, validated numeric expression (a SELECT item,
  /// aggregate input or probe-range operand) for EvalValue.
  static CompiledPredicate CompileValue(const Expr& expr);

  /// Three-valued truth over per-table attribute-interval rows: rows[t]
  /// points at FROM entry t's row indexed by schema attribute (may be null
  /// for tables the predicate does not reference). Predicate programs only.
  Tri Eval(const Interval* const* rows) const;

  /// Conservative value interval of a CompileValue program over per-table
  /// attribute-interval rows.
  Interval EvalValue(const Interval* const* rows) const;

  /// Exact truth over per-table value rows (rows[t] points at FROM entry
  /// t's tuple values; may be null for tables the predicate does not
  /// reference). Predicate programs only.
  bool Eval(const double* const* rows) const;

  /// Exact value of a CompileValue program over per-table value rows.
  double EvalValue(const double* const* rows) const;

 private:
  enum class OpCode : uint8_t {
    kPushLit,
    kPushAttr,
    kAdd,
    kSub,
    kMul,
    kDiv,
    kNeg,
    kAbs,
    kSqrt,
    kMin,
    kMax,
    kDistance,  ///< pops x1 y1 x2 y2, pushes sqrt(square(dx) + square(dy))
    kSubAttrs,  ///< fused attr - attr (the band-join hot path)
    kCmpLt,
    kCmpLe,
    kCmpGt,
    kCmpGe,
    kCmpEq,
    kCmpNe,
    kCmpLtLit,  ///< fused compare against a literal right-hand side
    kCmpLeLit,
    kCmpGtLit,
    kCmpGeLit,
    kCmpEqLit,
    kCmpNeLit,
    kAnd,
    kOr,
    kNot,
  };

  struct Op {
    OpCode code;
    int16_t table = 0;   ///< kPushAttr, kSubAttrs (minuend)
    int16_t attr = 0;    ///< kPushAttr, kSubAttrs (minuend)
    int16_t table2 = 0;  ///< kSubAttrs (subtrahend)
    int16_t attr2 = 0;   ///< kSubAttrs (subtrahend)
    double literal = 0.0;
  };

  void CompileNumeric(const Expr& e);
  void CompileTri(const Expr& e);
  void Finish();

  /// The interpreters: each leaves a value program's result in `*value`
  /// or a predicate program's in `*truth` (exactly one is non-null). They
  /// run their loop on kMaxStack-slot local stacks when the program fits
  /// and on heap buffers otherwise.
  void RunInterval(const Interval* const* rows, Interval* value,
                   Tri* truth) const;
  void RunScalar(const double* const* rows, double* value, bool* truth) const;
  void IntervalLoop(const Interval* const* rows, Interval* num, Tri* tri,
                    Interval* value, Tri* truth) const;
  void ScalarLoop(const double* const* rows, double* num, bool* tri,
                  double* value, bool* truth) const;

  /// Whole-program specializations of the two shapes that dominate the
  /// filter join's candidate re-evaluation; they run the identical interval
  /// operations without the op-dispatch loop.
  enum class Fast : uint8_t {
    kNone,
    kAbsSubCmpLit,    ///< |attr - attr| cmp literal (band join)
    kDistanceCmpLit,  ///< distance(ax, ay, bx, by) cmp literal
  };

  std::vector<Op> ops_;
  /// Exact peak depths of the number and truth stacks, replayed from the
  /// ops' push/pop effects at compile time.
  int num_depth_ = 0;
  int truth_depth_ = 0;
  Fast fast_ = Fast::kNone;
};

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_COMPILED_PREDICATE_H_
