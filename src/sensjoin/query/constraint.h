#ifndef SENSJOIN_QUERY_CONSTRAINT_H_
#define SENSJOIN_QUERY_CONSTRAINT_H_

#include <cstdint>
#include <vector>

#include "sensjoin/query/ast.h"
#include "sensjoin/query/compiled_predicate.h"
#include "sensjoin/query/interval.h"

namespace sensjoin::query {

/// A compiled, conservative bound on one attribute of one table, derived
/// from a join predicate by inverting the expression tree toward a single
/// attribute reference of the "probe" table. The base station's indexed
/// filter join uses these to restrict the candidate keys probed at each
/// nesting level to a contiguous range of a sorted per-dimension index.
///
/// Soundness contract (what makes index pruning bit-exact): for any interval
/// rows of the *other* tables,
///
///   CompiledPredicate::Compile(pred).Eval(rows') != kFalse  implies
///   rows'[probe_table][attr_index()] intersects AllowedRange(rows)
///
/// where rows' extends rows with any interval row for the probe table. The
/// implication is with respect to the compiled interval program's actual
/// (round-to-nearest) interval arithmetic, not ideal real semantics, so a
/// key skipped by the range is guaranteed to be one the predicate rejects.
/// The range may be wider than necessary; the caller re-evaluates the
/// predicate on every surviving candidate.
class ProbeConstraint {
 public:
  /// Schema attribute index (of the probe table) that the range bounds.
  int attr_index() const { return attr_index_; }

  /// The conservative allowed interval for the probe attribute, given the
  /// other referenced tables' interval rows (rows[t] points at FROM entry
  /// t's row indexed by schema attribute; every non-probe table the
  /// predicate references must be set, the probe table's entry is not
  /// read). The non-probe operands run as compiled interval programs.
  /// Returns [-inf, +inf] when the bound degenerates at runtime (e.g. a
  /// multiplier interval straddling zero, or non-finite operands in a
  /// product); returns an inverted interval (lo > hi) when the predicate is
  /// certainly false for every probe value.
  Interval AllowedRange(const Interval* const* rows) const;

  /// The exact join's counterpart of AllowedRange: the same inversion over
  /// the other tables' exact values (rows[t] points at FROM entry t's tuple
  /// values; the probe table's entry is not read). The returned range
  /// contains every probe value for which the source comparison, evaluated
  /// by the compiled scalar program in round-to-nearest doubles, can hold.
  /// The non-probe operands run as compiled scalar programs, so they carry
  /// the very values the scalar comparison sees; interval arithmetic
  /// differs from doubles on NaN (e.g. max(x, sqrt(-1)) is x in doubles,
  /// max(x, 0) over intervals) and divides by multiplying with a
  /// reciprocal. Inverting in round-to-nearest can still miss a boundary
  /// value by a few ulps, so the target is widened before and after every
  /// inversion step by ScalarSlack, which bounds both the forward
  /// evaluation's rounding at that node and the inverse step's own
  /// rounding. A probe value outside the range makes the comparison false,
  /// and so does a NaN probe value.
  Interval ScalarRange(const double* const* rows) const;

  /// Extracts the probe constraints on attributes of FROM entry
  /// `probe_table` implied by `pred` (a resolved, validated predicate).
  /// Conjunctions contribute the union of their children's constraints;
  /// unsupported shapes (OR, NOT, !=, expressions referencing the probe
  /// table on both comparison sides or through uninvertible operators)
  /// contribute none. An empty result means the predicate cannot prune via
  /// an index and must be evaluated exhaustively.
  static std::vector<ProbeConstraint> Extract(const Expr& pred,
                                              int probe_table);

 private:
  /// How the initial target interval for the probe-side expression is formed
  /// from the opposite comparison operand.
  enum class Init : uint8_t {
    kUpperFromHi,  ///< target = [-inf, Eval(other).hi]   (probe side <  other)
    kLowerFromLo,  ///< target = [Eval(other).lo, +inf]   (probe side >  other)
    kRange,        ///< target = Eval(other)              (probe side == other)
  };

  /// One inversion step, applied while walking from the comparison root down
  /// to the probe attribute reference. `other` is the sibling subexpression
  /// (an empty program for the unary steps), evaluated on the probe-time
  /// rows.
  enum class StepKind : uint8_t {
    kSubOther,      ///< through Add:      target -= Eval(other)
    kAddOther,      ///< through Sub lhs:  target += Eval(other)
    kSubFromOther,  ///< through Sub rhs:  target = Eval(other) - target
    kNeg,           ///< through Neg:      target = -target
    kSymHull,       ///< through Abs/distance: target = [-target.hi, target.hi]
    kSqrtInv,       ///< through Sqrt:     target = [target.lo^2 | -inf, target.hi^2]
    kDivOther,      ///< through Mul:      target /= Eval(other) (sign-definite)
    kMulOther,      ///< through Div lhs:  target *= Eval(other) (sign-definite)
  };

  struct Step {
    StepKind kind;
    CompiledPredicate other;  ///< empty for kNeg/kSymHull/kSqrtInv
  };

  friend class ConstraintExtractor;

  /// The inversion shared by AllowedRange and ScalarRange;
  /// `operand(program)` evaluates a non-probe operand to an interval.
  template <typename Operand>
  Interval Range(const Operand& operand, bool scalar_slack) const;

  Init init_ = Init::kRange;
  CompiledPredicate init_other_;  ///< the opposite comparison operand
  std::vector<Step> steps_;
  int attr_index_ = -1;
};

}  // namespace sensjoin::query

#endif  // SENSJOIN_QUERY_CONSTRAINT_H_
