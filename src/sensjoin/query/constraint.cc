#include "sensjoin/query/constraint.h"

#include <cmath>
#include <limits>

#include "sensjoin/common/logging.h"

namespace sensjoin::query {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const Interval kFullRange{-kInf, kInf};
const Interval kEmptyRange{kInf, -kInf};

/// True iff the subtree references an attribute of FROM entry `t`.
bool RefsTable(const Expr& e, int t) {
  if (e.kind == ExprKind::kAttrRef) return e.table_index == t;
  for (const auto& a : e.args) {
    if (RefsTable(*a, t)) return true;
  }
  return false;
}

/// Relative part of ScalarSlack: four ulps (4 * epsilon) of the endpoint.
/// One widening absorbs the forward rounding at one tree node (half an ulp
/// for +, -, *, /, sqrt; under one ulp where distance's
/// sqrt(dx*dx + dy*dy) bounds |dx|) plus the previous inverse step's
/// rounding (half an ulp per endpoint operation, one ulp for Div's
/// reciprocal-then-multiply), with room to spare.
constexpr double kSlackRelative = 4 * std::numeric_limits<double>::epsilon();

/// Absolute part of ScalarSlack. Gradual underflow adds an absolute error
/// of at most half the smallest subnormal per operation; distance squares
/// its axis differences, so an axis difference below ~1.5e-154 may square
/// to zero, and 1e-160 bounds the resulting error on |dx|.
constexpr double kSlackAbsolute = 1e-160;

/// Widens each finite endpoint outward by kSlackRelative * |endpoint| +
/// kSlackAbsolute. An endpoint that is +inf on the low side (or -inf on the
/// high side) came from an overflowing forward value, whose pre-rounding
/// value may be any finite number beyond DBL_MAX: it becomes DBL_MAX first.
Interval ScalarSlack(Interval t) {
  constexpr double kMax = std::numeric_limits<double>::max();
  if (t.lo == kInf) t.lo = kMax;
  if (t.hi == -kInf) t.hi = -kMax;
  if (t.lo != -kInf) t.lo -= std::abs(t.lo) * kSlackRelative + kSlackAbsolute;
  if (t.hi != kInf) t.hi += std::abs(t.hi) * kSlackRelative + kSlackAbsolute;
  return t;
}

}  // namespace

/// Builds the inversion program for one comparison. Walks from the
/// probe-referencing comparison operand down to the (single, solvable)
/// attribute reference of the probe table, recording one step per tree
/// level. Gives up — contributing no constraint — on shapes whose inversion
/// is either unsound or not contiguous (both operands referencing the probe
/// table, min/max, division by a probe expression, ...).
class ConstraintExtractor {
 public:
  ConstraintExtractor(int probe_table, std::vector<ProbeConstraint>* out)
      : probe_(probe_table), out_(out) {}

  void FromPredicate(const Expr& pred) {
    if (pred.kind == ExprKind::kBinary && pred.binary_op == BinaryOp::kAnd) {
      // Both conjuncts must hold, so each contributes independently.
      FromPredicate(*pred.args[0]);
      FromPredicate(*pred.args[1]);
      return;
    }
    if (pred.kind != ExprKind::kBinary || !IsComparisonOp(pred.binary_op)) {
      return;  // OR / NOT / non-comparisons: no contiguous bound
    }
    const Expr& lhs = *pred.args[0];
    const Expr& rhs = *pred.args[1];
    const bool l = RefsTable(lhs, probe_);
    const bool r = RefsTable(rhs, probe_);
    if (l == r) return;  // both sides or neither: not invertible
    const Expr& side = l ? lhs : rhs;
    const Expr& other = l ? rhs : lhs;

    // Initial target from the comparison. Lt/Le are false over intervals only
    // when side.lo >= / > other.hi, so a non-false outcome guarantees the
    // side's interval reaches below other.hi (symmetrically above other.lo
    // for Gt/Ge); Eq is non-false exactly when the intervals intersect.
    ProbeConstraint c;
    c.init_other_ = CompiledPredicate::CompileValue(other);
    switch (pred.binary_op) {
      case BinaryOp::kLt:
      case BinaryOp::kLe:
        c.init_ = l ? ProbeConstraint::Init::kUpperFromHi
                    : ProbeConstraint::Init::kLowerFromLo;
        break;
      case BinaryOp::kGt:
      case BinaryOp::kGe:
        c.init_ = l ? ProbeConstraint::Init::kLowerFromLo
                    : ProbeConstraint::Init::kUpperFromHi;
        break;
      case BinaryOp::kEq:
        c.init_ = ProbeConstraint::Init::kRange;
        break;
      default:
        return;  // != excludes one cell range: no contiguous bound
    }
    Invert(side, std::move(c));
  }

 private:
  using Step = ProbeConstraint::Step;
  using StepKind = ProbeConstraint::StepKind;

  /// `e` references the probe table and its value is constrained to the
  /// target carried by `c`. Emits a finished constraint at an attribute
  /// reference; otherwise extends the program and descends.
  void Invert(const Expr& e, ProbeConstraint c) {
    switch (e.kind) {
      case ExprKind::kAttrRef:
        SENSJOIN_DCHECK(e.table_index == probe_);
        c.attr_index_ = e.attr_index;
        out_->push_back(std::move(c));
        return;
      case ExprKind::kUnary:
        if (e.unary_op != UnaryOp::kNeg) return;
        c.steps_.push_back({StepKind::kNeg, {}});
        Invert(*e.args[0], std::move(c));
        return;
      case ExprKind::kBinary: {
        const Expr& u = *e.args[0];
        const Expr& v = *e.args[1];
        const bool pu = RefsTable(u, probe_);
        const bool pv = RefsTable(v, probe_);
        if (pu == pv) return;  // probe on both operands: not solvable
        switch (e.binary_op) {
          case BinaryOp::kAdd:
            c.steps_.push_back({StepKind::kSubOther,
                                CompiledPredicate::CompileValue(pu ? v : u)});
            Invert(pu ? u : v, std::move(c));
            return;
          case BinaryOp::kSub:
            if (pu) {
              c.steps_.push_back(
                  {StepKind::kAddOther, CompiledPredicate::CompileValue(v)});
              Invert(u, std::move(c));
            } else {
              c.steps_.push_back({StepKind::kSubFromOther,
                                  CompiledPredicate::CompileValue(u)});
              Invert(v, std::move(c));
            }
            return;
          case BinaryOp::kMul:
            c.steps_.push_back({StepKind::kDivOther,
                                CompiledPredicate::CompileValue(pu ? v : u)});
            Invert(pu ? u : v, std::move(c));
            return;
          case BinaryOp::kDiv:
            if (!pu) return;  // probe in the divisor: u/x is not monotone
            c.steps_.push_back(
                {StepKind::kMulOther, CompiledPredicate::CompileValue(v)});
            Invert(u, std::move(c));
            return;
          default:
            return;
        }
      }
      case ExprKind::kFunc:
        if (e.func == "abs") {
          c.steps_.push_back({StepKind::kSymHull, {}});
          Invert(*e.args[0], std::move(c));
          return;
        }
        if (e.func == "sqrt") {
          c.steps_.push_back({StepKind::kSqrtInv, {}});
          Invert(*e.args[0], std::move(c));
          return;
        }
        if (e.func == "distance") {
          // distance(x1, y1, x2, y2) in target T forces |x1-x2| (and
          // |y1-y2|) to reach below T.hi: the interval evaluator computes
          // sqrt(square(dx) + square(dy)) with tight squares, so its lower
          // end below T.hi implies min|dx| <= T.hi. Each axis difference is
          // inverted independently and may yield its own constraint.
          InvertDifference(*e.args[0], *e.args[2], c);
          InvertDifference(*e.args[1], *e.args[3], std::move(c));
          return;
        }
        return;  // min/max: not invertible toward one operand
      case ExprKind::kLiteral:
        return;
    }
  }

  /// Inverts dx = u - v (an axis of distance) toward the probe table, with
  /// the symmetric hull step first: dx must intersect [-T.hi, T.hi].
  void InvertDifference(const Expr& u, const Expr& v, ProbeConstraint c) {
    const bool pu = RefsTable(u, probe_);
    const bool pv = RefsTable(v, probe_);
    if (pu == pv) return;
    c.steps_.push_back({StepKind::kSymHull, {}});
    if (pu) {
      c.steps_.push_back(
          {StepKind::kAddOther, CompiledPredicate::CompileValue(v)});
      Invert(u, std::move(c));
    } else {
      c.steps_.push_back(
          {StepKind::kSubFromOther, CompiledPredicate::CompileValue(u)});
      Invert(v, std::move(c));
    }
  }

  int probe_;
  std::vector<ProbeConstraint>* out_;
};

std::vector<ProbeConstraint> ProbeConstraint::Extract(const Expr& pred,
                                                      int probe_table) {
  std::vector<ProbeConstraint> out;
  ConstraintExtractor extractor(probe_table, &out);
  extractor.FromPredicate(pred);
  return out;
}

Interval ProbeConstraint::AllowedRange(const Interval* const* rows) const {
  return Range(
      [&](const CompiledPredicate& program) {
        return program.EvalValue(rows);
      },
      /*scalar_slack=*/false);
}

Interval ProbeConstraint::ScalarRange(const double* const* rows) const {
  return Range(
      [&](const CompiledPredicate& program) {
        return Interval::Single(program.EvalValue(rows));
      },
      /*scalar_slack=*/true);
}

template <typename Operand>
Interval ProbeConstraint::Range(const Operand& operand,
                                bool scalar_slack) const {
  const Interval other = operand(init_other_);
  Interval t;
  switch (init_) {
    case Init::kUpperFromHi: t = {-kInf, other.hi}; break;
    case Init::kLowerFromLo: t = {other.lo, kInf}; break;
    case Init::kRange: t = other; break;
  }
  for (const Step& step : steps_) {
    const auto step_operand = [&] { return operand(step.other); };
    if (std::isnan(t.lo) || std::isnan(t.hi)) return kFullRange;
    // The comparison itself is exact; every node below it rounds.
    if (scalar_slack) t = ScalarSlack(t);
    if (t.lo > t.hi) return kEmptyRange;
    switch (step.kind) {
      case StepKind::kSubOther:
        t = Sub(t, step_operand());
        break;
      case StepKind::kAddOther:
        t = Add(t, step_operand());
        break;
      case StepKind::kSubFromOther:
        t = Sub(step_operand(), t);
        break;
      case StepKind::kNeg:
        t = Neg(t);
        break;
      case StepKind::kSymHull:
        if (t.hi < 0.0) return kEmptyRange;  // |u| has no value below 0
        t = {-t.hi, t.hi};
        break;
      case StepKind::kSqrtInv:
        if (t.hi < 0.0) return kEmptyRange;  // sqrt(u) is never negative
        // The evaluator clamps negative radicands to zero, so any u <= 0
        // maps to sqrt(0); only a strictly positive target floor bounds u.
        t = {t.lo > 0.0 ? t.lo * t.lo : -kInf, t.hi * t.hi};
        break;
      case StepKind::kDivOther: {
        const Interval d = step_operand();
        // The forward evaluator widens division by a zero-straddling
        // interval to (-inf, inf): every probe value survives. Non-finite
        // operands risk inf*0 = NaN in the interval product; give up too.
        if ((d.lo <= 0.0 && d.hi >= 0.0) || !std::isfinite(d.lo) ||
            !std::isfinite(d.hi) || !std::isfinite(t.lo) ||
            !std::isfinite(t.hi)) {
          return kFullRange;
        }
        t = Div(t, d);
        break;
      }
      case StepKind::kMulOther: {
        const Interval m = step_operand();
        if ((m.lo <= 0.0 && m.hi >= 0.0) || !std::isfinite(m.lo) ||
            !std::isfinite(m.hi) || !std::isfinite(t.lo) ||
            !std::isfinite(t.hi)) {
          return kFullRange;
        }
        t = Mul(t, m);
        break;
      }
    }
  }
  if (std::isnan(t.lo) || std::isnan(t.hi)) return kFullRange;
  // The last inverse step rounded too; a bare attribute reference did not.
  if (scalar_slack && !steps_.empty()) t = ScalarSlack(t);
  return t;
}

}  // namespace sensjoin::query
