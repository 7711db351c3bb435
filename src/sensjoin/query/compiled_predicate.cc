#include "sensjoin/query/compiled_predicate.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "sensjoin/common/logging.h"

namespace sensjoin::query {
namespace {

/// Stack capacity the interpreters keep on the machine stack. Deeper
/// programs run the same loops on heap-allocated stacks.
constexpr int kMaxStack = 32;

/// Numeric operator of a kBinary node in numeric position.
bool IsArithmetic(BinaryOp op) {
  return op == BinaryOp::kAdd || op == BinaryOp::kSub ||
         op == BinaryOp::kMul || op == BinaryOp::kDiv;
}

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const Expr& pred) {
  CompiledPredicate p;
  p.CompileTri(pred);
  p.Finish();
  return p;
}

CompiledPredicate CompiledPredicate::CompileValue(const Expr& expr) {
  CompiledPredicate p;
  p.CompileNumeric(expr);
  p.Finish();
  return p;
}

void CompiledPredicate::Finish() {
  // Replay each op's stack effect to find the exact peak depths.
  int nt = 0;
  int tt = 0;
  for (const Op& op : ops_) {
    switch (op.code) {
      case OpCode::kPushLit:
      case OpCode::kPushAttr:
      case OpCode::kSubAttrs:
        ++nt;
        break;
      case OpCode::kAdd:
      case OpCode::kSub:
      case OpCode::kMul:
      case OpCode::kDiv:
      case OpCode::kMin:
      case OpCode::kMax:
        --nt;
        break;
      case OpCode::kNeg:
      case OpCode::kAbs:
      case OpCode::kSqrt:
      case OpCode::kNot:
        break;
      case OpCode::kDistance:
        nt -= 3;
        break;
      case OpCode::kCmpLt:
      case OpCode::kCmpLe:
      case OpCode::kCmpGt:
      case OpCode::kCmpGe:
      case OpCode::kCmpEq:
      case OpCode::kCmpNe:
        nt -= 2;
        ++tt;
        break;
      case OpCode::kCmpLtLit:
      case OpCode::kCmpLeLit:
      case OpCode::kCmpGtLit:
      case OpCode::kCmpGeLit:
      case OpCode::kCmpEqLit:
      case OpCode::kCmpNeLit:
        --nt;
        ++tt;
        break;
      case OpCode::kAnd:
      case OpCode::kOr:
        --tt;
        break;
    }
    num_depth_ = std::max(num_depth_, nt);
    truth_depth_ = std::max(truth_depth_, tt);
  }

  const auto is_cmp_lit = [](OpCode c) {
    return c == OpCode::kCmpLtLit || c == OpCode::kCmpLeLit ||
           c == OpCode::kCmpGtLit || c == OpCode::kCmpGeLit ||
           c == OpCode::kCmpEqLit || c == OpCode::kCmpNeLit;
  };
  if (ops_.size() == 3 && ops_[0].code == OpCode::kSubAttrs &&
      ops_[1].code == OpCode::kAbs && is_cmp_lit(ops_[2].code)) {
    fast_ = Fast::kAbsSubCmpLit;
  } else if (ops_.size() == 6 && ops_[0].code == OpCode::kPushAttr &&
             ops_[1].code == OpCode::kPushAttr &&
             ops_[2].code == OpCode::kPushAttr &&
             ops_[3].code == OpCode::kPushAttr &&
             ops_[4].code == OpCode::kDistance && is_cmp_lit(ops_[5].code)) {
    fast_ = Fast::kDistanceCmpLit;
  }
}

void CompiledPredicate::CompileNumeric(const Expr& e) {
  Op op;
  switch (e.kind) {
    case ExprKind::kLiteral:
      op.code = OpCode::kPushLit;
      op.literal = e.literal;
      ops_.push_back(op);
      return;
    case ExprKind::kAttrRef:
      SENSJOIN_CHECK(e.table_index >= 0 && e.attr_index >= 0)
          << "unresolved attribute reference " << e.ToString();
      op.code = OpCode::kPushAttr;
      op.table = static_cast<int16_t>(e.table_index);
      op.attr = static_cast<int16_t>(e.attr_index);
      ops_.push_back(op);
      return;
    case ExprKind::kUnary:
      SENSJOIN_CHECK(e.unary_op == UnaryOp::kNeg)
          << "predicate in numeric context:" << e.ToString();
      CompileNumeric(*e.args[0]);
      op.code = OpCode::kNeg;
      ops_.push_back(op);
      return;
    case ExprKind::kBinary:
      SENSJOIN_CHECK(IsArithmetic(e.binary_op))
          << "boolean operator in numeric context:" << e.ToString();
      if (e.binary_op == BinaryOp::kSub &&
          e.args[0]->kind == ExprKind::kAttrRef &&
          e.args[1]->kind == ExprKind::kAttrRef) {
        op.code = OpCode::kSubAttrs;
        op.table = static_cast<int16_t>(e.args[0]->table_index);
        op.attr = static_cast<int16_t>(e.args[0]->attr_index);
        op.table2 = static_cast<int16_t>(e.args[1]->table_index);
        op.attr2 = static_cast<int16_t>(e.args[1]->attr_index);
        ops_.push_back(op);
        return;
      }
      CompileNumeric(*e.args[0]);
      CompileNumeric(*e.args[1]);
      switch (e.binary_op) {
        case BinaryOp::kAdd: op.code = OpCode::kAdd; break;
        case BinaryOp::kSub: op.code = OpCode::kSub; break;
        case BinaryOp::kMul: op.code = OpCode::kMul; break;
        default: op.code = OpCode::kDiv; break;
      }
      ops_.push_back(op);
      return;
    case ExprKind::kFunc: {
      size_t arity = 1;
      if (e.func == "abs") {
        op.code = OpCode::kAbs;
      } else if (e.func == "sqrt") {
        op.code = OpCode::kSqrt;
      } else if (e.func == "min") {
        op.code = OpCode::kMin;
        arity = 2;
      } else if (e.func == "max") {
        op.code = OpCode::kMax;
        arity = 2;
      } else if (e.func == "distance") {
        op.code = OpCode::kDistance;
        arity = 4;
      } else {
        SENSJOIN_CHECK(false) << "unknown function" << e.func;
      }
      SENSJOIN_CHECK_EQ(e.args.size(), arity) << e.ToString();
      for (const auto& a : e.args) CompileNumeric(*a);
      ops_.push_back(op);
      return;
    }
  }
}

void CompiledPredicate::CompileTri(const Expr& e) {
  Op op;
  if (e.kind == ExprKind::kUnary && e.unary_op == UnaryOp::kNot) {
    CompileTri(*e.args[0]);
    op.code = OpCode::kNot;
    ops_.push_back(op);
    return;
  }
  SENSJOIN_CHECK(e.kind == ExprKind::kBinary && !IsArithmetic(e.binary_op))
      << "not a predicate:" << e.ToString();
  if (e.binary_op == BinaryOp::kAnd || e.binary_op == BinaryOp::kOr) {
    CompileTri(*e.args[0]);
    CompileTri(*e.args[1]);
    op.code = e.binary_op == BinaryOp::kAnd ? OpCode::kAnd : OpCode::kOr;
    ops_.push_back(op);
    return;
  }
  CompileNumeric(*e.args[0]);
  // A literal right-hand side (the typical band threshold) fuses into the
  // comparison.
  const bool lit_rhs = e.args[1]->kind == ExprKind::kLiteral;
  if (!lit_rhs) CompileNumeric(*e.args[1]);
  switch (e.binary_op) {
    case BinaryOp::kLt:
      op.code = lit_rhs ? OpCode::kCmpLtLit : OpCode::kCmpLt;
      break;
    case BinaryOp::kLe:
      op.code = lit_rhs ? OpCode::kCmpLeLit : OpCode::kCmpLe;
      break;
    case BinaryOp::kGt:
      op.code = lit_rhs ? OpCode::kCmpGtLit : OpCode::kCmpGt;
      break;
    case BinaryOp::kGe:
      op.code = lit_rhs ? OpCode::kCmpGeLit : OpCode::kCmpGe;
      break;
    case BinaryOp::kEq:
      op.code = lit_rhs ? OpCode::kCmpEqLit : OpCode::kCmpEq;
      break;
    default:
      op.code = lit_rhs ? OpCode::kCmpNeLit : OpCode::kCmpNe;
      break;
  }
  if (lit_rhs) op.literal = e.args[1]->literal;
  ops_.push_back(op);
}

Tri CompiledPredicate::Eval(const Interval* const* rows) const {
  Tri truth = Tri::kMaybe;
  RunInterval(rows, nullptr, &truth);
  return truth;
}

Interval CompiledPredicate::EvalValue(const Interval* const* rows) const {
  Interval value;
  RunInterval(rows, &value, nullptr);
  return value;
}

bool CompiledPredicate::Eval(const double* const* rows) const {
  bool truth = false;
  RunScalar(rows, nullptr, &truth);
  return truth;
}

double CompiledPredicate::EvalValue(const double* const* rows) const {
  double value = 0.0;
  RunScalar(rows, &value, nullptr);
  return value;
}

// The loops are inlined into their one caller, so the common case runs on
// local arrays whose addresses the optimizer can see.
[[gnu::always_inline]] inline void CompiledPredicate::IntervalLoop(
    const Interval* const* rows, Interval* num, Tri* tri, Interval* value,
    Tri* truth) const {
  int nt = 0;
  int tt = 0;
  for (const Op& op : ops_) {
    switch (op.code) {
      case OpCode::kPushLit:
        num[nt++] = Interval::Single(op.literal);
        break;
      case OpCode::kPushAttr:
        num[nt++] = rows[op.table][op.attr];
        break;
      case OpCode::kAdd:
        num[nt - 2] = Add(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kSub:
        num[nt - 2] = Sub(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kMul:
        num[nt - 2] = Mul(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kDiv:
        num[nt - 2] = Div(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kNeg:
        num[nt - 1] = Neg(num[nt - 1]);
        break;
      case OpCode::kAbs:
        num[nt - 1] = Abs(num[nt - 1]);
        break;
      case OpCode::kSqrt:
        num[nt - 1] = Sqrt(num[nt - 1]);
        break;
      case OpCode::kMin:
        num[nt - 2] = Min(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kMax:
        num[nt - 2] = Max(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kDistance: {
        const Interval dx = Sub(num[nt - 4], num[nt - 2]);
        const Interval dy = Sub(num[nt - 3], num[nt - 1]);
        num[nt - 4] = Sqrt(Add(Square(dx), Square(dy)));
        nt -= 3;
        break;
      }
      case OpCode::kSubAttrs:
        num[nt++] =
            Sub(rows[op.table][op.attr], rows[op.table2][op.attr2]);
        break;
      case OpCode::kCmpLt:
        tri[tt++] = Lt(num[nt - 2], num[nt - 1]);
        nt -= 2;
        break;
      case OpCode::kCmpLe:
        tri[tt++] = Le(num[nt - 2], num[nt - 1]);
        nt -= 2;
        break;
      case OpCode::kCmpGt:
        tri[tt++] = Gt(num[nt - 2], num[nt - 1]);
        nt -= 2;
        break;
      case OpCode::kCmpGe:
        tri[tt++] = Ge(num[nt - 2], num[nt - 1]);
        nt -= 2;
        break;
      case OpCode::kCmpEq:
        tri[tt++] = Eq(num[nt - 2], num[nt - 1]);
        nt -= 2;
        break;
      case OpCode::kCmpNe:
        tri[tt++] = Ne(num[nt - 2], num[nt - 1]);
        nt -= 2;
        break;
      case OpCode::kCmpLtLit:
        tri[tt++] = Lt(num[nt - 1], Interval::Single(op.literal));
        --nt;
        break;
      case OpCode::kCmpLeLit:
        tri[tt++] = Le(num[nt - 1], Interval::Single(op.literal));
        --nt;
        break;
      case OpCode::kCmpGtLit:
        tri[tt++] = Gt(num[nt - 1], Interval::Single(op.literal));
        --nt;
        break;
      case OpCode::kCmpGeLit:
        tri[tt++] = Ge(num[nt - 1], Interval::Single(op.literal));
        --nt;
        break;
      case OpCode::kCmpEqLit:
        tri[tt++] = Eq(num[nt - 1], Interval::Single(op.literal));
        --nt;
        break;
      case OpCode::kCmpNeLit:
        tri[tt++] = Ne(num[nt - 1], Interval::Single(op.literal));
        --nt;
        break;
      case OpCode::kAnd:
        tri[tt - 2] = And(tri[tt - 2], tri[tt - 1]);
        --tt;
        break;
      case OpCode::kOr:
        tri[tt - 2] = Or(tri[tt - 2], tri[tt - 1]);
        --tt;
        break;
      case OpCode::kNot:
        tri[tt - 1] = Not(tri[tt - 1]);
        break;
    }
  }
  if (value != nullptr) {
    SENSJOIN_DCHECK(nt == 1 && tt == 0);
    *value = num[0];
  } else {
    SENSJOIN_DCHECK(tt == 1 && nt == 0);
    *truth = tri[0];
  }
}

[[gnu::always_inline]] inline void CompiledPredicate::ScalarLoop(
    const double* const* rows, double* num, bool* tri, double* value,
    bool* truth) const {
  // Each op runs the double operation a recursive walk performs at the
  // corresponding tree node, in the same order.
  int nt = 0;
  int tt = 0;
  for (const Op& op : ops_) {
    switch (op.code) {
      case OpCode::kPushLit:
        num[nt++] = op.literal;
        break;
      case OpCode::kPushAttr:
        num[nt++] = rows[op.table][op.attr];
        break;
      case OpCode::kAdd:
        num[nt - 2] = num[nt - 2] + num[nt - 1];
        --nt;
        break;
      case OpCode::kSub:
        num[nt - 2] = num[nt - 2] - num[nt - 1];
        --nt;
        break;
      case OpCode::kMul:
        num[nt - 2] = num[nt - 2] * num[nt - 1];
        --nt;
        break;
      case OpCode::kDiv:
        num[nt - 2] = num[nt - 2] / num[nt - 1];
        --nt;
        break;
      case OpCode::kNeg:
        num[nt - 1] = -num[nt - 1];
        break;
      case OpCode::kAbs:
        num[nt - 1] = std::abs(num[nt - 1]);
        break;
      case OpCode::kSqrt:
        num[nt - 1] = std::sqrt(num[nt - 1]);
        break;
      case OpCode::kMin:
        num[nt - 2] = std::min(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kMax:
        num[nt - 2] = std::max(num[nt - 2], num[nt - 1]);
        --nt;
        break;
      case OpCode::kDistance: {
        const double dx = num[nt - 4] - num[nt - 2];
        const double dy = num[nt - 3] - num[nt - 1];
        num[nt - 4] = std::sqrt(dx * dx + dy * dy);
        nt -= 3;
        break;
      }
      case OpCode::kSubAttrs:
        num[nt++] = rows[op.table][op.attr] - rows[op.table2][op.attr2];
        break;
      case OpCode::kCmpLt:
        tri[tt++] = num[nt - 2] < num[nt - 1];
        nt -= 2;
        break;
      case OpCode::kCmpLe:
        tri[tt++] = num[nt - 2] <= num[nt - 1];
        nt -= 2;
        break;
      case OpCode::kCmpGt:
        tri[tt++] = num[nt - 2] > num[nt - 1];
        nt -= 2;
        break;
      case OpCode::kCmpGe:
        tri[tt++] = num[nt - 2] >= num[nt - 1];
        nt -= 2;
        break;
      case OpCode::kCmpEq:
        tri[tt++] = num[nt - 2] == num[nt - 1];
        nt -= 2;
        break;
      case OpCode::kCmpNe:
        tri[tt++] = num[nt - 2] != num[nt - 1];
        nt -= 2;
        break;
      case OpCode::kCmpLtLit:
        tri[tt++] = num[--nt] < op.literal;
        break;
      case OpCode::kCmpLeLit:
        tri[tt++] = num[--nt] <= op.literal;
        break;
      case OpCode::kCmpGtLit:
        tri[tt++] = num[--nt] > op.literal;
        break;
      case OpCode::kCmpGeLit:
        tri[tt++] = num[--nt] >= op.literal;
        break;
      case OpCode::kCmpEqLit:
        tri[tt++] = num[--nt] == op.literal;
        break;
      case OpCode::kCmpNeLit:
        tri[tt++] = num[--nt] != op.literal;
        break;
      case OpCode::kAnd:
        tri[tt - 2] = tri[tt - 2] && tri[tt - 1];
        --tt;
        break;
      case OpCode::kOr:
        tri[tt - 2] = tri[tt - 2] || tri[tt - 1];
        --tt;
        break;
      case OpCode::kNot:
        tri[tt - 1] = !tri[tt - 1];
        break;
    }
  }
  if (value != nullptr) {
    SENSJOIN_DCHECK(nt == 1 && tt == 0);
    *value = num[0];
  } else {
    SENSJOIN_DCHECK(tt == 1 && nt == 0);
    *truth = tri[0];
  }
}

void CompiledPredicate::RunInterval(const Interval* const* rows,
                                    Interval* value, Tri* truth) const {
  // Specialized shapes: the interval operations the generic loop would run,
  // without the dispatch.
  if (fast_ != Fast::kNone) {
    SENSJOIN_DCHECK(truth != nullptr);
    Interval v;
    const Op* cmp;
    if (fast_ == Fast::kAbsSubCmpLit) {
      const Op& sub = ops_[0];
      v = Abs(Sub(rows[sub.table][sub.attr], rows[sub.table2][sub.attr2]));
      cmp = &ops_[2];
    } else {
      const Interval dx = Sub(rows[ops_[0].table][ops_[0].attr],
                              rows[ops_[2].table][ops_[2].attr]);
      const Interval dy = Sub(rows[ops_[1].table][ops_[1].attr],
                              rows[ops_[3].table][ops_[3].attr]);
      v = Sqrt(Add(Square(dx), Square(dy)));
      cmp = &ops_[5];
    }
    const Interval lit = Interval::Single(cmp->literal);
    switch (cmp->code) {
      case OpCode::kCmpLtLit: *truth = Lt(v, lit); break;
      case OpCode::kCmpLeLit: *truth = Le(v, lit); break;
      case OpCode::kCmpGtLit: *truth = Gt(v, lit); break;
      case OpCode::kCmpGeLit: *truth = Ge(v, lit); break;
      case OpCode::kCmpEqLit: *truth = Eq(v, lit); break;
      default: *truth = Ne(v, lit); break;
    }
    return;
  }

  if (num_depth_ <= kMaxStack && truth_depth_ <= kMaxStack) {
    Interval num[kMaxStack];
    Tri tri[kMaxStack];
    IntervalLoop(rows, num, tri, value, truth);
  } else {
    const auto num = std::make_unique<Interval[]>(num_depth_);
    const auto tri = std::make_unique<Tri[]>(truth_depth_);
    IntervalLoop(rows, num.get(), tri.get(), value, truth);
  }
}

void CompiledPredicate::RunScalar(const double* const* rows, double* value,
                                  bool* truth) const {
  if (num_depth_ <= kMaxStack && truth_depth_ <= kMaxStack) {
    double num[kMaxStack];
    bool tri[kMaxStack];
    ScalarLoop(rows, num, tri, value, truth);
  } else {
    const auto num = std::make_unique<double[]>(num_depth_);
    const auto tri = std::make_unique<bool[]>(truth_depth_);
    ScalarLoop(rows, num.get(), tri.get(), value, truth);
  }
}

}  // namespace sensjoin::query
