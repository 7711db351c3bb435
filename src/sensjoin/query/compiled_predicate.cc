#include "sensjoin/query/compiled_predicate.h"

#include <algorithm>
#include <cmath>

#include "sensjoin/common/logging.h"
#include "sensjoin/query/expr_eval.h"
#include "sensjoin/query/interval_eval.h"

namespace sensjoin::query {
namespace {

/// Stack capacity of the evaluator. Deeper predicates (beyond ~30 nested
/// operators) compile to a single tree-evaluator fallback op instead.
constexpr int kMaxStack = 32;

/// Tracks the stack depth a program needs; compilation bails out to a full
/// fallback when it would overflow the fixed evaluation stacks.
int TreeDepth(const Expr& e) {
  int worst = 0;
  for (size_t i = 0; i < e.args.size(); ++i) {
    // Postfix evaluation keeps i earlier operand results on the stack while
    // computing operand i.
    worst = std::max(worst, static_cast<int>(i) + TreeDepth(*e.args[i]));
  }
  return worst + 1;
}

/// IntervalContext over the raw per-table row pointers Eval receives, for
/// the tree-evaluator fallback ops.
class RawRowContext : public IntervalContext {
 public:
  explicit RawRowContext(const Interval* const* rows) : rows_(rows) {}

  Interval Value(int table_index, int attr_index) const override {
    SENSJOIN_DCHECK(rows_[table_index] != nullptr);
    return rows_[table_index][attr_index];
  }

 private:
  const Interval* const* rows_;
};

/// ScalarContext over the raw per-table value rows, for the scalar
/// interpreter's fallback ops.
class RawValueContext : public ScalarContext {
 public:
  explicit RawValueContext(const double* const* rows) : rows_(rows) {}

  double Value(int table_index, int attr_index) const override {
    SENSJOIN_DCHECK(rows_[table_index] != nullptr);
    return rows_[table_index][attr_index];
  }

 private:
  const double* const* rows_;
};

}  // namespace

CompiledPredicate CompiledPredicate::Compile(const Expr& pred) {
  CompiledPredicate p;
  if (TreeDepth(pred) > kMaxStack) {
    Op op;
    op.code = OpCode::kFallbackTri;
    op.subtree = &pred;
    p.ops_.push_back(op);
    return p;
  }
  p.CompileTri(pred);
  p.DetectFastPattern();
  return p;
}

CompiledPredicate CompiledPredicate::CompileValue(const Expr& expr) {
  CompiledPredicate p;
  if (TreeDepth(expr) > kMaxStack) {
    Op op;
    op.code = OpCode::kFallbackNum;
    op.subtree = &expr;
    p.ops_.push_back(op);
    return p;
  }
  p.CompileNumeric(expr);
  return p;
}

void CompiledPredicate::DetectFastPattern() {
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
      op.code = OpCode::kPushAttr;
      op.table = static_cast<int16_t>(e.table_index);
      op.attr = static_cast<int16_t>(e.attr_index);
      ops_.push_back(op);
      return;
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNeg) {
        CompileNumeric(*e.args[0]);
        op.code = OpCode::kNeg;
        ops_.push_back(op);
        return;
      }
      break;
    case ExprKind::kBinary: {
      OpCode code;
      switch (e.binary_op) {
        case BinaryOp::kAdd: code = OpCode::kAdd; break;
        case BinaryOp::kSub: code = OpCode::kSub; break;
        case BinaryOp::kMul: code = OpCode::kMul; break;
        case BinaryOp::kDiv: code = OpCode::kDiv; break;
        default: code = OpCode::kFallbackNum; break;
      }
      if (code == OpCode::kSub && e.args[0]->kind == ExprKind::kAttrRef &&
          e.args[1]->kind == ExprKind::kAttrRef) {
        op.code = OpCode::kSubAttrs;
        op.table = static_cast<int16_t>(e.args[0]->table_index);
        op.attr = static_cast<int16_t>(e.args[0]->attr_index);
        op.table2 = static_cast<int16_t>(e.args[1]->table_index);
        op.attr2 = static_cast<int16_t>(e.args[1]->attr_index);
        ops_.push_back(op);
        return;
      }
      if (code != OpCode::kFallbackNum) {
        CompileNumeric(*e.args[0]);
        CompileNumeric(*e.args[1]);
        op.code = code;
        ops_.push_back(op);
        return;
      }
      break;
    }
    case ExprKind::kFunc: {
      OpCode code;
      if (e.func == "abs") {
        code = OpCode::kAbs;
      } else if (e.func == "sqrt") {
        code = OpCode::kSqrt;
      } else if (e.func == "min") {
        code = OpCode::kMin;
      } else if (e.func == "max") {
        code = OpCode::kMax;
      } else if (e.func == "distance") {
        code = OpCode::kDistance;
      } else {
        break;
      }
      for (const auto& a : e.args) CompileNumeric(*a);
      op.code = code;
      ops_.push_back(op);
      return;
    }
  }
  // Unsupported numeric shape: evaluate the subtree through the tree walker
  // (which preserves its CHECK behavior on invalid trees).
  op.code = OpCode::kFallbackNum;
  op.subtree = &e;
  ops_.push_back(op);
}

void CompiledPredicate::CompileTri(const Expr& e) {
  Op op;
  switch (e.kind) {
    case ExprKind::kUnary:
      if (e.unary_op == UnaryOp::kNot) {
        CompileTri(*e.args[0]);
        op.code = OpCode::kNot;
        ops_.push_back(op);
        return;
      }
      break;
    case ExprKind::kBinary: {
      switch (e.binary_op) {
        case BinaryOp::kAnd:
        case BinaryOp::kOr:
          CompileTri(*e.args[0]);
          CompileTri(*e.args[1]);
          op.code =
              e.binary_op == BinaryOp::kAnd ? OpCode::kAnd : OpCode::kOr;
          ops_.push_back(op);
          return;
        case BinaryOp::kLt:
        case BinaryOp::kLe:
        case BinaryOp::kGt:
        case BinaryOp::kGe:
        case BinaryOp::kEq:
        case BinaryOp::kNe: {
          CompileNumeric(*e.args[0]);
          // A literal right-hand side (the typical band threshold) fuses
          // into the comparison.
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
          return;
        }
        default:
          break;
      }
      break;
    }
    default:
      break;
  }
  op.code = OpCode::kFallbackTri;
  op.subtree = &e;
  ops_.push_back(op);
}

Tri CompiledPredicate::Eval(const Interval* const* rows) const {
  // Specialized shapes: the same interval operations Eval's generic loop
  // would run, without the dispatch.
  if (fast_ == Fast::kAbsSubCmpLit) {
    const Op& sub = ops_[0];
    const Op& cmp = ops_[2];
    const Interval v =
        Abs(Sub(rows[sub.table][sub.attr], rows[sub.table2][sub.attr2]));
    const Interval lit = Interval::Single(cmp.literal);
    switch (cmp.code) {
      case OpCode::kCmpLtLit: return Lt(v, lit);
      case OpCode::kCmpLeLit: return Le(v, lit);
      case OpCode::kCmpGtLit: return Gt(v, lit);
      case OpCode::kCmpGeLit: return Ge(v, lit);
      case OpCode::kCmpEqLit: return Eq(v, lit);
      default: return Ne(v, lit);
    }
  }
  if (fast_ == Fast::kDistanceCmpLit) {
    const Interval dx = Sub(rows[ops_[0].table][ops_[0].attr],
                            rows[ops_[2].table][ops_[2].attr]);
    const Interval dy = Sub(rows[ops_[1].table][ops_[1].attr],
                            rows[ops_[3].table][ops_[3].attr]);
    const Interval v = Sqrt(Add(Square(dx), Square(dy)));
    const Op& cmp = ops_[5];
    const Interval lit = Interval::Single(cmp.literal);
    switch (cmp.code) {
      case OpCode::kCmpLtLit: return Lt(v, lit);
      case OpCode::kCmpLeLit: return Le(v, lit);
      case OpCode::kCmpGtLit: return Gt(v, lit);
      case OpCode::kCmpGeLit: return Ge(v, lit);
      case OpCode::kCmpEqLit: return Eq(v, lit);
      default: return Ne(v, lit);
    }
  }

  Interval num[kMaxStack];
  Tri tri[kMaxStack];
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
      case OpCode::kFallbackNum: {
        const RawRowContext ctx(rows);
        num[nt++] = EvalInterval(*op.subtree, ctx);
        break;
      }
      case OpCode::kFallbackTri: {
        const RawRowContext ctx(rows);
        tri[tt++] = EvalTri(*op.subtree, ctx);
        break;
      }
    }
  }
  SENSJOIN_DCHECK(tt == 1 && nt == 0);
  return tri[0];
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

void CompiledPredicate::RunScalar(const double* const* rows, double* value,
                                  bool* truth) const {
  // Each op runs the double operation EvalScalar / EvalPredicate performs
  // at the corresponding tree node, so results match them bit for bit.
  double num[kMaxStack];
  bool tri[kMaxStack];
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
      case OpCode::kFallbackNum: {
        const RawValueContext ctx(rows);
        num[nt++] = EvalScalar(*op.subtree, ctx);
        break;
      }
      case OpCode::kFallbackTri: {
        const RawValueContext ctx(rows);
        tri[tt++] = EvalPredicate(*op.subtree, ctx);
        break;
      }
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

}  // namespace sensjoin::query
