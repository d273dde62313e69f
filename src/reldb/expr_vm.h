#pragma once

#include <cstdint>
#include <vector>

#include "reldb/column_batch.h"
#include "reldb/value.h"

/// \file expr_vm.h
/// Compiled scalar expressions for the relational engine's hot paths.
///
/// SimSQL pays a per-tuple interpretation price for every WHERE predicate
/// and computed SELECT column; PR 3's columnar engine kept that cost shape
/// honest by materializing a row Tuple and making an indirect
/// std::function call per element. This file closes the interpreted-vs-
/// compiled gap on the host side: a ScalarExpr tree (column refs,
/// constants, + - * /, comparisons, max, sqrt/exp/log/abs, int-in-set)
/// compiles once per operator into a compact register bytecode, and the
/// evaluator fuses with the columnar batch loop — one opcode dispatch per
/// instruction per chunk, reading the typed column arrays directly and
/// writing selection vectors (filters) or output columns (projects) with
/// no per-row Tuple materialization.
///
/// Parity contract: every opcode applies the same IEEE operation in the
/// same order as the tree-walking row interpreter (EvalRow), element by
/// element, so a batch and a row-form relation evaluate an expression
/// bit-identically at any MLBENCH_THREADS. The row interpreter runs only
/// on relations the input keeps row-form (mixed int/double columns).

namespace mlbench::reldb {

/// A structured scalar expression over the columns of one relation.
/// Drivers and the SQL front end build these instead of opaque
/// std::function lambdas wherever the expression fits the vocabulary;
/// ExprProgram::Compile turns the tree into bytecode. Trees are plain
/// values: copy freely, compose with the static factories.
struct ScalarExpr {
  enum class Kind : std::uint8_t { kCol, kConst, kBin, kCmp, kCall, kIntIn };
  enum class BinOp : std::uint8_t { kAdd, kSub, kMul, kDiv, kMax };
  enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };
  enum class Fn1 : std::uint8_t { kSqrt, kExp, kLog, kAbs };

  Kind kind = Kind::kConst;
  std::size_t col = 0;   ///< kCol / kIntIn: input column index
  double value = 0;      ///< kConst
  BinOp bin = BinOp::kAdd;
  CmpOp cmp = CmpOp::kEq;
  Fn1 fn = Fn1::kSqrt;
  std::vector<std::int64_t> set;  ///< kIntIn: membership values, in order
  std::vector<ScalarExpr> kids;

  static ScalarExpr Col(std::size_t idx) {
    ScalarExpr e;
    e.kind = Kind::kCol;
    e.col = idx;
    return e;
  }
  static ScalarExpr Const(double v) {
    ScalarExpr e;
    e.kind = Kind::kConst;
    e.value = v;
    return e;
  }
  static ScalarExpr Bin(BinOp op, ScalarExpr a, ScalarExpr b) {
    ScalarExpr e;
    e.kind = Kind::kBin;
    e.bin = op;
    e.kids.push_back(std::move(a));
    e.kids.push_back(std::move(b));
    return e;
  }
  static ScalarExpr Add(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kAdd, std::move(a), std::move(b));
  }
  static ScalarExpr Sub(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kSub, std::move(a), std::move(b));
  }
  static ScalarExpr Mul(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kMul, std::move(a), std::move(b));
  }
  static ScalarExpr Div(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kDiv, std::move(a), std::move(b));
  }
  /// std::max semantics with the operand order preserved: (a < b) ? b : a,
  /// so NaN handling matches a driver lambda that called std::max(a, b).
  static ScalarExpr Max(ScalarExpr a, ScalarExpr b) {
    return Bin(BinOp::kMax, std::move(a), std::move(b));
  }
  /// Comparison producing 1.0 (true) / 0.0 (false); the root of every
  /// compiled predicate.
  static ScalarExpr Compare(CmpOp op, ScalarExpr a, ScalarExpr b) {
    ScalarExpr e;
    e.kind = Kind::kCmp;
    e.cmp = op;
    e.kids.push_back(std::move(a));
    e.kids.push_back(std::move(b));
    return e;
  }
  static ScalarExpr Call(Fn1 f, ScalarExpr arg) {
    ScalarExpr e;
    e.kind = Kind::kCall;
    e.fn = f;
    e.kids.push_back(std::move(arg));
    return e;
  }
  /// 1.0 when integer column `idx` is one of `values` (tested in the given
  /// order with early exit, like the hand-written membership scans).
  static ScalarExpr IntIn(std::size_t idx, std::vector<std::int64_t> values) {
    ScalarExpr e;
    e.kind = Kind::kIntIn;
    e.col = idx;
    e.set = std::move(values);
    return e;
  }
};

/// One bytecode instruction of a compiled expression. The machine is a
/// register machine with stack-slot allocation: the node compiled into
/// register d places its left child in d and its right child in d + 1, so
/// register count equals the expression tree's operand-stack depth.
enum class ExprOp : std::uint8_t {
  kLoadCol,    // regs[dst] = column a (ints cast to double, AsDouble-style)
  kLoadConst,  // regs[dst] = imm
  kAdd,        // regs[dst] = regs[a] + regs[b]
  kSub,
  kMul,
  kDiv,
  kMax,     // (regs[a] < regs[b]) ? regs[b] : regs[a]
  kSqrt,    // regs[dst] = op(regs[a])
  kExp,
  kLog,
  kAbs,
  kCmpEq,   // regs[dst] = regs[a] OP regs[b] ? 1.0 : 0.0
  kCmpNe,
  kCmpLt,
  kCmpLe,
  kCmpGt,
  kCmpGe,
  kIntIn,   // regs[dst] = int column a in sets()[b] ? 1.0 : 0.0
};

struct ExprInsn {
  ExprOp op = ExprOp::kLoadConst;
  std::uint16_t dst = 0;
  std::uint16_t a = 0;  ///< source register, or column index for loads/kIntIn
  std::uint16_t b = 0;  ///< source register, or set index for kIntIn
  double imm = 0;       ///< kLoadConst payload
};

/// A compiled expression: bytecode plus the constant pool of int-in-set
/// membership lists. Programs are immutable after Compile and safe to
/// share across threads; per-thread evaluation state lives in Scratch.
class ExprProgram {
 public:
  /// Compiles a ScalarExpr tree. Aborts (programmer error) if the tree
  /// nests deeper than the 16-bit register file — far beyond any query.
  static ExprProgram Compile(const ScalarExpr& expr);

  const std::vector<ExprInsn>& insns() const { return insns_; }
  const std::vector<std::vector<std::int64_t>>& sets() const { return sets_; }
  std::size_t num_regs() const { return num_regs_; }

  /// Interprets the program over one row Tuple (the row-form fallback,
  /// and the reference the batch evaluator is tested against).
  double EvalRow(const Tuple& t) const;
  bool EvalRowPred(const Tuple& t) const { return EvalRow(t) != 0.0; }

  /// One vectorized register during batch evaluation: either a view (a
  /// double column's storage, borrowed zero-copy), an owned chunk-sized
  /// buffer in Scratch, or a broadcast scalar (constants never touch
  /// memory). The evaluator picks the loop variant per operand shape; the
  /// per-element arithmetic is identical in every variant, so the shapes
  /// are invisible to results.
  struct RegRef {
    const double* vec = nullptr;  ///< nullptr: broadcast scalar
    double scalar = 0;
  };

  /// Per-thread vectorized register file; reused across chunks by one
  /// evaluation loop, never shared between threads.
  struct Scratch {
    std::vector<std::vector<double>> regs;  ///< owned per-register buffers
    std::vector<RegRef> views;              ///< current shape of each register
  };

  /// Batch-fused evaluation of rows [begin, end) of `in`, writing the
  /// result of row i to out[i - begin]. One dispatch per instruction per
  /// call; per-element operations and order match EvalRow exactly.
  void EvalBatch(const ColumnBatch& in, std::int64_t begin, std::int64_t end,
                 double* out, Scratch* scratch) const;

  /// Batch-fused predicate: appends the indices of rows in [begin, end)
  /// whose value is non-zero to `keep`, in row order. When the program
  /// ends in a comparison or set-membership opcode (every compiled
  /// predicate does), the selection is fused with that final instruction
  /// — no 0/1 column is materialized.
  void SelectBatch(const ColumnBatch& in, std::int64_t begin, std::int64_t end,
                   std::vector<std::uint32_t>* keep, Scratch* scratch) const;

 private:
  /// Emits code computing `e` into register `dst`; updates num_regs_.
  void CompileNode(const ScalarExpr& e, std::uint16_t dst);

  /// Executes the first `n_insns` instructions over rows [begin, end),
  /// leaving each register's shape in scratch->views.
  void ExecInsns(const ColumnBatch& in, std::int64_t begin, std::int64_t end,
                 std::size_t n_insns, Scratch* scratch) const;

  std::vector<ExprInsn> insns_;
  std::vector<std::vector<std::int64_t>> sets_;
  std::size_t num_regs_ = 1;
};

}  // namespace mlbench::reldb
