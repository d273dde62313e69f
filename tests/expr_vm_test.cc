#include "reldb/expr_vm.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "golden.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/sql.h"
#include "sim/cluster_sim.h"
#include "sim/machine.h"

namespace mlbench {
namespace {

using golden::QueryGolden;
using reldb::ColExpr;
using reldb::ColumnBatch;
using reldb::Database;
using reldb::ExprProgram;
using reldb::Rel;
using reldb::ScalarExpr;
using reldb::Schema;
using reldb::SqlContext;
using reldb::Table;
using reldb::Tuple;

using Column = ColumnBatch::Column;

/// Bitwise double comparison: NaN == NaN, and -0.0 != 0.0 — exactly the
/// "bit-identical" contract the VM promises against the interpreter.
std::uint64_t Bits(double v) {
  std::uint64_t u = 0;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// ---- Compiler / VM unit tests ---------------------------------------------

class ExprVmTest : public ::testing::Test {
 protected:
  ExprVmTest() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    std::vector<std::int64_t> id, k;
    std::vector<double> x, y;
    for (std::int64_t i = 0; i < 11; ++i) {
      id.push_back(i);
      k.push_back(i % 3);
      x.push_back(0.25 * static_cast<double>(i) - 1.0);
      y.push_back(static_cast<double>((i * 7) % 5) - 2.0);
    }
    // Edge values: zero divisor, NaN and infinity operands.
    y[3] = 0.0;
    x[5] = nan;
    x[8] = inf;
    y[9] = -0.0;
    batch_ = ColumnBatch(Schema{"id", "x", "y", "k"},
                         std::vector<Column>{Column::Ints(id),
                                             Column::Doubles(x),
                                             Column::Doubles(y),
                                             Column::Ints(k)},
                         1.0);
  }

  /// Compiles `e` and checks the batch evaluator against the row
  /// interpreter bit-for-bit on every row, over the full range and over a
  /// sub-range (exercising the begin/end offsets the chunked loop uses).
  void ExpectRowBatchParity(const ScalarExpr& e) {
    const ExprProgram prog = ExprProgram::Compile(e);
    const std::size_t n = batch_.num_rows();
    std::vector<double> row_vals(n);
    Tuple scratch_row;
    for (std::size_t r = 0; r < n; ++r) {
      batch_.MaterializeRow(r, &scratch_row);
      row_vals[r] = prog.EvalRow(scratch_row);
    }
    ExprProgram::Scratch scratch;
    std::vector<double> batch_vals(n);
    prog.EvalBatch(batch_, 0, static_cast<std::int64_t>(n),
                   batch_vals.data(), &scratch);
    for (std::size_t r = 0; r < n; ++r) {
      EXPECT_EQ(Bits(row_vals[r]), Bits(batch_vals[r])) << "row " << r;
    }
    std::vector<double> sub(4);
    prog.EvalBatch(batch_, 3, 7, sub.data(), &scratch);
    for (std::size_t r = 0; r < 4; ++r) {
      EXPECT_EQ(Bits(row_vals[r + 3]), Bits(sub[r])) << "sub-range row " << r;
    }
  }

  ColumnBatch batch_;
};

TEST_F(ExprVmTest, LoadColCastsIntsLikeAsDouble) {
  ExpectRowBatchParity(ScalarExpr::Col(0));
  ExpectRowBatchParity(ScalarExpr::Col(1));
}

TEST_F(ExprVmTest, LoadConst) {
  ExpectRowBatchParity(ScalarExpr::Const(3.75));
  const ExprProgram prog = ExprProgram::Compile(ScalarExpr::Const(-2.5));
  EXPECT_EQ(prog.insns().size(), 1u);
  EXPECT_EQ(prog.num_regs(), 1u);
  EXPECT_EQ(prog.EvalRow(Tuple{}), -2.5);
}

TEST_F(ExprVmTest, Add) {
  ExpectRowBatchParity(ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)));
}

TEST_F(ExprVmTest, Sub) {
  ExpectRowBatchParity(ScalarExpr::Sub(ScalarExpr::Col(2), ScalarExpr::Col(0)));
}

TEST_F(ExprVmTest, Mul) {
  ExpectRowBatchParity(ScalarExpr::Mul(ScalarExpr::Col(1), ScalarExpr::Col(1)));
}

TEST_F(ExprVmTest, DivIncludingZeroDivisor) {
  ExpectRowBatchParity(ScalarExpr::Div(ScalarExpr::Col(1), ScalarExpr::Col(2)));
}

TEST_F(ExprVmTest, MaxKeepsStdMaxOperandOrder) {
  ExpectRowBatchParity(ScalarExpr::Max(ScalarExpr::Col(1), ScalarExpr::Col(2)));
  // std::max(a, b) returns a when the comparison is false — including for
  // NaN operands. The kMax opcode must agree on both operand orders.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto run = [](double a, double b) {
    const ExprProgram p = ExprProgram::Compile(
        ScalarExpr::Max(ScalarExpr::Col(0), ScalarExpr::Col(1)));
    return p.EvalRow(Tuple{a, b});
  };
  EXPECT_EQ(Bits(run(1.0, nan)), Bits(std::max(1.0, nan)));
  EXPECT_EQ(Bits(run(nan, 1.0)), Bits(std::max(nan, 1.0)));
}

TEST_F(ExprVmTest, CallOpcodes) {
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kSqrt, ScalarExpr::Col(1)));
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kExp, ScalarExpr::Col(2)));
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kLog, ScalarExpr::Col(1)));
  ExpectRowBatchParity(
      ScalarExpr::Call(ScalarExpr::Fn1::kAbs, ScalarExpr::Col(2)));
}

TEST_F(ExprVmTest, ComparisonOpcodes) {
  using Cmp = ScalarExpr::CmpOp;
  for (Cmp op : {Cmp::kEq, Cmp::kNe, Cmp::kLt, Cmp::kLe, Cmp::kGt, Cmp::kGe}) {
    ExpectRowBatchParity(
        ScalarExpr::Compare(op, ScalarExpr::Col(1), ScalarExpr::Col(2)));
  }
}

TEST_F(ExprVmTest, IntInMembership) {
  ExpectRowBatchParity(ScalarExpr::IntIn(3, {0, 2}));
  ExpectRowBatchParity(ScalarExpr::IntIn(0, {}));
  const ExprProgram prog = ExprProgram::Compile(ScalarExpr::IntIn(3, {1}));
  ASSERT_EQ(prog.sets().size(), 1u);
  EXPECT_EQ(prog.sets()[0], (std::vector<std::int64_t>{1}));
}

TEST_F(ExprVmTest, RegisterAllocationIsStackShaped) {
  // (x + y) * (x - y): left subtree reuses register 0, right uses 1 and 2.
  const ExprProgram prog = ExprProgram::Compile(ScalarExpr::Mul(
      ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)),
      ScalarExpr::Sub(ScalarExpr::Col(1), ScalarExpr::Col(2))));
  EXPECT_EQ(prog.insns().size(), 7u);
  EXPECT_EQ(prog.num_regs(), 3u);
  ExpectRowBatchParity(ScalarExpr::Mul(
      ScalarExpr::Add(ScalarExpr::Col(1), ScalarExpr::Col(2)),
      ScalarExpr::Sub(ScalarExpr::Col(1), ScalarExpr::Col(2))));
}

TEST_F(ExprVmTest, SelectBatchMatchesRowPredicate) {
  const ScalarExpr pred = ScalarExpr::Compare(
      ScalarExpr::CmpOp::kGt, ScalarExpr::Col(1), ScalarExpr::Col(2));
  const ExprProgram prog = ExprProgram::Compile(pred);
  std::vector<std::uint32_t> want;
  Tuple row;
  for (std::size_t r = 0; r < batch_.num_rows(); ++r) {
    batch_.MaterializeRow(r, &row);
    if (prog.EvalRowPred(row)) want.push_back(static_cast<std::uint32_t>(r));
  }
  ExprProgram::Scratch scratch;
  std::vector<std::uint32_t> got;
  prog.SelectBatch(batch_, 0, static_cast<std::int64_t>(batch_.num_rows()),
                   &got, &scratch);
  EXPECT_EQ(want, got);
  // Offset ranges keep global row indices.
  std::vector<std::uint32_t> offset_got;
  prog.SelectBatch(batch_, 4, static_cast<std::int64_t>(batch_.num_rows()),
                   &offset_got, &scratch);
  std::vector<std::uint32_t> offset_want;
  for (std::uint32_t r : want) {
    if (r >= 4) offset_want.push_back(r);
  }
  EXPECT_EQ(offset_want, offset_got);
}

// ---- Seeded random-expression property test -------------------------------

/// Generates a random ScalarExpr over the fixture's schema (columns 0/3
/// int, 1/2 double). Depth-bounded; every opcode is reachable.
ScalarExpr RandomExpr(std::mt19937_64& rng, int depth) {
  auto pick = [&rng](std::uint64_t n) {
    return static_cast<std::size_t>(rng() % n);
  };
  if (depth <= 0 || pick(4) == 0) {
    switch (pick(3)) {
      case 0:
        return ScalarExpr::Col(pick(4));
      case 1:
        return ScalarExpr::Const(static_cast<double>(rng() % 2001) * 0.01 -
                                 10.0);
      default:
        return ScalarExpr::IntIn(pick(2) == 0 ? 0 : 3,
                                 {static_cast<std::int64_t>(rng() % 5),
                                  static_cast<std::int64_t>(rng() % 5)});
    }
  }
  switch (pick(3)) {
    case 0: {
      auto op = static_cast<ScalarExpr::BinOp>(pick(5));
      return ScalarExpr::Bin(op, RandomExpr(rng, depth - 1),
                             RandomExpr(rng, depth - 1));
    }
    case 1: {
      auto op = static_cast<ScalarExpr::CmpOp>(pick(6));
      return ScalarExpr::Compare(op, RandomExpr(rng, depth - 1),
                                 RandomExpr(rng, depth - 1));
    }
    default: {
      auto fn = static_cast<ScalarExpr::Fn1>(pick(4));
      return ScalarExpr::Call(fn, RandomExpr(rng, depth - 1));
    }
  }
}

TEST_F(ExprVmTest, RandomExpressionsMatchBitForBit) {
  std::mt19937_64 rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    ScalarExpr e = RandomExpr(rng, 5);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectRowBatchParity(e);
  }
}

// ---- Operator- and SQL-level goldens -------------------------------------
//
// Compiled filters, projects and SQL statements on one columnar Database:
// each must reproduce a pinned result table, simulated clock and next RNG
// draw (golden::QueryGolden).

class VmInterpParity : public ::testing::Test {
 protected:
  VmInterpParity()
      : sim_(sim::Ec2M2XLargeCluster(5)), db_(&sim_, sim::RelDbCosts{}, 42) {
    db_.Put("data", Data());
    Table members(Schema{"data_id", "clus_id"}, 1e6);
    for (std::int64_t p = 0; p < 40; ++p) members.Append(Tuple{p, p % 7});
    db_.Put("membership[0]", members);
  }

  static Table Data() {
    Table data(Schema{"data_id", "dim_id", "data_val"}, 1e6);
    for (std::int64_t p = 0; p < 40; ++p) {
      for (std::int64_t d = 0; d < 3; ++d) {
        data.Append(Tuple{p, d, static_cast<double>(10 * p + d + 1) * 0.25});
      }
    }
    return data;
  }

  void ExpectPinned(const std::function<Rel(Database&)>& plan,
                    const QueryGolden& want) {
    db_.BeginQuery("q");
    Rel r = plan(db_);
    db_.EndQuery();
    const QueryGolden got = golden::Observe(r, db_);
    EXPECT_EQ(got, want) << "got " << got;
  }

  void ExpectSqlPinned(const std::string& sql, const QueryGolden& want) {
    SqlContext ctx(&db_);
    auto t = ctx.Execute(sql);
    ASSERT_TRUE(t.ok()) << t.status().ToString();
    const QueryGolden got{t->actual_rows(), golden::DigestTable(*t), false,
                          sim_.elapsed_seconds(), db_.rng().NextU64()};
    EXPECT_EQ(got, want) << sql << ": got " << got;
  }

  sim::ClusterSim sim_;
  Database db_;
};

TEST_F(VmInterpParity, CompiledFilter) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Filter(
            ScalarExpr::Compare(ScalarExpr::CmpOp::kGt, ScalarExpr::Col(2),
                                ScalarExpr::Const(17.0)));
      },
      {99, 0xdbb28811cc8c45d8, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, CompiledFilterOnRowEngineFallsBack) {
  // A mixed int/double column cannot be typed, so the compiled predicate
  // is interpreted per row on the row form.
  Table mixed(Schema{"id", "v"}, 1.0);
  for (std::int64_t i = 0; i < 12; ++i) {
    if (i % 3 == 0) {
      mixed.Append(Tuple{i, i});
    } else {
      mixed.Append(Tuple{i, 0.75 * static_cast<double>(i)});
    }
  }
  db_.Put("mixed", mixed);
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "mixed").Filter(
            ScalarExpr::Compare(ScalarExpr::CmpOp::kLe, ScalarExpr::Col(1),
                                ScalarExpr::Const(6.0)));
      },
      {9, 0x2aaa4e4f9a25d985, false, 29.750002993352272, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, FilterIntIn) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").FilterIntIn("dim_id", {0, 2});
      },
      {80, 0x927a581cc6babbba, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, FilterAllKeepsEverythingAndChargesLikeFilter) {
  ExpectPinned([](Database& db) { return Rel::Scan(db, "data").FilterAll(); },
               {120, 0xfda270229590dac6, true,
                63.012713068181817, 0xd0764d4f4476689f});
  // FilterAll charges exactly what a keep-everything Filter charges and
  // returns the same relation, zero-copy.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(5));
  Database db(&sim, sim::RelDbCosts{}, 42);
  db.Put("data", Data());
  db.BeginQuery("lambda");
  Rel keep = Rel::Scan(db, "data").Filter([](const Tuple&) { return true; });
  db.EndQuery();
  const double lambda_seconds = sim.elapsed_seconds();
  sim.ResetClock();
  db.BeginQuery("all");
  Rel all = Rel::Scan(db, "data").FilterAll();
  db.EndQuery();
  EXPECT_EQ(sim.elapsed_seconds(), lambda_seconds);
  EXPECT_EQ(golden::DigestTable(all.table()),
            golden::DigestTable(keep.table()));
  EXPECT_TRUE(all.columnar());
}

TEST_F(VmInterpParity, StructuredProjectCompiledColumns) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Project(
            Schema{"data_id", "kind", "unit", "twice", "root"},
            {ColExpr::Col(0), ColExpr::Const(std::int64_t{3}),
             ColExpr::Const(1.5),
             ColExpr::Expr(ScalarExpr::Mul(ScalarExpr::Col(2),
                                           ScalarExpr::Const(2.0))),
             ColExpr::Expr(ScalarExpr::Call(ScalarExpr::Fn1::kSqrt,
                                            ScalarExpr::Col(2)))});
      },
      {120, 0x87b147c1ba141e8e, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, StructuredProjectMixesCompiledAndLambdaSlots) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Project(
            Schema{"compiled", "opaque"},
            {ColExpr::Expr(ScalarExpr::Add(ScalarExpr::Col(2),
                                           ScalarExpr::Const(1.0))),
             ColExpr::Fn([](const Tuple& t) {
               return reldb::AsDouble(t[2]) * reldb::AsDouble(t[2]);
             })});
      },
      {120, 0x9c96aa7689a43e53, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, SqlResidualWhereEveryComparison) {
  struct Case {
    const char* cmp;
    QueryGolden want;
  };
  const Case cases[] = {
      {"=", {0, 0x21418a1b10ecf9fe, false,
             64.662713068181816, 0xd0764d4f4476689f}},
      {"<", {15, 0x437beef36943a9ab, false,
             129.53167613636361, 0x519e4174576f3791}},
      {">", {105, 0x264cb1bb3f761173, false,
             195.63813920454544, 0xfbe07cfb0c24ed8c}},
      {"<=", {15, 0x437beef36943a9ab, false,
              260.50710227272725, 0xb37d9f600cd835b8}},
      {">=", {105, 0x264cb1bb3f761173, false,
              326.61356534090908, 0xcb231c3874846a73}},
      {"<>", {120, 0xc29c186266b25982, false,
              392.92627840909086, 0x968d9f004e50de7d}},
  };
  for (const Case& c : cases) {
    ExpectSqlPinned(std::string("SELECT data_id, data_val FROM data "
                                "WHERE data_val * 2 ") +
                        c.cmp + " data_id + 20",
                    c.want);
  }
}

TEST_F(VmInterpParity, SqlArithmeticProjection) {
  ExpectSqlPinned(
      "SELECT data_val * 2 + 1 AS scaled, sqrt(data_val) AS root, "
      "log(data_val) AS lg, exp(data_val / 100) AS ex, abs(0 - data_val) "
      "AS mag FROM data WHERE dim_id = 1",
      {40, 0x78931af7addebb91, false, 65.212713068181813, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, SqlAggregateWithGroupBy) {
  ExpectSqlPinned(
      "SELECT dim_id, AVG(data_val) AS m, SUM(data_val * data_val) AS s, "
      "COUNT(*) AS n FROM data GROUP BY dim_id",
      {3, 0x4ccaeea917606dd5, false, 97.11471632499844, 0xd0764d4f4476689f});
}

TEST_F(VmInterpParity, SqlJoinThenResidualFilter) {
  ExpectSqlPinned(
      "SELECT d.data_id, d.data_val, m.clus_id "
      "FROM data d, membership[0] m "
      "WHERE d.data_id = m.data_id AND d.data_val > 25 AND m.clus_id <> 3",
      {75, 0xfdfa537d18d9f857, false, 191.30584449110671, 0xd0764d4f4476689f});
}

}  // namespace
}  // namespace mlbench
