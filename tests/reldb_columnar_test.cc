#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "golden.h"
#include "reldb/column_batch.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/vg_library.h"
#include "sim/cluster_sim.h"
#include "sim/machine.h"

namespace mlbench {
namespace {

using golden::QueryGolden;
using reldb::AggOp;
using reldb::AsDouble;
using reldb::ColExpr;
using reldb::ColumnBatch;
using reldb::Database;
using reldb::Rel;
using reldb::Schema;
using reldb::Table;
using reldb::Tuple;

// ---- Operator goldens ------------------------------------------------------
//
// Every test runs one plan and demands a pinned result: row count, table
// digest (typed values, so an int64 1 differs from a double 1.0), whether
// the result is columnar, the simulated clock, and the next draw of the
// database's RNG stream. Plans over double or wide (> 4 column) keys and
// over mixed int/double columns pin the row operators those inputs
// select.

class EngineParity : public ::testing::Test {
 protected:
  EngineParity()
      : sim_(sim::Ec2M2XLargeCluster(5)), db_(&sim_, sim::RelDbCosts{}, 42) {
    Table data(Schema{"data_id", "dim_id", "data_val"}, 1e6);
    for (std::int64_t p = 0; p < 40; ++p) {
      for (std::int64_t d = 0; d < 3; ++d) {
        data.Append(Tuple{p, d, static_cast<double>(10 * p + d + 1) * 0.25});
      }
    }
    db_.Put("data", data);

    Table members(Schema{"data_id", "clus_id"}, 1e6);
    for (std::int64_t p = 0; p < 40; ++p) members.Append(Tuple{p, p % 7});
    db_.Put("membership", members);
  }

  void ExpectPinned(const std::function<Rel(Database&)>& plan,
                    const QueryGolden& want) {
    db_.BeginQuery("q");
    Rel r = plan(db_);
    db_.EndQuery();
    const QueryGolden got = golden::Observe(r, db_);
    EXPECT_EQ(got, want) << "got " << got;
  }

  sim::ClusterSim sim_;
  Database db_;
};

TEST_F(EngineParity, ScanEngagesConfiguredEngine) {
  db_.BeginQuery("q");
  EXPECT_TRUE(Rel::Scan(db_, "data").columnar());
  EXPECT_TRUE(Rel::Scan(db_, "membership").columnar());
  db_.EndQuery();
}

TEST_F(EngineParity, Filter) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Filter(
            [](const Tuple& t) { return AsDouble(t[2]) > 17.0; });
      },
      {99, 0xdbb28811cc8c45d8, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, FilterIntIn) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").FilterIntIn("dim_id", {0, 2});
      },
      {80, 0x927a581cc6babbba, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, ProjectWithRowFunction) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Project(
            Schema{"data_id", "sq"}, [](const Tuple& t) {
              return Tuple{t[0], AsDouble(t[2]) * AsDouble(t[2])};
            });
      },
      {120, 0x64311e99a0c5faa6, false, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, ProjectStructuredExprs) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Project(
            Schema{"data_id", "kind", "unit", "twice"},
            {ColExpr::Col(0), ColExpr::Const(std::int64_t{3}),
             ColExpr::Const(1.5),
             ColExpr::Fn([](const Tuple& t) { return AsDouble(t[2]) * 2.0; })});
      },
      {120, 0xe966eee510bc528, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, Renamed) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").Renamed(Schema{"a", "b", "c"});
      },
      {120, 0xf5250c49f4b82d48, true, 63.012713068181817, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, HashJoinPackedIntKeys) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").HashJoin(Rel::Scan(db, "membership"),
                                              {"data_id"}, {"data_id"}, 1e6);
      },
      {120, 0x51ab6c0b8982965e, true, 185.18709449110673, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, HashJoinDoubleKeyFallsBackIdentically) {
  Table vals(Schema{"v", "tag"}, 1.0);
  for (std::int64_t i = 0; i < 12; ++i) {
    vals.Append(Tuple{static_cast<double>(i % 4) * 0.5, i});
  }
  db_.Put("vals", vals);
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "vals").HashJoin(Rel::Scan(db, "vals"), {"v"},
                                              {"v"}, 1.0);
      },
      {36, 0xf9c3bb48556df867, false, 59.502026152375869, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, HashJoinEmptyKeysIsCrossJoin) {
  Table one(Schema{"lambda"}, 1.0);
  one.Append(Tuple{2.5});
  db_.Put("prior", one);
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "membership")
            .HashJoin(Rel::Scan(db, "prior"), {}, {}, 1e6);
      },
      {40, 0x219231b9620d390b, true, 93.101722387236677, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, HashJoinMoreKeysThanPackWidth) {
  Table wide(Schema{"a", "b", "c", "d", "e", "val"}, 1.0);
  for (std::int64_t i = 0; i < 30; ++i) {
    wide.Append(Tuple{i % 2, i % 3, i % 5, i % 7, i % 11, 0.5 * i});
  }
  db_.Put("wide", wide);
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "wide").HashJoin(Rel::Scan(db, "wide"),
                                              {"a", "b", "c", "d", "e"},
                                              {"a", "b", "c", "d", "e"}, 1.0);
      },
      {30, 0xa2324f1f4c6aa42f, false, 59.502051282542304, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, GroupByPackedIntKeysAllAggs) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").GroupBy(
            {"dim_id"},
            {{AggOp::kSum, "data_val", "s"},
             {AggOp::kCount, "", "n"},
             {AggOp::kAvg, "data_val", "m"},
             {AggOp::kMin, "data_val", "lo"},
             {AggOp::kMax, "data_val", "hi"}},
            1.0);
      },
      {3, 0xee55d58d29bca749, true, 93.814716976361765, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, GroupByDoubleKeyFallsBackIdentically) {
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "data").GroupBy({"data_val"},
                                             {{AggOp::kCount, "", "n"}}, 1.0);
      },
      {120, 0x3668d48eb3ec70d0, false, 93.814817286314209, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, GroupByFirstSeenOrderSurvivesJoin) {
  // Group keys arrive join-ordered, not sorted; the output keeps the
  // first-seen order.
  db_.BeginQuery("q");
  Rel r = Rel::Scan(db_, "data")
              .HashJoin(Rel::Scan(db_, "membership"), {"data_id"},
                        {"data_id"}, 1e6)
              .GroupBy({"clus_id", "dim_id"},
                       {{AggOp::kSum, "data_val", "s"}}, 1.0);
  db_.EndQuery();
  // The probe walks membership in data_id order and each match list keeps
  // data's dim order, so (clus_id, dim_id) first appear as (0,0), (0,1),
  // (0,2), (1,0), ...
  const auto& rows = r.table().rows();
  ASSERT_EQ(rows.size(), 21u);
  for (std::int64_t g = 0; g < 21; ++g) {
    EXPECT_EQ(reldb::AsInt(rows[static_cast<std::size_t>(g)][0]), g / 3);
    EXPECT_EQ(reldb::AsInt(rows[static_cast<std::size_t>(g)][1]), g % 3);
  }
  const QueryGolden got = golden::Observe(r, db_);
  const QueryGolden want{21, 0x4597a7da2667691, true, 217.63711500905154,
                         0xd0764d4f4476689f};
  EXPECT_EQ(got, want) << "got " << got;
}

TEST_F(EngineParity, VgApplyConsumesIdenticalRngStream) {
  ExpectPinned(
      [](Database& db) {
        reldb::DirichletVg vg("dim_id", "data_val");
        return Rel::Scan(db, "data").VgApply(vg, {"data_id"}, 1e6);
      },
      {120, 0x8c1cf88b0f0f43df, true, 63.762713068181817, 0x17908d90b838b5ee});
}

TEST_F(EngineParity, VgApplyEmptyGroupCols) {
  ExpectPinned(
      [](Database& db) {
        reldb::CategoricalVg vg("data_id", "data_val");
        return Rel::Scan(db, "data").VgApply(vg, {}, 1.0);
      },
      {1, 0xa165e56a85e30ca6, true, 62.562713078181815, 0x519e4174576f3791});
}

TEST_F(EngineParity, UnionIncludingEmptySides) {
  db_.Put("empty", Table(Schema{"data_id", "dim_id", "data_val"}, 1e6));
  ExpectPinned(
      [](Database& db) {
        auto a = Rel::Scan(db, "data");
        auto e = Rel::Scan(db, "empty");
        return a.Union(e).Union(e.Union(a)).Union(a);
      },
      {360, 0x23d0288b8f623e86, true, 61.362713068181819, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, MaterializeRoundTrip) {
  ExpectPinned(
      [](Database& db) {
        Rel::Scan(db, "data").FilterIntIn("dim_id", {1}).Materialize("snap");
        return Rel::Scan(db, "snap");
      },
      {40, 0x9aff064a9cea8de8, true, 84.087855113636351, 0xd0764d4f4476689f});
}

TEST_F(EngineParity, MixedTypeColumnFallsBackToRows) {
  // One column holds both int and double values: the batch conversion
  // refuses, so the scan and every operator after it stay row-form.
  Table mixed(Schema{"id", "v"}, 1.0);
  mixed.Append(Tuple{std::int64_t{0}, std::int64_t{7}});
  mixed.Append(Tuple{std::int64_t{1}, 7.5});
  mixed.Append(Tuple{std::int64_t{2}, std::int64_t{9}});
  db_.Put("mixed", mixed);

  EXPECT_EQ(db_.GetColumnar("mixed"), nullptr);
  EXPECT_FALSE(ColumnBatch::FromTable(*db_.Get("mixed")).has_value());
  ExpectPinned(
      [](Database& db) {
        return Rel::Scan(db, "mixed").Filter(
            [](const Tuple& t) { return AsDouble(t[1]) > 7.2; });
      },
      {2, 0xb5e1f13186dbaafa, false, 29.750000748338067, 0xd0764d4f4476689f});
}

}  // namespace
}  // namespace mlbench
