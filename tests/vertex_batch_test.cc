#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "gas/engine.h"
#include "gas/graph.h"
#include "golden.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/vg_function.h"
#include "sim/cluster_sim.h"
#include "sim/machine.h"

// Default batch entry points (DESIGN.md §14): a GAS program without a
// GatherBatch override and a VG function without a SampleBatch override
// run through the engines' per-item defaults. Their results, simulated
// charges and RNG streams are pinned here, whole-driver runs in
// golden_runs_test.

namespace mlbench {
namespace {

using golden::QueryGolden;
using reldb::AsDouble;
using reldb::Database;
using reldb::Rel;
using reldb::Schema;
using reldb::Table;
using reldb::Tuple;

// ---- GAS: default GatherBatch ----------------------------------------------

struct ToyData {
  bool hub = false;
  double value = 0;
  double gathered = -1;
};

/// No GatherBatch override: every sweep goes through the default per-edge
/// loop.
class ToySum : public gas::GasProgram<ToyData, double> {
 public:
  double Gather(const gas::Graph<ToyData>::Vertex& center,
                const gas::Graph<ToyData>::Vertex& nbr) override {
    (void)center;
    return nbr.data.value;
  }
  double Merge(double a, const double& b) override { return a + b; }
  void Apply(gas::Graph<ToyData>::Vertex& center,
             const double& total) override {
    center.data.gathered = total;
  }
  double GatherFlopsPerEdge() const override { return 2; }
};

gas::Graph<ToyData> ToyStar(int n_data, bool with_isolated) {
  gas::Graph<ToyData> g;
  std::size_t hub = g.AddVertex(0, ToyData{true, 0, -1}, 1.0, 1024, 128);
  for (int i = 1; i <= n_data; ++i) {
    std::size_t v = g.AddVertex(
        i, ToyData{false, 0.125 * static_cast<double>(i), -1}, 1.0, 64, 64);
    g.AddEdge(hub, v);
  }
  if (with_isolated) {
    g.AddVertex(n_data + 1, ToyData{false, 99.0, -1}, 1.0, 64, 64);
  }
  return g;
}

double RunToy(int threads, int n_data, bool with_isolated,
              gas::Graph<ToyData>* out_graph) {
  exec::ThreadPool::SetGlobalThreads(threads);
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(2));
  *out_graph = ToyStar(n_data, with_isolated);
  gas::GasEngine<ToyData> eng(&sim, out_graph);
  EXPECT_TRUE(eng.Boot().ok());
  ToySum prog;
  EXPECT_TRUE(eng.RunSweep(prog).ok());
  exec::ThreadPool::SetGlobalThreads(1);
  return sim.elapsed_seconds();
}

/// The serial left fold of each vertex's neighbor values in edge order,
/// or -1 for a vertex without edges (never gathered, never applied).
std::vector<double> ReferenceSums(const gas::Graph<ToyData>& g) {
  std::vector<double> sums;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const auto& out = g.vertex(i).out;
    double acc = -1;
    for (std::size_t j = 0; j < out.size(); ++j) {
      const double v = g.vertex(out[j]).data.value;
      acc = j == 0 ? v : acc + v;
    }
    sums.push_back(acc);
  }
  return sums;
}

TEST(GasBatchFallback, DefaultGatherBatchMatchesScalarBothPaths) {
  // 600 hub edges: the ParallelFor chunk path; 8 edges: the serial batch.
  struct Case {
    int n_data;
    double seconds;
  };
  for (const Case c :
       {Case{600, 2.0048719498227583}, Case{8, 2.0021194234254178}}) {
    for (int threads : {1, 4}) {
      gas::Graph<ToyData> g;
      const double seconds = RunToy(threads, c.n_data, false, &g);
      EXPECT_EQ(seconds, c.seconds)
          << c.n_data << "@" << threads << ": " << std::setprecision(17)
          << seconds;
      const std::vector<double> want = ReferenceSums(g);
      for (std::size_t i = 0; i < g.size(); ++i) {
        EXPECT_EQ(g.vertex(i).data.gathered, want[i])
            << "vertex " << i << " n=" << c.n_data << " t=" << threads;
      }
    }
  }
}

TEST(GasBatchFallback, ZeroEdgeVertexIsSkippedIdentically) {
  gas::Graph<ToyData> g;
  const double seconds = RunToy(1, 12, true, &g);
  EXPECT_EQ(seconds, 2.002142825160186) << std::setprecision(17) << seconds;
  // The isolated vertex never gathers and never applies.
  EXPECT_EQ(g.vertex(13).data.gathered, -1.0);
  EXPECT_EQ(g.vertex(0).data.gathered, ReferenceSums(g)[0]);
}

// ---- reldb: default SampleBatch --------------------------------------------

/// A VG without a SampleBatch override: VgApply reaches the
/// tuple-materializing default.
class UnportedVg : public reldb::VgFunction {
 public:
  std::string name() const override { return "unported"; }
  Schema output_schema() const override { return {"id", "draw"}; }
  void BindSchema(const Schema& schema) override {
    id_c_ = schema.IndexOf("id");
    v_c_ = schema.IndexOf("v");
  }
  void Sample(const std::vector<Tuple>& params, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    double sum = 0;
    for (const auto& row : params) sum += AsDouble(row[v_c_]);
    out->push_back(Tuple{params[0][id_c_], sum + rng.NextDouble()});
  }

 private:
  std::size_t id_c_ = 0, v_c_ = 0;
};

class VgApplyEdgeCases : public ::testing::Test {
 protected:
  VgApplyEdgeCases()
      : sim_(sim::Ec2M2XLargeCluster(3)), db_(&sim_, sim::RelDbCosts{}, 42) {}

  void ExpectPinned(const Table& params,
                    const std::vector<std::string>& group_cols,
                    const QueryGolden& want) {
    db_.Put("params", params);
    UnportedVg vg;
    db_.BeginQuery("q");
    Rel r = Rel::Scan(db_, "params").VgApply(vg, group_cols, 1.0);
    db_.EndQuery();
    const QueryGolden got = golden::Observe(r, db_);
    EXPECT_EQ(got, want) << "got " << got;
  }

  sim::ClusterSim sim_;
  Database db_;
};

TEST_F(VgApplyEdgeCases, FallbackDefaultSampleBatch) {
  Table t(Schema{"id", "v"}, 1.0);
  for (std::int64_t i = 0; i < 24; ++i) {
    t.Append(Tuple{i % 5, 0.25 * static_cast<double>(i)});
  }
  ExpectPinned(t, {"id"},
               {5, 0x301984da0bb29712, false, 28.650009911174241,
                0x968d9f004e50de7d});
}

TEST_F(VgApplyEdgeCases, EmptyInputEmitsNoGroups) {
  ExpectPinned(Table(Schema{"id", "v"}, 1.0), {"id"},
               {0, 0xd38a0fcd5a33d5b7, false, 28.649999999999999,
                0xd0764d4f4476689f});
}

TEST_F(VgApplyEdgeCases, EmptyGroupColsIsOneGroup) {
  Table t(Schema{"id", "v"}, 1.0);
  for (std::int64_t i = 0; i < 9; ++i) {
    t.Append(Tuple{i, 1.5 * static_cast<double>(i)});
  }
  ExpectPinned(t, {},
               {1, 0xd5617da7136651a0, false, 28.650003702107007,
                0x519e4174576f3791});
}

}  // namespace
}  // namespace mlbench
