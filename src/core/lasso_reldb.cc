#include "core/lasso_reldb.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/cell_run.h"
#include "core/workloads.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "reldb/vg_library.h"

namespace mlbench::core {

namespace {

using models::LassoHyper;
using models::LassoState;
using models::LassoSuffStats;
using models::Vector;
using reldb::AggOp;
using reldb::AsDouble;
using reldb::AsInt;
using reldb::Database;
using reldb::Rel;
using reldb::Schema;
using reldb::Table;
using reldb::Tuple;

/// VG drawing the full beta vector from the Gram rows + tau rows bound at
/// construction (SimSQL assembles A = X^T X + D_tau^-1 with set-oriented
/// aggregates and hands it to the VG).
class BetaVg : public reldb::VgFunction {
 public:
  BetaVg(const LassoSuffStats* stats, const Vector* inv_tau2, double sigma2,
         std::uint64_t seed)
      : stats_(stats), inv_tau2_(inv_tau2), sigma2_(sigma2), seed_(seed) {}
  std::string name() const override { return "lasso_beta"; }
  Schema output_schema() const override { return {"rigid", "beta"}; }
  void Sample(const std::vector<Tuple>& params, const Schema&,
              stats::Rng&, std::vector<Tuple>* out) override {
    (void)params;
    stats::Rng rng(seed_);
    auto beta = models::SampleBeta(rng, *stats_, *inv_tau2_, sigma2_);
    MLBENCH_CHECK_MSG(beta.ok(), beta.status().ToString().c_str());
    for (std::size_t j = 0; j < beta->size(); ++j) {
      out->push_back(Tuple{static_cast<std::int64_t>(j), (*beta)[j]});
    }
  }
  std::size_t OutRowsHint(std::size_t) const override {
    return inv_tau2_->size();
  }
  void SampleBatch(const reldb::ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng&, reldb::VgBatchOut* out) override {
    (void)params;
    std::vector<std::int64_t> rigid;
    std::vector<double> beta_col;
    // Like the tuple path, each invocation group re-seeds its own RNG and
    // ignores both the parameter rows and the shared stream.
    for (std::size_t g = 0; g + 1 < group_offsets.size(); ++g) {
      stats::Rng rng(seed_);
      auto beta = models::SampleBeta(rng, *stats_, *inv_tau2_, sigma2_);
      MLBENCH_CHECK_MSG(beta.ok(), beta.status().ToString().c_str());
      for (std::size_t j = 0; j < beta->size(); ++j) {
        rigid.push_back(static_cast<std::int64_t>(j));
        beta_col.push_back((*beta)[j]);
      }
    }
    out->columnar = true;
    out->cols.push_back(
        reldb::ColumnBatch::Column::Ints(std::move(rigid)));
    out->cols.push_back(
        reldb::ColumnBatch::Column::Doubles(std::move(beta_col)));
  }

 private:
  const LassoSuffStats* stats_;
  const Vector* inv_tau2_;
  double sigma2_;
  std::uint64_t seed_;
};

}  // namespace

RunResult RunLassoRelDb(const LassoExperiment& exp,
                        models::LassoState* final_state) {
  CellRun run(exp.config);
  sim::ClusterSim& sim = run.sim();
  Database db(&sim, sim::RelDbCosts{}, exp.config.seed);
  LassoDataGen gen(exp.config.seed, exp.p);

  const double p = static_cast<double>(exp.p);
  const double scale = exp.config.data.scale();
  const long long n_act = exp.config.data.actual_per_machine;
  const int machines = exp.config.machines;
  const double n_logical =
      exp.config.data.logical_per_machine * machines;

  // ---- Load data ------------------------------------------------------------
  // data(data_id, dim_id, data_val) is the stored, tuple-shredded form;
  // we keep the dense points on the side for the native VG computations.
  std::vector<std::pair<Vector, double>> points;
  for (int m = 0; m < machines; ++m) {
    for (long long j = 0; j < n_act; ++j) points.push_back(gen.Sample(m, j));
  }
  {
    Table data(Schema{"data_id", "dim_id", "data_val"}, scale);
    // Stored row count is n x p; keep the actual table to one row per
    // point per 16 dims to bound host memory, scaling the remainder.
    const std::size_t dim_stride = exp.p >= 64 ? 16 : 1;
    data.set_scale(scale * static_cast<double>(dim_stride));
    data.Reserve(points.size() * ((exp.p + dim_stride - 1) / dim_stride));
    for (std::size_t j = 0; j < points.size(); ++j) {
      for (std::size_t dd = 0; dd < exp.p; dd += dim_stride) {
        data.Append(Tuple{static_cast<std::int64_t>(j),
                          static_cast<std::int64_t>(dd),
                          points[j].first[dd]});
      }
    }
    db.BeginQuery("load data");
    Rel::FromTable(db, std::move(data)).Materialize("data");
    db.EndQuery();
  }

  // ---- Materialized views (the paper's slow initialization) ---------------
  // Gram matrix: one group per (d1, d2) entry -- n x p^2 logical tuples
  // through the aggregate. The native accumulation below computes the
  // actual values; the simulated charge covers the logical plan.
  LassoSuffStats stats;
  double y_sum = 0;
  for (const auto& [x, y] : points) y_sum += y;
  double y_avg = y_sum / static_cast<double>(points.size());
  for (const auto& [x, y] : points) {
    models::AccumulateLasso(x, y - y_avg, &stats);
  }
  db.BeginQuery("gram matrix view");
  {
    double gram_tuples = n_logical * p * p;
    db.ChargeExtraJob();
    sim.ChargeParallelCpu(gram_tuples * db.costs().group_by_tuple_s);
    // Map-side combined output: p^2 entries per machine shuffle + final
    // p^2-row view written back.
    double out_bytes = p * p * db.TupleBytes(3);
    for (int m = 0; m < machines; ++m) {
      sim.ChargeNetwork(m, out_bytes);
    }
    sim.ChargeCpuAllMachines(out_bytes * 2.0 / machines *
                             db.costs().materialize_byte_s);
  }
  db.EndQuery();
  db.BeginQuery("centered response + moment views");
  Rel::Scan(db, "data")
      .GroupBy({"dim_id"}, {{AggOp::kSum, "data_val", "xty"}}, 1.0)
      .Materialize("xty_view");
  db.EndQuery();

  LassoHyper hyper{exp.p, 1.0};
  stats::Rng rng(exp.config.seed ^ 0x1A51);
  auto state = models::InitLasso(rng, hyper);
  if (!state.ok()) return run.Fail(state.status());

  // prior / sigma / beta tables.
  db.Put("prior", [] {
    Table t(Schema{"lambda"}, 1.0);
    t.Append(Tuple{1.0});
    return t;
  }());

  run.EndInit();

  // ---- Iterations -----------------------------------------------------------
  Status done = run.Iterate(db.fault_status(), [&](int iter) -> Status {
    const int i = iter + 1;

    // tau[i]: one InvGaussian draw per regressor (paper's CREATE TABLE
    // tau[i] with the beta[i-1] |x| sigma[i-1] |x| prior join).
    Table beta_t(Schema{"rigid", "bet"}, 1.0);
    beta_t.Reserve(exp.p);
    for (std::size_t j = 0; j < exp.p; ++j) {
      beta_t.Append(Tuple{static_cast<std::int64_t>(j), state->beta[j]});
    }
    db.Put(Database::Versioned("beta", i - 1), std::move(beta_t));
    db.BeginQuery(Database::Versioned("tau", i));
    reldb::InverseGaussianVg ig_vg("rigid", "mu", "lambda2");
    double sigma2 = state->sigma2;
    auto tau =
        Rel::Scan(db, Database::Versioned("beta", i - 1))
            .HashJoin(Rel::Scan(db, "prior"), {}, {}, 1.0)
            // mu = sqrt(lambda^2 * sigma2 / max(beta^2, 1e-12)); the Max
            // node keeps std::max's operand order for NaN parity.
            .Project(
                Schema{"rigid", "mu", "lambda2"},
                {reldb::ColExpr::Col(0),
                 reldb::ColExpr::Expr(reldb::ScalarExpr::Call(
                     reldb::ScalarExpr::Fn1::kSqrt,
                     reldb::ScalarExpr::Div(
                         reldb::ScalarExpr::Mul(
                             reldb::ScalarExpr::Mul(reldb::ScalarExpr::Col(2),
                                                    reldb::ScalarExpr::Col(2)),
                             reldb::ScalarExpr::Const(sigma2)),
                         reldb::ScalarExpr::Max(
                             reldb::ScalarExpr::Mul(reldb::ScalarExpr::Col(1),
                                                    reldb::ScalarExpr::Col(1)),
                             reldb::ScalarExpr::Const(1e-12))))),
                 reldb::ColExpr::Expr(reldb::ScalarExpr::Mul(
                     reldb::ScalarExpr::Col(2), reldb::ScalarExpr::Col(2)))})
            .VgApply(ig_vg, {"rigid"}, 1.0, 60.0);
    tau.Materialize(Database::Versioned("tau", i));
    db.EndQuery();
    for (const auto& row : db.Get(Database::Versioned("tau", i))->rows()) {
      state->inv_tau2[static_cast<std::size_t>(AsInt(row[0]))] =
          1.0 / std::max(AsDouble(row[1]), 1e-12);
    }

    // beta[i]: assemble A = X^T X + D_tau^-1 from the p^2-row Gram view
    // (set-oriented aggregates) and draw through the VG.
    db.BeginQuery(Database::Versioned("beta", i));
    db.ChargeExtraJob();  // gram |x| tau join + aggregate assembly
    sim.ChargeParallelCpu(p * p *
                          (db.costs().join_tuple_s +
                           db.costs().group_by_tuple_s));
    sim.ChargeParallelCpu(p * p * db.costs().vg_tuple_s);  // VG params in
    BetaVg beta_vg(&stats, &state->inv_tau2, state->sigma2,
                   exp.config.seed ^ (0xBE7A + i));
    Table seed_t(Schema{"one"}, 1.0);
    seed_t.Append(Tuple{std::int64_t{1}});
    auto beta_rel = Rel::FromTable(db, std::move(seed_t))
                        .VgApply(beta_vg, {}, 1.0,
                                 models::BetaUpdateFlops(exp.p) / p);
    beta_rel.Materialize(Database::Versioned("beta", i));
    db.EndQuery();
    for (const auto& row : db.Get(Database::Versioned("beta", i))->rows()) {
      state->beta[static_cast<std::size_t>(AsInt(row[0]))] = AsDouble(row[1]);
    }

    // sigma[i]: the SSE pass over the data (scan + join with beta).
    db.BeginQuery(Database::Versioned("sigma", i));
    auto sse_rel = Rel::Scan(db, "data").HashJoin(
        Rel::Scan(db, Database::Versioned("beta", i)), {"dim_id"}, {"rigid"},
        scale, /*co_partitioned=*/false);
    sse_rel.GroupBy({"data_id"}, {{AggOp::kSum, "data_val", "bx"}}, scale);
    double sse = models::ResidualSumOfSquares(stats, state->beta);
    state->sigma2 = models::SampleSigma2(rng, hyper, stats, state->beta,
                                         state->inv_tau2, sse);
    db.EndQuery();

    db.DropVersionsBefore("beta", i - 1);
    db.DropVersionsBefore("tau", i);
    db.DropVersionsBefore("sigma", i);
    return Status::OK();
  });
  if (!done.ok()) return run.Fail(std::move(done));

  if (final_state != nullptr) *final_state = *state;
  return run.Finish();
}

}  // namespace mlbench::core
