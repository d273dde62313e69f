// Per-layer probes: timed calls into each module's public functions at
// the shapes the benchmark's workloads use, with inputs drawn from the
// workload seed. They run after the end-to-end passes, in the traced run
// only. Each call is one span; each metric is the median per-call time.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "bsp/engine.h"
#include "dataflow/rdd.h"
#include "exec/thread_pool.h"
#include "gas/engine.h"
#include "kernels/gaussian.h"
#include "linalg/matrix.h"
#include "models/gmm.h"
#include "models/hmm.h"
#include "models/lasso.h"
#include "models/lda.h"
#include "reldb/database.h"
#include "reldb/rel.h"
#include "server/client.h"
#include "server/runner.h"
#include "server/server.h"
#include "sim/cluster_sim.h"
#include "stats/rng.h"

namespace perfbench {
namespace {

using namespace mlbench;
using linalg::Matrix;
using linalg::Vector;

constexpr std::size_t kDim = 10;       // gmm/imputation dimensions
constexpr std::size_t kClusters = 10;  // gmm/imputation k
constexpr std::size_t kLassoP = 1000;
constexpr std::size_t kVocab = 10000;
constexpr std::size_t kHmmStates = 20;
constexpr std::size_t kLdaTopics = 100;
constexpr std::size_t kDocWords = 210;

/// Calls `fn()` at least `min_calls` and at most `max_calls` times, stopping
/// once `budget_s` has elapsed; records one span per call and emits the
/// median time per call divided by `items`, in `unit` (`per_s` units per
/// second).
template <typename Fn>
void Probe(Tracer* tracer, std::int64_t group, const std::string& name,
           const char* unit, double per_s, double items, int min_calls,
           int max_calls, double budget_s, Fn fn) {
  std::vector<double> samples;
  const double start = NowS();
  for (int i = 0; i < max_calls; ++i) {
    if (i >= min_calls && NowS() - start > budget_s) break;
    const double t0 = NowS();
    fn();
    const double t1 = NowS();
    tracer->Add(name, "probe", 0, group, t0, t1, {{"call", i}});
    samples.push_back((t1 - t0) * per_s / items);
  }
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  const double median = n % 2 == 1
                            ? samples[n / 2]
                            : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
  Record("layer")
      .Str("name", name)
      .Num("value", median)
      .Str("unit", unit)
      .Int("samples", static_cast<std::int64_t>(n))
      .Emit();
}

/// Random SPD covariances and means, the shape of a gmm model draw.
models::GmmParams RandomGmm(stats::Rng& rng) {
  models::GmmParams p;
  p.pi = Vector(kClusters);
  for (std::size_t c = 0; c < kClusters; ++c) {
    p.pi[c] = rng.NextDouble() + 0.1;
    Vector mu(kDim);
    for (auto& v : mu) v = 4.0 * (rng.NextDouble() - 0.5);
    p.mu.push_back(std::move(mu));
    Matrix s(kDim, kDim);
    for (std::size_t i = 0; i < kDim; ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        double v = 0.1 * (rng.NextDouble() - 0.5);
        s(i, j) = v;
        s(j, i) = v;
      }
      s(i, i) = 1.0 + rng.NextDouble();
    }
    p.sigma.push_back(std::move(s));
  }
  return p;
}

std::vector<Vector> RandomPoints(stats::Rng& rng, std::size_t n,
                                 std::size_t dim) {
  std::vector<Vector> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    Vector x(dim);
    for (auto& v : x) v = 8.0 * (rng.NextDouble() - 0.5);
    pts.push_back(std::move(x));
  }
  return pts;
}

std::vector<std::uint32_t> RandomWords(stats::Rng& rng) {
  std::vector<std::uint32_t> words(kDocWords);
  for (auto& w : words) w = static_cast<std::uint32_t>(rng.NextBounded(kVocab));
  return words;
}

// ---- kernels and models -----------------------------------------------------

void ProbeGmm(stats::Rng& rng, Tracer* tracer, std::int64_t* group) {
  models::GmmParams params = RandomGmm(rng);
  std::vector<Matrix> chol;
  Vector log_pi_norm(kClusters);
  for (std::size_t c = 0; c < kClusters; ++c) {
    chol.push_back(*linalg::Cholesky(params.sigma[c]));
    double logdet = 0;
    for (std::size_t i = 0; i < kDim; ++i) logdet += std::log(chol[c](i, i));
    log_pi_norm[c] = std::log(params.pi[c]) - logdet;
  }
  const std::vector<Vector> points = RandomPoints(rng, 1000, kDim);
  kernels::MvnScratch scratch;
  std::size_t sink = 0;
  Probe(tracer, (*group)++, "kernels.mvn_membership_ns", "ns", 1e9,
        static_cast<double>(points.size()), 5, 400, 0.3, [&] {
          for (const Vector& x : points) {
            sink += kernels::FusedMvnMembership(rng, x, params.mu, chol,
                                                log_pi_norm, &scratch);
          }
        });
  Probe(tracer, (*group)++, "models.gmm_sampler_build_us", "us", 1e6, 1.0, 5,
        2000, 0.2, [&] {
          auto sampler = models::GmmMembershipSampler::Build(params);
          sink += sampler.ok() ? 1 : 0;
        });
  // "sink" records keep every probe's results observable, so the compiler
  // cannot drop the calls; run.py ignores them.
  Record("sink").Int("gmm", static_cast<std::int64_t>(sink % 2)).Emit();
}

void ProbeText(stats::Rng& rng, Tracer* tracer, std::int64_t* group) {
  // hmm: 20 states over a 10k vocabulary, one ~210-word document per call.
  models::HmmHyper hyper{kHmmStates, kVocab, 1.0, 0.1};
  models::HmmParams hmm = models::SampleHmmPrior(rng, hyper);
  std::vector<models::HmmDocument> docs(64);
  for (auto& doc : docs) {
    doc.words = RandomWords(rng);
    models::InitHmmStates(rng, kHmmStates, &doc);
  }
  models::HmmSampler hmm_sampler;
  hmm_sampler.Prepare(hmm, docs.size() * kDocWords);
  std::size_t next = 0;
  int iteration = 0;
  Probe(tracer, (*group)++, "models.hmm_doc_resample_us", "us", 1e6, 1.0, 5,
        2000, 0.2, [&] {
          hmm_sampler.Resample(rng, iteration, &docs[next]);
          if (++next == docs.size()) {
            next = 0;
            ++iteration;
          }
        });
  models::HmmCounts total(kHmmStates, kVocab);
  models::HmmCounts part(kHmmStates, kVocab);
  for (const auto& doc : docs) models::AccumulateHmmCounts(doc, &part);
  Probe(tracer, (*group)++, "models.hmm_counts_merge_us", "us", 1e6, 1.0, 5,
        400, 0.2, [&] { total.Merge(part); });

  // lda: 100 topics over a 10k vocabulary, one ~210-word document per call.
  models::LdaHyper lda_hyper{kLdaTopics, kVocab, 0.5, 0.1};
  models::LdaParams lda = models::SampleLdaPrior(rng, lda_hyper);
  std::vector<models::LdaDocument> lda_docs(64);
  for (auto& doc : lda_docs) {
    doc.words = RandomWords(rng);
    models::InitLdaDocument(rng, lda_hyper, &doc);
  }
  models::LdaDocSampler lda_sampler;
  lda_sampler.Prepare(lda_hyper, lda, lda_docs.size() * kDocWords);
  models::LdaCounts counts(kLdaTopics, kVocab);
  next = 0;
  Probe(tracer, (*group)++, "models.lda_doc_resample_us", "us", 1e6, 1.0, 5,
        2000, 0.2, [&] {
          lda_sampler.Resample(rng, &lda_docs[next], &counts);
          next = (next + 1) % lda_docs.size();
        });
}

void ProbeLasso(stats::Rng& rng, Tracer* tracer, std::int64_t* group) {
  const std::vector<Vector> xs = RandomPoints(rng, 64, kLassoP);
  models::LassoSuffStats stats;
  stats.xtx = Matrix(kLassoP, kLassoP);
  stats.xty = Vector(kLassoP);
  std::size_t next = 0;
  Probe(tracer, (*group)++, "models.lasso_accumulate_us", "us", 1e6, 1.0, 5,
        400, 0.3, [&] {
          const Vector& x = xs[next];
          models::AccumulateLasso(x, x[0] - 0.5 * x[1], &stats);
          next = (next + 1) % xs.size();
        });
  Vector inv_tau2(kLassoP);
  for (auto& v : inv_tau2) v = 0.5 + rng.NextDouble();
  std::size_t ok = 0;
  Probe(tracer, (*group)++, "models.lasso_sample_beta_ms", "ms", 1e3, 1.0, 3,
        20, 0.5, [&] {
          auto beta = models::SampleBeta(rng, stats, inv_tau2, 1.0);
          ok += beta.ok() ? 1 : 0;
        });
  Record("sink").Int("lasso_beta_ok", static_cast<std::int64_t>(ok)).Emit();
}

// ---- reldb ------------------------------------------------------------------

/// The membership VG of src/core/gmm_reldb.cc in miniature: one invocation
/// per data point (its kDim dimension rows) draws the point's cluster.
class MembershipProbeVg : public reldb::VgFunction {
 public:
  explicit MembershipProbeVg(const models::GmmMembershipSampler* sampler)
      : sampler_(sampler) {}
  std::string name() const override { return "probe_membership"; }
  reldb::Schema output_schema() const override {
    return {"data_id", "clus_id"};
  }
  void Sample(const std::vector<reldb::Tuple>& params,
              const reldb::Schema& schema, stats::Rng& rng,
              std::vector<reldb::Tuple>* out) override {
    (void)schema;
    Vector x(kDim);
    for (const auto& row : params) {
      x[static_cast<std::size_t>(reldb::AsInt(row[1]))] =
          reldb::AsDouble(row[2]);
    }
    std::size_t k = sampler_->Sample(rng, x, &scratch_);
    out->push_back(
        reldb::Tuple{params[0][0], static_cast<std::int64_t>(k)});
  }
  std::size_t OutRowsHint(std::size_t) const override { return 1; }

 private:
  const models::GmmMembershipSampler* sampler_;
  models::GmmMembershipSampler::Scratch scratch_;
};

void ProbeRelDb(std::uint64_t seed, stats::Rng& rng, Tracer* tracer,
                std::int64_t* group) {
  // Row counts of the gmm reldb cell at 5 machines x 2000 points:
  // data(data_id, dim_id, data_val) has one row per (point, dimension),
  // membership(data_id, clus_id) one row per point.
  const std::int64_t points = kMachines * kGmmPoints;
  const double scale = 10e6 / static_cast<double>(kGmmPoints);
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(kMachines));
  reldb::Database db(&sim, sim::RelDbCosts{}, seed);
  reldb::Table data(reldb::Schema{"data_id", "dim_id", "data_val"}, scale);
  reldb::Table members(reldb::Schema{"data_id", "clus_id"}, scale);
  data.Reserve(static_cast<std::size_t>(points) * kDim);
  for (std::int64_t i = 0; i < points; ++i) {
    for (std::size_t d = 0; d < kDim; ++d) {
      data.Append(reldb::Tuple{i, static_cast<std::int64_t>(d),
                               8.0 * (rng.NextDouble() - 0.5)});
    }
    members.Append(reldb::Tuple{
        i, static_cast<std::int64_t>(rng.NextBounded(kClusters))});
  }
  db.Put("data", std::move(data));
  db.Put("membership", std::move(members));
  std::size_t rows = 0;

  Probe(tracer, (*group)++, "reldb.hash_join_ms", "ms", 1e3, 1.0, 3, 50, 0.5,
        [&] {
          db.BeginQuery("probe join");
          auto joined = reldb::Rel::Scan(db, "data").HashJoin(
              reldb::Rel::Scan(db, "membership"), {"data_id"}, {"data_id"},
              scale, /*co_partitioned=*/true);
          rows += joined.logical_rows() > 0 ? 1 : 0;
          db.EndQuery();
        });

  db.BeginQuery("probe join input");
  auto joined = reldb::Rel::Scan(db, "data").HashJoin(
      reldb::Rel::Scan(db, "membership"), {"data_id"}, {"data_id"}, scale,
      /*co_partitioned=*/true);
  db.EndQuery();
  Probe(tracer, (*group)++, "reldb.group_by_ms", "ms", 1e3, 1.0, 3, 50, 0.5,
        [&] {
          db.BeginQuery("probe group by");
          auto agg = joined.GroupBy({"clus_id", "dim_id"},
                                    {{reldb::AggOp::kSum, "data_val", "val"}},
                                    1.0);
          rows += agg.logical_rows() > 0 ? 1 : 0;
          db.EndQuery();
        });

  auto sampler = models::GmmMembershipSampler::Build(RandomGmm(rng));
  if (!sampler.ok()) return;
  MembershipProbeVg vg(&*sampler);
  Probe(tracer, (*group)++, "reldb.vg_apply_ms", "ms", 1e3, 1.0, 3, 50, 0.5,
        [&] {
          db.BeginQuery("probe vg");
          auto out =
              reldb::Rel::Scan(db, "data").VgApply(vg, {"data_id"}, scale);
          rows += out.logical_rows() > 0 ? 1 : 0;
          db.EndQuery();
        });

  // The four statements of the server mix, over its table sizes.
  int call = 0;
  Probe(tracer, (*group)++, "reldb.sql_us", "us", 1e6, 1.0, 8, 2000, 0.3, [&] {
    server::SqlRequest req;
    req.seed = seed ^ static_cast<std::uint64_t>(call);
    req.rows = 64 + (call % 4) * 32;
    req.sql = kMixStatements[call % 4];
    ++call;
    rows += server::ExecuteSql(req).status.ok() ? 1 : 0;
  });
  Record("sink").Int("reldb_rows", static_cast<std::int64_t>(rows)).Emit();
}

// ---- engines ----------------------------------------------------------------

void ProbeDataflow(stats::Rng& rng, Tracer* tracer, std::int64_t* group) {
  // The text grid's shuffle: every machine's documents emit (word, count)
  // pairs that reduce onto the 10k-word vocabulary.
  const std::uint64_t salt = rng.NextU64();
  std::size_t keys = 0;
  Probe(tracer, (*group)++, "dataflow.reduce_by_key_ms", "ms", 1e3, 1.0, 3,
        200, 0.4, [&] {
          sim::ClusterSim sim(sim::Ec2M2XLargeCluster(kMachines));
          dataflow::ContextOptions opts;
          opts.scale = 1.0;
          dataflow::Context ctx(&sim, opts);
          auto words = dataflow::Generate<std::uint64_t>(
              ctx, kTextDocs * static_cast<long long>(kDocWords),
              [salt](int p, long long i) {
                std::uint64_t h = (salt ^ static_cast<std::uint64_t>(p)) *
                                      0x9E3779B97F4A7C15ULL +
                                  static_cast<std::uint64_t>(i);
                h ^= h >> 31;
                h *= 0xBF58476D1CE4E5B9ULL;
                return h ^ (h >> 29);
              },
              8);
          auto pairs = words.Map([](const std::uint64_t& w) {
            return std::pair<std::uint32_t, double>(
                static_cast<std::uint32_t>(w % kVocab), 1.0);
          });
          auto counts = dataflow::ReduceByKey(
              pairs, [](const double& a, const double& b) { return a + b; });
          auto out = counts.Collect();
          keys += out.ok() ? out->size() : 0;
        });
  Record("sink").Int("dataflow_keys", static_cast<std::int64_t>(keys)).Emit();
}

void ProbeBsp(stats::Rng& rng, Tracer* tracer, std::int64_t* group) {
  // The dense grid's gmm bsp shape: 10k data vertices each send one
  // combined message to one of 10 cluster vertices per superstep.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(kMachines));
  bsp::BspEngine<double, double> engine(&sim);
  const long long points = kMachines * kGmmPoints;
  for (long long c = 0; c < static_cast<long long>(kClusters); ++c) {
    engine.AddVertex(c, 0.0, 1.0, 64);
  }
  for (long long i = 0; i < points; ++i) {
    engine.AddVertex(static_cast<long long>(kClusters) + i, rng.NextDouble(),
                     1.0, 64);
  }
  engine.SetCombiner([](const double& a, const double& b) { return a + b; });
  if (!engine.Boot().ok()) return;
  auto compute = [](bsp::BspEngine<double, double>::Vertex& v,
                    const std::vector<double>& msgs,
                    bsp::BspEngine<double, double>::Context& ctx) {
    if (v.id < static_cast<long long>(kClusters)) {
      for (double m : msgs) v.data += m;
      return;
    }
    ctx.Send(v.id % static_cast<long long>(kClusters), v.data, 8);
  };
  std::size_t ok = 0;
  Probe(tracer, (*group)++, "bsp.superstep_ms", "ms", 1e3, 1.0, 3, 200, 0.4,
        [&] { ok += engine.RunSuperstep(compute, {}).ok() ? 1 : 0; });
  Record("sink").Int("bsp_ok", static_cast<std::int64_t>(ok)).Emit();
}

struct GasValue {
  double value = 0;
};

class SumProgram : public gas::GasProgram<GasValue, double> {
 public:
  double Gather(const gas::Graph<GasValue>::Vertex&,
                const gas::Graph<GasValue>::Vertex& nbr) override {
    return nbr.data.value;
  }
  double Merge(double a, const double& b) override { return a + b; }
  void Apply(gas::Graph<GasValue>::Vertex& v, const double& total) override {
    v.data.value = 0.5 * v.data.value + 1e-6 * total;
  }
};

void ProbeGas(stats::Rng& rng, Tracer* tracer, std::int64_t* group) {
  // The dense grid's gmm gas shape: a bipartite graph of 10 cluster
  // vertices and 10k data vertices, each data vertex on one cluster.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(kMachines));
  gas::Graph<GasValue> graph;
  std::vector<std::size_t> hubs;
  for (std::size_t c = 0; c < kClusters; ++c) {
    hubs.push_back(graph.AddVertex(static_cast<long long>(c), GasValue{1.0},
                                   1.0, 64, 64));
  }
  const long long points = kMachines * kGmmPoints;
  for (long long i = 0; i < points; ++i) {
    std::size_t v = graph.AddVertex(static_cast<long long>(kClusters) + i,
                                    GasValue{rng.NextDouble()}, 1.0, 64, 64);
    graph.AddEdge(hubs[static_cast<std::size_t>(i) % kClusters], v);
  }
  gas::GasEngine<GasValue> engine(&sim, &graph);
  if (!engine.Boot().ok()) return;
  SumProgram prog;
  std::size_t ok = 0;
  Probe(tracer, (*group)++, "gas.sweep_ms", "ms", 1e3, 1.0, 3, 200, 0.4,
        [&] { ok += engine.RunSweep<double>(prog).ok() ? 1 : 0; });
  Record("sink").Int("gas_ok", static_cast<std::int64_t>(ok)).Emit();
}

void ProbeSim(Tracer* tracer, std::int64_t* group) {
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(kMachines));
  double total = 0;
  Probe(tracer, (*group)++, "sim.phase_us", "us", 1e6, 1.0, 20, 20000, 0.2,
        [&] {
          sim.BeginPhase("probe");
          for (int m = 0; m < kMachines; ++m) {
            sim.ChargeCpu(m, 0.01 * (m + 1));
            sim.ChargeNetwork(m, 1e6);
          }
          sim.ChargeFixed(0.5);
          total += sim.EndPhase();
        });
  Record("sink").Num("sim_total", total).Emit();
}

void ProbeServerPing(Tracer* tracer, std::int64_t* group) {
  server::Server srv(server::ServerOptions{});
  if (!srv.Start().ok()) return;
  server::ClientOptions opts;
  opts.port = srv.port();
  server::Client client(opts);
  if (client.Connect().ok()) {
    Probe(tracer, (*group)++, "server.ping_us", "us", 1e6, 1.0, 20, 5000, 0.2,
          [&] { (void)client.Ping(); });
  }
  client.Close();
  srv.Stop();
  EmitServerCounters(srv, "probe");
}

}  // namespace

void RunProbes(std::uint64_t seed, int threads, Tracer* tracer) {
  exec::ThreadPool::SetGlobalThreads(threads);
  stats::Rng rng(seed ^ 0x9e0be5ULL);
  std::int64_t group = 1000000;  // probe span groups follow pass groups
  ProbeGmm(rng, tracer, &group);
  ProbeText(rng, tracer, &group);
  ProbeLasso(rng, tracer, &group);
  ProbeRelDb(seed, rng, tracer, &group);
  ProbeDataflow(rng, tracer, &group);
  ProbeBsp(rng, tracer, &group);
  ProbeGas(rng, tracer, &group);
  ProbeSim(tracer, &group);
  ProbeServerPing(tracer, &group);
}

}  // namespace perfbench
