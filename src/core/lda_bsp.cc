#include "core/lda_bsp.h"

#include <algorithm>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "bsp/engine.h"
#include "core/cell_run.h"
#include "core/workloads.h"

namespace mlbench::core {

namespace {

using models::LdaCounts;
using models::LdaDocument;
using models::LdaParams;
using models::Vector;

/// Sparse count partial: key = topic * vocab + word.
using SparseCounts = std::vector<std::pair<std::uint32_t, float>>;

struct LdaMsg {
  std::shared_ptr<SparseCounts> counts;
};

struct VData {
  enum class Kind { kData, kTopic } kind = Kind::kData;
  std::vector<LdaDocument> docs;
  std::size_t t = 0;
  Vector phi;
};

using Engine = bsp::BspEngine<VData, LdaMsg>;

}  // namespace

RunResult RunLdaBsp(const LdaExperiment& exp,
                    models::LdaParams* final_model) {
  if (exp.granularity == TextGranularity::kWord) {
    return RunResult::Fail(
        Status::Unimplemented("word-based Giraph LDA not attempted (NA)"));
  }
  CellRun run(exp.config);
  sim::ClusterSim& sim = run.sim();
  Engine engine(&sim);
  engine.SetCheckpointInterval(exp.config.faults.checkpoint_interval);
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::LdaHyper hyper{exp.topics, exp.vocab, 0.5, 0.1};
  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double t = static_cast<double>(exp.topics);
  const double v = static_cast<double>(exp.vocab);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);
  const double model_bytes = t * v * 8.0 + 128.0;

  for (std::size_t tt = 0; tt < exp.topics; ++tt) {
    VData vd;
    vd.kind = VData::Kind::kTopic;
    vd.t = tt;
    engine.AddVertex(static_cast<bsp::VertexId>(tt), std::move(vd), 1.0,
                     (v + 1.0) * 8.0 + 64);
  }
  const bool super = exp.granularity == TextGranularity::kSuperVertex;
  double logical_vertices_per_machine =
      super ? exp.supers_per_machine : exp.config.data.logical_per_machine;
  double words_per_vertex =
      exp.logical_words_per_machine() / logical_vertices_per_machine;
  double docs_per_vertex =
      exp.config.data.logical_per_machine / logical_vertices_per_machine;
  // Tokens (4B) + z bytes (1B) + theta (T doubles) per document + header.
  double state_bytes =
      words_per_vertex * 5.0 + docs_per_vertex * (t * 8.0 + 24.0) + 72.0;
  long long actual_vertices = std::min<long long>(
      docs_act * machines,
      super ? static_cast<long long>(exp.supers_per_machine * machines)
            : docs_act * machines);
  double vertex_scale =
      logical_vertices_per_machine * machines / actual_vertices;

  std::vector<std::size_t> data_slots;
  for (long long s = 0; s < actual_vertices; ++s) {
    VData vd;
    vd.kind = VData::Kind::kData;
    data_slots.push_back(
        engine.AddVertex(static_cast<bsp::VertexId>(exp.topics + s),
                         std::move(vd), vertex_scale, state_bytes));
  }
  stats::Rng init_rng(exp.config.seed ^ 0x7DA5);
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    LdaDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitLdaDocument(init_rng, hyper, &doc);
    engine.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }

  engine.SetCombiner([](const LdaMsg& a, const LdaMsg& b) {
    LdaMsg m = a;
    if (b.counts) {
      if (!m.counts) {
        m.counts = b.counts;
      } else {
        auto merged = std::make_shared<SparseCounts>(*m.counts);
        merged->insert(merged->end(), b.counts->begin(), b.counts->end());
        m.counts = merged;
      }
    }
    return m;
  });
  double count_msg_bytes = std::min(words_per_vertex, t * v) * 24.0 + 64.0;
  engine.SetMessageSize([count_msg_bytes](const LdaMsg& m) {
    return m.counts ? count_msg_bytes : 24.0;
  });

  Status boot = engine.Boot();
  if (!boot.ok()) return run.Fail(boot);

  LdaParams params = models::SampleLdaPrior(init_rng, hyper);
  for (std::size_t tt = 0; tt < exp.topics; ++tt) {
    engine.vertex(tt).data.phi = params.phi[tt];
  }

  run.EndInit();

  WordCost wc =
      LdaWordCost(sim::Language::kJava, exp.granularity, exp.topics);
  // Giraph's LDA pays Mallet sparse-count handling per word on top of the
  // sampling loop (calibrated to the paper's 22:22 / 18:49 cells).
  wc.calls = exp.granularity == TextGranularity::kSuperVertex ? 0.85 : 1.0;

  Status done = run.Iterate([&](int iter) -> Status {
    std::uint64_t iter_seed = exp.config.seed ^ (0x7DD0u + iter);

    // S0: topic vertices re-draw phi_t from last superstep's partials and
    // publish their rows through worker aggregators.
    Status st = engine.RunSuperstep(
        [&](Engine::Vertex& vx, const std::vector<LdaMsg>& inbox,
            Engine::Context& ctx) {
          if (vx.data.kind != VData::Kind::kTopic) return;
          Vector row(exp.vocab);
          bool have = false;
          auto lo = static_cast<std::uint32_t>(vx.data.t * exp.vocab);
          auto hi = static_cast<std::uint32_t>((vx.data.t + 1) * exp.vocab);
          for (const auto& m : inbox) {
            if (!m.counts) continue;
            have = true;
            for (const auto& [key, count] : *m.counts) {
              if (key >= lo && key < hi) row[key - lo] += count;
            }
          }
          if (have) {
            stats::Rng srng =
                stats::Rng(iter_seed ^ 0x52u).Split(vx.data.t + 1);
            Vector conc = row;
            for (auto& c : conc) c += hyper.beta;
            vx.data.phi = stats::SampleDirichlet(srng, conc);
          }
          ctx.Aggregate("phi_" + std::to_string(vx.data.t),
                        std::vector<double>(vx.data.phi.begin(),
                                            vx.data.phi.end()),
                        model_bytes / t);
        },
        {}, "phi publish");
    if (!st.ok()) return st;

    // S1: data vertices re-sample (z, theta) and send combined partials.
    bsp::ComputeCost cost;
    cost.flops_per_vertex = (wc.flops + 4.0 * t) * words_per_vertex;
    cost.linalg_calls_per_vertex =
        wc.calls * words_per_vertex + docs_per_vertex;
    cost.elements_per_vertex = wc.elements * words_per_vertex;
    cost.temp_bytes_per_vertex =
        super ? 24.0 * std::min(words_per_vertex, t * v)
              : (48.0 * words_per_doc + t * 8.0);
    st = engine.RunSuperstep(
        [&](Engine::Vertex& vx, const std::vector<LdaMsg>& inbox,
            Engine::Context& ctx) {
          (void)inbox;
          if (vx.data.kind != VData::Kind::kData) return;
          LdaParams local = params;
          for (std::size_t tt = 0; tt < exp.topics; ++tt) {
            const auto& row = ctx.GetAggregate("phi_" + std::to_string(tt));
            if (row.size() == exp.vocab) {
              local.phi[tt] = Vector(row);
            }
          }
          stats::Rng vrng = stats::Rng(iter_seed).Split(
              static_cast<std::uint64_t>(vx.id) + 1);
          std::unordered_map<std::uint32_t, float> sparse;
          std::size_t expected = 0;
          for (const auto& doc : vx.data.docs) expected += doc.words.size();
          models::LdaDocSampler sampler;
          sampler.Prepare(hyper, local, expected);
          for (auto& doc : vx.data.docs) {
            sampler.Resample(vrng, &doc, nullptr);
            for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
              sparse[static_cast<std::uint32_t>(
                  doc.topics[pos] * exp.vocab + doc.words[pos])] += 1.0f;
            }
          }
          LdaMsg msg;
          // mlint: allow(unordered-iter) — bucket order is erased by the
          // key sort below; the map is pure accumulation scratch
          msg.counts = std::make_shared<SparseCounts>(sparse.begin(),
                                                      sparse.end());
          std::sort(msg.counts->begin(), msg.counts->end(),
                    [](const auto& a, const auto& b) {
                      return a.first < b.first;
                    });
          for (std::size_t tt = 0; tt < exp.topics; ++tt) {
            ctx.Send(static_cast<bsp::VertexId>(tt), msg,
                     count_msg_bytes / t + 64.0);
          }
        },
        cost, "resample + counts");
    return st;
  });
  if (!done.ok()) return run.Fail(std::move(done));

  if (final_model != nullptr) {
    LdaCounts counts(exp.topics, exp.vocab);
    for (std::size_t d : data_slots) {
      for (const auto& doc : engine.vertex(d).data.docs) {
        for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
          counts.g[doc.topics[pos]][doc.words[pos]] += 1;
        }
      }
    }
    stats::Rng frng(exp.config.seed ^ 0x7DE0);
    *final_model = models::SampleLdaPosterior(frng, hyper, counts);
  }
  engine.Shutdown();
  return run.Finish();
}

}  // namespace mlbench::core
