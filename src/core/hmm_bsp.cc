#include "core/hmm_bsp.h"

#include <memory>
#include <utility>
#include <vector>

#include "bsp/engine.h"
#include "core/cell_run.h"
#include "core/workloads.h"

namespace mlbench::core {

namespace {

using models::HmmCounts;
using models::HmmDocument;
using models::HmmParams;
using models::Vector;

struct HmmMsg {
  /// Model rows flowing to data vertices (appended by the combiner) or
  /// count partials flowing to state vertices (merged by the combiner).
  std::shared_ptr<HmmParams> model;
  std::shared_ptr<HmmCounts> counts;
};

struct VData {
  enum class Kind { kData, kState } kind = Kind::kData;
  std::vector<HmmDocument> docs;
  std::size_t s = 0;
  Vector psi;
  Vector delta;
  double g_count = 0;
};

using Engine = bsp::BspEngine<VData, HmmMsg>;

}  // namespace

RunResult RunHmmBsp(const HmmExperiment& exp,
                    models::HmmParams* final_model) {
  CellRun run(exp.config);
  sim::ClusterSim& sim = run.sim();
  Engine engine(&sim);
  engine.SetCheckpointInterval(exp.config.faults.checkpoint_interval);
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::HmmHyper hyper{exp.states, exp.vocab, 1.0, 0.1};
  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double k = static_cast<double>(exp.states);
  const double v = static_cast<double>(exp.vocab);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);
  const double model_bytes = (k * v + k * k + k) * 8.0 + 128.0;

  // State vertices 0..K-1, data vertices after.
  for (std::size_t s = 0; s < exp.states; ++s) {
    VData vd;
    vd.kind = VData::Kind::kState;
    vd.s = s;
    engine.AddVertex(static_cast<bsp::VertexId>(s), std::move(vd), 1.0,
                     (v + k + 1.0) * 8.0 + 64);
  }

  const bool word_based = exp.granularity == TextGranularity::kWord;
  const bool super = exp.granularity == TextGranularity::kSuperVertex;
  double logical_vertices_per_machine;
  double state_bytes;
  double words_per_vertex;
  if (word_based) {
    logical_vertices_per_machine = exp.logical_words_per_machine();
    // One Java object per word vertex: ids, word, state, two edges.
    state_bytes = 96.0;
    words_per_vertex = 1.0;
  } else if (super) {
    logical_vertices_per_machine = exp.supers_per_machine;
    words_per_vertex = exp.logical_words_per_machine() /
                       exp.supers_per_machine;
    state_bytes = words_per_vertex * 5.0 + 96.0;
  } else {
    logical_vertices_per_machine = exp.config.data.logical_per_machine;
    words_per_vertex = words_per_doc;
    state_bytes = words_per_doc * 5.0 + 72.0;
  }
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
        engine.AddVertex(static_cast<bsp::VertexId>(exp.states + s),
                         std::move(vd), vertex_scale, state_bytes));
  }
  stats::Rng init_rng(exp.config.seed ^ 0x4A37);
  for (long long j = 0; j < docs_act * machines; ++j) {
    int m = static_cast<int>(j / docs_act);
    HmmDocument doc;
    doc.words = gen.Document(m, j % docs_act);
    models::InitHmmStates(init_rng, exp.states, &doc);
    engine.vertex(data_slots[j % data_slots.size()])
        .data.docs.push_back(std::move(doc));
  }

  engine.SetCombiner([](const HmmMsg& a, const HmmMsg& b) {
    HmmMsg m = a;
    if (b.model) m.model = b.model;  // identical broadcast content
    if (b.counts) {
      if (!m.counts) {
        m.counts = b.counts;
      } else {
        auto merged = std::make_shared<HmmCounts>(*m.counts);
        merged->Merge(*b.counts);
        m.counts = merged;
      }
    }
    return m;
  });
  engine.SetMessageSize([&](const HmmMsg& m) {
    if (m.model) return model_bytes;
    if (m.counts) return std::min(words_per_vertex, k * v) * 24.0 + 64.0;
    return 24.0;  // word-based neighbor state message
  });

  Status boot = engine.Boot();
  if (!boot.ok()) return run.Fail(boot);

  HmmParams params = models::SampleHmmPrior(init_rng, hyper);
  for (std::size_t s = 0; s < exp.states; ++s) {
    auto& vd = engine.vertex(s).data;
    vd.psi = params.psi[s];
    vd.delta = params.delta[s];
  }

  run.EndInit();

  WordCost wc =
      HmmWordCost(sim::Language::kJava, exp.granularity, exp.states);

  Status done = run.Iterate([&](int iter) -> Status {
    std::uint64_t iter_seed = exp.config.seed ^ (0x4A60u + iter);

    if (word_based) {
      // Each word vertex messages its state to both neighbors and its
      // count pairs to its state vertex: the per-machine vertex store plus
      // these buffers exceed worker RAM.
      bsp::ComputeCost cost;
      cost.flops_per_vertex = wc.flops;
      cost.linalg_calls_per_vertex = wc.calls;
      cost.elements_per_vertex = wc.elements;
      Status st = engine.RunSuperstep(
          [&](Engine::Vertex& vx, const std::vector<HmmMsg>&,
              Engine::Context& ctx) {
            if (vx.data.kind != VData::Kind::kData) return;
            // Neighbor-state messages: two per logical word vertex.
            ctx.SendReplicated(vx.id, HmmMsg{}, 24.0, 2.0 * vx.scale);
          },
          cost, "word states");
      if (!st.ok()) return st;
      st = engine.RunSuperstep(
          [](Engine::Vertex&, const std::vector<HmmMsg>&, Engine::Context&) {
          },
          {}, "word states consume");
      if (!st.ok()) return st;
      return Status::Internal("word-based Giraph HMM unexpectedly survived");
    }

    // S0: state vertices re-draw their rows from last superstep's count
    // partials and publish them through worker-level aggregators
    // ("Giraph's combiner and aggregator facilities wherever possible",
    // Section 5.4) -- one model copy per worker, not per vertex.
    Status st = engine.RunSuperstep(
        [&](Engine::Vertex& vx, const std::vector<HmmMsg>& inbox,
            Engine::Context& ctx) {
          if (vx.data.kind != VData::Kind::kState) return;
          HmmCounts total(exp.states, exp.vocab);
          bool have = false;
          for (const auto& m : inbox) {
            if (m.counts) {
              total.Merge(*m.counts);
              have = true;
            }
          }
          if (have) {
            stats::Rng srng =
                stats::Rng(iter_seed ^ 0x51u).Split(vx.data.s + 1);
            Vector f_conc = total.f[vx.data.s];
            for (auto& c : f_conc) c += hyper.beta;
            vx.data.psi = stats::SampleDirichlet(srng, f_conc);
            Vector h_conc = total.h[vx.data.s];
            for (auto& c : h_conc) c += hyper.alpha;
            vx.data.delta = stats::SampleDirichlet(srng, h_conc);
          }
          std::vector<double> row(vx.data.psi.begin(), vx.data.psi.end());
          row.insert(row.end(), vx.data.delta.begin(), vx.data.delta.end());
          ctx.Aggregate("model_" + std::to_string(vx.data.s), row,
                        model_bytes / k);
        },
        {}, "model publish");
    if (!st.ok()) return st;

    // S1: data vertices re-sample and send combined count partials.
    bsp::ComputeCost cost;
    cost.flops_per_vertex = wc.flops * words_per_vertex;
    cost.linalg_calls_per_vertex = wc.calls * words_per_vertex;
    cost.elements_per_vertex = wc.elements * words_per_vertex;
    cost.temp_bytes_per_vertex =
        super ? 24.0 * std::min(words_per_vertex, k * v)
              : 48.0 * words_per_doc;
    st = engine.RunSuperstep(
        [&](Engine::Vertex& vx, const std::vector<HmmMsg>& inbox,
            Engine::Context& ctx) {
          (void)inbox;
          if (vx.data.kind != VData::Kind::kData) return;
          HmmParams local = params;
          for (std::size_t s = 0; s < exp.states; ++s) {
            const auto& row =
                ctx.GetAggregate("model_" + std::to_string(s));
            if (row.size() >= exp.vocab + exp.states) {
              local.psi[s] =
                  Vector(std::vector<double>(row.begin(),
                                             row.begin() + exp.vocab));
              local.delta[s] = Vector(std::vector<double>(
                  row.begin() + exp.vocab, row.end()));
            }
          }
          stats::Rng vrng = stats::Rng(iter_seed).Split(
              static_cast<std::uint64_t>(vx.id) + 1);
          auto counts = std::make_shared<HmmCounts>(exp.states, exp.vocab);
          std::size_t expected = 0;
          for (const auto& doc : vx.data.docs) expected += doc.words.size();
          models::HmmSampler sampler;
          sampler.Prepare(local, expected);
          for (auto& doc : vx.data.docs) {
            sampler.Resample(vrng, iter, &doc);
            models::AccumulateHmmCounts(doc, counts.get());
          }
          HmmMsg msg;
          msg.counts = counts;
          // One combined partial reaches each state vertex.
          for (std::size_t s = 0; s < exp.states; ++s) {
            ctx.Send(static_cast<bsp::VertexId>(s), msg,
                     std::min(words_per_vertex, k * v) * 24.0 / k + 64.0);
          }
        },
        cost, "resample + counts");
    return st;
  });
  if (!done.ok()) return run.Fail(std::move(done));

  // Final fold of the last counts into the returned model.
  if (final_model != nullptr) {
    HmmCounts counts(exp.states, exp.vocab);
    for (std::size_t d : data_slots) {
      for (const auto& doc : engine.vertex(d).data.docs) {
        models::AccumulateHmmCounts(doc, &counts);
      }
    }
    stats::Rng frng(exp.config.seed ^ 0x4A70);
    *final_model = models::SampleHmmPosterior(frng, hyper, counts);
  }
  engine.Shutdown();
  return run.Finish();
}

}  // namespace mlbench::core
