#include "core/hmm_dataflow.h"

#include <memory>
#include <utility>
#include <vector>

#include "core/cell_run.h"
#include "core/workloads.h"
#include "dataflow/rdd.h"

namespace mlbench::core {

namespace {

using dataflow::Context;
using dataflow::OpCost;
using models::HmmCounts;
using models::HmmDocument;
using models::HmmParams;
using models::Vector;

struct WordRec {
  long long doc = 0;
  int pos = 0;
  std::uint32_t word = 0;
  std::uint8_t state = 0;
};

/// Sparse count payload shuffled to update Psi / delta.
struct CountVec {
  Vector v;
};

}  // namespace

RunResult RunHmmDataflow(const HmmExperiment& exp,
                         models::HmmParams* final_model) {
  CellRun run(exp.config);
  sim::ClusterSim& sim = run.sim();
  dataflow::ContextOptions opts;
  opts.evict_cache_on_pressure = exp.config.faults.evict_cache_on_pressure;
  opts.language = exp.language;
  opts.scale = exp.config.data.scale();  // per document
  opts.seed = exp.config.seed;

  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::HmmHyper hyper{exp.states, exp.vocab, 1.0, 0.1};
  const double k = static_cast<double>(exp.states);
  const double words_per_doc = static_cast<double>(exp.mean_doc_len);
  // Python keeps tokens as boxed ints in lists (~24 B each); Java packs
  // int arrays with modest headers. One state byte per token, boxed too.
  const double token_bytes =
      exp.language == sim::Language::kPython ? 48.0 : 9.0;
  const double doc_bytes = words_per_doc * token_bytes + 96.0;

  stats::Rng rng(exp.config.seed ^ 0x4A31);

  if (exp.granularity == TextGranularity::kWord) {
    // Word-based: every (doc, pos, word, state) is an RDD record; the
    // state update needs each word joined with its neighbors' states.
    opts.scale = exp.config.data.scale() * words_per_doc;
    Context word_ctx(&sim, opts);
    long long words_act =
        exp.config.data.actual_per_machine *
        static_cast<long long>(exp.mean_doc_len);
    auto words = dataflow::Generate<std::pair<std::pair<long long, int>,
                                              WordRec>>(
        word_ctx, words_act,
        [&gen, &exp](int p, long long i) {
          long long doc = i / static_cast<long long>(exp.mean_doc_len);
          int pos = static_cast<int>(
              i % static_cast<long long>(exp.mean_doc_len));
          auto tokens = gen.Document(p, doc);
          WordRec w;
          w.doc = (static_cast<long long>(p) << 32) | doc;
          w.pos = pos;
          w.word = tokens[pos % tokens.size()];
          w.state = 0;
          return std::make_pair(std::make_pair(w.doc, pos), w);
        },
        exp.language == sim::Language::kPython ? 96.0 : 40.0);
    // Self-join of the assignment set with itself on (doc, pos+1): both
    // sides' values materialize in cogroup buffers.
    auto shifted = words.Map(
        [](const std::pair<std::pair<long long, int>, WordRec>& r) {
          auto key = r.first;
          key.second += 1;
          return std::make_pair(key, r.second);
        },
        OpCost{});
    auto joined = dataflow::Join(words, shifted, opts.scale);
    auto n = joined.CountActual();
    // The paper could not run this at benchmark scale.
    if (!n.ok()) return RunResult::Fail(n.status(), sim.elapsed_seconds());
    return run.Fail(
        Status::Internal("word-based Spark HMM unexpectedly survived"));
  }

  // ---- Document-based / chunked initialization -----------------------------
  const bool super = exp.granularity == TextGranularity::kSuperVertex;
  const long long docs_per_chunk =
      super ? std::max<long long>(1, exp.config.data.actual_per_machine /
                                         static_cast<long long>(
                                             exp.supers_per_machine))
            : 1;
  const long long chunks_per_machine =
      exp.config.data.actual_per_machine / docs_per_chunk;
  opts.scale = exp.config.data.logical_per_machine /
               static_cast<double>(chunks_per_machine * docs_per_chunk);
  Context dctx(&sim, opts);

  using Chunk = std::shared_ptr<std::vector<HmmDocument>>;
  stats::Rng init_rng(exp.config.seed ^ 0x4A32);
  auto data = dataflow::Generate<std::pair<long long, Chunk>>(
      dctx, chunks_per_machine,
      [&gen, &exp, docs_per_chunk](int p, long long i) {
        auto chunk = std::make_shared<std::vector<HmmDocument>>();
        for (long long d = 0; d < docs_per_chunk; ++d) {
          HmmDocument doc;
          doc.words = gen.Document(p, i * docs_per_chunk + d);
          stats::Rng r = stats::Rng(0x4A33 ^ p).Split(
              static_cast<std::uint64_t>(i * docs_per_chunk + d) + 1);
          models::InitHmmStates(r, exp.states, &doc);
          chunk->push_back(std::move(doc));
        }
        return std::make_pair((static_cast<long long>(p) << 32) | i, chunk);
      },
      doc_bytes * static_cast<double>(docs_per_chunk),
      /*parse_flops=*/2.0 * words_per_doc * docs_per_chunk);
  data.Cache();
  auto forced = data.CountActual();
  if (!forced.ok()) return run.Fail(forced.status());
  if (!dctx.lifetime_status().ok()) return run.Fail(dctx.lifetime_status());

  HmmParams params = models::SampleHmmPrior(init_rng, hyper);

  run.EndInit();

  // ---- Iterations -----------------------------------------------------------
  WordCost wc = HmmWordCost(exp.language, exp.granularity, exp.states);
  OpCost per_chunk;
  double wpc = words_per_doc * static_cast<double>(docs_per_chunk);
  per_chunk.flops_per_record = wc.flops * wpc;
  per_chunk.linalg_calls_per_record = wc.calls * wpc;
  per_chunk.elements_per_record = wc.elements * wpc;
  const double model_entry_bytes =
      exp.language == sim::Language::kPython ? 60.0 : 40.0;
  const double model_bytes =
      (k * exp.vocab + k * k + k) * model_entry_bytes;
  const double count_bytes = model_entry_bytes;

  Status done = run.Iterate(dctx.fault_status(), [&](int iter) -> Status {
    auto params_ptr = std::make_shared<HmmParams>(params);
    std::uint64_t iter_seed = exp.config.seed ^ (0x4A40u + iter);

    // Jobs 1+2: sample the h transition counts then delta; jobs 3+4 the
    // f/g counts then Psi. Both flatMap per-state count vectors keyed by
    // state id and reduceByKey them (combined map-side).
    auto counts = data.FlatMap(
        [params_ptr, iter, iter_seed, &hyper](
            const std::pair<long long, Chunk>& rec) {
          // Re-sample this chunk's states, then emit per-state counts.
          HmmCounts c(params_ptr->delta0.size(),
                      params_ptr->psi[0].size());
          stats::Rng r = stats::Rng(iter_seed).Split(
              static_cast<std::uint64_t>(rec.first) + 1);
          std::size_t expected = 0;
          for (const auto& doc : *rec.second) expected += doc.words.size();
          models::HmmSampler sampler;
          sampler.Prepare(*params_ptr, expected);
          for (auto& doc : *rec.second) {
            sampler.Resample(r, iter, &doc);
            models::AccumulateHmmCounts(doc, &c);
          }
          std::vector<std::pair<int, CountVec>> out;
          for (std::size_t s = 0; s < c.f.size(); ++s) {
            out.push_back({static_cast<int>(s), CountVec{c.f[s]}});
            out.push_back(
                {static_cast<int>(1000 + s), CountVec{c.h[s]}});
          }
          out.push_back({2000, CountVec{c.g}});
          (void)hyper;
          return out;
        },
        per_chunk, count_bytes * (exp.vocab + k) / (2.0 * k + 1.0));
    auto reduced = dataflow::ReduceByKey(
        counts,
        [](const CountVec& a, const CountVec& b) {
          CountVec m = a;
          m.v += b.v;
          return m;
        },
        OpCost{}, /*out_scale=*/1.0, /*reduce_flops=*/1.0);

    dctx.BeginJob("hmm:counts+model", data.num_partitions());
    Status bc = dctx.BroadcastClosure(model_bytes);
    if (!bc.ok()) {
      dctx.EndJob();
      return bc;
    }
    auto rows = reduced.CollectNoJob();
    dctx.EndJob();
    if (!rows.ok()) return rows.status();

    // Driver: sample delta / Psi from the aggregated counts (two more
    // lightweight jobs in the paper's structure).
    dctx.BeginJob("hmm:sample_model", exp.config.machines);
    HmmCounts total(exp.states, exp.vocab);
    for (auto& [key, cv] : *rows) {
      if (key == 2000) {
        total.g += cv.v;
      } else if (key >= 1000) {
        total.h[key - 1000] += cv.v;
      } else {
        total.f[key] += cv.v;
      }
    }
    params = models::SampleHmmPosterior(rng, hyper, total);
    sim.ChargeCpu(0, dctx.lang().LinalgSeconds(
                         4.0 * k * exp.vocab, 2.0 * k, 1,
                         exp.language == sim::Language::kPython
                             ? k * exp.vocab
                             : 0));
    dctx.EndJob();

    // Job: self-transformation updating the cached states (the
    // re-sampling cost was charged in the flatMap; this pass re-caches).
    dctx.BeginJob("hmm:update_state", data.num_partitions());
    dctx.EndJob();
    return Status::OK();
  });
  if (!done.ok()) return run.Fail(std::move(done));

  if (final_model != nullptr) *final_model = params;
  return run.Finish();
}

}  // namespace mlbench::core
