#include "core/hmm_reldb.h"

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

using models::HmmCounts;
using models::HmmDocument;
using models::HmmParams;
using models::Vector;
using reldb::AggOp;
using reldb::AsDouble;
using reldb::AsInt;
using reldb::ColType;
using reldb::ColumnBatch;
using reldb::Database;
using reldb::Rel;
using reldb::Schema;
using reldb::Table;
using reldb::Tuple;

/// VG re-sampling the states of one invocation group (word, document, or
/// document group) and emitting one (doc, pos, word, state) tuple per word.
/// The current model binds at construction (broadcast join of the small
/// model tables).
class StateVg : public reldb::VgFunction {
 public:
  StateVg(std::shared_ptr<HmmParams> params,
          std::vector<HmmDocument>* docs, int iteration)
      : params_(std::move(params)), docs_(docs), iteration_(iteration) {}
  std::string name() const override { return "hmm_states"; }
  Schema output_schema() const override {
    return {"doc_id", "pos", "word", "state"};
  }
  void BindSchema(const Schema& schema) override {
    doc_c_ = schema.IndexOf("doc_id");
  }
  void Sample(const std::vector<Tuple>& group, const Schema& schema,
              stats::Rng& rng, std::vector<Tuple>* out) override {
    (void)schema;
    // Groups are keyed by doc_id: one re-sample per document regardless of
    // how many parameter rows the plan delivered.
    auto doc_id = static_cast<std::size_t>(AsInt(group[0][doc_c_]));
    HmmDocument& doc = (*docs_)[doc_id];
    if (!prepared_) {
      // The VG object is rebuilt each iteration with that iteration's
      // model, so the prepared tables stay valid for all its invocations.
      std::size_t expected = 0;
      for (const auto& d : *docs_) expected += d.words.size();
      sampler_.Prepare(*params_, expected);
      prepared_ = true;
    }
    sampler_.Resample(rng, iteration_, &doc);
    for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
      out->push_back(Tuple{static_cast<std::int64_t>(doc_id),
                           static_cast<std::int64_t>(pos),
                           static_cast<std::int64_t>(doc.words[pos]),
                           static_cast<std::int64_t>(doc.states[pos])});
    }
  }
  std::size_t OutRowsHint(std::size_t mean_group_rows) const override {
    if (docs_->empty()) return mean_group_rows;
    std::size_t words = 0;
    for (const auto& d : *docs_) words += d.words.size();
    return words / docs_->size() + 1;
  }
  void SampleBatch(const ColumnBatch& params,
                   const std::vector<std::uint32_t>& group_offsets,
                   stats::Rng& rng, reldb::VgBatchOut* out) override {
    const ColumnBatch::Column& dc = params.col(doc_c_);
    const std::size_t n_groups = group_offsets.size() - 1;
    std::vector<std::int64_t> doc_col, pos_col, word_col, state_col;
    const std::size_t est = n_groups * OutRowsHint(0);
    doc_col.reserve(est);
    pos_col.reserve(est);
    word_col.reserve(est);
    state_col.reserve(est);
    for (std::size_t g = 0; g < n_groups; ++g) {
      auto doc_id =
          static_cast<std::size_t>(AsInt(dc.At(group_offsets[g])));
      HmmDocument& doc = (*docs_)[doc_id];
      if (!prepared_) {
        std::size_t expected = 0;
        for (const auto& d : *docs_) expected += d.words.size();
        sampler_.Prepare(*params_, expected);
        prepared_ = true;
      }
      sampler_.Resample(rng, iteration_, &doc);
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        doc_col.push_back(static_cast<std::int64_t>(doc_id));
        pos_col.push_back(static_cast<std::int64_t>(pos));
        word_col.push_back(static_cast<std::int64_t>(doc.words[pos]));
        state_col.push_back(static_cast<std::int64_t>(doc.states[pos]));
      }
    }
    out->columnar = true;
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(doc_col)));
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(pos_col)));
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(word_col)));
    out->cols.push_back(ColumnBatch::Column::Ints(std::move(state_col)));
  }

 private:
  std::shared_ptr<HmmParams> params_;
  std::vector<HmmDocument>* docs_;
  int iteration_;
  std::size_t doc_c_ = 0;
  // VG functions are invoked serially, so per-object scratch is safe.
  models::HmmSampler sampler_;
  bool prepared_ = false;
};

}  // namespace

RunResult RunHmmRelDb(const HmmExperiment& exp,
                      models::HmmParams* final_model) {
  CellRun run(exp.config);
  sim::ClusterSim& sim = run.sim();
  Database db(&sim, sim::RelDbCosts{}, exp.config.seed);
  CorpusGen gen(exp.config.seed, exp.vocab, exp.mean_doc_len);
  models::HmmHyper hyper{exp.states, exp.vocab, 1.0, 0.1};

  const int machines = exp.config.machines;
  const long long docs_act = exp.config.data.actual_per_machine;
  const double doc_scale = exp.config.data.scale();
  const double word_scale = doc_scale;  // per stored word tuple
  const double logical_words =
      exp.logical_words_per_machine() * machines;
  const double k = static_cast<double>(exp.states);

  // ---- Load the corpus ------------------------------------------------------
  std::vector<HmmDocument> docs;
  stats::Rng init_rng(exp.config.seed ^ 0x4A35);
  Table words(Schema{"doc_id", "pos", "word"}, word_scale);
  Table doc_ids(Schema{"doc_id"}, doc_scale);
  words.Reserve(static_cast<std::size_t>(machines) *
                static_cast<std::size_t>(docs_act) * exp.mean_doc_len);
  doc_ids.Reserve(static_cast<std::size_t>(machines) *
                  static_cast<std::size_t>(docs_act));
  for (int m = 0; m < machines; ++m) {
    for (long long j = 0; j < docs_act; ++j) {
      HmmDocument doc;
      doc.words = gen.Document(m, j);
      models::InitHmmStates(init_rng, exp.states, &doc);
      auto id = static_cast<std::int64_t>(docs.size());
      for (std::size_t pos = 0; pos < doc.words.size(); ++pos) {
        words.Append(Tuple{id, static_cast<std::int64_t>(pos),
                           static_cast<std::int64_t>(doc.words[pos])});
      }
      doc_ids.Append(Tuple{id});
      docs.push_back(std::move(doc));
    }
  }
  db.BeginQuery("load corpus");
  Rel::FromTable(db, std::move(words)).Materialize("words");
  Rel::FromTable(db, std::move(doc_ids)).Materialize("docs");
  db.EndQuery();
  // Initial states[0] written out (the word-based init also pays the
  // six-table parameterization once, which dominated its 10:51:32 init).
  const bool word_based = exp.granularity == TextGranularity::kWord;
  db.BeginQuery("states[0]");
  {
    Table st(Schema{"doc_id", "pos", "word", "state"}, word_scale);
    st.Reserve(docs.size() * exp.mean_doc_len);
    for (std::size_t d = 0; d < docs.size(); ++d) {
      for (std::size_t pos = 0; pos < docs[d].words.size(); ++pos) {
        st.Append(Tuple{static_cast<std::int64_t>(d),
                        static_cast<std::int64_t>(pos),
                        static_cast<std::int64_t>(docs[d].words[pos]),
                        static_cast<std::int64_t>(docs[d].states[pos])});
      }
    }
    auto rel = Rel::FromTable(db, std::move(st));
    if (word_based) {
      // Initialization re-runs the join pipeline to seed prev/next ids.
      for (int j = 0; j < 5; ++j) {
        rel = rel.HashJoin(Rel::Scan(db, "words"), {"doc_id", "pos"},
                           {"doc_id", "pos"}, word_scale);
        rel = rel.Project(Schema{"doc_id", "pos", "word", "state"},
                          {reldb::ColExpr::Col(0), reldb::ColExpr::Col(1),
                           reldb::ColExpr::Col(2), reldb::ColExpr::Col(3)});
      }
    }
    rel.Materialize(Database::Versioned("states", 0));
  }
  db.EndQuery();

  HmmParams params = models::SampleHmmPrior(init_rng, hyper);

  run.EndInit();

  // ---- Iterations -----------------------------------------------------------
  WordCost wc = HmmWordCost(sim::Language::kCpp, exp.granularity,
                            exp.states);
  double word_flops = wc.flops + CppCallEquivalentFlops(wc.calls);

  Status done = run.Iterate(db.fault_status(), [&](int iter) -> Status {
    const int i = iter + 1;
    auto params_ptr = std::make_shared<HmmParams>(params);

    // Query 1: states[i].
    db.BeginQuery(Database::Versioned("states", i));
    // Model tables broadcast-join into the VG parameterization.
    double model_bytes = models::HmmModelBytes(hyper, db.costs().tuple_bytes);
    for (int m = 0; m < machines; ++m) sim.ChargeNetwork(m, model_bytes);

    StateVg vg(params_ptr, &docs, i);
    Rel source = Rel::Scan(db, Database::Versioned("states", i - 1));
    if (word_based) {
      // The six-table join: previous/current/next state rows + the word
      // table + the two model tables, each a full shuffle join at word
      // cardinality (the paper's optimizer quirk needed the nextPos
      // column to even make these equi-joins).
      for (int j = 0; j < 3; ++j) {
        source = source.HashJoin(
            Rel::Scan(db, Database::Versioned("states", i - 1)),
            {"doc_id", "pos"}, {"doc_id", "pos"}, word_scale);
        source = source.Project(Schema{"doc_id", "pos", "word", "state"},
                                {reldb::ColExpr::Col(0), reldb::ColExpr::Col(1),
                                 reldb::ColExpr::Col(2),
                                 reldb::ColExpr::Col(3)});
      }
      source = source.HashJoin(Rel::Scan(db, "words"), {"doc_id", "pos"},
                               {"doc_id", "pos"}, word_scale);
      source = source.Project(Schema{"doc_id", "pos", "word", "state"},
                              {reldb::ColExpr::Col(0), reldb::ColExpr::Col(1),
                               reldb::ColExpr::Col(2), reldb::ColExpr::Col(3)});
    } else if (exp.granularity == TextGranularity::kDocument) {
      // Document parameterization: one co-partitioned join links each
      // document's rows to its document entry. (The super-vertex code
      // keeps the grouping inside the VG and skips even this join.)
      source = source.HashJoin(Rel::Scan(db, "docs"), {"doc_id"},
                               {"doc_id"}, word_scale,
                               /*co_partitioned=*/true);
    }
    // The VG consumes one parameter row per document (the documents'
    // contents are held natively) and emits word-level state tuples. The
    // non-word plans dedup to one row per doc; the word plan keeps a
    // same-cost pass-through filter (the paper's plan still scans here).
    auto dedup = word_based ? source.FilterAll()
                            : source.FilterIntIn("pos", {0});
    // Output is one tuple per word position in every variant.
    auto states_rel = dedup.VgApply(vg, {"doc_id"}, word_scale, word_flops);
    states_rel.Materialize(Database::Versioned("states", i));
    db.EndQuery();

    // Query 2: aggregate f / g / h with GROUP BYs over the state tuples
    // (every generated value is output and aggregated -- Section 7.6).
    db.BeginQuery("hmm counts");
    auto st_rel = Rel::Scan(db, Database::Versioned("states", i));
    st_rel.GroupBy({"state", "word"}, {{AggOp::kCount, "", "f"}}, 1.0)
        .Materialize("f_agg");
    st_rel.FilterIntIn("pos", {0})
        .GroupBy({"state"}, {{AggOp::kCount, "", "g"}}, 1.0)
        .Materialize("g_agg");
    // h: adjacent-position transition counting, charged as one more
    // word-cardinality aggregation job (a co-partitioned self-pairing
    // inside the documents followed by GROUP BY).
    sim.ChargeParallelCpu(logical_words *
                          (db.costs().join_tuple_s +
                           db.costs().group_by_tuple_s));
    db.ChargeExtraJob();
    db.EndQuery();

    // Query 3: model update (Dirichlet VGs over the aggregates).
    db.BeginQuery("hmm model update");
    // The true counts come from the natively held documents; cardinality
    // and cost follow the aggregate tables.
    HmmCounts counts(exp.states, exp.vocab);
    for (const auto& doc : docs) models::AccumulateHmmCounts(doc, &counts);
    params = models::SampleHmmPosterior(db.rng(), hyper, counts);
    sim.ChargeParallelCpu((k * exp.vocab + k * k + k) *
                          (db.costs().vg_tuple_s + db.costs().per_tuple_s));
    // New emits/trans tables written back.
    double model_rows_bytes =
        (k * exp.vocab + k * k + k) * db.TupleBytes(3);
    sim.ChargeCpuAllMachines(model_rows_bytes * 2.0 / machines *
                             db.costs().materialize_byte_s);
    db.ChargeExtraJob();
    db.EndQuery();

    // VG parameterization joins: the word-based plan assembles ~5xk
    // model tuples per word, the document-based plan ~2.5xk (the
    // super-vertex payloads carry their own state). Calibrated against
    // the published word/document columns.
    {
      sim.BeginPhase("reldb:vg parameterization");
      double per_word_tuples =
          exp.granularity == TextGranularity::kWord ? 5.0 * k
          : exp.granularity == TextGranularity::kDocument ? 2.5 * k
                                                          : 0.0;
      sim.ChargeParallelCpu(logical_words * per_word_tuples *
                            (db.costs().join_tuple_s +
                             db.costs().group_by_tuple_s));
      sim.EndPhase();
    }
    db.DropVersionsBefore("states", i);
    return Status::OK();
  });
  if (!done.ok()) return run.Fail(std::move(done));

  if (final_model != nullptr) *final_model = params;
  return run.Finish();
}

}  // namespace mlbench::core
