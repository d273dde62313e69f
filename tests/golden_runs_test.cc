#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <ios>
#include <numeric>
#include <ostream>
#include <string>
#include <vector>

#include "core/gmm_bsp.h"
#include "core/gmm_dataflow.h"
#include "core/gmm_gas.h"
#include "core/gmm_reldb.h"
#include "core/hmm_bsp.h"
#include "core/hmm_dataflow.h"
#include "core/hmm_gas.h"
#include "core/hmm_reldb.h"
#include "core/lasso_bsp.h"
#include "core/lasso_dataflow.h"
#include "core/lasso_gas.h"
#include "core/lasso_reldb.h"
#include "core/lda_bsp.h"
#include "core/lda_dataflow.h"
#include "core/lda_gas.h"
#include "core/lda_reldb.h"
#include "exec/cancel.h"
#include "exec/thread_pool.h"
#include "golden.h"

// Pinned goldens for whole driver runs. Each run executes at 1 and at 4
// host threads, and both must reproduce a digest (golden.h) of the run's
// status, init and per-iteration simulated seconds, peak bytes, recovery
// accounting and every double of the final model — the determinism
// contract of DESIGN.md §7 held against fixed values, not against a
// second host implementation.
//
//  * CellGoldens: one small run of every (model x platform) cell.
//  * VgBatchParity / GasBatchParity: the reldb and GAS shapes that reach
//    columnar VG dispatch, batched gathers and the parallel hub-gather
//    path ("hubs/center use parallel chunks" push a vertex past the
//    512-edge threshold).
//  * DriverParity: the reldb shapes under a seeded fault schedule (job
//    re-execution, speculative stragglers, shuffle retries).
//  * VmDriverParity: the reldb shapes under EC2 run-to-run noise.
//  * ExitGoldens: the runs that do not complete — cancelled at an
//    iteration boundary, failed before init ends, failed mid-run on a
//    permanent machine fault, and the LDA dataflow exit that keeps the
//    completed iterations' timings.

namespace mlbench {
namespace {

using core::RunResult;

/// Runs `runner` on `exp`, which must end with status `want`, and digests
/// the result and final model.
template <typename Exp, typename Model>
std::uint64_t RunDigest(RunResult (*runner)(const Exp&, Model*),
                        const Exp& exp, StatusCode want = StatusCode::kOk) {
  Model model{};
  const RunResult r = runner(exp, &model);
  EXPECT_EQ(r.status.code(), want) << r.status.ToString();
  return server::DigestModel(golden::DigestRun(r), model);
}

/// Runs `digest()` at 1 and 4 host threads; both must equal `want`.
void ExpectPinned(const std::function<std::uint64_t()>& digest,
                  std::uint64_t want) {
  for (int threads : {1, 4}) {
    exec::ThreadPool::SetGlobalThreads(threads);
    const std::uint64_t got = digest();
    EXPECT_EQ(got, want) << "threads " << threads << ": digest 0x"
                         << std::hex << got;
  }
  exec::ThreadPool::SetGlobalThreads(1);
}

template <typename Exp, typename Model>
void ExpectPinned(RunResult (*runner)(const Exp&, Model*), const Exp& exp,
                  std::uint64_t want) {
  ExpectPinned([&] { return RunDigest(runner, exp); }, want);
}

// ---- Shapes ----------------------------------------------------------------

core::GmmExperiment GmmShape(bool super, bool imputation) {
  core::GmmExperiment exp;
  exp.config.machines = 3;
  exp.config.iterations = 3;
  exp.dim = 3;
  exp.k = 2;
  exp.config.data.logical_per_machine = 1e6;
  // 600 data vertices: each GAS cluster vertex crosses the parallel-gather
  // threshold.
  exp.config.data.actual_per_machine = 200;
  exp.config.seed = 77;
  exp.config.faults = sim::FaultSpec{};
  exp.super_vertex = super;
  exp.imputation = imputation;
  return exp;
}

core::HmmExperiment HmmShape(core::TextGranularity granularity) {
  core::HmmExperiment exp;
  exp.config.machines = 3;
  exp.config.iterations = 2;
  exp.states = 3;
  exp.vocab = 50;
  exp.mean_doc_len = 12;
  exp.granularity = granularity;
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = 20;
  exp.config.seed = 19;
  exp.config.faults = sim::FaultSpec{};
  return exp;
}

core::LdaExperiment LdaShape() {
  core::LdaExperiment exp;
  exp.config.machines = 3;
  exp.config.iterations = 2;
  exp.topics = 4;
  exp.vocab = 60;
  exp.mean_doc_len = 15;
  exp.granularity = core::TextGranularity::kDocument;
  exp.config.data.logical_per_machine = 1e5;
  exp.config.data.actual_per_machine = 20;
  exp.config.seed = 31;
  exp.config.faults = sim::FaultSpec{};
  return exp;
}

core::LassoExperiment LassoShape(long long actual_per_machine) {
  core::LassoExperiment exp;
  exp.config.machines = 3;
  exp.config.iterations = 3;
  exp.p = 8;
  exp.config.data.actual_per_machine = actual_per_machine;
  exp.config.seed = 7;
  exp.config.faults = sim::FaultSpec{};
  return exp;
}

sim::FaultSpec SeededFaults() {
  sim::FaultSpec f;
  f.seed = 99;
  f.rates.crash = 0.08;
  f.rates.straggler = 0.05;
  f.rates.straggler_factor = 1.6;
  f.rates.send_failure = 0.05;
  return f;
}

template <typename Exp>
Exp WithFaults(Exp exp) {
  exp.config.faults = SeededFaults();
  return exp;
}

template <typename Exp>
Exp WithNoise(Exp exp) {
  exp.config.noise_seed = 5;
  return exp;
}

// ---- Every (model x platform) cell -----------------------------------------

struct CellGolden {
  std::string name;
  std::function<std::uint64_t()> digest;
  std::uint64_t want;
};

// Print only the name, so the test name that CTest discovers from
// --gtest_list_tests does not embed pointer bytes that ASLR moves per build.
void PrintTo(const CellGolden& c, std::ostream* os) { *os << c.name; }

/// One small shape per model, shared by its four platforms.
template <typename Exp>
Exp CellShape(Exp exp) {
  exp.config.machines = 2;
  exp.config.iterations = 2;
  exp.config.seed = 2014;
  return exp;
}

template <typename Exp, typename Model>
CellGolden Cell(std::string name, RunResult (*runner)(const Exp&, Model*),
                const Exp& exp, std::uint64_t want) {
  return {std::move(name), [runner, exp] { return RunDigest(runner, exp); },
          want};
}

std::vector<CellGolden> AllCells() {
  const auto gmm = CellShape(GmmShape(false, false));
  const auto imp = CellShape(GmmShape(false, true));
  const auto lasso = CellShape(LassoShape(100));
  const auto hmm = CellShape(HmmShape(core::TextGranularity::kDocument));
  const auto lda = CellShape(LdaShape());
  return {
      Cell("gmm_dataflow", &core::RunGmmDataflow, gmm, 0x8a0a7c1ed25e9de0ULL),
      Cell("gmm_reldb", &core::RunGmmRelDb, gmm, 0xc4fc5659d170243eULL),
      Cell("gmm_gas", &core::RunGmmGas, gmm, 0x224fb212e0a72097ULL),
      Cell("gmm_bsp", &core::RunGmmBsp, gmm, 0xb5eda46909da3bdULL),
      Cell("imputation_dataflow", &core::RunGmmDataflow, imp,
           0x8aa4936c62017b68ULL),
      Cell("imputation_reldb", &core::RunGmmRelDb, imp, 0x8e753812973200a7ULL),
      Cell("imputation_gas", &core::RunGmmGas, imp, 0xd2c08f4b248ab29bULL),
      Cell("imputation_bsp", &core::RunGmmBsp, imp, 0xd2780e03f5f63aefULL),
      Cell("lasso_dataflow", &core::RunLassoDataflow, lasso,
           0xa96e0afabc04a149ULL),
      Cell("lasso_reldb", &core::RunLassoRelDb, lasso, 0x6431a341cf6684ebULL),
      Cell("lasso_gas", &core::RunLassoGas, lasso, 0x2353f0726f267160ULL),
      Cell("lasso_bsp", &core::RunLassoBsp, lasso, 0x652188e57db38d14ULL),
      Cell("hmm_dataflow", &core::RunHmmDataflow, hmm, 0x2e6f33ea973c7527ULL),
      Cell("hmm_reldb", &core::RunHmmRelDb, hmm, 0x3d8739990b65ecc3ULL),
      Cell("hmm_gas", &core::RunHmmGas, hmm, 0xfe6bd7f42c7bd22bULL),
      Cell("hmm_bsp", &core::RunHmmBsp, hmm, 0xc41385a92e502409ULL),
      Cell("lda_dataflow", &core::RunLdaDataflow, lda, 0x553edb808baf2891ULL),
      Cell("lda_reldb", &core::RunLdaRelDb, lda, 0xf2a0aa988a5f30f4ULL),
      Cell("lda_gas", &core::RunLdaGas, lda, 0x7ad8649340e18e46ULL),
      Cell("lda_bsp", &core::RunLdaBsp, lda, 0x7210de6423c64601ULL),
  };
}

class CellGoldens : public ::testing::TestWithParam<CellGolden> {};

TEST_P(CellGoldens, PinnedAtOneAndFourThreads) {
  ExpectPinned(GetParam().digest, GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(AllCells, CellGoldens, ::testing::ValuesIn(AllCells()),
                         [](const auto& info) { return info.param.name; });

// ---- reldb shapes ----------------------------------------------------------

TEST(VgBatchParity, GmmMembership) {
  ExpectPinned(&core::RunGmmRelDb, GmmShape(false, false),
               0xbf6ff13ca13f77f4ULL);
}

TEST(VgBatchParity, GmmSuperVertex) {
  ExpectPinned(&core::RunGmmRelDb, GmmShape(true, false),
               0x9e2607cce65725f9ULL);
}

TEST(VgBatchParity, GmmImputation) {
  ExpectPinned(&core::RunGmmRelDb, GmmShape(false, true),
               0x9d9f5d1b21ed684fULL);
}

TEST(VgBatchParity, HmmWordBased) {
  ExpectPinned(&core::RunHmmRelDb, HmmShape(core::TextGranularity::kWord),
               0xa392d9d22bf62e7eULL);
}

TEST(VgBatchParity, HmmDocumentBased) {
  ExpectPinned(&core::RunHmmRelDb,
               HmmShape(core::TextGranularity::kDocument),
               0x81adf50dba6da3d6ULL);
}

TEST(VgBatchParity, LdaDocumentBased) {
  ExpectPinned(&core::RunLdaRelDb, LdaShape(), 0x93749f4ce1b19b41ULL);
}

TEST(VgBatchParity, Lasso) {
  ExpectPinned(&core::RunLassoRelDb, LassoShape(100), 0xe1673f17d1361165ULL);
}

// ---- GAS shapes ------------------------------------------------------------

TEST(GasBatchParity, GmmHubsUseParallelChunks) {
  ExpectPinned(&core::RunGmmGas, GmmShape(false, false), 0x3901e62fa6458db9ULL);
}

TEST(GasBatchParity, GmmSuperVertex) {
  ExpectPinned(&core::RunGmmGas, GmmShape(true, false), 0x788fd306f557e839ULL);
}

TEST(GasBatchParity, GmmImputation) {
  ExpectPinned(&core::RunGmmGas, GmmShape(false, true), 0x8c3505ad4d41d95cULL);
}

TEST(GasBatchParity, Hmm) {
  ExpectPinned(&core::RunHmmGas, HmmShape(core::TextGranularity::kDocument),
               0x8597fc2df160501bULL);
}

TEST(GasBatchParity, Lda) {
  ExpectPinned(&core::RunLdaGas, LdaShape(), 0x8cfca16033284d4eULL);
}

TEST(GasBatchParity, LassoCenterUsesParallelChunks) {
  // 600 data supers + 8 model vertices: the center's neighborhood crosses
  // the parallel-gather threshold.
  core::LassoExperiment exp = LassoShape(200);
  exp.supers_per_machine = 200;
  ExpectPinned(&core::RunLassoGas, exp, 0x7058532c4b1402d7ULL);
}

// ---- reldb shapes under seeded faults --------------------------------------

TEST(DriverParity, Gmm) {
  ExpectPinned(&core::RunGmmRelDb, WithFaults(GmmShape(false, false)),
               0x84a1d410be61246ULL);
}

TEST(DriverParity, GmmImputation) {
  ExpectPinned(&core::RunGmmRelDb, WithFaults(GmmShape(false, true)),
               0x769345dc4cf0978ULL);
}

TEST(DriverParity, HmmWordBased) {
  ExpectPinned(&core::RunHmmRelDb,
               WithFaults(HmmShape(core::TextGranularity::kWord)),
               0xda5d5ecb66707b44ULL);
}

TEST(DriverParity, LdaDocumentBased) {
  ExpectPinned(&core::RunLdaRelDb, WithFaults(LdaShape()),
               0x7fbb389cf9012b18ULL);
}

TEST(DriverParity, Lasso) {
  ExpectPinned(&core::RunLassoRelDb, WithFaults(LassoShape(100)),
               0x8e21078041d47110ULL);
}

// ---- reldb shapes under EC2 noise ------------------------------------------

TEST(VmDriverParity, Gmm) {
  ExpectPinned(&core::RunGmmRelDb, WithNoise(GmmShape(false, false)),
               0x70d21ddf8239b426ULL);
}

TEST(VmDriverParity, GmmImputation) {
  ExpectPinned(&core::RunGmmRelDb, WithNoise(GmmShape(false, true)),
               0xb6b0e92afc9cb67aULL);
}

TEST(VmDriverParity, HmmWordBased) {
  ExpectPinned(&core::RunHmmRelDb,
               WithNoise(HmmShape(core::TextGranularity::kWord)),
               0x112ce4fdff8bf049ULL);
}

TEST(VmDriverParity, LdaDocumentBased) {
  ExpectPinned(&core::RunLdaRelDb, WithNoise(LdaShape()), 0x3f8651f0fee3683ULL);
}

TEST(VmDriverParity, Lasso) {
  ExpectPinned(&core::RunLassoRelDb, WithNoise(LassoShape(100)),
               0xdc63da16e54e7bf2ULL);
}

// ---- Runs that do not complete ---------------------------------------------

/// A run cancelled from its own progress callback once `cancel_at`
/// iterations have completed: it must stop at the next boundary, with
/// the status the token carries.
template <typename Exp, typename Model>
CellGolden Cancelled(std::string name, RunResult (*runner)(const Exp&, Model*),
                     Exp exp, int cancel_at, std::uint64_t want) {
  return {std::move(name),
          [runner, exp, cancel_at] {
            Exp run = exp;
            exec::CancelToken token;
            std::vector<int> seen;
            run.config.cancel = &token;
            run.config.progress = [&](int done, int total) {
              EXPECT_EQ(total, exp.config.iterations);
              seen.push_back(done);
              if (done == cancel_at) {
                token.Cancel(Status::DeadlineExceeded("cancelled by test"));
              }
            };
            const std::uint64_t h =
                RunDigest(runner, run, StatusCode::kDeadlineExceeded);
            std::vector<int> boundaries(cancel_at + 1);
            std::iota(boundaries.begin(), boundaries.end(), 0);
            EXPECT_EQ(seen, boundaries);
            return h;
          },
          want};
}

/// Where a failing run stops: before init ends (init seconds stay -1, or
/// record the time to failure), or during the iterations (dropping or
/// keeping the completed iterations' timings).
enum class Stage { kInit, kInitTimed, kIterations, kIterationsKeepingTimings };

template <typename Exp, typename Model>
CellGolden Failed(std::string name, RunResult (*runner)(const Exp&, Model*),
                  const Exp& exp, StatusCode code, Stage stage,
                  std::uint64_t want) {
  return {std::move(name),
          [runner, exp, code, stage] {
            Model model{};
            const RunResult r = runner(exp, &model);
            EXPECT_EQ(r.status.code(), code) << r.status.ToString();
            if (stage == Stage::kInit) {
              EXPECT_EQ(r.init_seconds, -1);
            } else {
              EXPECT_GE(r.init_seconds, 0);
            }
            EXPECT_EQ(r.iteration_seconds.empty(),
                      stage != Stage::kIterationsKeepingTimings);
            return server::DigestModel(golden::DigestRun(r), model);
          },
          want};
}

/// Permanent loss of machine 1 in engine work unit `unit` (an MR or Spark
/// job, a GAS sweep, a BSP superstep): more crashes than the retry budget.
template <typename Exp>
Exp WithPermanentCrash(Exp exp, std::int64_t unit) {
  exp.config.faults = sim::FaultSpec{};
  exp.config.faults.use_explicit_plan = true;
  exp.config.faults.explicit_plan.AddCrash(unit, /*machine=*/1, /*count=*/5);
  return exp;
}

template <typename Exp>
Exp WithIterations(Exp exp, int iterations) {
  exp.config.iterations = iterations;
  return exp;
}

/// Python super-vertex Spark LDA at 100 machines, as in Fig. 4(b): the
/// per-peer shuffle buffers and a 3.01M-document cache leave the residuals
/// of the task closures a few MiB per machine, which run out in the fourth
/// iteration.
core::LdaExperiment LdaBroadcastShape() {
  core::LdaExperiment exp;
  exp.config.machines = 100;
  exp.config.iterations = 4;
  exp.config.data.logical_per_machine = 3.01e6;
  exp.config.data.actual_per_machine = 1;
  exp.config.faults = sim::FaultSpec{};
  exp.topics = 20;
  exp.vocab = 4000;
  exp.granularity = core::TextGranularity::kSuperVertex;
  exp.language = sim::Language::kPython;
  return exp;
}

std::vector<CellGolden> AllExits() {
  const auto gmm = WithIterations(CellShape(GmmShape(false, false)), 3);
  const auto lasso = WithIterations(CellShape(LassoShape(100)), 3);
  const auto hmm =
      WithIterations(CellShape(HmmShape(core::TextGranularity::kDocument)), 3);
  const auto lda = WithIterations(CellShape(LdaShape()), 3);
  core::HmmExperiment hmm_word = hmm;
  hmm_word.granularity = core::TextGranularity::kWord;
  // Word-based Spark HMM: the self-join of the word records runs out of
  // memory at paper scale, and the Fail records the time to failure.
  hmm_word.config.data.logical_per_machine = 1e7;
  core::LdaExperiment lda_word = lda;
  lda_word.granularity = core::TextGranularity::kWord;
  // Fig. 1(a)'s naive GraphLab GMM: one vertex per point at 10-d paper
  // scale runs out of memory in its first sweep.
  core::GmmExperiment gmm_paper_scale = gmm;
  gmm_paper_scale.dim = 10;
  gmm_paper_scale.k = 10;
  gmm_paper_scale.config.data.logical_per_machine = 10e6;
  return {
      Cancelled("cancelled_lda_dataflow", &core::RunLdaDataflow, lda, 1,
                0x980d9ffedc329cf9ULL),
      Cancelled("cancelled_gmm_reldb", &core::RunGmmRelDb, gmm, 1,
                0x33089d45c2aa7ce3ULL),
      Cancelled("cancelled_lasso_gas", &core::RunLassoGas, lasso, 1,
                0xf37e1c856f322569ULL),
      Cancelled("cancelled_hmm_bsp", &core::RunHmmBsp, hmm, 1,
                0xdd93736407132874ULL),
      Failed("unimplemented_lda_dataflow_word", &core::RunLdaDataflow,
             lda_word, StatusCode::kUnimplemented, Stage::kInit,
             0x215114818c88b25dULL),
      Failed("oom_hmm_dataflow_word", &core::RunHmmDataflow, hmm_word,
             StatusCode::kOutOfMemory, Stage::kInitTimed,
             0xe5b7fc7fa2f07c94ULL),
      Failed("oom_naive_gmm_gas", &core::RunGmmGas, gmm_paper_scale,
             StatusCode::kOutOfMemory, Stage::kIterations,
             0xb1bf606ace6547acULL),
      Failed("unavailable_gmm_dataflow", &core::RunGmmDataflow,
             WithPermanentCrash(gmm, 8), StatusCode::kUnavailable,
             Stage::kIterations, 0x78742aa105356286ULL),
      Failed("unavailable_lasso_reldb", &core::RunLassoRelDb,
             WithPermanentCrash(lasso, 8), StatusCode::kUnavailable,
             Stage::kIterations, 0x1d0297628dd8be27ULL),
      Failed("unavailable_hmm_gas", &core::RunHmmGas,
             WithPermanentCrash(hmm, 1), StatusCode::kUnavailable,
             Stage::kIterations, 0xcc4a05178aa68fe2ULL),
      Failed("unavailable_lda_bsp", &core::RunLdaBsp,
             WithPermanentCrash(lda, 3), StatusCode::kUnavailable,
             Stage::kIterations, 0xea3dcb0f20ea1316ULL),
      Failed("oom_keeps_timings_lda_dataflow", &core::RunLdaDataflow,
             LdaBroadcastShape(), StatusCode::kOutOfMemory,
             Stage::kIterationsKeepingTimings, 0xa2206b632a133cbeULL),
  };
}

class ExitGoldens : public ::testing::TestWithParam<CellGolden> {};

TEST_P(ExitGoldens, PinnedAtOneAndFourThreads) {
  ExpectPinned(GetParam().digest, GetParam().want);
}

INSTANTIATE_TEST_SUITE_P(AllExits, ExitGoldens, ::testing::ValuesIn(AllExits()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace mlbench
