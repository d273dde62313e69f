#include "server/runner.h"

#include <array>
#include <cstring>
#include <string>
#include <utility>
#include <variant>

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
#include "reldb/sql.h"
#include "sim/faults.h"

namespace mlbench::server {

namespace {

enum class Workload { kGmm, kLasso, kHmm, kLda, kImputation };
enum class Platform { kDataflow, kRelDb, kGas, kBsp };

Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "gmm") return Workload::kGmm;
  if (name == "lasso") return Workload::kLasso;
  if (name == "hmm") return Workload::kHmm;
  if (name == "lda") return Workload::kLda;
  if (name == "imputation") return Workload::kImputation;
  return Status::InvalidArgument("unknown workload: " + name);
}

Result<Platform> ParsePlatform(const std::string& name) {
  if (name == "dataflow") return Platform::kDataflow;
  if (name == "reldb") return Platform::kRelDb;
  if (name == "gas") return Platform::kGas;
  if (name == "bsp") return Platform::kBsp;
  return Status::InvalidArgument("unknown platform: " + name);
}

// Server-side defaults for actual executed records per machine — smaller
// than the bench binaries' (a server multiplexes many runs), same
// logical scale, so results stay paper-shaped.
long long DefaultActualPerMachine(Workload w) {
  switch (w) {
    case Workload::kGmm:
    case Workload::kImputation:
      return 500;
    case Workload::kLasso:
      return 150;
    case Workload::kHmm:
    case Workload::kLda:
      return 20;
  }
  return 500;
}

// Applies the request's shared knobs onto a config.
void ApplyConfig(const ExperimentRequest& req, Workload w,
                 const exec::CancelToken* cancel,
                 std::function<void(int, int)> progress,
                 core::ExperimentConfig* config) {
  config->machines = req.machines;
  config->iterations = req.iterations;
  config->seed = req.seed;
  config->data.actual_per_machine = req.actual_per_machine > 0
                                        ? req.actual_per_machine
                                        : DefaultActualPerMachine(w);
  config->cancel = cancel;
  config->progress = std::move(progress);
}

}  // namespace

std::uint64_t DigestBytes(std::uint64_t h, const void* data, std::size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;  // FNV-1a 64 prime
  }
  return h;
}

std::uint64_t DigestF64(std::uint64_t h, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  return DigestBytes(h, &bits, sizeof(bits));
}

namespace {

std::uint64_t DigestVector(std::uint64_t h, const linalg::Vector& v) {
  for (double x : v) h = DigestF64(h, x);
  return h;
}

}  // namespace

std::uint64_t DigestRunResult(std::uint64_t h, const core::RunResult& r) {
  std::uint8_t code = static_cast<std::uint8_t>(r.status.code());
  h = DigestBytes(h, &code, 1);
  h = DigestF64(h, r.init_seconds);
  for (double t : r.iteration_seconds) h = DigestF64(h, t);
  return DigestF64(h, r.peak_machine_bytes);
}

std::uint64_t DigestModel(std::uint64_t h, const models::GmmParams& m) {
  h = DigestVector(h, m.pi);
  for (const auto& mu : m.mu) h = DigestVector(h, mu);
  for (const auto& s : m.sigma) {
    h = DigestBytes(h, s.data(), s.rows() * s.cols() * sizeof(double));
  }
  return h;
}

std::uint64_t DigestModel(std::uint64_t h, const models::LassoState& m) {
  h = DigestVector(h, m.beta);
  h = DigestF64(h, m.sigma2);
  return DigestVector(h, m.inv_tau2);
}

std::uint64_t DigestModel(std::uint64_t h, const models::HmmParams& m) {
  h = DigestVector(h, m.delta0);
  for (const auto& row : m.delta) h = DigestVector(h, row);
  for (const auto& row : m.psi) h = DigestVector(h, row);
  return h;
}

std::uint64_t DigestModel(std::uint64_t h, const models::LdaParams& m) {
  for (const auto& row : m.phi) h = DigestVector(h, row);
  return h;
}

namespace {

// ---- Per-cell dispatch -----------------------------------------------------

template <typename Exp, typename Model>
using DriverTable = std::array<core::RunResult (*)(const Exp&, Model*), 4>;

// Indexed by Platform.
constexpr DriverTable<core::GmmExperiment, models::GmmParams> kGmmDrivers = {
    &core::RunGmmDataflow, &core::RunGmmRelDb, &core::RunGmmGas,
    &core::RunGmmBsp};
constexpr DriverTable<core::LassoExperiment, models::LassoState>
    kLassoDrivers = {&core::RunLassoDataflow, &core::RunLassoRelDb,
                     &core::RunLassoGas, &core::RunLassoBsp};
constexpr DriverTable<core::HmmExperiment, models::HmmParams> kHmmDrivers = {
    &core::RunHmmDataflow, &core::RunHmmRelDb, &core::RunHmmGas,
    &core::RunHmmBsp};
constexpr DriverTable<core::LdaExperiment, models::LdaParams> kLdaDrivers = {
    &core::RunLdaDataflow, &core::RunLdaRelDb, &core::RunLdaGas,
    &core::RunLdaBsp};

// The language each platform's paper code was written in.
constexpr std::array<sim::Language, 4> kPlatformLanguage = {
    sim::Language::kPython, sim::Language::kJava, sim::Language::kCpp,
    sim::Language::kJava};

// Where the paper's naive implementation is a "Fail", the server runs its
// super-vertex one: GraphLab GMM, HMM and LDA, and Giraph lasso.
void UseWorkingShape(Platform p, core::GmmExperiment* exp) {
  if (p == Platform::kGas) exp->super_vertex = true;
}
void UseWorkingShape(Platform p, core::LassoExperiment* exp) {
  if (p == Platform::kBsp) exp->super_vertex = true;
}
void UseWorkingShape(Platform p, core::HmmExperiment* exp) {
  if (p == Platform::kGas) {
    exp->granularity = core::TextGranularity::kSuperVertex;
  }
}
void UseWorkingShape(Platform p, core::LdaExperiment* exp) {
  if (p == Platform::kGas) {
    exp->granularity = core::TextGranularity::kSuperVertex;
  }
}

template <typename Exp, typename Model>
RunOutcome RunCell(const ExperimentRequest& req, Workload w, Platform p,
                   Exp exp, const DriverTable<Exp, Model>& drivers,
                   const exec::CancelToken* cancel,
                   std::function<void(int, int)> progress) {
  ApplyConfig(req, w, cancel, std::move(progress), &exp.config);
  const auto platform = static_cast<std::size_t>(p);
  exp.language = kPlatformLanguage[platform];
  UseWorkingShape(p, &exp);
  Model model{};
  RunOutcome out;
  out.result = drivers[platform](exp, &model);
  out.digest = DigestModel(DigestRunResult(kDigestSeed, out.result), model);
  return out;
}

}  // namespace

Status ValidateExperiment(const ExperimentRequest& req) {
  auto w = ParseWorkload(req.workload);
  if (!w.ok()) return w.status();
  auto p = ParsePlatform(req.platform);
  if (!p.ok()) return p.status();
  if (req.machines < 1 || req.machines > 1000) {
    return Status::InvalidArgument("machines out of range [1, 1000]: " +
                                   std::to_string(req.machines));
  }
  if (req.iterations < 1 || req.iterations > 100) {
    return Status::InvalidArgument("iterations out of range [1, 100]: " +
                                   std::to_string(req.iterations));
  }
  if (req.actual_per_machine < 0 || req.actual_per_machine > 1000000) {
    return Status::InvalidArgument("actual_per_machine out of range");
  }
  if (req.deadline_ms < 0) {
    return Status::InvalidArgument("negative deadline_ms");
  }
  return Status::OK();
}

Result<double> EstimateHostPeakBytes(const ExperimentRequest& req) {
  if (Status st = ValidateExperiment(req); !st.ok()) return st;
  Workload w = *ParseWorkload(req.workload);
  long long per_machine = req.actual_per_machine > 0
                              ? req.actual_per_machine
                              : DefaultActualPerMachine(w);
  double points = static_cast<double>(req.machines) *
                  static_cast<double>(per_machine);
  double point_bytes = 0;
  double model_bytes = 0;
  switch (w) {
    case Workload::kGmm:
      point_bytes = 10 * 8.0;  // one 10-d double vector per point
      model_bytes = 10.0 * (10.0 * 10.0 + 10.0 + 1.0) * 8.0;
      break;
    case Workload::kImputation:
      // Censored points carry the raw vector plus a mask and a per-point
      // redraw buffer.
      point_bytes = 10 * 8.0 * 3.0;
      model_bytes = 10.0 * (10.0 * 10.0 + 10.0 + 1.0) * 8.0;
      break;
    case Workload::kLasso:
      point_bytes = 1000 * 8.0 + 8.0;  // a p=1000 regressor row + response
      model_bytes = (2.0 * 1000.0 + 1.0) * 8.0 + 1000.0 * 1000.0 * 8.0;
      break;
    case Workload::kHmm:
      // ~210 words x (id + state assignment) per document.
      point_bytes = 210.0 * (4.0 + 1.0) * 2.0;
      model_bytes = 20.0 * 10000.0 * 8.0 + 20.0 * 20.0 * 8.0;
      break;
    case Workload::kLda:
      point_bytes = 210.0 * (4.0 + 1.0) * 2.0;
      model_bytes = 100.0 * 10000.0 * 8.0;
      break;
  }
  // The simulator replays each machine's partition through shared buffers,
  // so the host working set is data + model (+ per-machine ledger state),
  // not machines x model. 1.5x headroom for engine temporaries.
  double estimate =
      (points * point_bytes + model_bytes +
       static_cast<double>(req.machines) * 4096.0) * 1.5;
  return estimate;
}

RunOutcome ExecuteExperiment(const ExperimentRequest& req,
                             const exec::CancelToken* cancel,
                             std::function<void(int, int)> progress) {
  auto w = ParseWorkload(req.workload);
  auto p = ParsePlatform(req.platform);
  if (!w.ok() || !p.ok()) {
    RunOutcome out;
    out.result =
        core::RunResult::Fail(!w.ok() ? w.status() : p.status());
    return out;
  }
  switch (*w) {
    case Workload::kGmm:
      return RunCell(req, *w, *p, core::GmmExperiment{}, kGmmDrivers, cancel,
                     std::move(progress));
    case Workload::kImputation: {
      core::GmmExperiment exp;
      exp.imputation = true;
      return RunCell(req, *w, *p, exp, kGmmDrivers, cancel,
                     std::move(progress));
    }
    case Workload::kLasso:
      return RunCell(req, *w, *p, core::LassoExperiment{}, kLassoDrivers,
                     cancel, std::move(progress));
    case Workload::kHmm:
      return RunCell(req, *w, *p, core::HmmExperiment{}, kHmmDrivers, cancel,
                     std::move(progress));
    case Workload::kLda:
      return RunCell(req, *w, *p, core::LdaExperiment{}, kLdaDrivers, cancel,
                     std::move(progress));
  }
  RunOutcome out;
  out.result = core::RunResult::Fail(
      Status::Internal("unreachable workload dispatch"));
  return out;
}

SqlOutcome ExecuteSql(const SqlRequest& req) {
  SqlOutcome out;
  if (req.rows < 1 || req.rows > 1000000) {
    out.status = Status::InvalidArgument("rows out of range [1, 1e6]");
    return out;
  }
  // Fresh per-request state: the database, its simulator, and the seeded
  // synthetic table are all rebuilt from the request, so two identical
  // requests return identical tables no matter what ran in between.
  sim::ClusterSim sim(sim::Ec2M2XLargeCluster(3));
  reldb::Database db(&sim, {}, req.seed);
  reldb::Table data(reldb::Schema{"id", "grp", "val"}, 1.0);
  for (std::int64_t i = 0; i < req.rows; ++i) {
    data.Append(reldb::Tuple{
        i, i % 8,
        sim::HashChance(req.seed, /*tag=*/0x51, i) * 100.0});
  }
  db.Put("data", std::move(data));
  reldb::SqlContext ctx(&db);
  auto table = ctx.Execute(req.sql);
  if (!table.ok()) {
    out.status = table.status();
    return out;
  }
  out.status = Status::OK();
  out.result_rows = static_cast<std::int64_t>(table->actual_rows());
  std::uint64_t h = kDigestSeed;
  for (const auto& row : table->rows()) {
    for (const auto& value : row) {
      if (const std::int64_t* iv = std::get_if<std::int64_t>(&value)) {
        std::uint8_t tag = 0;
        h = DigestBytes(h, &tag, 1);
        h = DigestBytes(h, iv, sizeof(*iv));
      } else {
        std::uint8_t tag = 1;
        h = DigestBytes(h, &tag, 1);
        h = DigestF64(h, std::get<double>(value));
      }
    }
  }
  out.digest = h;
  return out;
}

}  // namespace mlbench::server
