#pragma once

#include <cstdint>
#include <functional>

#include "core/experiment.h"
#include "exec/cancel.h"
#include "models/gmm.h"
#include "models/hmm.h"
#include "models/lasso.h"
#include "models/lda.h"
#include "server/protocol.h"

/// \file runner.h
/// Executes one protocol request inside a session, fully isolated: every
/// call builds its own ExperimentConfig / ClusterSim / Database / Rng from
/// the request alone, so a run's result bits are a pure function of the
/// request — the same request returns the same digest whether it runs
/// serially in a one-shot bench binary or interleaved with 15 other
/// sessions on the shared host pool.

namespace mlbench::server {

/// Checks a request before admission: known workload/platform, positive
/// scale knobs, bounded iteration count.
Status ValidateExperiment(const ExperimentRequest& req);

/// Deterministic estimate of the request's peak *host* RAM (generated
/// data + model state + working set), the quantity the admission ledger
/// reserves before the run may start. Intentionally conservative (x1.5
/// headroom): over-estimating queues runs that would have fit;
/// under-estimating overcommits the host, which is the failure the ledger
/// exists to prevent. Fails with InvalidArgument on unknown workloads.
Result<double> EstimateHostPeakBytes(const ExperimentRequest& req);

struct RunOutcome {
  core::RunResult result;
  /// FNV-1a 64 over the run's result bits: status code, init/iteration
  /// seconds, peak simulated bytes, and every double of the final model
  /// state. Two runs agree on the digest iff they are bit-identical.
  std::uint64_t digest = 0;
};

/// Runs the requested (workload x platform) cell. `cancel` (may be null)
/// is polled at iteration boundaries; `progress` (may be empty) is
/// invoked from the calling thread at each boundary.
RunOutcome ExecuteExperiment(const ExperimentRequest& req,
                             const exec::CancelToken* cancel,
                             std::function<void(int, int)> progress);

struct SqlOutcome {
  Status status;
  std::int64_t result_rows = 0;
  std::uint64_t digest = 0;  ///< FNV-1a over the result table's values
};

/// Executes one SQL statement against a fresh session-local database
/// seeded from the request: table `data(id, grp, val)` with `rows`
/// deterministic synthetic rows.
SqlOutcome ExecuteSql(const SqlRequest& req);

// Exposed for tests: the digest accumulator (FNV-1a 64, offset basis).
inline constexpr std::uint64_t kDigestSeed = 0xcbf29ce484222325ULL;
std::uint64_t DigestBytes(std::uint64_t h, const void* data, std::size_t n);
std::uint64_t DigestF64(std::uint64_t h, double v);

/// Folds a run's status code, init seconds, each iteration's seconds and
/// peak simulated bytes into `h`.
std::uint64_t DigestRunResult(std::uint64_t h, const core::RunResult& r);

/// Folds every double of a final model into `h`, in field order.
std::uint64_t DigestModel(std::uint64_t h, const models::GmmParams& m);
std::uint64_t DigestModel(std::uint64_t h, const models::LassoState& m);
std::uint64_t DigestModel(std::uint64_t h, const models::HmmParams& m);
std::uint64_t DigestModel(std::uint64_t h, const models::LdaParams& m);

}  // namespace mlbench::server
