#pragma once

#include <utility>

#include "common/status.h"
#include "core/experiment.h"
#include "sim/cluster_sim.h"

/// \file cell_run.h
/// The run lifecycle every (model x platform) driver shares. The paper
/// fills each table cell the same way — initialization time plus the
/// average time of the first iterations, or "Fail" — and CellRun is the
/// one place that policy lives.

namespace mlbench::core {

/// One driver run: its simulator and the RunResult it builds.
///
///  1. The constructor builds the ClusterSim from the config, then
///     installs EC2 noise, then the fault schedule, before any engine work.
///  2. The driver builds its engine state on sim() and calls EndInit(),
///     which records init seconds and resets the simulated clock.
///  3. Iterate() runs config.iterations iterations of the driver's body.
///     At each boundary it polls the cancel token (the only cancellation
///     point) and reports progress; it times each iteration, then checks
///     the engine's fault latch.
///  4. Finish() returns the OK result with the fault-recovery accounting.
///
/// At any exit, Fail() returns the "Fail" cell: init seconds once init has
/// ended (-1 before) and no iteration timings, unless the failing
/// iteration marked its status with KeepTimings().
class CellRun {
 public:
  /// `config` must outlive the run.
  explicit CellRun(const ExperimentConfig& config);
  CellRun(const CellRun&) = delete;
  CellRun& operator=(const CellRun&) = delete;

  sim::ClusterSim& sim() { return sim_; }

  /// Ends initialization: records its simulated seconds, resets the clock.
  void EndInit();

  /// Runs `body(iter)` (returning Status) for iter in [0, iterations).
  /// Returns the first non-OK status: the cancel token's, the body's, or
  /// `latch`'s, an engine's fault status checked after each iteration's
  /// time is recorded.
  template <typename Body>
  Status Iterate(const Status& latch, Body&& body) {
    for (int iter = 0; iter < config_.iterations; ++iter) {
      MLBENCH_RETURN_NOT_OK(Boundary(iter));
      const double t0 = sim_.elapsed_seconds();
      MLBENCH_RETURN_NOT_OK(body(iter));
      result_.iteration_seconds.push_back(sim_.elapsed_seconds() - t0);
      MLBENCH_RETURN_NOT_OK(latch);
    }
    return Status::OK();
  }

  /// Iterate() for engines without a fault latch.
  template <typename Body>
  Status Iterate(Body&& body) {
    return Iterate(Status::OK(), std::forward<Body>(body));
  }

  /// Marks an iteration's failure as one that keeps the timings of the
  /// iterations completed before it (the figures print "Fail@iterN").
  Status KeepTimings(Status st) {
    keep_timings_ = true;
    return st;
  }

  /// The "Fail" cell for `st`.
  RunResult Fail(Status st) const;

  /// The completed run's result, with fault-recovery accounting.
  RunResult Finish();

 private:
  /// Polls cancellation, then reports `completed` iterations as progress.
  Status Boundary(int completed) const;

  const ExperimentConfig& config_;
  sim::ClusterSim sim_;
  RunResult result_;
  bool keep_timings_ = false;
};

}  // namespace mlbench::core
