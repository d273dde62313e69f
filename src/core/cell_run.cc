#include "core/cell_run.h"

#include "sim/faults.h"

namespace mlbench::core {

CellRun::CellRun(const ExperimentConfig& config)
    : config_(config), sim_(config.cluster()) {
  if (config.noise_seed != 0) {
    sim_.SetNoise(config.noise_fraction, config.noise_seed);
  }
  // A disabled spec never touches the simulator, so runs stay
  // bit-identical to a build without the fault subsystem.
  if (config.faults.Enabled()) {
    sim_.SetFaultInjector(config.faults.MakeInjector());
  }
}

void CellRun::EndInit() {
  result_.init_seconds = sim_.elapsed_seconds();
  sim_.ResetClock();
}

Status CellRun::Boundary(int completed) const {
  if (config_.cancel != nullptr && config_.cancel->cancelled()) {
    return config_.cancel->status();
  }
  if (config_.progress) config_.progress(completed, config_.iterations);
  return Status::OK();
}

RunResult CellRun::Fail(Status st) const {
  if (!keep_timings_) {
    return RunResult::Fail(std::move(st), result_.init_seconds);
  }
  RunResult r = result_;
  r.status = std::move(st);
  return r;
}

RunResult CellRun::Finish() {
  RunResult r = std::move(result_);
  if (const sim::FaultInjector* inj = sim_.faults(); inj != nullptr) {
    r.recovery_events = static_cast<int>(inj->recoveries().size());
    r.recovery_seconds = inj->total_recovery_seconds();
  }
  r.status = Status::OK();
  return r;
}

}  // namespace mlbench::core
