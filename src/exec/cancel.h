#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"

/// \file cancel.h
/// Cooperative cancellation for long-running engine work.
///
/// A CancelToken is owned by whoever can abort a run (the experiment
/// server's session, a deadline watchdog) and observed by the run itself.
/// Cancellation is *cooperative and deterministic*: drivers poll the token
/// only at iteration boundaries (via core::CellRun::Iterate),
/// so a cancelled run always stops at a well-defined synchronisation point
/// with no torn model state, and a run that is never cancelled executes
/// bit-identically to one with no token attached.
///
/// The token lives in src/exec/ because it is a host-concurrency
/// primitive: Cancel() may be called from a different thread than the one
/// executing the run (mlint's raw-thread rule allowlists this directory).

namespace mlbench::exec {

/// Thread-safe one-shot cancellation flag carrying the Status the
/// cancelled run should report (e.g. DeadlineExceeded vs Unavailable).
class CancelToken {
 public:
  CancelToken() = default;
  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  /// Requests cancellation with the given non-OK status. The first call
  /// wins; later calls are ignored so the reported reason is stable.
  void Cancel(Status reason) {
    std::lock_guard<std::mutex> lock(mu_);
    if (cancelled_.load(std::memory_order_relaxed)) return;
    reason_ = std::move(reason);
    cancelled_.store(true, std::memory_order_release);
  }

  /// Cheap check (one relaxed atomic load) for hot polling sites.
  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// OK while the token is live; the Cancel() reason afterwards.
  Status status() const {
    if (!cancelled()) return Status::OK();
    std::lock_guard<std::mutex> lock(mu_);
    return reason_;
  }

 private:
  std::atomic<bool> cancelled_{false};
  mutable std::mutex mu_;  ///< guards reason_ against a racing Cancel()
  Status reason_ = Status::OK();
};

}  // namespace mlbench::exec
