//===- workload/PoolDriver.h - Shared pool + mark-driver wiring -*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-lane mutator stack every tool builds the same way: the
/// MutatorPool itself, the shared IncMarkDriver pacing policy, and the
/// turn hook that pumps the driver before the caller's own per-turn
/// bookkeeping. wearmem_run, wearmem_soak, and the serve shards' warmup
/// all drive pools through this helper instead of keeping three copies
/// of the wiring. The hook pumps the mark driver exactly when the
/// runtime paces its mark (RuntimeConfig::IncrementalMark or
/// ConcurrentMark); the driver reads the pacing from the same config.
///
/// The hook composition preserves the tools' historical order: the mark
/// driver is pumped first (so a cycle's opens and closes land on the
/// pool's turn clock), then the caller's callback runs, still serialized
/// by the turnstile. Digests and curves are therefore byte-identical to
/// the pre-helper wiring.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_POOLDRIVER_H
#define WEARMEM_WORKLOAD_POOLDRIVER_H

#include "workload/IncMarkDriver.h"
#include "workload/MutatorPool.h"

#include <utility>

namespace wearmem {

class PoolDriver {
public:
  PoolDriver(Runtime &Rt, const Profile &P, const MutatorPoolOptions &Opts)
      : Pool_(Rt, P, Opts), Inc_(Rt, Pool_.targetBytes()),
        DriveMark(Rt.config().IncrementalMark ||
                  Rt.config().ConcurrentMark) {
    installHook();
  }

  /// Extra per-turn bookkeeping (campaign pumps, audits, curve points),
  /// run after the mark pump on whichever thread holds the turn; the
  /// turnstile serializes it against every lane, so it needs no locking.
  /// Return false to stop the pool.
  void setTurnCallback(MutatorPool::TurnHook Callback) {
    Extra = std::move(Callback);
  }

  /// Runs the pool to completion (see MutatorPool::run).
  bool run() { return Pool_.run(); }

  /// Closes any mark cycle the run left open. Callers gate this on their
  /// own mark-mode and OOM conditions, as before the hoist.
  void flushMark() { Inc_.flush(); }

  MutatorPool &pool() { return Pool_; }
  uint64_t steadyAllocatedBytes() const {
    return Pool_.steadyAllocatedBytes();
  }
  uint64_t targetBytes() const { return Pool_.targetBytes(); }

private:
  void installHook() {
    Pool_.setTurnHook([this](unsigned Lane, uint64_t Turn) {
      if (DriveMark)
        Inc_.pump(Pool_.steadyAllocatedBytes());
      return Extra ? Extra(Lane, Turn) : true;
    });
  }

  MutatorPool Pool_;
  IncMarkDriver Inc_;
  bool DriveMark;
  MutatorPool::TurnHook Extra;
};

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_POOLDRIVER_H
