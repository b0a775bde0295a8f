//===- workload/MutatorPool.h - Multi-threaded mutator driver ---*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives N OS threads over L logical mutator lanes, each lane a Mutator
/// with its own RNG, TLAB, and share of the allocation volume. Lanes are
/// the unit of determinism; threads are the unit of parallelism. A
/// round-robin turnstile hands the heap to exactly one lane at a time in
/// a schedule that depends only on the lane count and each lane's own
/// progress - never on thread scheduling - so the post-run heap digest is
/// bit-identical for any thread count at a fixed lane count, which is
/// what lets the determinism gate compare multi-threaded runs at all.
///
/// Every turn the owning thread: activates the lane, drains the lane's
/// interrupt mailbox (thread-targeted dynamic failures routed to it while
/// other lanes ran), runs the per-turn hook (fault-campaign pump, audits),
/// steps the lane's mutator, and polls the safepoint. Threads waiting for
/// a turn sit inside a safepoint blocked region, so a collection triggered
/// by the active lane's allocation stops the world without waiting on
/// them - a failure storm can never deadlock the handshake against the
/// turnstile.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_WORKLOAD_MUTATORPOOL_H
#define WEARMEM_WORKLOAD_MUTATORPOOL_H

#include "workload/Mutator.h"

#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace wearmem {

struct MutatorPoolOptions {
  /// Logical mutator lanes. Fixes the allocation schedule and the digest.
  unsigned Lanes = 1;
  /// OS threads executing the lanes (lane l runs on thread l % Threads).
  /// Clamped to Lanes; extra threads would never own a lane.
  unsigned Threads = 1;
  /// Base RNG seed; lane l derives its own stream from it.
  uint64_t Seed = 42;
  /// Per-lane steady-state volume scale. Every lane allocates the
  /// profile's full (scaled) volume; with the heap also scaled by the
  /// lane count, GC pressure per heap byte matches a single-lane run.
  double VolumeScale = 1.0;
  /// Adversarial strategy applied by every lane (workload/Adversary.h).
  /// Uses only each lane's own RNG, so lane determinism is preserved.
  AdversaryKind Adversary = AdversaryKind::None;
};

class MutatorPool {
public:
  /// Called once per turn on the active lane's thread, after the mailbox
  /// drain and before the mutator step. Return false to abort the run
  /// (counted as a failure). Runs with Heap::activeLane() == Lane.
  using TurnHook = std::function<bool(unsigned Lane, uint64_t Turn)>;

  MutatorPool(Runtime &Rt, const Profile &P, const MutatorPoolOptions &Opts);

  void setTurnHook(TurnHook H) { Hook = std::move(H); }

  /// Runs every lane to completion (Threads - 1 spawned threads plus the
  /// caller). Returns true if all lanes finished their volume without
  /// heap exhaustion or a hook abort.
  bool run();

  unsigned lanes() const { return static_cast<unsigned>(Lanes.size()); }
  unsigned threads() const { return NumThreads; }
  uint64_t totalTurns() const { return Turn; }
  uint64_t steadyAllocatedBytes() const;
  uint64_t targetBytes() const;
  bool failed() const { return Failed; }

private:
  struct LaneState {
    std::unique_ptr<Mutator> M;
    bool SetUpDone = false;
    bool Done = false;
    /// The lane allocated its full volume (run() reports success only
    /// when every lane did).
    bool Completed = false;
  };

  void threadMain(unsigned ThreadIdx);
  /// One turnstile slice for \p Lane; called off-lock by the owning
  /// thread. Returns false on exhaustion or hook abort.
  bool runSlice(unsigned Lane, uint64_t TurnIdx);
  bool allDoneLocked() const;

  Runtime &Rt;
  unsigned NumThreads;
  TurnHook Hook;
  std::vector<LaneState> Lanes;

  std::mutex TurnMu;
  std::condition_variable TurnCv;
  uint64_t Turn = 0;
  unsigned DoneLanes = 0;
  bool Failed = false;
};

} // namespace wearmem

#endif // WEARMEM_WORKLOAD_MUTATORPOOL_H
