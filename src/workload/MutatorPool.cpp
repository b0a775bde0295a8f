//===- workload/MutatorPool.cpp - Multi-threaded mutator driver -----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "workload/MutatorPool.h"

#include "obs/Hooks.h"

#include <algorithm>
#include <cassert>
#include <thread>

using namespace wearmem;

MutatorPool::MutatorPool(Runtime &Rt, const Profile &P,
                         const MutatorPoolOptions &Opts)
    : Rt(Rt) {
  unsigned L = std::max(1u, Opts.Lanes);
  NumThreads = std::clamp(Opts.Threads, 1u, L);
  Rt.setMutatorLanes(L);
  Lanes.resize(L);
  for (unsigned Lane = 0; Lane != L; ++Lane) {
    // Each lane gets a decorrelated RNG stream and the full per-lane
    // volume: the heap scales with the lane count, so full volume per
    // lane keeps the churn-to-heap ratio (and thus GC pressure) equal to
    // a single-lane run.
    uint64_t LaneSeed = Opts.Seed + 0x9E3779B97F4A7C15ULL * (Lane + 1);
    Lanes[Lane].M = std::make_unique<Mutator>(Rt, P, LaneSeed,
                                              Opts.VolumeScale, Opts.Adversary);
  }
}

uint64_t MutatorPool::steadyAllocatedBytes() const {
  uint64_t Total = 0;
  for (const LaneState &Lane : Lanes)
    Total += Lane.M->steadyAllocatedBytes();
  return Total;
}

uint64_t MutatorPool::targetBytes() const {
  uint64_t Total = 0;
  for (const LaneState &Lane : Lanes)
    Total += Lane.M->targetBytes();
  return Total;
}

bool MutatorPool::allDoneLocked() const {
  return DoneLanes == Lanes.size() || Failed;
}

bool MutatorPool::run() {
  assert(Turn == 0 && "a pool runs once");
  std::vector<std::thread> Workers;
  Workers.reserve(NumThreads - 1);
  for (unsigned T = 1; T != NumThreads; ++T)
    Workers.emplace_back([this, T] { threadMain(T); });
  threadMain(0);
  for (std::thread &W : Workers)
    W.join();
  // Interrupts routed at a lane after its last turn would strand in its
  // mailbox and count as lost; deliver them now, in lane order (the
  // order is part of the deterministic schedule).
  Heap &H = Rt.heap();
  for (unsigned Lane = 0; Lane != lanes(); ++Lane) {
    H.setActiveLane(Lane);
    H.drainLaneMailbox(Lane);
  }
  bool Ok = !Failed;
  for (const LaneState &Lane : Lanes)
    Ok = Ok && Lane.Completed;
  return Ok && !Rt.outOfMemory();
}

void MutatorPool::threadMain(unsigned ThreadIdx) {
  SafepointCoordinator &SP = Rt.safepoints();
  SP.registerThread(static_cast<int>(ThreadIdx));

  std::unique_lock<std::mutex> Lock(TurnMu);
  while (!allDoneLocked()) {
    unsigned Lane = static_cast<unsigned>(Turn % Lanes.size());
    if (Lanes[Lane].Done) {
      // Any thread may retire a finished lane's turn; Turn stays a pure
      // function of lane progress, so the schedule is thread-agnostic.
      ++Turn;
      TurnCv.notify_all();
      continue;
    }
    if (Lane % NumThreads != ThreadIdx) {
      // Not our lane. Wait for the turnstile to move as a safepoint
      // blocked region: a collection on the active lane's thread must
      // not wait for us, and if one is in progress when we wake, the
      // region exit parks us until it resumes.
      uint64_t Cur = Turn;
      SP.enterBlockedRegion();
      TurnCv.wait(Lock, [&] { return Turn != Cur || allDoneLocked(); });
      SP.leaveBlockedRegion();
      continue;
    }

    // Our lane's turn: run the slice off-lock. No other thread can enter
    // a slice until Turn advances below, so heap access stays exclusive.
    uint64_t TurnIdx = Turn;
    Lock.unlock();
    bool Ok = runSlice(Lane, TurnIdx);
    Lock.lock();

    LaneState &State = Lanes[Lane];
    if (!Ok) {
      Failed = true;
      State.Done = true;
      ++DoneLanes;
    } else if (State.SetUpDone && State.M->steadyAllocatedBytes() >=
                                      State.M->targetBytes()) {
      State.Completed = true;
      State.Done = true;
      ++DoneLanes;
    }
    ++Turn;
    TurnCv.notify_all();
  }
  TurnCv.notify_all();
  Lock.unlock();
  SP.unregisterThread();
}

bool MutatorPool::runSlice(unsigned Lane, uint64_t TurnIdx) {
  Heap &H = Rt.heap();
  H.setActiveLane(Lane);
  // Deliver interrupts routed at this lane while other lanes ran; they
  // must land before the lane touches the heap again.
  H.drainLaneMailbox(Lane);
  if (Hook && !Hook(Lane, TurnIdx))
    return false;
  LaneState &State = Lanes[Lane];
  bool Ok;
  if (!State.SetUpDone) {
    Ok = State.M->setUp();
    State.SetUpDone = true;
  } else {
    Ok = State.M->step();
  }
  // An externally requested handshake (watchdog tests, a collector on
  // another thread) lands here, at a well-defined lane boundary.
  Rt.safepoints().pollAndPark();
  return Ok;
}
