//===- gc/ConcurrentMarker.cpp - Dedicated concurrent mark thread ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "gc/ConcurrentMarker.h"

#include "gc/Heap.h"
#include "obs/Hooks.h"

using namespace wearmem;

ConcurrentMarker::ConcurrentMarker(Heap &H)
    : H(H), Thread([this] { threadMain(); }) {}

ConcurrentMarker::~ConcurrentMarker() { shutdown(); }

void ConcurrentMarker::cycleOpened() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Armed = true;
    WorkHint = true;
  }
  Cv.notify_all();
  WEARMEM_COUNT_TIMING("gc.cm.wakes");
}

void ConcurrentMarker::quiesce() {
  std::unique_lock<std::mutex> Lock(Mu);
  if (!Armed && Quiet)
    return;
  QuiesceWanted = true;
  Cv.notify_all();
  Cv.wait(Lock, [this] { return Quiet; });
  Armed = false;
  WorkHint = false;
  QuiesceWanted = false;
}

void ConcurrentMarker::shutdown() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    if (ShutdownFlag)
      return;
    ShutdownFlag = true;
  }
  Cv.notify_all();
  if (Thread.joinable())
    Thread.join();
}

void ConcurrentMarker::threadMain() {
  std::unique_lock<std::mutex> Lock(Mu);
  while (!ShutdownFlag) {
    if (QuiesceWanted || !Armed || !WorkHint) {
      // Nothing runnable. Publish quiescence if a close is waiting on
      // it, then sleep until re-armed, nudged, or shut down.
      if (!Quiet) {
        Quiet = true;
        Cv.notify_all();
      }
      WEARMEM_COUNT_TIMING("gc.cm.parks");
      // Sleep until there is something to *run*. QuiesceWanted must not
      // wake us here - quiescence was already published above, and a
      // predicate that stays true would turn this wait into a spin that
      // never releases Mu, starving the quiesce() waiter.
      Cv.wait(Lock, [this] {
        return ShutdownFlag || (!QuiesceWanted && Armed && WorkHint);
      });
      continue;
    }
    // Runnable: consume the hint, drop the lock, run one bounded slice.
    // The slice's budget keeps quiesce() latency bounded even against a
    // mutator that floods the frontier.
    Quiet = false;
    WorkHint = false;
    Lock.unlock();
    bool More = H.concurrentMarkSlice();
    Lock.lock();
    WEARMEM_COUNT_TIMING("gc.cm.slices");
    if (More)
      WorkHint = true;
  }
  // Shutting down mid-slice state: leave Quiet as-is; joiners only need
  // the thread gone.
}
