//===- gc/Safepoint.h - Stop-the-world safepoint handshake ------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Cooperative stop-the-world handshake for multi-threaded mutators, in
/// the shape of bdwgc's pthread_stop_world: the collector publishes a
/// stop request, every registered mutator thread acks by parking at its
/// next poll, and the collector proceeds once all threads are accounted
/// for. Two refinements make it failure-storm safe:
///
///  * Blocked regions. A thread about to enter code that can stall for
///    an unbounded stretch (a mutator turnstile wait) brackets it with
///    enterBlockedRegion/leaveBlockedRegion. A blocked thread counts as
///    "at safepoint" - it cannot touch the heap - so a thread wedged
///    waiting for its turn can never deadlock a collection. Leaving the
///    region re-checks the stop flag and parks if a handshake is in
///    progress.
///
///  * Watchdog. The collector's wait is sliced into bounded condvar
///    rounds ("virtual time" - real nanoseconds never influence
///    deterministic state). If a thread fails to ack within the
///    configured round budget the coordinator fail-stops through a
///    pluggable handler, passing a diagnostic thread dump. The default
///    handler prints the dump and aborts; tests install a capturing
///    handler instead.
///
/// Park counts, wait rounds, and handshake latencies are schedule
/// dependent and therefore live in the Timing obs domain only.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_GC_SAFEPOINT_H
#define WEARMEM_GC_SAFEPOINT_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace wearmem {

/// Schedule-dependent handshake counters (Timing domain; never part of
/// determinism comparisons).
struct SafepointStats {
  uint64_t Stops = 0;         ///< stopTheWorld calls that had peers to stop.
  uint64_t Parks = 0;         ///< Threads parked across all handshakes.
  uint64_t WaitRounds = 0;    ///< Collector condvar rounds spent waiting.
  uint64_t BlockedAcks = 0;   ///< Threads counted via a blocked region.
  uint64_t WatchdogFired = 0; ///< Fail-stops raised by the watchdog.
  uint64_t FlushHandshakes = 0; ///< flushHandshake calls with peers parked.
};

class SafepointCoordinator {
public:
  /// Wait-round budget before the watchdog fail-stops (virtual time: one
  /// round is one bounded condvar wait, not a wall-clock unit).
  static constexpr uint64_t DefaultWatchdogBudget = 100000;

  SafepointCoordinator();

  /// Registers the calling thread as a mutator. \p Lane tags the thread
  /// in diagnostics (-1 = unknown).
  void registerThread(int Lane = -1);
  void unregisterThread();
  size_t registeredThreads() const;

  /// Collector side. Publishes a stop request and waits until every
  /// registered thread other than the caller is parked or blocked.
  /// Returns the number of threads stopped. No-op (returns 0) when no
  /// other thread is registered.
  size_t stopTheWorld();
  void resumeTheWorld();

  /// Flush-only handshake for concurrent marking: parks registered peers
  /// just long enough to run \p Sealed (sealing per-lane SATB buffers
  /// into the shared log), then resumes them immediately. Reuses the
  /// stop/park machinery - including blocked-region accounting and the
  /// watchdog - but is accounted separately (FlushHandshakes) because it
  /// is a sub-pause, not a collection stop. Returns the number of
  /// threads it had to park.
  size_t flushHandshake(const std::function<void()> &Sealed);

  /// Mutator side: acks and parks if a stop request is pending. Returns
  /// true if the thread parked. Unregistered threads return false.
  bool pollAndPark();

  /// Brackets an unbounded stall (a turnstile wait).
  /// Safe to call from unregistered threads (no-op). leaveBlockedRegion
  /// parks until resume if a handshake is in progress.
  void enterBlockedRegion();
  void leaveBlockedRegion();

  /// Watchdog configuration. The handler receives a diagnostic thread
  /// dump; returning from it abandons the handshake wait (stopTheWorld
  /// returns with however many threads did ack). The default handler
  /// prints the dump to stderr and aborts.
  void setWatchdogBudget(uint64_t Rounds) { WatchdogBudget = Rounds; }
  void setFailStopHandler(std::function<void(const std::string &)> H) {
    FailStop = std::move(H);
  }

  /// Human-readable state of every registered thread.
  std::string threadDump() const;

  /// Unsynchronized view; valid once peers have quiesced (post-join,
  /// post-handshake reporting).
  const SafepointStats &stats() const { return Stats; }

  /// Mutex-synchronized copy, safe to poll while peers are still
  /// registering, parking, or acking.
  SafepointStats statsSnapshot() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return Stats;
  }

private:
  enum class ThreadState : uint8_t { Running, Parked, Blocked };

  struct Slot {
    std::thread::id Tid;
    int Lane = -1;
    ThreadState State = ThreadState::Running;
    uint64_t Parks = 0;
  };

  Slot *findSlotLocked(std::thread::id Tid);
  const Slot *findSlotLocked(std::thread::id Tid) const;
  /// All registered threads except \p Self parked or blocked?
  bool allStoppedLocked(std::thread::id Self) const;
  std::string threadDumpLocked() const;
  void parkLocked(std::unique_lock<std::mutex> &Lock, Slot &S);

  mutable std::mutex Mu;
  std::condition_variable StateChanged; ///< Mutator -> collector acks.
  std::condition_variable Resumed;      ///< Collector -> mutator wakeups.
  std::vector<Slot> Slots;
  std::atomic<bool> StopRequested{false};
  uint64_t WatchdogBudget = DefaultWatchdogBudget;
  std::function<void(const std::string &)> FailStop;
  SafepointStats Stats;
};

} // namespace wearmem

#endif // WEARMEM_GC_SAFEPOINT_H
