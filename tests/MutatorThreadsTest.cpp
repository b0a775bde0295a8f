//===- tests/MutatorThreadsTest.cpp - Multi-threaded mutator tests --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The multi-threaded mutator engine under failure storms: the safepoint
// handshake (park, blocked regions, the hang watchdog), per-lane TLAB
// ownership and its auditor invariants, thread-targeted interrupt
// routing with the Routed == Delivered + Orphaned ledger, the
// lane-schedule determinism contract (bit-identical digests for any
// mutator thread count at a fixed lane count), and the PoolDriver's
// mark pumping under each pacing.
//
//===----------------------------------------------------------------------===//

#include "gc/HeapAuditor.h"
#include "gc/Safepoint.h"
#include "inject/FaultCampaign.h"
#include "os/OsKernel.h"
#include "workload/MutatorPool.h"
#include "workload/PoolDriver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

RuntimeConfig laneConfig(unsigned Lanes) {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = (8 * MiB) * Lanes;
  return Config;
}

/// First PCM-line-sized address of \p Line within \p B (the campaign's
/// targeting granularity).
uint8_t *lineAddr(Block &B, unsigned Line) {
  return B.base() + Line * B.lineSize();
}

} // namespace

//===----------------------------------------------------------------------===//
// Safepoint handshake
//===----------------------------------------------------------------------===//

TEST(SafepointTest, HandshakeParksEveryRunningPeer) {
  SafepointCoordinator SP;
  constexpr unsigned Peers = 3;
  std::atomic<bool> Done{false};
  std::atomic<unsigned> Ready{0};
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Peers; ++I)
    Threads.emplace_back([&, I] {
      SP.registerThread(static_cast<int>(I));
      ++Ready;
      while (!Done.load())
        SP.pollAndPark();
      SP.unregisterThread();
    });
  while (Ready.load() != Peers)
    std::this_thread::yield();

  // The caller is not registered; every peer must ack by parking.
  EXPECT_EQ(SP.stopTheWorld(), Peers);
  EXPECT_EQ(SP.stats().Stops, 1u);
  EXPECT_EQ(SP.stats().Parks, Peers);
  std::string Dump = SP.threadDump();
  EXPECT_NE(Dump.find("state=parked"), std::string::npos);

  Done.store(true);
  SP.resumeTheWorld();
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(SP.registeredThreads(), 0u);
}

TEST(SafepointTest, BlockedPeerCountsAsStoppedWithoutAnAck) {
  SafepointCoordinator SP;
  std::atomic<int> Phase{0}; // 0 starting, 1 blocked, 2 may leave.
  std::thread Peer([&] {
    SP.registerThread(0);
    // Simulates a thread stuck draining a backpressure stall: it cannot
    // poll, but the handshake must not wait for it.
    SP.enterBlockedRegion();
    Phase.store(1);
    while (Phase.load() != 2)
      std::this_thread::yield();
    // A handshake is in progress: leaving the blocked region must park
    // until the world resumes, not let the thread touch the heap.
    SP.leaveBlockedRegion();
    SP.unregisterThread();
  });
  while (Phase.load() != 1)
    std::this_thread::yield();

  EXPECT_EQ(SP.stopTheWorld(), 1u);
  EXPECT_EQ(SP.stats().BlockedAcks, 1u);
  EXPECT_EQ(SP.stats().Parks, 0u);

  // Release the peer mid-handshake; it must end up parked, not running.
  Phase.store(2);
  while (SP.statsSnapshot().Parks == 0)
    std::this_thread::yield();
  SP.resumeTheWorld();
  Peer.join();
  EXPECT_EQ(SP.stats().WatchdogFired, 0u);
}

TEST(SafepointTest, WatchdogFailStopsWithAThreadDump) {
  SafepointCoordinator SP;
  SP.setWatchdogBudget(3); // Three 100 us rounds, then fail-stop.
  std::string CapturedDump;
  unsigned HandlerCalls = 0;
  SP.setFailStopHandler([&](const std::string &Dump) {
    ++HandlerCalls;
    CapturedDump = Dump;
  });

  std::atomic<bool> Release{false};
  std::atomic<bool> Registered{false};
  std::thread Stuck([&] {
    SP.registerThread(7);
    Registered.store(true);
    // Never polls: a hung mutator from the coordinator's point of view.
    while (!Release.load())
      std::this_thread::yield();
    SP.unregisterThread();
  });
  while (!Registered.load())
    std::this_thread::yield();

  // The handshake can never complete; the watchdog must abandon it and
  // hand the handler a dump naming the unresponsive thread.
  EXPECT_EQ(SP.stopTheWorld(), 0u);
  EXPECT_EQ(HandlerCalls, 1u);
  EXPECT_EQ(SP.stats().WatchdogFired, 1u);
  EXPECT_NE(CapturedDump.find("lane=7"), std::string::npos);
  EXPECT_NE(CapturedDump.find("state=running"), std::string::npos);

  // The handler returned (tests override the default abort): the stop
  // request was withdrawn, so the world is free to make progress.
  Release.store(true);
  Stuck.join();
  EXPECT_EQ(SP.registeredThreads(), 0u);
}

TEST(SafepointTest, CrossThreadInterruptsSerializeOnTheHandlerMutex) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.MeanLineLifetime = 1000;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);

  std::atomic<unsigned> Concurrent{0};
  std::atomic<unsigned> MaxConcurrent{0};
  Kernel.registerHandler([&](const std::vector<FailureRecord> &) {
    unsigned Now = ++Concurrent;
    unsigned Prev = MaxConcurrent.load();
    while (Now > Prev && !MaxConcurrent.compare_exchange_weak(Prev, Now))
      ;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    --Concurrent;
  });

  uint8_t Data[PcmLineSize];
  std::memset(Data, 0x5A, sizeof(Data));
  Device.injectImminentFailure(5);
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Ok);

  // Two threads race handleFailures for the same pending batch. The
  // handler mutex must serialize them - the up-call never overlaps
  // itself, and nothing is lost or double-resolved.
  std::thread A([&] { Kernel.handleFailures(); });
  std::thread B([&] { Kernel.handleFailures(); });
  A.join();
  B.join();
  EXPECT_EQ(MaxConcurrent.load(), 1u);
  EXPECT_TRUE(Device.pendingFailures().empty());
  EXPECT_EQ(Kernel.stats().ReentrantInterrupts, 0u);
}

//===----------------------------------------------------------------------===//
// Lane-targeted interrupt routing
//===----------------------------------------------------------------------===//

TEST(InterruptRoutingTest, ForeignLaneInterruptsParkInTheMailbox) {
  Runtime Rt(laneConfig(2));
  Heap &H = Rt.heap();
  Rt.setMutatorLanes(2);

  // Give both lanes a live TLAB.
  H.setActiveLane(0);
  ASSERT_NE(Rt.allocate(64, 0), nullptr);
  H.setActiveLane(1);
  ASSERT_NE(Rt.allocate(64, 0), nullptr);
  Block *B1 = H.mutatorTlabBlock(1);
  ASSERT_NE(B1, nullptr);
  EXPECT_EQ(B1->ownerLane(), 1);

  // Lane 0 is running when a failure lands in lane 1's TLAB: it must
  // park in lane 1's mailbox, untouched until that lane's next turn.
  H.setActiveLane(0);
  std::vector<uint8_t *> Addrs{lineAddr(*B1, 3)};
  H.routeDynamicFailureBatch(Addrs);
  EXPECT_EQ(Rt.stats().InterruptsRouted, 1u);
  EXPECT_EQ(Rt.stats().InterruptsDelivered, 0u);
  EXPECT_EQ(H.laneMailboxDepth(1), 1u);

  // The owning lane's turn delivers it; the ledger balances.
  H.setActiveLane(1);
  EXPECT_EQ(H.drainLaneMailbox(1), 1u);
  EXPECT_EQ(H.laneMailboxDepth(1), 0u);
  EXPECT_EQ(Rt.stats().InterruptsDelivered, 1u);
  EXPECT_EQ(Rt.stats().InterruptsRouted,
            Rt.stats().InterruptsDelivered + Rt.stats().InterruptsOrphaned);
}

TEST(InterruptRoutingTest, ActiveLaneInterruptsInjectImmediately) {
  Runtime Rt(laneConfig(2));
  Heap &H = Rt.heap();
  Rt.setMutatorLanes(2);

  H.setActiveLane(0);
  ASSERT_NE(Rt.allocate(64, 0), nullptr);
  Block *B0 = H.mutatorTlabBlock(0);
  ASSERT_NE(B0, nullptr);

  std::vector<uint8_t *> Addrs{lineAddr(*B0, 2)};
  H.routeDynamicFailureBatch(Addrs);
  EXPECT_EQ(Rt.stats().InterruptsRouted, 1u);
  EXPECT_EQ(Rt.stats().InterruptsDelivered, 1u);
  EXPECT_EQ(H.laneMailboxDepth(0), 0u);
  EXPECT_EQ(H.laneMailboxDepth(1), 0u);
}

TEST(InterruptRoutingTest, UnownedBlockInterruptsOrphanToTheDeferredQueue) {
  Runtime Rt(laneConfig(2));
  Heap &H = Rt.heap();
  Rt.setMutatorLanes(2);

  // Fill lane 0's first TLAB until the allocator moves on; the filled
  // block's ownership lapses, so a failure there has no thread to go to.
  H.setActiveLane(0);
  ASSERT_NE(Rt.allocate(64, 0), nullptr);
  Block *First = H.mutatorTlabBlock(0);
  ASSERT_NE(First, nullptr);
  while (H.mutatorTlabBlock(0) == First)
    ASSERT_NE(Rt.allocate(64, 0), nullptr);
  EXPECT_EQ(First->ownerLane(), -1);

  std::vector<uint8_t *> Addrs{lineAddr(*First, 1)};
  H.routeDynamicFailureBatch(Addrs);
  EXPECT_EQ(Rt.stats().InterruptsRouted, 1u);
  EXPECT_EQ(Rt.stats().InterruptsOrphaned, 1u);
  EXPECT_TRUE(H.pendingFailureRecovery());

  // The next collection's end-of-cycle safepoint drains the orphan into
  // the normal dynamic-failure path: the batch lands (lines fenced,
  // recovery re-flagged), and the following full collection pays the
  // recovery debt.
  Rt.collect(true);
  EXPECT_GE(Rt.stats().FailedLinesDynamic, 1u);
  EXPECT_TRUE(H.pendingFailureRecovery());
  Rt.collect(true);
  EXPECT_FALSE(H.pendingFailureRecovery());
  EXPECT_EQ(Rt.stats().InterruptsRouted,
            Rt.stats().InterruptsDelivered + Rt.stats().InterruptsOrphaned);
}

TEST(InterruptRoutingTest, CampaignParsesThreadTargetsAndHandshakeKillPoint) {
  std::string Error;
  auto Triggers = FaultCampaign::parseSchedule(
      "storm@alloc:1m+256k:lines=8,thread=0", &Error);
  ASSERT_TRUE(Triggers.has_value()) << Error;
  ASSERT_EQ(Triggers->size(), 1u);
  EXPECT_EQ((*Triggers)[0].ThreadTarget, 0); // Lane 0 is a valid target.
  EXPECT_EQ((*Triggers)[0].Lines, 8u);

  Triggers = FaultCampaign::parseSchedule("storm@gc:4:lines=4,thread=3");
  ASSERT_TRUE(Triggers.has_value());
  EXPECT_EQ((*Triggers)[0].ThreadTarget, 3);

  // thread= is a storm-only option.
  EXPECT_FALSE(
      FaultCampaign::parseSchedule("drip@alloc:1m:thread=1", &Error)
          .has_value());
  EXPECT_NE(Error.find("thread"), std::string::npos);

  // The handshake window is an armable kill point.
  Triggers = FaultCampaign::parseSchedule("crash@gc:2:at=handshake", &Error);
  ASSERT_TRUE(Triggers.has_value()) << Error;
  EXPECT_EQ((*Triggers)[0].CrashAt, CrashPoint::SafepointHandshake);
  EXPECT_STREQ(crashPointName(CrashPoint::SafepointHandshake),
               "safepoint-handshake");
}

//===----------------------------------------------------------------------===//
// TLAB auditor invariants
//===----------------------------------------------------------------------===//

TEST(TlabAuditTest, ForeignOwnerTagIsAViolation) {
  Runtime Rt(laneConfig(2));
  Heap &H = Rt.heap();
  Rt.setMutatorLanes(2);
  H.setActiveLane(0);
  ASSERT_NE(Rt.allocate(64, 0), nullptr);
  Block *B0 = H.mutatorTlabBlock(0);
  ASSERT_NE(B0, nullptr);

  HeapAuditor Auditor(H);
  EXPECT_TRUE(Auditor.audit().passed());

  // Tamper: lane 0's TLAB claims to belong to lane 1. The auditor must
  // refuse the heap - thread-targeted fault delivery relies on the tag.
  B0->setOwnerLane(1);
  AuditReport Tampered = Auditor.audit();
  EXPECT_FALSE(Tampered.passed());

  B0->setOwnerLane(0);
  EXPECT_TRUE(Auditor.audit().passed());
}

//===----------------------------------------------------------------------===//
// The mutator pool: schedule determinism and the acceptance storm
//===----------------------------------------------------------------------===//

TEST(MutatorPoolTest, DigestIsBitIdenticalAcrossThreadCounts) {
  constexpr unsigned Lanes = 4;
  uint64_t Digests[3] = {};
  uint64_t GcCounts[3] = {};
  unsigned I = 0;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Runtime Rt(laneConfig(Lanes));
    MutatorPoolOptions Opts;
    Opts.Lanes = Lanes;
    Opts.Threads = Threads;
    Opts.Seed = 99;
    Opts.VolumeScale = 0.25;
    MutatorPool Pool(Rt, *findProfile("luindex"), Opts);
    ASSERT_TRUE(Pool.run());
    Rt.collect(true);
    HeapAuditor Auditor(Rt.heap());
    EXPECT_TRUE(Auditor.audit().passed());
    Digests[I] = Auditor.digest(/*HashPayload=*/true);
    GcCounts[I] = Rt.stats().GcCount;
    ++I;
  }
  // The lane turnstile owns the allocation order: OS thread scheduling
  // must be invisible in the heap it builds.
  EXPECT_EQ(Digests[0], Digests[1]);
  EXPECT_EQ(Digests[0], Digests[2]);
  EXPECT_EQ(GcCounts[0], GcCounts[1]);
  EXPECT_EQ(GcCounts[0], GcCounts[2]);
}

TEST(MutatorPoolTest, TurnHookSeesEveryLaneAndCanAbort) {
  Runtime Rt(laneConfig(2));
  MutatorPoolOptions Opts;
  Opts.Lanes = 2;
  Opts.Threads = 2;
  Opts.VolumeScale = 0.05;
  MutatorPool Pool(Rt, *findProfile("luindex"), Opts);
  std::vector<bool> Seen(2, false);
  Pool.setTurnHook([&](unsigned Lane, uint64_t Turn) {
    Seen[Lane] = true;
    return Turn < 10; // Abort the run on the 11th turn.
  });
  EXPECT_FALSE(Pool.run());
  EXPECT_TRUE(Pool.failed());
  EXPECT_TRUE(Seen[0]);
  EXPECT_TRUE(Seen[1]);
}

TEST(PoolDriverTest, DrivesMarkCyclesExactlyWhenTheRuntimePacesThem) {
  enum class Pacing { Interleaved, Concurrent, StopTheWorld };
  for (Pacing M :
       {Pacing::Interleaved, Pacing::Concurrent, Pacing::StopTheWorld}) {
    RuntimeConfig Config = laneConfig(2);
    Config.IncrementalMark = M == Pacing::Interleaved;
    Config.ConcurrentMark = M == Pacing::Concurrent;
    Runtime Rt(Config);
    MutatorPoolOptions Opts;
    Opts.Lanes = 2;
    Opts.Threads = 2;
    Opts.VolumeScale = 0.25;
    PoolDriver Driver(Rt, *findProfile("luindex"), Opts);
    ASSERT_TRUE(Driver.run());
    Driver.flushMark();
    const HeapStats &S = Rt.stats();
    if (M == Pacing::StopTheWorld) {
      EXPECT_EQ(S.IncrementalCyclesOpened, 0u);
    } else {
      EXPECT_GE(S.IncrementalCyclesOpened, 1u);
      EXPECT_EQ(S.IncrementalCyclesClosed, S.IncrementalCyclesOpened);
    }
    EXPECT_FALSE(Rt.incrementalCycleOpen());
  }
}

TEST(MutatorPoolTest, HandshakeStormSoakHasNoFailStopsAndNoLostInterrupts) {
  // The PR's acceptance soak: 100 iterations, each one an explicit
  // stop-the-world handshake from the active mutator thread plus a
  // thread-targeted storm batch aimed at a rotating lane's TLAB. Zero
  // watchdog fail-stops, zero lost interrupts (ledger-verified), and a
  // clean final audit are required.
  constexpr unsigned Lanes = 4;
  constexpr uint64_t Iterations = 100;
  Runtime Rt(laneConfig(Lanes));
  Heap &H = Rt.heap();

  std::atomic<unsigned> FailStops{0};
  Rt.safepoints().setFailStopHandler(
      [&](const std::string &) { ++FailStops; });

  MutatorPoolOptions Opts;
  Opts.Lanes = Lanes;
  Opts.Threads = 4;
  Opts.Seed = 1234;
  Opts.VolumeScale = 0.5;
  MutatorPool Pool(Rt, *findProfile("luindex"), Opts);

  uint64_t Injected = 0;
  uint64_t Handshakes = 0;
  Pool.setTurnHook([&](unsigned Lane, uint64_t Turn) {
    if (Turn % 512 != 0 || Handshakes >= Iterations)
      return true;
    ++Handshakes;
    // Storm one line of a rotating victim lane's TLAB. Targeting a
    // foreign lane routes through its mailbox; targeting the active
    // lane injects immediately; a lane between TLABs is skipped (the
    // campaign's dry-firing case).
    unsigned Victim = static_cast<unsigned>(Handshakes % Lanes);
    if (Block *B = H.mutatorTlabBlock(Victim)) {
      std::vector<uint8_t *> Addrs{
          lineAddr(*B, static_cast<unsigned>(Handshakes) % 8)};
      H.routeDynamicFailureBatch(Addrs);
      ++Injected;
    }
    // An explicit handshake from the active mutator thread: every peer
    // is waiting on the turnstile inside a blocked region, so the stop
    // must complete without a single watchdog round of help from them.
    (void)Lane;
    Rt.safepoints().stopTheWorld();
    Rt.safepoints().resumeTheWorld();
    return true;
  });

  ASSERT_TRUE(Pool.run());
  EXPECT_EQ(Handshakes, Iterations);
  EXPECT_EQ(FailStops.load(), 0u);
  EXPECT_EQ(Rt.safepoints().stats().WatchdogFired, 0u);

  // Ledger: every routed interrupt was delivered or orphaned; nothing
  // is still parked in a mailbox.
  const HeapStats &S = Rt.stats();
  EXPECT_EQ(S.InterruptsRouted, Injected);
  EXPECT_EQ(S.InterruptsRouted,
            S.InterruptsDelivered + S.InterruptsOrphaned);
  for (unsigned Lane = 0; Lane != Lanes; ++Lane)
    EXPECT_EQ(H.laneMailboxDepth(Lane), 0u);

  if (H.pendingFailureRecovery())
    Rt.collect(true);
  HeapAuditor Auditor(H);
  AuditReport Report = Auditor.audit();
  for (const std::string &V : Report.Violations)
    ADD_FAILURE() << "audit violation: " << V;
  EXPECT_TRUE(Report.passed());
}
