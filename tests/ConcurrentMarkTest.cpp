//===- tests/ConcurrentMarkTest.cpp - Concurrent SATB marking tests -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The mostly-concurrent marking contract: a cycle drained by the
// dedicated marker thread, racing a reference-store mutation storm and
// paced only by flush handshakes, ends in a heap bit-identical to both
// the interleaved incremental mode and a stop-the-world full collection
// at the same point in the mutation history - across GC worker counts,
// across marker slice quotas, across mutator thread counts, and with
// dynamic failures landing while the marker is running.
//
// The timing side (pause bound, mutator-attributed mark time) is the
// perf05 gate's job; this file pins semantics only, so it stays
// meaningful under TSan.
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/HeapAuditor.h"
#include "workload/MutatorPool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

/// The three pacings of the same cycle machinery under test. Stw never
/// opens a cycle; Interleaved pumps incrementalMarkStep() from the
/// mutator; Concurrent arms the marker thread and only ever issues
/// flush handshakes from the mutator.
enum class Mode { Stw, Interleaved, Concurrent };

HeapConfig markConfig(Mode M, unsigned GcThreads,
                      unsigned MarkBudget = 256) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (32 * MiB) / PcmPageSize;
  Config.GcThreads = GcThreads;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = 7;
  Config.DefragFreeFraction = 0.35;
  Config.IncrementalMark = M == Mode::Interleaved;
  Config.ConcurrentMark = M == Mode::Concurrent;
  Config.MarkBudget = MarkBudget;
  return Config;
}

/// Builds NumLists rooted linked lists (slot 0 = next, slot 1 = a
/// cross-link slot) and returns the head root indices. Every fourth
/// node carries a "satellite" object reachable only through that one
/// cross link; the storm shuffles those around. Payloads are stamped so
/// payload-hashing digests mean something.
std::vector<unsigned> buildLists(Heap &Hp, unsigned NumLists,
                                 unsigned ListLen) {
  std::vector<unsigned> Heads;
  for (unsigned L = 0; L != NumLists; ++L) {
    unsigned HeadRoot = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != ListLen; ++I) {
      ObjRef Node = Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/2);
      if (!Node)
        break;
      *reinterpret_cast<uint64_t *>(objectPayload(Node)) =
          (uint64_t(L) << 32) | I;
      if (I % 4 == 0) {
        ObjRef Sat = Hp.allocate(/*PayloadBytes=*/32, /*NumRefs=*/0);
        if (Sat) {
          *reinterpret_cast<uint64_t *>(objectPayload(Sat)) =
              0x5A7ull << 32 | (uint64_t(L) << 16) | I;
          Hp.writeRef(Node, 1, Sat);
        }
      }
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(HeadRoot, Node);
    }
    Heads.push_back(HeadRoot);
  }
  return Heads;
}

ObjRef walk(ObjRef Node, unsigned Steps) {
  for (unsigned I = 0; I != Steps && Node; ++I) {
    ObjRef Next = Heap::readRef(Node, 0);
    if (!Next)
      break;
    Node = Next;
  }
  return Node;
}

/// One deterministic reference-store mutation: swap two nodes' slot-1
/// cross links (or rewrite a head root with its own value). Swaps
/// permute the satellites without dropping one, so the live set evolves
/// identically whatever pacing drains the mark work - but between the
/// two writes a satellite's only strong reference is gone, which is
/// exactly the window the racing marker thread must be protected from
/// by the deletion log.
void mutationOp(Heap &Hp, const std::vector<unsigned> &Heads, uint64_t I) {
  uint64_t H = (I + 1) * 0x9E3779B97F4A7C15ull;
  unsigned L1 = static_cast<unsigned>((H >> 8) % Heads.size());
  unsigned L2 = static_cast<unsigned>((H >> 24) % Heads.size());
  if ((H & 7) == 0) {
    Hp.setRoot(Heads[L1], Hp.root(Heads[L1]));
    return;
  }
  ObjRef A = walk(Hp.root(Heads[L1]), static_cast<unsigned>((H >> 40) % 37));
  ObjRef B = walk(Hp.root(Heads[L2]), static_cast<unsigned>((H >> 48) % 37));
  if (!A || !B || A == B)
    return;
  ObjRef Ta = Heap::readRef(A, 1);
  ObjRef Tb = Heap::readRef(B, 1);
  Hp.writeRef(A, 1, Tb);
  Hp.writeRef(B, 1, Ta);
}

struct LegResult {
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t FailedLinesDynamic = 0;
  uint64_t PinnedFailurePageRemaps = 0;
  uint64_t ObjectsMarked = 0;
  uint64_t BytesTraced = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t MarkIncrements = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;
};

constexpr unsigned StormBatches = 40;
constexpr unsigned OpsPerBatch = 50;

/// Runs one leg: build, then a write storm. The marking legs open a
/// cycle first; the interleaved leg steps once per batch while the
/// concurrent leg issues one flush handshake per batch (the marker
/// thread drains in the background on its own schedule). All legs
/// close with the cycle's full collection at the same point in the
/// mutation history, then a settling full collection, then digest.
///
/// Determinism scoping: the marker's *schedule* is free-running, but
/// every deterministic observable - the heap digest, the allocation
/// and collection counters, the trace totals merged in worker order at
/// the close, and the SATB ledger (logged at the barrier, drained
/// exactly once) - is a pure function of the mutation history and the
/// open/close points, which this harness pins to identical batch
/// boundaries across all three modes.
LegResult runLeg(Mode M, unsigned GcThreads, unsigned MarkBudget,
                 bool MidCycleFailure) {
  Heap Hp(markConfig(M, GcThreads, MarkBudget));
  std::vector<unsigned> Heads = buildLists(Hp, 4, 2500);
  // A pinned fail target: never moves, keeps its block held, so the
  // fence lands on the same address in every leg.
  ObjRef Pinned = Hp.allocate(64, 0, /*Pinned=*/true);
  EXPECT_NE(Pinned, nullptr);
  Hp.createRoot(Pinned);
  EXPECT_FALSE(Hp.outOfMemory());

  if (M != Mode::Stw) {
    EXPECT_TRUE(Hp.beginIncrementalMarkCycle());
  }
  for (unsigned Batch = 0; Batch != StormBatches; ++Batch) {
    for (unsigned I = 0; I != OpsPerBatch; ++I)
      mutationOp(Hp, Heads, uint64_t(Batch) * OpsPerBatch + I);
    if (MidCycleFailure && Batch == StormBatches / 2 && M != Mode::Stw) {
      // Mid-cycle failure with the marker live: must park (the whole
      // cycle is a mark phase), not fence lines under the tracer.
      uint64_t DeferredBefore = Hp.stats().MarkPhaseDeferredInterrupts;
      Hp.injectDynamicFailureBatch({Pinned});
      EXPECT_EQ(Hp.stats().MarkPhaseDeferredInterrupts,
                DeferredBefore + 1);
      EXPECT_EQ(Hp.stats().FailedLinesDynamic, 0u)
          << "failure applied while the cycle was open";
    }
    if (M == Mode::Interleaved)
      Hp.incrementalMarkStep();
    else if (M == Mode::Concurrent)
      Hp.satbFlushHandshake();
  }
  if (M != Mode::Stw) {
    Hp.finishIncrementalMarkCycle(); // Quiesces the marker, drains all.
    EXPECT_FALSE(Hp.incrementalCycleOpen());
  } else {
    Hp.collect(CollectionKind::Full);
    if (MidCycleFailure)
      // The marking legs fence at the post-close drain; match that
      // point in virtual time.
      Hp.injectDynamicFailureBatch({Pinned});
  }
  Hp.collect(CollectionKind::Full); // Settle.

  HeapAuditor Auditor(Hp);
  LegResult R;
  R.Digest = Auditor.digest(/*HashPayload=*/true);
  EXPECT_TRUE(Auditor.audit().passed());
  const HeapStats &S = Hp.stats();
  R.GcCount = S.GcCount;
  R.FullGcCount = S.FullGcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.BytesAllocated = S.BytesAllocated;
  R.FailedLinesDynamic = S.FailedLinesDynamic;
  R.PinnedFailurePageRemaps = S.PinnedFailurePageRemaps;
  R.ObjectsMarked = S.ObjectsMarked;
  R.BytesTraced = S.BytesTraced;
  R.ObjectsEvacuated = S.ObjectsEvacuated;
  R.MarkIncrements = S.MarkIncrements;
  R.SatbLogged = S.SatbLogged;
  R.SatbDrained = S.SatbDrained;
  return R;
}

/// Observables every mode must agree on, including stop-the-world.
void expectCrossModeEqual(const LegResult &A, const LegResult &B,
                          const char *What) {
  EXPECT_EQ(A.Digest, B.Digest) << What;
  EXPECT_EQ(A.GcCount, B.GcCount) << What;
  EXPECT_EQ(A.FullGcCount, B.FullGcCount) << What;
  EXPECT_EQ(A.ObjectsAllocated, B.ObjectsAllocated) << What;
  EXPECT_EQ(A.BytesAllocated, B.BytesAllocated) << What;
  EXPECT_EQ(A.FailedLinesDynamic, B.FailedLinesDynamic) << What;
  EXPECT_EQ(A.PinnedFailurePageRemaps, B.PinnedFailurePageRemaps) << What;
  EXPECT_EQ(A.ObjectsMarked, B.ObjectsMarked) << What;
  EXPECT_EQ(A.BytesTraced, B.BytesTraced) << What;
  EXPECT_EQ(A.ObjectsEvacuated, B.ObjectsEvacuated) << What;
}

/// The marking modes additionally share the SATB ledger: the barrier
/// logs unconditionally while a cycle is open, so with identical
/// open/close points the log is the same whether steps or the marker
/// thread drain it. MarkIncrements is deliberately excluded - it
/// counts mutator-side steps, which the concurrent mode has none of.
void expectMarkingLegsEqual(const LegResult &A, const LegResult &B,
                            const char *What) {
  expectCrossModeEqual(A, B, What);
  EXPECT_EQ(A.SatbLogged, B.SatbLogged) << What;
  EXPECT_EQ(A.SatbDrained, B.SatbDrained) << What;
}

/// Objects for the fixup-barrier test: A (one slot, naming C) and C
/// share a block; V sits at the start of the next one, whose last line
/// fails before the cycle opens, so V's block - and only V's - is an
/// evacuation candidate of the cycle.
struct BarrierFixture {
  ObjRef A = nullptr;
  ObjRef C = nullptr;
  ObjRef V = nullptr;
  unsigned RootA = 0;
  unsigned RootV = 0;
};

BarrierFixture buildBarrierFixture(Heap &Hp) {
  ImmixSpace &Space = *Hp.immixSpace();
  BarrierFixture F;
  F.A = Hp.allocate(/*PayloadBytes=*/16, /*NumRefs=*/1);
  F.C = Hp.allocate(/*PayloadBytes=*/16, /*NumRefs=*/0);
  if (!F.A || !F.C)
    return F;
  Hp.writeRef(F.A, 0, F.C);
  F.RootA = Hp.createRoot(F.A);
  // Unrooted filler runs A's block out, so V starts a block of its own.
  do
    F.V = Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/0);
  while (F.V && Space.blockOf(F.V) == Space.blockOf(F.A));
  if (!F.V)
    return F;
  *reinterpret_cast<uint64_t *>(objectPayload(F.V)) = 0xF1C5ull;
  F.RootV = Hp.createRoot(F.V);
  Block *VBlock = Space.blockOf(F.V);
  Hp.injectDynamicFailureBatch({VBlock->lineAddr(VBlock->lineCount() - 1)});
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Lifecycle and gating
//===----------------------------------------------------------------------===//

TEST(ConcurrentMarkTest, LifecycleArmsAndQuiescesTheMarker) {
  Heap Hp(markConfig(Mode::Concurrent, /*GcThreads=*/2));
  buildLists(Hp, 1, 200);
  // No cycle open: a flush handshake is a no-op, not a crash.
  Hp.satbFlushHandshake();
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  EXPECT_FALSE(Hp.beginIncrementalMarkCycle()) << "no nested cycles";
  EXPECT_TRUE(Hp.incrementalCycleOpen());
  Hp.satbFlushHandshake();
  // An explicit collection demand quiesces the marker and closes.
  Hp.collect(CollectionKind::Full);
  EXPECT_FALSE(Hp.incrementalCycleOpen());
  EXPECT_EQ(Hp.stats().IncrementalCyclesOpened, 1u);
  EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 1u);
  // The concurrent mode never takes mutator-side mark steps.
  EXPECT_EQ(Hp.stats().MarkIncrements, 0u);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

TEST(ConcurrentMarkTest, BackToBackCyclesReuseTheMarkerThread) {
  // One marker thread serves the heap's whole lifetime; every cycle
  // re-arms it and every close quiesces it. Three consecutive cycles
  // with mutation in between must each converge and stay auditable.
  Heap Hp(markConfig(Mode::Concurrent, /*GcThreads=*/4));
  std::vector<unsigned> Heads = buildLists(Hp, 2, 800);
  for (unsigned Cycle = 0; Cycle != 3; ++Cycle) {
    ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
    for (unsigned I = 0; I != 200; ++I)
      mutationOp(Hp, Heads, uint64_t(Cycle) * 200 + I);
    Hp.satbFlushHandshake();
    for (unsigned I = 0; I != 200; ++I)
      mutationOp(Hp, Heads, 1000 + uint64_t(Cycle) * 200 + I);
    Hp.finishIncrementalMarkCycle();
    EXPECT_FALSE(Hp.incrementalCycleOpen());
    EXPECT_EQ(Hp.stats().SatbDrained, Hp.stats().SatbLogged)
        << "cycle " << Cycle << " left SATB entries behind";
  }
  EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 3u);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

TEST(ConcurrentMarkTest, AllocationDuringCycleSurvivesTheClose) {
  Heap Hp(markConfig(Mode::Concurrent, /*GcThreads=*/2));
  buildLists(Hp, 2, 500);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  // Births during the cycle are allocated black: kept by the closing
  // sweep even though the snapshot never reached them, with the marker
  // thread racing the whole time.
  unsigned NewRoot = Hp.createRoot(nullptr);
  for (unsigned I = 0; I != 300; ++I) {
    ObjRef Node = Hp.allocate(40, 1);
    ASSERT_NE(Node, nullptr);
    *reinterpret_cast<uint64_t *>(objectPayload(Node)) = 0xB1A0000 + I;
    if (ObjRef Head = Hp.root(NewRoot))
      Hp.writeRef(Node, 0, Head);
    Hp.setRoot(NewRoot, Node);
    if (I % 50 == 25)
      Hp.satbFlushHandshake();
  }
  ObjRef Large = Hp.allocate(16 * 1024, 0);
  ASSERT_NE(Large, nullptr);
  std::memset(objectPayload(Large), 0x5A, 16 * 1024);
  unsigned LargeRoot = Hp.createRoot(Large);
  Hp.finishIncrementalMarkCycle();
  ObjRef Node = Hp.root(NewRoot);
  for (unsigned I = 0; I != 300; ++I) {
    ASSERT_NE(Node, nullptr);
    EXPECT_EQ(*reinterpret_cast<uint64_t *>(objectPayload(Node)),
              0xB1A0000 + (299 - I));
    Node = Heap::readRef(Node, 0);
  }
  uint8_t *P = objectPayload(Hp.root(LargeRoot));
  for (unsigned I = 0; I != 16 * 1024; ++I)
    ASSERT_EQ(P[I], 0x5A);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

//===----------------------------------------------------------------------===//
// Equivalence with stop-the-world and interleaved marking
//===----------------------------------------------------------------------===//

TEST(ConcurrentMarkTest, MatchesStopTheWorldAndInterleavedAcrossWorkers) {
  LegResult Stw = runLeg(Mode::Stw, 1, 256, /*MidCycleFailure=*/false);
  LegResult Inter = runLeg(Mode::Interleaved, 1, 256, false);
  expectCrossModeEqual(Inter, Stw, "interleaved vs STW");
  LegResult ConcSerial = runLeg(Mode::Concurrent, 1, 256, false);
  expectCrossModeEqual(ConcSerial, Stw, "concurrent(1 worker) vs STW");
  expectMarkingLegsEqual(ConcSerial, Inter,
                         "concurrent vs interleaved SATB ledger");
  EXPECT_GT(ConcSerial.SatbLogged, 0u)
      << "storm must exercise the barrier";
  EXPECT_EQ(ConcSerial.SatbDrained, ConcSerial.SatbLogged)
      << "every logged deletion must eventually drain";
  EXPECT_EQ(ConcSerial.MarkIncrements, 0u);
  for (unsigned Workers : {2u, 4u, 8u}) {
    LegResult Conc = runLeg(Mode::Concurrent, Workers, 256, false);
    expectMarkingLegsEqual(Conc, ConcSerial, "worker-count divergence");
    expectCrossModeEqual(Conc, Stw, "concurrent(N workers) vs STW");
  }
}

TEST(ConcurrentMarkTest, FinalHeapIsIndependentOfMarkerSliceQuota) {
  // MarkBudget in concurrent mode is the marker's per-slice quota: it
  // shapes the marker's pause/latency trade-off, never the outcome.
  // Budget 0 exercises DefaultMarkerSliceQuota.
  LegResult Base = runLeg(Mode::Concurrent, 2, 256, false);
  for (unsigned Budget : {0u, 64u, 4096u}) {
    LegResult R = runLeg(Mode::Concurrent, 2, Budget, false);
    expectMarkingLegsEqual(R, Base, "slice quota changed the outcome");
  }
  LegResult Again = runLeg(Mode::Concurrent, 2, 256, false);
  expectMarkingLegsEqual(Again, Base, "rerun divergence");
}

TEST(ConcurrentMarkTest, MidCycleDynamicFailureParksWhileMarkerRuns) {
  LegResult Stw = runLeg(Mode::Stw, 1, 256, /*MidCycleFailure=*/true);
  EXPECT_EQ(Stw.FailedLinesDynamic, 1u);
  for (unsigned Workers : {1u, 4u}) {
    LegResult Conc = runLeg(Mode::Concurrent, Workers, 256,
                            /*MidCycleFailure=*/true);
    expectCrossModeEqual(Conc, Stw, "mid-cycle failure leg vs STW");
  }
}

//===----------------------------------------------------------------------===//
// Multi-threaded mutators against the marker thread
//===----------------------------------------------------------------------===//

namespace {

RuntimeConfig poolConfig(unsigned Lanes) {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = (8 * MiB) * Lanes;
  Config.ConcurrentMark = true;
  return Config;
}

} // namespace

TEST(ConcurrentMarkTest, PoolDigestIsBitIdenticalAcrossMutatorThreads) {
  // The lane turnstile owns the allocation order and the turn hook
  // drives cycle opens, flushes, and closes at fixed turn numbers, so
  // the marker thread's free-running schedule must be invisible: any
  // OS interleaving of mutator threads and the marker yields the same
  // final heap.
  constexpr unsigned Lanes = 4;
  uint64_t Digests[3] = {};
  uint64_t GcCounts[3] = {};
  uint64_t SatbLogged[3] = {};
  unsigned Idx = 0;
  for (unsigned Threads : {1u, 2u, 4u}) {
    Runtime Rt(poolConfig(Lanes));
    MutatorPoolOptions Opts;
    Opts.Lanes = Lanes;
    Opts.Threads = Threads;
    Opts.Seed = 99;
    Opts.VolumeScale = 0.25;
    MutatorPool Pool(Rt, *findProfile("luindex"), Opts);
    Pool.setTurnHook([&Rt](unsigned, uint64_t Turn) {
      // A fixed virtual-time schedule: open at 0 mod 1024, flush every
      // 128 turns while open, close at 768 mod 1024.
      if (Turn % 1024 == 0 && !Rt.incrementalCycleOpen())
        Rt.beginIncrementalMarkCycle();
      else if (Turn % 1024 == 768 && Rt.incrementalCycleOpen())
        Rt.finishIncrementalMarkCycle();
      else if (Turn % 128 == 64 && Rt.incrementalCycleOpen())
        Rt.satbFlushHandshake();
      return true;
    });
    ASSERT_TRUE(Pool.run());
    if (Rt.incrementalCycleOpen())
      Rt.finishIncrementalMarkCycle();
    Rt.collect(true);
    HeapAuditor Auditor(Rt.heap());
    EXPECT_TRUE(Auditor.audit().passed());
    Digests[Idx] = Auditor.digest(/*HashPayload=*/true);
    GcCounts[Idx] = Rt.stats().GcCount;
    SatbLogged[Idx] = Rt.heap().stats().SatbLogged;
    EXPECT_EQ(Rt.heap().stats().SatbDrained,
              Rt.heap().stats().SatbLogged);
    ++Idx;
  }
  EXPECT_EQ(Digests[0], Digests[1]);
  EXPECT_EQ(Digests[0], Digests[2]);
  EXPECT_EQ(GcCounts[0], GcCounts[1]);
  EXPECT_EQ(GcCounts[0], GcCounts[2]);
  EXPECT_EQ(SatbLogged[0], SatbLogged[1]);
  EXPECT_EQ(SatbLogged[0], SatbLogged[2]);
  EXPECT_GT(SatbLogged[0], 0u) << "the pool must exercise the barrier";
}

TEST(ConcurrentMarkTest, FlushHandshakeStormIsWatchdogClean) {
  // The acceptance storm: 100 explicit flush handshakes from the
  // active mutator thread while three peer threads sit on the
  // turnstile and the marker thread drains - every handshake must
  // complete without a watchdog round, and the SATB ledger must
  // balance at every close.
  constexpr unsigned Lanes = 4;
  constexpr uint64_t Rounds = 100;
  Runtime Rt(poolConfig(Lanes));

  std::atomic<unsigned> FailStops{0};
  Rt.safepoints().setFailStopHandler(
      [&](const std::string &) { ++FailStops; });

  MutatorPoolOptions Opts;
  Opts.Lanes = Lanes;
  Opts.Threads = 4;
  Opts.Seed = 1234;
  Opts.VolumeScale = 0.5;
  MutatorPool Pool(Rt, *findProfile("luindex"), Opts);

  uint64_t Handshakes = 0;
  uint64_t Closes = 0;
  Pool.setTurnHook([&](unsigned, uint64_t Turn) {
    if (Turn % 256 != 0 || Handshakes >= Rounds)
      return true;
    if (!Rt.incrementalCycleOpen())
      Rt.beginIncrementalMarkCycle();
    ++Handshakes;
    Rt.satbFlushHandshake();
    if (Handshakes % 10 == 0 && Rt.incrementalCycleOpen()) {
      Rt.finishIncrementalMarkCycle();
      ++Closes;
      EXPECT_EQ(Rt.heap().stats().SatbDrained,
                Rt.heap().stats().SatbLogged)
          << "close " << Closes << " left SATB entries behind";
    }
    return true;
  });

  ASSERT_TRUE(Pool.run());
  EXPECT_EQ(Handshakes, Rounds);
  EXPECT_EQ(FailStops.load(), 0u);
  EXPECT_EQ(Rt.safepoints().stats().WatchdogFired, 0u);

  if (Rt.incrementalCycleOpen())
    Rt.finishIncrementalMarkCycle();
  Rt.collect(true);
  EXPECT_EQ(Rt.heap().stats().SatbDrained, Rt.heap().stats().SatbLogged);
  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  for (const std::string &V : Report.Violations)
    ADD_FAILURE() << "audit violation: " << V;
  EXPECT_TRUE(Report.passed());
}

//===----------------------------------------------------------------------===//
// Fixup of stores made while the marker runs
//===----------------------------------------------------------------------===//

TEST(ConcurrentMarkTest, StoreIntoScannedObjectFollowsEvacuation) {
  // The closing fixup rewrites only the slots the trace and the write
  // barrier recorded. The marker claims C while scanning A's one slot -
  // after its last read of that slot - and only then does the mutator
  // store into the slot a reference to V, which the close evacuates.
  // Nothing rescans A, so the barrier's record alone can point the slot
  // at V's copy.
  HeapConfig Config = markConfig(Mode::Concurrent, /*GcThreads=*/2);
  Config.Failures.Rate = 0.0; // Fresh blocks: the layout is deterministic.
  Heap Hp(Config);
  BarrierFixture F = buildBarrierFixture(Hp);
  ASSERT_NE(F.V, nullptr);
  ImmixSpace &Space = *Hp.immixSpace();

  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  ASSERT_TRUE(Space.blockOf(F.V)->evacuating());
  ASSERT_FALSE(Space.blockOf(F.A)->evacuating());
  auto Deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (objectMark(F.C) != Hp.epoch()) {
    ASSERT_LT(std::chrono::steady_clock::now(), Deadline)
        << "the marker never scanned A";
    std::this_thread::yield();
  }
  Hp.writeRef(F.A, 0, F.V);
  Hp.finishIncrementalMarkCycle();

  ObjRef VCopy = Hp.root(F.RootV);
  ASSERT_NE(VCopy, F.V) << "V's block was evacuating; V must have moved";
  ASSERT_EQ(Hp.root(F.RootA), F.A) << "A's block was not evacuating";
  ASSERT_EQ(Heap::readRef(F.A, 0), VCopy)
      << "the stored slot still names V's old copy";
  EXPECT_EQ(*reinterpret_cast<uint64_t *>(objectPayload(VCopy)), 0xF1C5ull);
  Hp.verifyIntegrity();
}
