//===- tests/IncrementalMarkTest.cpp - Incremental SATB marking tests -----===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The incremental marking contract: a cycle of fixed-budget mark steps
// interleaved with reference-store mutation ends in a heap bit-identical
// to a stop-the-world full collection at the same point in the mutation
// history - across GC worker counts, across budgets, and with dynamic
// failures landing mid-cycle (parked, drained after the close).
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/HeapAuditor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace wearmem;

namespace {

HeapConfig incConfig(unsigned GcThreads, bool Incremental,
                     unsigned MarkBudget = 256) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (32 * MiB) / PcmPageSize;
  Config.GcThreads = GcThreads;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = 7;
  Config.DefragFreeFraction = 0.35;
  Config.IncrementalMark = Incremental;
  Config.MarkBudget = MarkBudget;
  return Config;
}

/// Builds NumLists rooted linked lists (slot 0 = next, slot 1 = a
/// cross-link slot) and returns the head root indices. Every fourth
/// node carries a "satellite" object in slot 1 that is reachable only
/// through that one cross link; the storm shuffles those around. Node
/// payloads are stamped so payload-hashing digests mean something.
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
/// permute the satellite objects without ever dropping one, so the live
/// set - and therefore the physical heap the digest hashes - evolves
/// identically whether marking runs incrementally or stop-the-world.
/// They are still the classic SATB hazard: between the two writes a
/// satellite's only strong reference is gone, and an already-scanned
/// destination node will never be re-traced, so only the deletion log
/// keeps the snapshot intact.
void mutationOp(Heap &Hp, const std::vector<unsigned> &Heads, uint64_t I) {
  uint64_t H = (I + 1) * 0x9E3779B97F4A7C15ull;
  unsigned L1 = static_cast<unsigned>((H >> 8) % Heads.size());
  unsigned L2 = static_cast<unsigned>((H >> 24) % Heads.size());
  if ((H & 7) == 0) {
    // Root-store flavor of the barrier: rewriting a root with its own
    // value logs the overwritten reference without changing the graph.
    Hp.setRoot(Heads[L1], Hp.root(Heads[L1]));
    return;
  }
  ObjRef A = walk(Hp.root(Heads[L1]), static_cast<unsigned>((H >> 40) % 37));
  ObjRef B = walk(Hp.root(Heads[L2]), static_cast<unsigned>((H >> 48) % 37));
  if (!A || !B || A == B)
    return;
  ObjRef Ta = Heap::readRef(A, 1);
  ObjRef Tb = Heap::readRef(B, 1);
  Hp.writeRef(A, 1, Tb); // Ta now lives only in the deletion log...
  Hp.writeRef(B, 1, Ta); // ...until it resurfaces here.
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
  // Incremental-leg internals (compared across worker counts / budgets
  // within incremental legs only; the stop-the-world leg has zeros).
  uint64_t MarkIncrements = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;
};

constexpr unsigned StormBatches = 40;
constexpr unsigned OpsPerBatch = 50;

/// Runs one leg: build, then a write storm, with the incremental leg
/// opening a cycle first and stepping once per batch. Both legs finish
/// with the cycle's full collection at the same point in the mutation
/// history, then a settling full collection, then digest.
LegResult runLeg(bool Incremental, unsigned GcThreads, unsigned MarkBudget,
                 bool MidCycleFailure) {
  Heap Hp(incConfig(GcThreads, Incremental, MarkBudget));
  std::vector<unsigned> Heads = buildLists(Hp, 4, 2500);
  // A pinned fail target: never moves, keeps its block held, so the
  // fence lands on the same address in both legs.
  ObjRef Pinned = Hp.allocate(64, 0, /*Pinned=*/true);
  EXPECT_NE(Pinned, nullptr);
  Hp.createRoot(Pinned);
  EXPECT_FALSE(Hp.outOfMemory());

  if (Incremental) {
    EXPECT_TRUE(Hp.beginIncrementalMarkCycle());
  }
  for (unsigned Batch = 0; Batch != StormBatches; ++Batch) {
    for (unsigned I = 0; I != OpsPerBatch; ++I)
      mutationOp(Hp, Heads, uint64_t(Batch) * OpsPerBatch + I);
    if (MidCycleFailure && Batch == StormBatches / 2 && Incremental) {
      // Mid-cycle failure: must park (the whole cycle is a mark phase),
      // not fence lines under the tracer's feet.
      uint64_t DeferredBefore = Hp.stats().MarkPhaseDeferredInterrupts;
      Hp.injectDynamicFailureBatch({Pinned});
      EXPECT_EQ(Hp.stats().MarkPhaseDeferredInterrupts,
                DeferredBefore + 1);
      EXPECT_EQ(Hp.stats().FailedLinesDynamic, 0u)
          << "failure applied while the cycle was open";
    }
    if (Incremental)
      Hp.incrementalMarkStep();
  }
  if (Incremental) {
    Hp.finishIncrementalMarkCycle(); // Drains the parked batch after.
    EXPECT_FALSE(Hp.incrementalCycleOpen());
  } else {
    Hp.collect(CollectionKind::Full);
    if (MidCycleFailure)
      // The incremental leg fences at the post-close drain; match that
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

void expectCrossLegEqual(const LegResult &Inc, const LegResult &Stw,
                         const char *What) {
  EXPECT_EQ(Inc.Digest, Stw.Digest) << What;
  EXPECT_EQ(Inc.GcCount, Stw.GcCount) << What;
  EXPECT_EQ(Inc.FullGcCount, Stw.FullGcCount) << What;
  EXPECT_EQ(Inc.ObjectsAllocated, Stw.ObjectsAllocated) << What;
  EXPECT_EQ(Inc.BytesAllocated, Stw.BytesAllocated) << What;
  EXPECT_EQ(Inc.FailedLinesDynamic, Stw.FailedLinesDynamic) << What;
  EXPECT_EQ(Inc.PinnedFailurePageRemaps, Stw.PinnedFailurePageRemaps)
      << What;
  // The storm preserves the live set, so even the trace and evacuation
  // work must match the stop-the-world leg exactly.
  EXPECT_EQ(Inc.ObjectsMarked, Stw.ObjectsMarked) << What;
  EXPECT_EQ(Inc.BytesTraced, Stw.BytesTraced) << What;
  EXPECT_EQ(Inc.ObjectsEvacuated, Stw.ObjectsEvacuated) << What;
}

void expectIncLegsEqual(const LegResult &A, const LegResult &B,
                        const char *What) {
  EXPECT_EQ(A.Digest, B.Digest) << What;
  EXPECT_EQ(A.ObjectsMarked, B.ObjectsMarked) << What;
  EXPECT_EQ(A.BytesTraced, B.BytesTraced) << What;
  EXPECT_EQ(A.ObjectsEvacuated, B.ObjectsEvacuated) << What;
  EXPECT_EQ(A.MarkIncrements, B.MarkIncrements) << What;
  EXPECT_EQ(A.SatbLogged, B.SatbLogged) << What;
  EXPECT_EQ(A.SatbDrained, B.SatbDrained) << What;
  EXPECT_EQ(A.GcCount, B.GcCount) << What;
  EXPECT_EQ(A.FullGcCount, B.FullGcCount) << What;
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
// Gating and lifecycle
//===----------------------------------------------------------------------===//

TEST(IncrementalMarkTest, RequiresConfigAndRejectsNestedCycles) {
  {
    Heap Hp(incConfig(1, /*Incremental=*/false));
    EXPECT_FALSE(Hp.beginIncrementalMarkCycle())
        << "IncrementalMark off must refuse to open a cycle";
    EXPECT_FALSE(Hp.incrementalMarkStep());
    Hp.finishIncrementalMarkCycle(); // No-op, must not crash.
  }
  Heap Hp(incConfig(1, /*Incremental=*/true));
  buildLists(Hp, 1, 100);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  EXPECT_FALSE(Hp.beginIncrementalMarkCycle()) << "no nested cycles";
  EXPECT_TRUE(Hp.incrementalCycleOpen());
  // An explicit collection demand closes the open cycle.
  Hp.collect(CollectionKind::Full);
  EXPECT_FALSE(Hp.incrementalCycleOpen());
  EXPECT_EQ(Hp.stats().IncrementalCyclesOpened, 1u);
  EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 1u);
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
}

TEST(IncrementalMarkTest, AllocationDuringCycleSurvivesTheClose) {
  Heap Hp(incConfig(1, /*Incremental=*/true));
  std::vector<unsigned> Heads = buildLists(Hp, 2, 500);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  // Births during the cycle are allocated black: kept by the closing
  // sweep even though the snapshot never reached them, and their slots
  // are fixed up when their referents get evacuated.
  unsigned NewRoot = Hp.createRoot(nullptr);
  for (unsigned I = 0; I != 300; ++I) {
    ObjRef Node = Hp.allocate(40, 1);
    ASSERT_NE(Node, nullptr);
    *reinterpret_cast<uint64_t *>(objectPayload(Node)) = 0xB1A0000 + I;
    if (ObjRef Head = Hp.root(NewRoot))
      Hp.writeRef(Node, 0, Head);
    Hp.setRoot(NewRoot, Node);
    if (I % 50 == 25)
      Hp.incrementalMarkStep();
  }
  ObjRef Large = Hp.allocate(16 * 1024, 0);
  ASSERT_NE(Large, nullptr);
  std::memset(objectPayload(Large), 0x5A, 16 * 1024);
  unsigned LargeRoot = Hp.createRoot(Large);
  Hp.finishIncrementalMarkCycle();
  // Every in-cycle birth is intact after the close.
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
// Equivalence with stop-the-world marking
//===----------------------------------------------------------------------===//

TEST(IncrementalMarkTest, MatchesStopTheWorldAcrossWorkerCounts) {
  LegResult Stw = runLeg(/*Incremental=*/false, 1, 256,
                         /*MidCycleFailure=*/false);
  LegResult IncSerial = runLeg(/*Incremental=*/true, 1, 256, false);
  expectCrossLegEqual(IncSerial, Stw, "incremental(1 worker) vs STW");
  EXPECT_GT(IncSerial.SatbLogged, 0u) << "storm must exercise the barrier";
  EXPECT_EQ(IncSerial.SatbDrained, IncSerial.SatbLogged)
      << "every logged deletion must eventually drain";
  for (unsigned Threads : {2u, 4u, 8u}) {
    LegResult Inc = runLeg(/*Incremental=*/true, Threads, 256, false);
    expectIncLegsEqual(Inc, IncSerial, "worker-count divergence");
    expectCrossLegEqual(Inc, Stw, "incremental(N workers) vs STW");
  }
}

TEST(IncrementalMarkTest, FinalHeapIsIndependentOfMarkBudget) {
  LegResult Base = runLeg(/*Incremental=*/true, 2, 256, false);
  for (unsigned Budget : {0u, 64u, 4096u}) {
    LegResult R = runLeg(/*Incremental=*/true, 2, Budget, false);
    expectIncLegsEqual(R, Base, "budget changed the outcome");
  }
  // Rerun determinism at a fixed configuration.
  LegResult Again = runLeg(/*Incremental=*/true, 2, 256, false);
  expectIncLegsEqual(Again, Base, "rerun divergence");
}

TEST(IncrementalMarkTest, MidCycleDynamicFailureParksUntilTheClose) {
  LegResult Stw = runLeg(/*Incremental=*/false, 1, 256,
                         /*MidCycleFailure=*/true);
  EXPECT_EQ(Stw.FailedLinesDynamic, 1u);
  for (unsigned Threads : {1u, 4u}) {
    LegResult Inc = runLeg(/*Incremental=*/true, Threads, 256,
                           /*MidCycleFailure=*/true);
    expectCrossLegEqual(Inc, Stw, "mid-cycle failure leg vs STW");
  }
}

TEST(IncrementalMarkTest, MidCycleAuditToleratesDeferredLineMarks) {
  // While a cycle is open, evacuation candidates are claimed at the new
  // epoch with their old lines deliberately unmarked until the closing
  // pause decides copy versus re-mark. A cross-layer audit taken
  // between increments (the soak tool audits on its own cadence, which
  // lands inside open cycles) must read that as the mark-phase
  // transient it is, not as a mark/line-mark inconsistency.
  Heap Hp(incConfig(/*GcThreads=*/1, /*Incremental=*/true));
  std::vector<unsigned> Heads = buildLists(Hp, 4, 800);
  // Fragment the heap so the cycle open selects defrag candidates:
  // drop half the lists, then collect so the sweep records the holes.
  Hp.setRoot(Heads[1], nullptr);
  Hp.setRoot(Heads[3], nullptr);
  Hp.collect(CollectionKind::Full);
  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  bool More = true;
  while (More) {
    More = Hp.incrementalMarkStep();
    HeapAuditor Auditor(Hp);
    AuditReport Report = Auditor.audit();
    ASSERT_TRUE(Report.passed())
        << "mid-cycle audit: " << Report.Violations.front();
  }
  Hp.finishIncrementalMarkCycle();
  EXPECT_TRUE(HeapAuditor(Hp).audit().passed());
}

TEST(IncrementalMarkTest, DrainedFailureOnStaleLineKeepsSuccessorLive) {
  // The parked batch drains right after the close, when sweep has left
  // dead lines' mark bytes stale. The conservative spill transfer must
  // not copy such a stale mark over the following line: the successor
  // here is live at the current epoch, and the downgrade would hand its
  // line to the hole scan (the auditor sees it as a mark/line-mark
  // mismatch first).
  HeapConfig Config = incConfig(/*GcThreads=*/1, /*Incremental=*/true);
  Config.Failures.Rate = 0.0; // Fresh block: adjacency is deterministic.
  Heap Hp(Config);
  const uint32_t OneLine =
      static_cast<uint32_t>(Config.LineSize - ObjectHeaderBytes);
  // Two adjacent one-line objects, pinned so neither ever moves.
  ObjRef A = Hp.allocate(OneLine, 0, /*Pinned=*/true);
  ObjRef B = Hp.allocate(OneLine, 0, /*Pinned=*/true);
  ASSERT_NE(A, nullptr);
  ASSERT_NE(B, nullptr);
  ASSERT_EQ(B, A + Config.LineSize) << "bump allocation not adjacent";
  unsigned RootA = Hp.createRoot(A);
  unsigned RootB = Hp.createRoot(B);
  std::memset(objectPayload(B), 0x6B, OneLine);
  Hp.collect(CollectionKind::Full); // Both lines marked at this epoch.
  // Kill A; the next full trace skips its line, so sweep frees it but
  // the mark byte keeps the previous epoch - the stale dying line.
  uint8_t *DyingLine = A;
  Hp.releaseRoot(RootA);
  Hp.collect(CollectionKind::Full);

  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  Hp.injectDynamicFailureBatch({DyingLine}); // Parks: the cycle is a
                                             // mark phase throughout.
  while (Hp.incrementalMarkStep())
    ;
  Hp.finishIncrementalMarkCycle(); // Drain fences the stale line.
  EXPECT_EQ(Hp.stats().FailedLinesDynamic, 1u);

  // B on the successor line must still be live at the current epoch.
  HeapAuditor Auditor(Hp);
  EXPECT_TRUE(Auditor.audit().passed());
  uint8_t *P = objectPayload(Hp.root(RootB));
  for (uint32_t I = 0; I != OneLine; ++I)
    ASSERT_EQ(P[I], 0x6B);
  Hp.collect(CollectionKind::Full);
  EXPECT_TRUE(HeapAuditor(Hp).audit().passed());
  EXPECT_NE(Hp.root(RootB), nullptr);
}

//===----------------------------------------------------------------------===//
// Fixup of stores made while the cycle is open
//===----------------------------------------------------------------------===//

TEST(IncrementalMarkTest, StoreIntoScannedObjectFollowsEvacuation) {
  // The closing fixup rewrites only the slots the trace and the write
  // barrier recorded. Here the trace scans A while its slot names C,
  // which stays put; only then does the mutator store into that slot a
  // reference to V, which the close evacuates. Nothing rescans A, so the
  // barrier's record alone can point the slot at V's copy.
  HeapConfig Config = incConfig(/*GcThreads=*/2, /*Incremental=*/true);
  Config.Failures.Rate = 0.0; // Fresh blocks: the layout is deterministic.
  Heap Hp(Config);
  BarrierFixture F = buildBarrierFixture(Hp);
  ASSERT_NE(F.V, nullptr);
  ImmixSpace &Space = *Hp.immixSpace();

  ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
  ASSERT_TRUE(Space.blockOf(F.V)->evacuating());
  ASSERT_FALSE(Space.blockOf(F.A)->evacuating());
  while (Hp.incrementalMarkStep())
    ; // A is scanned.
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
