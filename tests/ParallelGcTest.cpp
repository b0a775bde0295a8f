//===- tests/ParallelGcTest.cpp - Parallel collection engine tests --------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// The parallel collection engine's contract: the post-collection heap
// state is bit-identical to the serial collector's under any worker
// count, the mark frontier stays bounded on hostile graph shapes, and
// dynamic-failure interrupts that arrive mid-mark are deferred to the
// end-of-cycle safepoint without being lost.
//
//===----------------------------------------------------------------------===//

#include "gc/GcWorkers.h"
#include "gc/Heap.h"
#include "gc/HeapAuditor.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

HeapConfig parallelConfig(unsigned GcThreads, size_t HeapBytes = 32 * MiB) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = HeapBytes / PcmPageSize;
  Config.GcThreads = GcThreads;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = 7;
  Config.DefragFreeFraction = 0.35;
  return Config;
}

/// Deterministic mini-mutator: rooted linked lists with pinned stragglers
/// and burst churn (evacuation fodder), plus a wide fan-out hub. Raw
/// references never live across an allocation - every Hp.allocate may
/// run a moving collection.
void buildWorkload(Heap &Hp, unsigned Lists, unsigned ListLen,
                   unsigned HubRefs) {
  for (unsigned L = 0; L != Lists && !Hp.outOfMemory(); ++L) {
    unsigned HeadRoot = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != ListLen; ++I) {
      bool Pin = (I % 97) == 0;
      ObjRef Node = Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/2, Pin);
      if (!Node)
        break;
      *reinterpret_cast<uint64_t *>(objectPayload(Node)) =
          (uint64_t(L) << 32) | I;
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(HeadRoot, Node);
      if (I % 16 == 15)
        for (unsigned C = 0; C != 32; ++C)
          Hp.allocate(216, 0);
    }
  }
  if (HubRefs != 0 && !Hp.outOfMemory()) {
    ObjRef Hub =
        Hp.allocate(/*PayloadBytes=*/16, static_cast<uint16_t>(HubRefs));
    ASSERT_NE(Hub, nullptr);
    unsigned HubRoot = Hp.createRoot(Hub);
    for (unsigned I = 0; I != HubRefs; ++I) {
      ObjRef Leaf = Hp.allocate(32, 0);
      if (!Leaf)
        break;
      Hp.writeRef(Hp.root(HubRoot), I, Leaf);
    }
  }
}

struct HeapFingerprint {
  uint64_t DigestAfterFulls = 0;
  uint64_t DigestAfterNursery = 0;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t LinesSwept = 0;
  uint64_t BlocksRetired = 0;

  bool operator==(const HeapFingerprint &O) const {
    return DigestAfterFulls == O.DigestAfterFulls &&
           DigestAfterNursery == O.DigestAfterNursery &&
           GcCount == O.GcCount && FullGcCount == O.FullGcCount &&
           ObjectsAllocated == O.ObjectsAllocated &&
           BytesAllocated == O.BytesAllocated &&
           ObjectsEvacuated == O.ObjectsEvacuated &&
           LinesSwept == O.LinesSwept && BlocksRetired == O.BlocksRetired;
  }
};

HeapFingerprint runWorkerCountConfig(unsigned GcThreads) {
  Heap Hp(parallelConfig(GcThreads));
  buildWorkload(Hp, /*Lists=*/4, /*ListLen=*/6000, /*HubRefs=*/3000);
  EXPECT_FALSE(Hp.outOfMemory());
  for (unsigned I = 0; I != 3; ++I)
    Hp.collect(CollectionKind::Full);
  HeapAuditor Auditor(Hp);
  HeapFingerprint F;
  F.DigestAfterFulls = Auditor.digest(/*HashPayload=*/true);
  Hp.collect(CollectionKind::Nursery);
  F.DigestAfterNursery = Auditor.digest(/*HashPayload=*/true);
  const HeapStats &S = Hp.stats();
  F.GcCount = S.GcCount;
  F.FullGcCount = S.FullGcCount;
  F.ObjectsAllocated = S.ObjectsAllocated;
  F.BytesAllocated = S.BytesAllocated;
  F.ObjectsEvacuated = S.ObjectsEvacuated;
  F.LinesSwept = S.LinesSwept;
  F.BlocksRetired = S.BlocksRetired;
  EXPECT_TRUE(Auditor.audit().passed());
  return F;
}

} // namespace

//===----------------------------------------------------------------------===//
// Determinism across worker counts
//===----------------------------------------------------------------------===//

TEST(ParallelGcTest, WorkerCountSweepProducesIdenticalHeaps) {
  HeapFingerprint Serial = runWorkerCountConfig(1);
  EXPECT_GT(Serial.ObjectsEvacuated, 0u)
      << "workload must exercise evacuation for the sweep to mean much";
  for (unsigned Threads : {2u, 4u, 8u}) {
    HeapFingerprint F = runWorkerCountConfig(Threads);
    EXPECT_TRUE(F == Serial)
        << Threads << "-worker heap diverged from serial: digests "
        << std::hex << F.DigestAfterFulls << "/" << F.DigestAfterNursery
        << " vs " << Serial.DigestAfterFulls << "/"
        << Serial.DigestAfterNursery;
  }
}

//===----------------------------------------------------------------------===//
// Mid-mark dynamic failures are deferred, never lost
//===----------------------------------------------------------------------===//

TEST(ParallelGcTest, MidMarkDynamicFailureIsDeferredAndRecovered) {
  Heap Hp(parallelConfig(2, 16 * MiB));
  unsigned Root = Hp.createRoot(nullptr);
  for (unsigned I = 0; I != 2000; ++I) {
    ObjRef Node = Hp.allocate(48, 1);
    ASSERT_NE(Node, nullptr);
    if (ObjRef Head = Hp.root(Root))
      Hp.writeRef(Node, 0, Head);
    Hp.setRoot(Root, Node);
  }
  // A stable line to fail: a pinned object's address survives the
  // collection the hook interrupts.
  ObjRef Victim = Hp.allocate(64, 0, /*Pinned=*/true);
  ASSERT_NE(Victim, nullptr);
  Hp.createRoot(Victim);

  bool Injected = false;
  Hp.setMarkPhaseHook([&] {
    if (Injected)
      return;
    Injected = true;
    // A failure interrupt arriving from outside the collector while the
    // mark phase runs: must be parked, not applied mid-trace.
    std::thread Interrupter(
        [&] { Hp.injectDynamicFailureBatch({Victim}); });
    Interrupter.join();
    EXPECT_EQ(Hp.stats().MarkPhaseDeferredInterrupts, 1u);
    EXPECT_EQ(Hp.stats().FailedLinesDynamic, 0u)
        << "the failure must not be applied while marking";
  });
  Hp.collect(CollectionKind::Full);
  ASSERT_TRUE(Injected);

  // Drained at the end-of-cycle safepoint: the line is fenced now and
  // the deferred defragmenting collection is pending.
  EXPECT_EQ(Hp.stats().MarkPhaseDeferredInterrupts, 1u);
  EXPECT_EQ(Hp.stats().FailedLinesDynamic, 1u);
  EXPECT_TRUE(Hp.pendingFailureRecovery());

  Hp.setMarkPhaseHook(nullptr);
  Hp.collect(CollectionKind::Full);
  EXPECT_FALSE(Hp.pendingFailureRecovery());
  HeapAuditor Auditor(Hp);
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << (Report.Violations.empty()
                                       ? ""
                                       : Report.Violations.front());
}

//===----------------------------------------------------------------------===//
// Bounded mark frontier
//===----------------------------------------------------------------------===//

TEST(ParallelGcTest, MarkFrontierStaysBoundedOnDeepAndWideGraphs) {
  // A 150k-deep list would have pushed 150k entries on the old serial
  // mark stack; a 20k-wide hub explodes the frontier in one scan. The
  // work list must keep every deque at or below its chunk bound and
  // spill the rest to the (drained) overflow list instead.
  HeapFingerprint Prints[2];
  for (unsigned Cfg = 0; Cfg != 2; ++Cfg) {
    unsigned Threads = Cfg == 0 ? 1 : 2;
    Heap Hp(parallelConfig(Threads, 64 * MiB));
    unsigned Root = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != 150000; ++I) {
      ObjRef Node = Hp.allocate(16, 1);
      ASSERT_NE(Node, nullptr);
      if (ObjRef Head = Hp.root(Root))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(Root, Node);
    }
    constexpr unsigned HubRefs = 20000;
    ObjRef Hub = Hp.allocate(16, HubRefs);
    ASSERT_NE(Hub, nullptr);
    unsigned HubRoot = Hp.createRoot(Hub);
    for (unsigned I = 0; I != HubRefs; ++I) {
      ObjRef Leaf = Hp.allocate(24, 0);
      ASSERT_NE(Leaf, nullptr);
      Hp.writeRef(Hp.root(HubRoot), I, Leaf);
    }
    Hp.collect(CollectionKind::Full);
    EXPECT_LE(Hp.lastMarkPhaseDebug().DequePeakChunks,
              Heap::MarkMaxDequeChunks);
    HeapAuditor Auditor(Hp);
    Prints[Cfg].DigestAfterFulls = Auditor.digest(/*HashPayload=*/true);
    Prints[Cfg].ObjectsEvacuated = Hp.stats().ObjectsEvacuated;
  }
  EXPECT_EQ(Prints[0].DigestAfterFulls, Prints[1].DigestAfterFulls);
  EXPECT_EQ(Prints[0].ObjectsEvacuated, Prints[1].ObjectsEvacuated);
}

//===----------------------------------------------------------------------===//
// Worker pool scheduling primitives
//===----------------------------------------------------------------------===//

TEST(ParallelGcTest, ParallelChunksCoversEveryIndexExactlyOnce) {
  GcWorkerPool Pool(4);
  EXPECT_EQ(Pool.workers(), 4u);
  constexpr size_t Count = 10000;
  std::vector<std::atomic<uint32_t>> Hits(Count);
  Pool.parallelChunks(Count,
                      [&](size_t I) { Hits[I].fetch_add(1); });
  for (size_t I = 0; I != Count; ++I)
    ASSERT_EQ(Hits[I].load(), 1u) << "index " << I;
  // Degenerate sizes: empty and smaller than the worker count.
  Pool.parallelChunks(0, [&](size_t) { FAIL(); });
  std::atomic<uint32_t> Small{0};
  Pool.parallelChunks(3, [&](size_t) { Small.fetch_add(1); });
  EXPECT_EQ(Small.load(), 3u);
}

TEST(ParallelGcTest, RunOnAllReachesEveryWorkerAndBarriers) {
  GcWorkerPool Pool(4);
  std::vector<std::atomic<uint32_t>> PerWorker(4);
  for (unsigned Round = 0; Round != 50; ++Round)
    Pool.runOnAll([&](unsigned Wk) {
      ASSERT_LT(Wk, 4u);
      PerWorker[Wk].fetch_add(1);
    });
  // The return is a barrier, so all increments are visible here.
  for (unsigned Wk = 0; Wk != 4; ++Wk)
    EXPECT_EQ(PerWorker[Wk].load(), 50u);
}

TEST(ParallelGcTest, BudgetedDrainsNeverStrandASpinner) {
  // Budgeted mark steps over one work list, paced the way
  // incrementalMarkStep paces them: arm a small quota, drain on every
  // worker, rearm. A spent quota must stay spent until the next
  // setQuota; revived after some workers left on it, it strands any
  // worker still spinning in refill, and the step never returns. The
  // watchdog turns such a hang into a failure instead of a ctest
  // timeout.
  std::atomic<uint64_t> Steps{0};
  std::atomic<bool> Finished{false};
  std::thread Watchdog([&] {
    using Clock = std::chrono::steady_clock;
    uint64_t Seen = 0;
    auto LastProgress = Clock::now();
    while (!Finished.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      if (uint64_t Now = Steps.load(); Now != Seen) {
        Seen = Now;
        LastProgress = Clock::now();
      } else if (Clock::now() - LastProgress > std::chrono::seconds(10)) {
        std::fprintf(stderr, "budgeted drain hung after %llu steps\n",
                     static_cast<unsigned long long>(Seen));
        std::_Exit(1);
      }
    }
  });

  // Items are opaque to the list: a binary tree node is just its depth
  // (low bits) over a nonzero tag, and popping one pushes its children.
  constexpr unsigned Depth = 6;
  constexpr uint64_t NodesPerTree = (uint64_t(2) << Depth) - 1;
  auto node = [](uintptr_t D) {
    return reinterpret_cast<MarkWorkList::Item>(D | 8);
  };
  for (unsigned NumWorkers : {4u, 8u}) {
    GcWorkerPool Pool(NumWorkers);
    // Tiny chunks so publication, stealing and overflow all run.
    MarkWorkList List(NumWorkers, /*ChunkItems=*/4, /*MaxDequeChunks=*/2);
    std::vector<uint64_t> Pops(NumWorkers);
    auto Popped = [&] {
      uint64_t N = 0;
      for (uint64_t P : Pops)
        N += P;
      return N;
    };
    auto Drain = [&](unsigned Wk) {
      MarkWorkList::Item It;
      while (List.pop(Wk, It)) {
        ++Pops[Wk];
        if (uintptr_t D = reinterpret_cast<uintptr_t>(It) & 7) {
          List.push(Wk, node(D - 1));
          List.push(Wk, node(D - 1));
        }
      }
    };
    uint64_t Trees = 0;
    bool OverBudget = false;
    uint64_t Rng = 0x9E3779B97F4A7C15ull * NumWorkers;
    auto Deadline =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(1500);
    while (std::chrono::steady_clock::now() < Deadline) {
      if (List.quiesced()) {
        for (unsigned T = 0; T != 3; ++T)
          List.push(0, node(Depth));
        Trees += 3;
      }
      Rng ^= Rng << 13;
      Rng ^= Rng >> 7;
      Rng ^= Rng << 17;
      int64_t Quota = 1 + static_cast<int64_t>(Rng % 13);
      uint64_t Before = Popped();
      List.reopen();
      List.setQuota(Quota);
      Pool.runOnAll(Drain);
      List.reopen();
      OverBudget |= Popped() - Before > static_cast<uint64_t>(Quota);
      Steps.fetch_add(1);
    }
    EXPECT_FALSE(OverBudget) << "a step scanned past its budget";
    // Unbudgeted, the rest drains dry and every node was popped once.
    Pool.runOnAll(Drain);
    List.reopen();
    EXPECT_TRUE(List.quiesced());
    EXPECT_EQ(Popped(), Trees * NodesPerTree) << NumWorkers << " workers";
  }
  Finished = true;
  Watchdog.join();
  EXPECT_GT(Steps.load(), 0u);
}
