//===- tests/HeapGcTest.cpp - Collector correctness tests -----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Parameterized over the four collectors of Figure 3 (MS, IX, S-MS,
// S-IX): liveness, reclamation, moving-collector transparency, write
// barriers, pinning, and epoch-wrap behaviour.
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include <gtest/gtest.h>

#include <vector>

using namespace wearmem;

namespace {

RuntimeConfig baseConfig(CollectorKind Kind, size_t HeapBytes = 8 * MiB) {
  RuntimeConfig Config;
  Config.Collector = Kind;
  Config.HeapBytes = HeapBytes;
  return Config;
}

uint64_t &payloadWord(ObjRef Obj) {
  return *reinterpret_cast<uint64_t *>(objectPayload(Obj));
}

} // namespace

class CollectorTest : public ::testing::TestWithParam<CollectorKind> {};

TEST_P(CollectorTest, LinkedListSurvivesCollections) {
  Runtime Rt(baseConfig(GetParam()));
  constexpr unsigned N = 20000;
  Handle Head = Rt.allocateRooted(8, 1);
  ASSERT_NE(Head.get(), nullptr);
  payloadWord(Head.get()) = 0;
  for (unsigned I = 1; I != N; ++I) {
    ObjRef Node = Rt.allocate(8, 1);
    ASSERT_NE(Node, nullptr);
    payloadWord(Node) = I;
    Rt.writeRef(Node, 0, Head.get());
    Head.set(Node);
  }
  Rt.collect(true);
  Rt.collect(false);
  Rt.collect(true);

  unsigned Count = 0;
  uint64_t Expect = N - 1;
  for (ObjRef Node = Head.get(); Node;
       Node = Runtime::readRef(Node, 0), --Expect) {
    ASSERT_EQ(payloadWord(Node), Expect);
    ++Count;
  }
  EXPECT_EQ(Count, N);
  Rt.heap().verifyIntegrity();
}

TEST_P(CollectorTest, GarbageIsReclaimed) {
  Runtime Rt(baseConfig(GetParam(), 4 * MiB));
  // Allocate far more than the heap without retaining anything: only
  // reclamation lets this complete.
  for (int I = 0; I != 200000; ++I)
    ASSERT_NE(Rt.allocate(48, 2), nullptr) << "iteration " << I;
  EXPECT_FALSE(Rt.outOfMemory());
  EXPECT_GT(Rt.stats().GcCount, 0u);
}

TEST_P(CollectorTest, OutOfMemoryOnLiveOverflow) {
  Runtime Rt(baseConfig(GetParam(), 2 * MiB));
  // Retain everything: a 2 MiB heap cannot hold 4 MiB of live data.
  std::vector<Handle> Handles;
  bool SawNull = false;
  for (int I = 0; I != 40000; ++I) {
    ObjRef Obj = Rt.allocate(96, 1);
    if (!Obj) {
      SawNull = true;
      break;
    }
    Handles.push_back(Handle(Rt, Obj));
  }
  EXPECT_TRUE(SawNull);
  EXPECT_TRUE(Rt.outOfMemory());
}

TEST_P(CollectorTest, ObjectGraphWithMutationStaysConsistent) {
  Runtime Rt(baseConfig(GetParam()));
  Rng Rand(2024);
  // A web of objects with random re-linking; checksums in payloads.
  constexpr unsigned N = 400;
  Handle Table = Rt.allocateRooted(0, N);
  ASSERT_NE(Table.get(), nullptr);
  for (unsigned I = 0; I != N; ++I) {
    ObjRef Obj = Rt.allocate(16, 3);
    ASSERT_NE(Obj, nullptr);
    payloadWord(Obj) = I * 31;
    Rt.writeRef(Table.get(), I, Obj);
  }
  for (int Round = 0; Round != 30; ++Round) {
    // Random mutations (exercises the sticky barrier).
    for (int M = 0; M != 200; ++M) {
      ObjRef Src =
          Runtime::readRef(Table.get(), Rand.nextBelow(N));
      ObjRef Dst =
          Runtime::readRef(Table.get(), Rand.nextBelow(N));
      Rt.writeRef(Src, Rand.nextBelow(3), Dst);
    }
    // Garbage pressure.
    for (int A = 0; A != 2000; ++A)
      ASSERT_NE(Rt.allocate(Rand.nextBool(0.1) ? 600 : 40, 1), nullptr);
    if (Round % 7 == 0)
      Rt.collect(Round % 14 == 0);
    // Verify all checksums.
    for (unsigned I = 0; I != N; ++I) {
      ObjRef Obj = Runtime::readRef(Table.get(), I);
      ASSERT_EQ(payloadWord(Obj), I * 31) << "round " << Round;
    }
    Rt.heap().verifyIntegrity();
  }
}

TEST_P(CollectorTest, LargeObjectsSurviveAndDie) {
  Runtime Rt(baseConfig(GetParam()));
  Handle Keeper = Rt.allocateRooted(64 * KiB, 2);
  ASSERT_NE(Keeper.get(), nullptr);
  EXPECT_TRUE(objectHasFlag(Keeper.get(), FlagLarge));
  payloadWord(Keeper.get()) = 0xFEEDFACE;
  size_t PagesWithLive = Rt.heap().largeObjectSpace().pagesHeld();

  // Unreferenced large objects churn through the LOS.
  for (int I = 0; I != 200; ++I)
    ASSERT_NE(Rt.allocate(32 * KiB, 0), nullptr);
  Rt.collect(true);
  EXPECT_EQ(payloadWord(Keeper.get()), 0xFEEDFACEu);
  EXPECT_LE(Rt.heap().largeObjectSpace().pagesHeld(), PagesWithLive + 16);
}

TEST_P(CollectorTest, RootHandlesFollowMoves) {
  Runtime Rt(baseConfig(GetParam()));
  std::vector<Handle> Handles;
  for (int I = 0; I != 100; ++I) {
    ObjRef Obj = Rt.allocate(8, 0);
    ASSERT_NE(Obj, nullptr);
    payloadWord(Obj) = I;
    Handles.push_back(Handle(Rt, Obj));
  }
  for (int GC = 0; GC != 4; ++GC)
    Rt.collect(GC % 2 == 0);
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(payloadWord(Handles[I].get()), static_cast<uint64_t>(I));
}

TEST_P(CollectorTest, ManyFullCollectionsSurviveEpochWrap) {
  // Regression test: MaxEpoch is 250; the wrap at the 250th full
  // collection once let the evacuation allocator overwrite live data.
  Runtime Rt(baseConfig(GetParam(), 4 * MiB));
  Handle Keep = Rt.allocateRooted(8, 1);
  ASSERT_NE(Keep.get(), nullptr);
  payloadWord(Keep.get()) = 0xABCD;
  for (int I = 0; I != 300; ++I) {
    // Some churn so collections have work to do.
    for (int A = 0; A != 300; ++A)
      ASSERT_NE(Rt.allocate(40, 1), nullptr);
    Rt.collect(true);
    ASSERT_EQ(payloadWord(Keep.get()), 0xABCDu) << "full GC " << I;
  }
  EXPECT_GE(Rt.stats().FullGcCount, 300u);
  Rt.heap().verifyIntegrity();
}

INSTANTIATE_TEST_SUITE_P(
    AllCollectors, CollectorTest,
    ::testing::Values(CollectorKind::MarkSweep, CollectorKind::Immix,
                      CollectorKind::StickyMarkSweep,
                      CollectorKind::StickyImmix),
    [](const ::testing::TestParamInfo<CollectorKind> &Info) {
      switch (Info.param) {
      case CollectorKind::MarkSweep:
        return "MS";
      case CollectorKind::Immix:
        return "IX";
      case CollectorKind::StickyMarkSweep:
        return "SMS";
      case CollectorKind::StickyImmix:
        return "SIX";
      }
      return "unknown";
    });

//===----------------------------------------------------------------------===//
// Sticky-specific behaviour
//===----------------------------------------------------------------------===//

TEST(StickyTest, OldToYoungReferenceSurvivesNurseryGc) {
  RuntimeConfig Config = baseConfig(CollectorKind::StickyImmix);
  Runtime Rt(Config);
  Handle Old = Rt.allocateRooted(8, 1);
  ASSERT_NE(Old.get(), nullptr);
  // Make it old: a full collection marks it.
  Rt.collect(true);
  // Mutate the old object to point at a brand-new object; only the write
  // barrier's log can keep the young object alive across a nursery GC
  // (the old object is not re-traced).
  ObjRef Young = Rt.allocate(8, 0);
  ASSERT_NE(Young, nullptr);
  payloadWord(Young) = 777;
  Rt.writeRef(Old.get(), 0, Young);
  EXPECT_GT(Rt.stats().WriteBarrierLogs, 0u);

  Rt.collect(false); // Nursery.
  ObjRef Fetched = Runtime::readRef(Old.get(), 0);
  ASSERT_NE(Fetched, nullptr);
  EXPECT_EQ(payloadWord(Fetched), 777u);
  Rt.heap().verifyIntegrity();
}

TEST(StickyTest, NurseryGcDoesNotCollectOldObjects) {
  Runtime Rt(baseConfig(CollectorKind::StickyImmix));
  Handle Old = Rt.allocateRooted(8, 0);
  payloadWord(Old.get()) = 31337;
  Rt.collect(true);
  uint64_t FullBefore = Rt.stats().FullGcCount;
  Rt.collect(false);
  EXPECT_EQ(payloadWord(Old.get()), 31337u);
  // The nursery collection must not have escalated here (ample heap).
  EXPECT_EQ(Rt.stats().FullGcCount, FullBefore);
  EXPECT_GT(Rt.stats().NurseryGcCount, 0u);
}

TEST(StickyTest, NurserySurvivorsAreCopied) {
  Runtime Rt(baseConfig(CollectorKind::StickyImmix));
  Handle Kept = Rt.allocateRooted(8, 0);
  ObjRef Before = Kept.get();
  Rt.collect(false);
  // Sticky Immix opportunistically copies nursery survivors.
  EXPECT_NE(Kept.get(), Before);
  EXPECT_GT(Rt.stats().ObjectsEvacuated, 0u);
}

//===----------------------------------------------------------------------===//
// Pinning
//===----------------------------------------------------------------------===//

TEST(PinningTest, PinnedObjectsNeverMove) {
  Runtime Rt(baseConfig(CollectorKind::StickyImmix));
  Handle Pinned = Rt.allocateRooted(8, 0, /*Pinned=*/true);
  Handle Movable = Rt.allocateRooted(8, 0);
  ObjRef PinnedBefore = Pinned.get();
  payloadWord(Pinned.get()) = 55;
  for (int I = 0; I != 5; ++I)
    Rt.collect(I % 2 == 0);
  EXPECT_EQ(Pinned.get(), PinnedBefore);
  EXPECT_EQ(payloadWord(Pinned.get()), 55u);
  (void)Movable;
}
