//===- tests/HeapAuditorTest.cpp - Cross-layer auditor tests --------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "gc/HeapAuditor.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <unordered_map>

using namespace wearmem;

namespace {

RuntimeConfig testConfig(double FailureRate = 0.0) {
  RuntimeConfig Config;
  Config.HeapBytes = 4 * MiB;
  Config.FailureRate = FailureRate;
  Config.Seed = 0xAD17;
  return Config;
}

std::vector<Handle> populate(Runtime &Rt, size_t Bytes) {
  std::vector<Handle> Roots;
  for (size_t Allocated = 0; Allocated < Bytes; Allocated += 80) {
    Roots.push_back(Rt.allocateRooted(48, 2));
    EXPECT_NE(Roots.back().get(), nullptr);
  }
  return Roots;
}

std::string firstViolation(const AuditReport &Report) {
  return Report.Violations.empty() ? std::string() : Report.Violations[0];
}

/// A violation text as the auditor formats it.
std::string format(const char *Fmt, ...) {
  char Buf[160];
  va_list Args;
  va_start(Args, Fmt);
  std::vsnprintf(Buf, sizeof(Buf), Fmt, Args);
  va_end(Args);
  return Buf;
}

bool hasViolation(const AuditReport &Report, const std::string &Text) {
  return std::find(Report.Violations.begin(), Report.Violations.end(),
                   Text) != Report.Violations.end();
}

/// Every violation starts with \p Prefix.
bool allViolationsStartWith(const AuditReport &Report,
                            const std::string &Prefix) {
  return std::all_of(Report.Violations.begin(), Report.Violations.end(),
                     [&](const std::string &V) {
                       return V.compare(0, Prefix.size(), Prefix) == 0;
                     });
}

/// Header word0 of a live object, for planting corruption the auditor
/// must report (tests restore it before the runtime is torn down).
uint64_t &headerWord(uint8_t *Obj) {
  return *reinterpret_cast<uint64_t *>(Obj);
}

} // namespace

TEST(HeapAuditorTest, CleanHeapPasses) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB);
  Rt.collect(true);

  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << firstViolation(Report);
  EXPECT_GT(Report.ObjectsVisited, 0u);
  EXPECT_GT(Report.BlocksChecked, 0u);
}

TEST(HeapAuditorTest, PassesWithStaticFailures) {
  // Static intake failures exercise the word<->mark cross-check and the
  // OS budget-map comparison on every block.
  Runtime Rt(testConfig(0.25));
  auto Roots = populate(Rt, MiB);
  Rt.collect(true);

  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << firstViolation(Report);
}

TEST(HeapAuditorTest, PassesAfterDynamicFailureRecovery) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB);
  Rt.collect(true);

  // Fail the lines under a few live objects, then let the deferred
  // defragmenting collection recover them.
  std::vector<uint8_t *> Victims = {Roots[3].get(), Roots[99].get(),
                                    Roots[777].get()};
  Rt.heap().injectDynamicFailureBatch(Victims, /*DeferRecovery=*/true);
  EXPECT_TRUE(Rt.heap().pendingFailureRecovery());
  Rt.collect(true);
  EXPECT_FALSE(Rt.heap().pendingFailureRecovery());

  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << firstViolation(Report);
  EXPECT_GT(Report.LedgerLinesChecked, 0u);
}

TEST(HeapAuditorTest, CatchesLineStateDesync) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB);
  Rt.collect(true);

  // Corrupt the block layer directly: retire the line under a live
  // object *without* recording the failure in the page failure word
  // (i.e. bypass failPcmLineAt). The auditor must see both the
  // word<->mark mismatch and the live object sitting on a failed line.
  uint8_t *Obj = Roots[42].get();
  Block *B = Rt.heap().immixSpace()->blockOf(Obj);
  ASSERT_NE(B, nullptr);
  B->failLine(B->lineOf(Obj));

  HeapAuditor Auditor(Rt.heap());
  AuditReport Report = Auditor.audit();
  EXPECT_FALSE(Report.passed());
}

TEST(HeapAuditorTest, PinnedObjectsStayPutAcrossCollections) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 2);
  Handle Pinned = Rt.allocateRooted(48, 2, /*Pinned=*/true);
  uint8_t *Addr = Pinned.get();

  HeapAuditor Auditor(Rt.heap());
  Auditor.expectPinned(Addr);
  Rt.collect(true);
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << firstViolation(Report);
  // Defragmenting collections must not have moved it.
  EXPECT_EQ(Pinned.get(), Addr);

  Rt.collect(true);
  Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << firstViolation(Report);
}

namespace {

/// Drops a batch of pinned objects, collects so their lines sweep free,
/// then reallocates pinned objects of a different shape until one lands
/// on a previously watched address. Returns that address (nullptr if the
/// allocator never reused one - the caller should ASSERT).
uint8_t *reusePinnedSlot(Runtime &Rt, HeapAuditor &Auditor,
                         std::vector<Handle> &Keep, bool External) {
  std::vector<uint8_t *> Old;
  {
    std::vector<Handle> Doomed;
    for (unsigned I = 0; I != 64; ++I) {
      Doomed.push_back(Rt.allocateRooted(48, 2, /*Pinned=*/true));
      Old.push_back(Doomed.back().get());
    }
    if (External)
      for (uint8_t *Addr : Old)
        Auditor.expectPinned(Addr);
    else {
      AuditReport Seen = Auditor.audit(); // Auto-track the pins.
      EXPECT_TRUE(Seen.passed()) << firstViolation(Seen);
    }
  } // All dropped.
  Rt.collect(true); // Sweep frees their lines.
  for (unsigned I = 0; I != 256; ++I) {
    Keep.push_back(Rt.allocateRooted(48, 3, /*Pinned=*/true));
    uint8_t *Addr = Keep.back().get();
    if (std::find(Old.begin(), Old.end(), Addr) != Old.end())
      return Addr;
  }
  return nullptr;
}

} // namespace

TEST(HeapAuditorTest, PinnedSlotReuseAcrossCollectionIsNotAMove) {
  // An auto-tracked pinned object can die, have its line swept free,
  // and the slot handed to a fresh pinned allocation before the next
  // audit runs (deferred recovery skips the between-GC audits in soak
  // mode, and SATB cycles shift reuse into exactly such gaps). With a
  // collection in between, the changed stamp is legitimate reuse, not
  // evidence of a moved pin.
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 2);
  HeapAuditor Auditor(Rt.heap());
  std::vector<Handle> Keep;
  uint8_t *Addr = reusePinnedSlot(Rt, Auditor, Keep, /*External=*/false);
  ASSERT_NE(Addr, nullptr) << "allocator never reused a watched slot";
  AuditReport Report = Auditor.audit();
  EXPECT_TRUE(Report.passed()) << firstViolation(Report);
}

TEST(HeapAuditorTest, ExternalPinSlotReuseStillFlags) {
  // Native code holds the registered address, so reuse after death is
  // exactly as much a violation as the object vanishing: either the
  // stamp mismatch or the lost registration must surface.
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 2);
  HeapAuditor Auditor(Rt.heap());
  std::vector<Handle> Keep;
  uint8_t *Addr = reusePinnedSlot(Rt, Auditor, Keep, /*External=*/true);
  ASSERT_NE(Addr, nullptr) << "allocator never reused a watched slot";
  AuditReport Report = Auditor.audit();
  EXPECT_FALSE(Report.passed());
}

TEST(HeapAuditorTest, FlagsVanishedExternalPin) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 2);

  HeapAuditor Auditor(Rt.heap());
  {
    // An external observer registers the pin, then the object dies: the
    // next audit must flag the dangling expectation (native code still
    // holds the address).
    Handle Pinned = Rt.allocateRooted(48, 2, /*Pinned=*/true);
    Auditor.expectPinned(Pinned.get());
    AuditReport Alive = Auditor.audit();
    EXPECT_TRUE(Alive.passed()) << firstViolation(Alive);
  }
  Rt.collect(true);

  AuditReport Report = Auditor.audit();
  EXPECT_FALSE(Report.passed());
}

//===----------------------------------------------------------------------===//
// Object-graph violations, one planted fault each
//===----------------------------------------------------------------------===//

TEST(HeapAuditorTest, ReportsOverlappingObjects) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 4);
  Rt.collect(true);

  // Two neighbours from one bump run: growing the first header by one
  // granule makes it cover the second object's header.
  size_t I = 0;
  while (I + 1 < Roots.size() &&
         Roots[I + 1].get() != Roots[I].get() + objectSize(Roots[I].get()))
    ++I;
  ASSERT_LT(I + 1, Roots.size()) << "no adjacent pair";
  uint8_t *First = Roots[I].get();
  uint8_t *Second = Roots[I + 1].get();
  uint32_t Grown = objectSize(First) + ObjectAlignment;
  headerWord(First) += uint64_t(ObjectAlignment) << 32;
  AuditReport Report = HeapAuditor(Rt.heap()).audit();
  headerWord(First) -= uint64_t(ObjectAlignment) << 32;

  EXPECT_EQ(Report.Violations,
            std::vector<std::string>{format(
                "objects overlap: %p (%u bytes) and %p",
                static_cast<const void *>(First), Grown,
                static_cast<const void *>(Second))});
  EXPECT_TRUE(HeapAuditor(Rt.heap()).audit().passed());
}

TEST(HeapAuditorTest, ReportsStaleForwardingFlag) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 4);
  Rt.collect(true);

  uint8_t *Obj = Roots[17].get();
  setObjectFlag(Obj, FlagForwarded);
  AuditReport Report = HeapAuditor(Rt.heap()).audit();
  clearObjectFlag(Obj, FlagForwarded);

  EXPECT_EQ(Report.Violations,
            std::vector<std::string>{format(
                "reachable object %p carries a stale forwarding pointer",
                static_cast<const void *>(Obj))});
}

TEST(HeapAuditorTest, ReportsLiveObjectOnFailedLine) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 4);
  Rt.collect(true);

  // Fail the PCM line under a live object the way the device would, word
  // and Immix line together, but outside any deferred-recovery window:
  // no collection is pending, so nothing may sit on the failed line.
  uint8_t *Obj = Roots[42].get();
  Block *B = Rt.heap().immixSpace()->blockOf(Obj);
  ASSERT_NE(B, nullptr);
  B->failPcmLineAt(static_cast<size_t>(Obj - B->base()));
  ASSERT_FALSE(Rt.heap().pendingFailureRecovery());
  AuditReport Report = HeapAuditor(Rt.heap()).audit();

  EXPECT_TRUE(hasViolation(
      Report, format("live object %p overlaps failed line %u",
                     static_cast<const void *>(Obj), B->lineOf(Obj))))
      << firstViolation(Report);
  // Every other object sharing the line is reported the same way, and
  // the layers below agree with each other.
  EXPECT_TRUE(allViolationsStartWith(Report, "live object "))
      << firstViolation(Report);
}

TEST(HeapAuditorTest, ReportsObjectMarkedAheadOfItsLine) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 4);
  Rt.collect(true);

  uint8_t *Obj = Roots[64].get();
  Block *B = Rt.heap().immixSpace()->blockOf(Obj);
  ASSERT_NE(B, nullptr);
  unsigned Line = B->lineOf(Obj);
  uint8_t Epoch = Rt.heap().epoch();
  ASSERT_EQ(objectMark(Obj), Epoch);
  ASSERT_EQ(B->lineMark(Line), Epoch);
  B->markLine(Line, 0);
  AuditReport Report = HeapAuditor(Rt.heap()).audit();
  B->markLine(Line, Epoch);

  EXPECT_TRUE(hasViolation(
      Report, format("object %p marked at epoch %u but its line mark is %u",
                     static_cast<const void *>(Obj), unsigned(Epoch), 0u)))
      << firstViolation(Report);
  EXPECT_TRUE(allViolationsStartWith(Report, "object "))
      << firstViolation(Report);
}

TEST(HeapAuditorTest, ReportsCorruptHeader) {
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 4);
  Rt.collect(true);

  // More reference slots than the object has room for.
  uint8_t *Obj = Roots[99].get();
  uint32_t Size = objectSize(Obj);
  uint64_t Saved = headerWord(Obj);
  headerWord(Obj) = (Saved & ~(uint64_t(0xFFFF) << 16)) | (uint64_t(200) << 16);
  AuditReport Report = HeapAuditor(Rt.heap()).audit();
  headerWord(Obj) = Saved;

  EXPECT_EQ(Report.Violations,
            std::vector<std::string>{
                format("corrupt header at %p: size=%u refs=%u",
                       static_cast<const void *>(Obj), Size, 200u)});
}

TEST(HeapAuditorTest, ReachableExternalPinsPass) {
  // External pins on small (Immix) and large (LOS) objects, all still
  // reachable: every audit passes, until one pin's object dies, which is
  // reported once, at its registered address.
  Runtime Rt(testConfig());
  auto Roots = populate(Rt, MiB / 2);
  std::vector<Handle> Pins;
  for (unsigned I = 0; I != 8; ++I)
    Pins.push_back(Rt.allocateRooted(48 + 8 * I, 2, /*Pinned=*/true));
  Pins.push_back(Rt.allocateRooted(16 * KiB, 1, /*Pinned=*/true));
  ASSERT_TRUE(Rt.heap().largeObjectSpace().contains(Pins.back().get()));

  HeapAuditor Auditor(Rt.heap());
  std::vector<uint8_t *> Addrs;
  for (Handle &P : Pins) {
    Addrs.push_back(P.get());
    Auditor.expectPinned(P.get());
  }
  for (unsigned Round = 0; Round != 2; ++Round) {
    Rt.collect(true);
    AuditReport Report = Auditor.audit();
    EXPECT_TRUE(Report.passed()) << firstViolation(Report);
    for (size_t I = 0; I != Pins.size(); ++I)
      EXPECT_EQ(Pins[I].get(), Addrs[I]);
  }

  Pins[3].release();
  Rt.collect(true);
  AuditReport Report = Auditor.audit();
  EXPECT_EQ(Report.Violations,
            std::vector<std::string>{format(
                "externally pinned object at %p is no longer reachable at "
                "its registered address",
                static_cast<const void *>(Addrs[3]))});
}

//===----------------------------------------------------------------------===//
// Digest: differential check against a node-map reference
//===----------------------------------------------------------------------===//

namespace {

/// What the reference walk saw, so a test can check its heap covered
/// every placement the digest distinguishes.
struct ReferenceCoverage {
  size_t Objects = 0;
  size_t InBlocks = 0;
  size_t InLos = 0;
  size_t InFreeList = 0;
  size_t Pinned = 0;
};

/// The digest as it was first written, with node-based hash maps for the
/// block and object ordinals. \p RootSlots is the heap's root-slot count
/// (released slots included), which the mutation history below tracks.
uint64_t referenceDigest(const Heap &H, unsigned RootSlots, bool HashPayload,
                         ReferenceCoverage &Seen) {
  constexpr uint64_t FnvOffset = 1469598103934665603ULL;
  constexpr uint64_t FnvPrime = 1099511628211ULL;
  uint64_t D = FnvOffset;
  auto MixByte = [&D](uint8_t Byte) {
    D ^= Byte;
    D *= FnvPrime;
  };
  auto Mix = [&MixByte](uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      MixByte(static_cast<uint8_t>(V >> (I * 8)));
  };

  const ImmixSpace *Immix = H.immixSpace();
  std::unordered_map<const Block *, uint64_t> BlockOrdinal;
  if (Immix) {
    uint64_t Idx = 0;
    Immix->forEachBlock([&](const Block &B) {
      BlockOrdinal.emplace(&B, Idx);
      Mix(Idx++);
      Mix(static_cast<uint64_t>(B.state()));
      Mix(B.freeLines());
      Mix(B.failedLines());
      Mix(B.evacuating() ? 1 : 0);
      for (unsigned Line = 0; Line != B.lineCount(); ++Line)
        MixByte(B.lineMark(Line));
    });
  }

  std::unordered_map<const uint8_t *, uint64_t> Ordinal;
  std::vector<const uint8_t *> Order;
  for (unsigned Idx = 0; Idx != RootSlots; ++Idx) {
    const uint8_t *Root = H.root(Idx);
    Mix(Root ? 1 : 0);
    if (Root && Ordinal.emplace(Root, Order.size()).second)
      Order.push_back(Root);
  }
  for (size_t Head = 0; Head != Order.size(); ++Head) {
    const uint8_t *Obj = Order[Head];
    uint32_t Size = objectSize(Obj);
    uint16_t NumRefs = objectNumRefs(Obj);
    Mix(Head);
    Mix(Size);
    Mix(NumRefs);
    MixByte(objectFlags(Obj));
    MixByte(objectMark(Obj));
    ++Seen.Objects;
    Seen.Pinned += objectHasFlag(Obj, FlagPinned) ? 1 : 0;

    const Block *B = Immix ? Immix->blockOf(Obj) : nullptr;
    if (B) {
      Mix(1);
      Mix(BlockOrdinal[B]);
      Mix(static_cast<uint64_t>(Obj - B->base()));
      ++Seen.InBlocks;
    } else if (H.largeObjectSpace().contains(Obj)) {
      Mix(2);
      ++Seen.InLos;
    } else {
      Mix(3);
      ++Seen.InFreeList;
    }

    for (unsigned Slot = 0; Slot != NumRefs; ++Slot) {
      const uint8_t *Ref = *refSlot(const_cast<ObjRef>(Obj), Slot);
      if (!Ref) {
        Mix(~uint64_t(0));
        continue;
      }
      auto [It, Inserted] = Ordinal.emplace(Ref, Order.size());
      if (Inserted)
        Order.push_back(Ref);
      Mix(It->second);
    }

    if (HashPayload) {
      const uint8_t *Payload = objectPayload(const_cast<ObjRef>(Obj));
      size_t PayloadBytes = objectPayloadSize(Obj);
      Mix(PayloadBytes);
      for (size_t I = 0; I != PayloadBytes; ++I)
        MixByte(Payload[I]);
    }
  }
  return D;
}

/// A seeded graph mutator driving a Heap directly: small, medium and
/// large (LOS) objects, some pinned, shared and cyclic edges, dropped
/// and reused roots, nursery and full collections, and a burst of
/// dynamic failures under live objects. Raw references never live
/// across an allocation. Compares the auditor's digest with the
/// reference at several points; returns how many comparisons ran.
unsigned compareDigestsOverAMutationHistory(CollectorKind Kind,
                                            ReferenceCoverage &Seen) {
  HeapConfig Config;
  Config.Collector = Kind;
  Config.BudgetPages = 16 * MiB / PcmPageSize;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = 0xD16E57;
  // Mark-sweep heaps take failed pages only when they skip failed cells.
  Config.FreeListFailureAware = true;
  Heap Hp(Config);
  Rng Rand(0x5EED0000 + static_cast<uint64_t>(Kind));

  constexpr unsigned NumRoots = 48;
  unsigned RootSlots = 0;
  std::vector<unsigned> Live;
  for (unsigned I = 0; I != NumRoots; ++I) {
    unsigned Idx = Hp.createRoot(nullptr);
    RootSlots = std::max(RootSlots, Idx + 1);
    Live.push_back(Idx);
  }

  unsigned Compared = 0;
  auto Compare = [&] {
    HeapAuditor Auditor(Hp);
    for (bool Payload : {false, true}) {
      ReferenceCoverage Pass;
      uint64_t Want = referenceDigest(Hp, RootSlots, Payload, Pass);
      EXPECT_EQ(Auditor.digest(Payload), Want)
          << "collector " << static_cast<int>(Kind) << ", payload "
          << Payload << ", comparison " << Compared;
      Seen.Objects += Pass.Objects;
      Seen.InBlocks += Pass.InBlocks;
      Seen.InLos += Pass.InLos;
      Seen.InFreeList += Pass.InFreeList;
      Seen.Pinned += Pass.Pinned;
    }
    ++Compared;
  };

  for (unsigned Step = 0; Step != 6000 && !Hp.outOfMemory(); ++Step) {
    uint64_t Roll = Rand.nextBelow(1000);
    uint32_t Payload;
    if (Roll < 8)
      Payload = static_cast<uint32_t>(9 * KiB + Rand.nextBelow(8 * KiB));
    else if (Roll < 60)
      Payload = static_cast<uint32_t>(512 + Rand.nextBelow(1536));
    else
      Payload = static_cast<uint32_t>(8 + Rand.nextBelow(160));
    uint16_t NumRefs = static_cast<uint16_t>(Rand.nextBelow(5));
    bool Pin = Rand.nextBelow(40) == 0;
    ObjRef Obj = Hp.allocate(Payload, NumRefs, Pin);
    if (!Obj)
      break;
    uint8_t *Bytes = objectPayload(Obj);
    for (uint32_t I = 0; I != Payload; ++I)
      Bytes[I] = static_cast<uint8_t>(Step * 31 + I);
    for (unsigned Slot = 0; Slot != NumRefs; ++Slot)
      Hp.writeRef(Obj, Slot,
                  Hp.root(Live[Rand.nextBelow(Live.size())]));
    // Hang the new object off a root, or off a field of a root's object.
    unsigned Target = Live[Rand.nextBelow(Live.size())];
    ObjRef Holder = Hp.root(Target);
    if (Holder && objectNumRefs(Holder) != 0 && Rand.nextBelow(3) == 0)
      Hp.writeRef(Holder, static_cast<unsigned>(
                              Rand.nextBelow(objectNumRefs(Holder))),
                  Obj);
    else
      Hp.setRoot(Target, Obj);

    if (Rand.nextBelow(200) == 0) {
      // Drop a root slot and take a fresh one (the heap reuses it).
      size_t Pick = Rand.nextBelow(Live.size());
      Hp.releaseRoot(Live[Pick]);
      Live[Pick] = Hp.createRoot(nullptr);
      RootSlots = std::max(RootSlots, Live[Pick] + 1);
    }
    if (Step % 1500 == 1499) {
      Hp.collect(Step % 3000 == 2999 ? CollectionKind::Full
                                     : CollectionKind::Nursery);
      Compare();
    }
  }
  EXPECT_FALSE(Hp.outOfMemory());

  // Dynamic failures under live root objects: digest while recovery is
  // pending (objects still on failed lines), then after it ran.
  std::vector<uint8_t *> Victims;
  for (size_t I = 0; I < Live.size(); I += 5)
    if (ObjRef Obj = Hp.root(Live[I]))
      Victims.push_back(Obj);
  Hp.injectDynamicFailureBatch(Victims, /*DeferRecovery=*/true);
  Compare();
  Hp.collect(CollectionKind::Full);
  Compare();
  EXPECT_TRUE(HeapAuditor(Hp).audit().passed());
  // Static failures fenced at block intake and dynamic ones recovered
  // (free-list heaps copy the failed page instead).
  if (isImmix(Kind)) {
    EXPECT_GT(Hp.stats().LinesSkippedFailed, 0u);
    EXPECT_GT(Hp.stats().FailedLinesDynamic, 0u);
  } else {
    EXPECT_GT(Hp.stats().DynamicFailurePageCopies, 0u);
  }
  return Compared;
}

} // namespace

TEST(HeapAuditorDigestTest, MatchesTheNodeMapReferenceUnderEveryCollector) {
  for (CollectorKind Kind :
       {CollectorKind::MarkSweep, CollectorKind::Immix,
        CollectorKind::StickyMarkSweep, CollectorKind::StickyImmix}) {
    ReferenceCoverage Seen;
    unsigned Compared = compareDigestsOverAMutationHistory(Kind, Seen);
    EXPECT_GE(Compared, 4u) << static_cast<int>(Kind);
    EXPECT_GT(Seen.InLos, 0u) << static_cast<int>(Kind);
    EXPECT_GT(Seen.Pinned, 0u) << static_cast<int>(Kind);
    if (isImmix(Kind)) {
      EXPECT_GT(Seen.InBlocks, 0u);
    } else {
      EXPECT_GT(Seen.InFreeList, 0u);
    }
  }
}
