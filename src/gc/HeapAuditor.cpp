//===- gc/HeapAuditor.cpp - Cross-layer heap integrity audits -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "gc/HeapAuditor.h"
#include "gc/Heap.h"
#include "support/RadixSort.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace wearmem {

void HeapAuditor::note(AuditReport &Report, std::string Msg) {
  if (Report.Violations.size() < MaxViolations)
    Report.Violations.push_back(std::move(Msg));
}

uint64_t HeapAuditor::stampOf(const uint8_t *Obj) {
  // Size and ref count identify an object well enough across audits while
  // staying stable under mutation (marks, log flags and payload change
  // legitimately).
  return (static_cast<uint64_t>(objectSize(Obj)) << 16) |
         objectNumRefs(Obj);
}

void HeapAuditor::expectPinned(const uint8_t *Obj) {
  PinnedWatch[Obj] =
      PinRecord{stampOf(Obj), /*External=*/true, H.stats().GcCount};
}

//===----------------------------------------------------------------------===//
// Pass scratch
//===----------------------------------------------------------------------===//

void HeapAuditor::AddressTable::reset() {
  // Small heaps keep small scratch. A fleet tenant's table doubles three
  // or four times in its first pass; starting it at 32k or 64k slots
  // made whole serve set-up calls slower, not faster.
  constexpr unsigned MinSlotsLog2 = 12;
  if (Keys.empty()) {
    Keys.assign(size_t(1) << MinSlotsLog2, nullptr);
    Values.resize(Keys.size());
    Shift = 64 - MinSlotsLog2;
  } else {
    std::fill(Keys.begin(), Keys.end(), nullptr);
  }
  Count = 0;
}

size_t HeapAuditor::AddressTable::find(const uint8_t *Key) const {
  // Fibonacci hashing of the 8-byte granule: neighbouring objects land
  // far apart, and the top bits index the table.
  size_t Mask = Keys.size() - 1;
  size_t Slot = static_cast<size_t>(
      ((reinterpret_cast<uintptr_t>(Key) >> 3) * 0x9E3779B97F4A7C15ULL) >>
      Shift);
  while (Keys[Slot] && Keys[Slot] != Key)
    Slot = (Slot + 1) & Mask;
  return Slot;
}

std::pair<uint32_t, bool>
HeapAuditor::AddressTable::insert(const uint8_t *Key, uint32_t Value) {
  size_t Slot = find(Key);
  if (Keys[Slot])
    return {Values[Slot], false};
  if (2 * (Count + 1) > Keys.size()) {
    // Double and rehash; values travel with their keys.
    std::vector<const uint8_t *> OldKeys(Keys.size() * 2, nullptr);
    std::vector<uint32_t> OldValues(OldKeys.size());
    OldKeys.swap(Keys);
    OldValues.swap(Values);
    --Shift;
    for (size_t I = 0; I != OldKeys.size(); ++I)
      if (OldKeys[I]) {
        size_t To = find(OldKeys[I]);
        Keys[To] = OldKeys[I];
        Values[To] = OldValues[I];
      }
    Slot = find(Key);
  }
  Keys[Slot] = Key;
  Values[Slot] = Value;
  ++Count;
  return {Value, true};
}

bool HeapAuditor::AddressTable::contains(const uint8_t *Key) const {
  return Keys[find(Key)] != nullptr;
}

void HeapAuditor::collectLosObjects() {
  LosObjects.reset();
  H.Los.forEachObject([&](ObjRef Obj) { LosObjects.insert(Obj); });
}

AuditReport HeapAuditor::audit() {
  AuditReport Report;
  checkObjectGraph(Report);
  if (H.Immix) {
    checkLineStateVsFailureWords(Report);
    checkLedgerAndOsMaps(Report);
    checkTlabInvariants(Report);
  }
  checkPinStability(Report);
  checkDegradationMode(Report);
  return Report;
}

//===----------------------------------------------------------------------===//
// Degradation-ladder consistency
//===----------------------------------------------------------------------===//

void HeapAuditor::checkDegradationMode(AuditReport &Report) {
  // The cached mode refreshes at collection boundaries, so between
  // refreshes the live inputs (block count, OS debt) may drift; the
  // audit therefore checks consistency *rules* that hold at any instant
  // rather than strict equality with a recomputation.
  DegradationMode Mode = H.Degradation;
  // Rule 1: FailStop and OutOfMemory imply each other (the fail-stop
  // site refreshes the mode synchronously).
  if (H.OutOfMemory && Mode != DegradationMode::FailStop)
    note(Report, std::string("degradation: heap is out of memory but "
                             "mode is ") +
                     degradationModeName(Mode));
  if (!H.OutOfMemory && Mode == DegradationMode::FailStop)
    note(Report,
         "degradation: mode is fail-stop but the heap is not out of "
         "memory");
  // Rule 2: escalation requires wear or pool-pressure evidence - a
  // Throttled/Emergency mode on a heap with no retired blocks, no
  // dynamic line failures and no DRAM debt is inconsistent with the
  // live perfect-page budget and retirement counts.
  if (Mode == DegradationMode::Throttled ||
      Mode == DegradationMode::Emergency) {
    size_t Retired = H.Immix ? H.Immix->retiredBlockCount() : 0;
    bool Evidence = Retired != 0 || H.Stats.FailedLinesDynamic != 0 ||
                    H.Os_.outstandingDebt() != 0;
    if (!Evidence)
      note(Report, std::string("degradation: mode is ") +
                       degradationModeName(Mode) +
                       " without retired blocks, dynamic failures, or "
                       "outstanding debt");
  }
  // Rule 3: the transition log must be internally consistent - every
  // downward step flagged as a recovery, every entry an actual change,
  // and consecutive entries chained (entry N+1 starts where N ended).
  const std::vector<DegradationTransition> &Log = H.DegradationLog;
  for (size_t I = 0; I != Log.size(); ++I) {
    const DegradationTransition &T = Log[I];
    if (T.From == T.To)
      note(Report, "degradation: logged transition with From == To");
    if ((T.To < T.From) != T.Recovery)
      note(Report, std::string("degradation: ") +
                       degradationModeName(T.From) + " -> " +
                       degradationModeName(T.To) +
                       " has a mislabelled recovery flag");
    if (I + 1 < Log.size() && Log[I + 1].From != T.To)
      note(Report, "degradation: transition log is not chained");
  }
  if (!Log.empty() && H.DegradationLogDropped == 0 &&
      Log.back().To != Mode)
    note(Report, "degradation: cached mode disagrees with the last "
                 "logged transition");
}

//===----------------------------------------------------------------------===//
// Position-independent heap digest
//===----------------------------------------------------------------------===//

uint64_t HeapAuditor::digest(bool HashPayload) {
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

  // Layer A: every Immix block in creation order - state, line counters
  // and the raw line-mark bytes. This is what the sharded sweep and the
  // atomic line marking must reproduce exactly.
  if (H.Immix) {
    uint32_t Idx = 0;
    H.Immix->forEachBlock([&](const Block &B) {
      if (Idx == 0)
        FirstBlockSeq = B.creationSeq();
      size_t Slot = static_cast<size_t>(B.creationSeq() - FirstBlockSeq);
      if (Slot >= BlockOrdinals.size())
        BlockOrdinals.resize(Slot + 1);
      BlockOrdinals[Slot] = Idx;
      Mix(Idx++);
      Mix(static_cast<uint64_t>(B.state()));
      Mix(B.freeLines());
      Mix(B.failedLines());
      Mix(B.evacuating() ? 1 : 0);
      for (unsigned Line = 0; Line != B.lineCount(); ++Line)
        MixByte(B.lineMark(Line));
    });
  }

  // Layer B: the reachable object graph in BFS discovery order from the
  // roots. Objects are identified by discovery ordinal and located by
  // (block ordinal, in-block offset), never by virtual address, so two
  // heaps in different address spaces digest equal; references fold in
  // as the target's ordinal, which pins the whole graph shape.
  collectLosObjects();
  Seen.reset();
  Work.clear();
  auto Discover = [&](const uint8_t *Obj) {
    assert(Work.size() < UINT32_MAX && "discovery ordinals are 32-bit");
    auto [Ordinal, Inserted] =
        Seen.insert(Obj, static_cast<uint32_t>(Work.size()));
    if (Inserted)
      Work.push_back(Obj);
    return Ordinal;
  };
  for (ObjRef Root : H.Roots) {
    Mix(Root ? 1 : 0);
    if (Root)
      Discover(Root);
  }
  for (size_t Head = 0; Head != Work.size(); ++Head) {
    const uint8_t *Obj = Work[Head];
    uint32_t Size = objectSize(Obj);
    uint16_t NumRefs = objectNumRefs(Obj);
    Mix(Head);
    Mix(Size);
    Mix(NumRefs);
    MixByte(objectFlags(Obj));
    MixByte(objectMark(Obj));

    const Block *B =
        H.Immix ? H.Immix->blockOf(Obj) : nullptr;
    if (B) {
      Mix(1);
      Mix(BlockOrdinals[B->creationSeq() - FirstBlockSeq]);
      Mix(static_cast<uint64_t>(Obj - B->base()));
    } else if (LosObjects.contains(Obj)) {
      Mix(2); // LOS placement is content-addressed only.
    } else {
      Mix(3); // Free-list space: ordinal identity only.
    }

    for (unsigned Slot = 0; Slot != NumRefs; ++Slot) {
      const uint8_t *Ref = *refSlot(const_cast<ObjRef>(Obj), Slot);
      if (!Ref) {
        Mix(~uint64_t(0));
        continue;
      }
      Mix(Discover(Ref));
    }

    if (HashPayload) {
      const uint8_t *Payload =
          objectPayload(const_cast<ObjRef>(Obj));
      size_t PayloadBytes = objectPayloadSize(Obj);
      Mix(PayloadBytes);
      for (size_t I = 0; I != PayloadBytes; ++I)
        MixByte(Payload[I]);
    }
  }
  return D;
}

//===----------------------------------------------------------------------===//
// Layer 1: the object graph
//===----------------------------------------------------------------------===//

void HeapAuditor::checkObjectGraph(AuditReport &Report) {
  char Buf[160];
  if (H.Immix)
    collectLosObjects();
  Seen.reset();
  Work.clear();
  Extents.clear();
  ReachablePinned.clear();
  for (ObjRef Root : H.Roots)
    if (Root && Seen.insert(Root))
      Work.push_back(Root);

  while (!Work.empty()) {
    const uint8_t *Obj = Work.back();
    Work.pop_back();
    ++Report.ObjectsVisited;
    if (objectHasFlag(Obj, FlagPinned))
      ReachablePinned.push_back(Obj);

    if (reinterpret_cast<uintptr_t>(Obj) % ObjectAlignment != 0) {
      std::snprintf(Buf, sizeof(Buf), "misaligned object address %p",
                    static_cast<const void *>(Obj));
      note(Report, Buf);
      continue; // The header cannot be trusted.
    }
    uint32_t Size = objectSize(Obj);
    uint16_t NumRefs = objectNumRefs(Obj);
    if (Size < MinObjectBytes || Size % ObjectAlignment != 0 ||
        ObjectHeaderBytes + NumRefs * RefSlotBytes > Size) {
      std::snprintf(Buf, sizeof(Buf),
                    "corrupt header at %p: size=%u refs=%u",
                    static_cast<const void *>(Obj), Size, NumRefs);
      note(Report, Buf);
      continue; // Reference slots cannot be trusted either.
    }
    if (isForwarded(Obj)) {
      std::snprintf(Buf, sizeof(Buf),
                    "reachable object %p carries a stale forwarding pointer",
                    static_cast<const void *>(Obj));
      note(Report, Buf);
    }
    Extents.push_back(reinterpret_cast<uintptr_t>(Obj));

    if (H.Immix) {
      if (Block *B = H.Immix->blockOf(Obj)) {
        if (Obj + Size > B->base() + B->sizeBytes()) {
          std::snprintf(Buf, sizeof(Buf),
                        "object %p (%u bytes) spills out of its block",
                        static_cast<const void *>(Obj), Size);
          note(Report, Buf);
        } else {
          if (B->state() == BlockState::Retired) {
            std::snprintf(Buf, sizeof(Buf),
                          "live object %p inside a retired block",
                          static_cast<const void *>(Obj));
            note(Report, Buf);
          }
          unsigned First = B->lineOf(Obj);
          unsigned Last = B->lineOf(Obj + Size - 1);
          // "Allocate only into free lines": a live object may overlap a
          // failed line only inside a deferred-recovery window, before
          // the defragmenting collection has evacuated it.
          if (!H.PendingFailureRecovery) {
            for (unsigned Line = First; Line <= Last; ++Line)
              if (B->lineIsFailed(Line)) {
                std::snprintf(Buf, sizeof(Buf),
                              "live object %p overlaps failed line %u",
                              static_cast<const void *>(Obj), Line);
                note(Report, Buf);
                break;
              }
          }
          // A traced object's first covering line must carry the same
          // epoch (conservative marking may skip the rest). A line that
          // failed after the trace legitimately lost its mark. While an
          // incremental cycle is open the lag is legitimate too:
          // evacuation candidates (and pinned objects awaiting a page
          // remap) are claimed at the cycle's epoch but keep their old
          // lines unmarked until the closing pause decides copy versus
          // re-mark - exactly the state a stop-the-world mark phase
          // holds privately and an open cycle exposes to audits. Under
          // the concurrent marker the lag covers *every* claim: the
          // marker never touches line marks (they park on the deferred
          // lists until a world-stopped window applies them), so any
          // object it claimed may trail until the closing pause.
          bool LineMarkDeferred =
              H.incrementalCycleOpen() &&
              (H.Config.ConcurrentMark || B->evacuating() ||
               (objectHasFlag(Obj, FlagPinned) && B->hasFreshFailure()));
          if (objectMark(Obj) == H.Epoch && !B->lineIsFailed(First) &&
              !LineMarkDeferred && B->lineMark(First) != H.Epoch) {
            std::snprintf(
                Buf, sizeof(Buf),
                "object %p marked at epoch %u but its line mark is %u",
                static_cast<const void *>(Obj), unsigned(H.Epoch),
                unsigned(B->lineMark(First)));
            note(Report, Buf);
          }
        }
      } else if (objectHasFlag(Obj, FlagLarge) &&
                 !LosObjects.contains(Obj)) {
        std::snprintf(Buf, sizeof(Buf),
                      "large-flagged object %p unknown to the LOS",
                      static_cast<const void *>(Obj));
        note(Report, Buf);
      }
    }

    for (unsigned Slot = 0; Slot != NumRefs; ++Slot) {
      const uint8_t *Ref =
          *refSlot(const_cast<ObjRef>(Obj), Slot);
      if (Ref && Seen.insert(Ref))
        Work.push_back(Ref);
    }
  }

  // No two reachable objects may overlap (the other observable half of
  // allocate-only-into-free-lines: a bump cursor that entered a live or
  // failed hole shows up here). Addresses are unique, so sorting them
  // alone orders the extents: a radix sort measured a third cheaper per
  // audit than std::sort's n log n on fleet tenant heaps.
  radixSortByKey(Extents, SortBuffer,
                 [](uintptr_t Addr) { return uint64_t(Addr); });
  for (size_t I = 1; I < Extents.size(); ++I) {
    uint32_t PrevSize =
        objectSize(reinterpret_cast<const uint8_t *>(Extents[I - 1]));
    if (Extents[I - 1] + PrevSize > Extents[I]) {
      std::snprintf(Buf, sizeof(Buf),
                    "objects overlap: %p (%u bytes) and %p",
                    reinterpret_cast<const void *>(Extents[I - 1]),
                    PrevSize, reinterpret_cast<const void *>(Extents[I]));
      note(Report, Buf);
    }
  }

  // LOS-wide sanity.
  H.Los.forEachObject([&](ObjRef Obj) {
    uint32_t Size = objectSize(Obj);
    uint16_t NumRefs = objectNumRefs(Obj);
    if (Size < MinObjectBytes || Size % ObjectAlignment != 0 ||
        ObjectHeaderBytes + NumRefs * RefSlotBytes > Size) {
      std::snprintf(Buf, sizeof(Buf),
                    "corrupt LOS header at %p: size=%u refs=%u",
                    static_cast<const void *>(Obj), Size, NumRefs);
      note(Report, Buf);
    } else if (!objectHasFlag(Obj, FlagLarge)) {
      std::snprintf(Buf, sizeof(Buf),
                    "LOS object %p lacks the Large flag",
                    static_cast<const void *>(Obj));
      note(Report, Buf);
    }
  });
}

//===----------------------------------------------------------------------===//
// Layer 2: Immix line states vs page failure words
//===----------------------------------------------------------------------===//

void HeapAuditor::checkLineStateVsFailureWords(AuditReport &Report) {
  char Buf[160];
  H.Immix->forEachBlock([&](const Block &B) {
    ++Report.BlocksChecked;
    const std::vector<uint64_t> &Words = B.pageFailureWords();
    size_t LineBytes = B.lineSize();

    // Every failure-word bit must be fenced by a failed Immix line.
    for (size_t Page = 0; Page != Words.size(); ++Page) {
      uint64_t W = Words[Page];
      while (W) {
        unsigned Bit = static_cast<unsigned>(__builtin_ctzll(W));
        W &= W - 1;
        size_t Offset = Page * PcmPageSize + Bit * PcmLineSize;
        if (!B.lineIsFailed(static_cast<unsigned>(Offset / LineBytes))) {
          std::snprintf(Buf, sizeof(Buf),
                        "block %p: failed PCM line at offset %zu not "
                        "fenced by a Failed Immix line",
                        static_cast<const void *>(B.base()), Offset);
          note(Report, Buf);
        }
      }
    }

    unsigned CountedFailed = 0;
    for (unsigned Line = 0; Line != B.lineCount(); ++Line) {
      if (!B.lineIsFailed(Line)) {
        // Retirement zeroes stale marks and nothing may mark a retired
        // block afterwards.
        if (B.state() == BlockState::Retired && B.lineMark(Line) != 0) {
          std::snprintf(Buf, sizeof(Buf),
                        "retired block %p carries mark %u on line %u",
                        static_cast<const void *>(B.base()),
                        unsigned(B.lineMark(Line)), Line);
          note(Report, Buf);
        }
        continue;
      }
      ++CountedFailed;
      // ...and every failed Immix line must trace back to at least one
      // failed PCM line (false failures included: the covering line is
      // failed *because* of the bit).
      if (!Words.empty()) {
        bool Any = false;
        for (size_t Off = Line * LineBytes, Hi = Off + LineBytes;
             Off != Hi; Off += PcmLineSize) {
          size_t Page = Off / PcmPageSize;
          size_t Bit = (Off % PcmPageSize) / PcmLineSize;
          if ((Words[Page] >> Bit) & 1) {
            Any = true;
            break;
          }
        }
        if (!Any) {
          std::snprintf(Buf, sizeof(Buf),
                        "block %p: Failed Immix line %u has no failed "
                        "PCM line behind it",
                        static_cast<const void *>(B.base()), Line);
          note(Report, Buf);
        }
      }
    }
    if (CountedFailed != B.failedLines()) {
      std::snprintf(Buf, sizeof(Buf),
                    "block %p: failedLines()=%u but %u lines are Failed",
                    static_cast<const void *>(B.base()), B.failedLines(),
                    CountedFailed);
      note(Report, Buf);
    }
  });
}

//===----------------------------------------------------------------------===//
// Layer 3: the dynamic-failure ledger and the OS budget map
//===----------------------------------------------------------------------===//

void HeapAuditor::checkLedgerAndOsMaps(AuditReport &Report) {
  char Buf[160];
  // Replay the device-truth ledger: every dynamically failed line must
  // still be present in the block's failure word and fenced in its line
  // marks. (Releases and page remaps prune the ledger, so every entry
  // refers to memory the heap still holds.)
  H.Ledger.forEach([&](uintptr_t Base, size_t Offset) {
    ++Report.LedgerLinesChecked;
    Block *B = H.Immix->blockOf(reinterpret_cast<const uint8_t *>(Base));
    if (!B || reinterpret_cast<uintptr_t>(B->base()) != Base) {
      std::snprintf(Buf, sizeof(Buf),
                    "ledger entry %#zx+%zu for a block the heap no "
                    "longer holds",
                    static_cast<size_t>(Base), Offset);
      note(Report, Buf);
      return;
    }
    const std::vector<uint64_t> &Words = B->pageFailureWords();
    size_t Page = Offset / PcmPageSize;
    size_t Bit = (Offset % PcmPageSize) / PcmLineSize;
    if (Words.empty() || ((Words[Page] >> Bit) & 1) == 0) {
      std::snprintf(Buf, sizeof(Buf),
                    "block %p: dynamic failure at offset %zu lost from "
                    "the page failure word",
                    static_cast<const void *>(B->base()), Offset);
      note(Report, Buf);
    }
    if (!B->lineIsFailed(
            static_cast<unsigned>(Offset / B->lineSize()))) {
      std::snprintf(Buf, sizeof(Buf),
                    "block %p: dynamic failure at offset %zu no longer "
                    "fenced by a Failed line",
                    static_cast<const void *>(B->base()), Offset);
      note(Report, Buf);
    }
  });

  // Blocks of known provenance must remember at least every statically
  // failed line the OS budget map records for their pages. Remapped
  // pages sit on different physical memory and are exempt.
  const FailureMap &BudgetMap = H.Os_.budgetFailureMap();
  H.Immix->forEachBlock([&](const Block &B) {
    const std::vector<uint32_t> &Ids = B.pageIds();
    if (Ids.empty())
      return;
    const std::vector<uint64_t> &Words = B.pageFailureWords();
    size_t Pages = std::min(Ids.size(), Words.size());
    for (size_t Page = 0; Page != Pages; ++Page) {
      if (B.pageWasRemapped(static_cast<unsigned>(Page)))
        continue;
      uint64_t BudgetWord = BudgetMap.pageWord(Ids[Page]);
      if (BudgetWord & ~Words[Page]) {
        std::snprintf(Buf, sizeof(Buf),
                      "block %p page %zu (budget page %u) forgot "
                      "statically failed lines the OS remembers",
                      static_cast<const void *>(B.base()), Page,
                      Ids[Page]);
        note(Report, Buf);
      }
    }
  });
}

//===----------------------------------------------------------------------===//
// Per-lane TLAB invariants (multi-threaded mutators)
//===----------------------------------------------------------------------===//

void HeapAuditor::checkTlabInvariants(AuditReport &Report) {
  char Buf[160];
  // Collect each lane's TLAB blocks: (lane, block, bump cursor, limit).
  struct Tlab {
    unsigned Lane;
    const Block *B;
    const uint8_t *Cursor;
    const uint8_t *Limit;
    const char *Kind;
  };
  std::vector<Tlab> Tlabs;
  auto add = [&](unsigned Lane, const ImmixAllocator &A) {
    if (A.currentBlock())
      Tlabs.push_back(
          {Lane, A.currentBlock(), A.cursor(), A.limit(), "small"});
    if (A.overflowBlock())
      Tlabs.push_back({Lane, A.overflowBlock(), A.ovfCursor(),
                       A.ovfLimit(), "overflow"});
  };
  if (H.Allocator)
    add(0, *H.Allocator);
  for (size_t I = 0; I != H.ExtraLaneAllocators.size(); ++I)
    add(static_cast<unsigned>(I + 1), *H.ExtraLaneAllocators[I]);

  for (const Tlab &T : Tlabs) {
    // Owner tags: a lane's live TLAB block must carry that lane's tag
    // (single-lane mode never tags; the router falls back to the
    // orphan path there, which is correct because there is no one else
    // to deliver to).
    if (H.MutatorLanes > 1 &&
        T.B->ownerLane() != static_cast<int>(T.Lane)) {
      std::snprintf(Buf, sizeof(Buf),
                    "lane %u %s TLAB block %p carries owner tag %d",
                    T.Lane, T.Kind, static_cast<const void *>(T.B->base()),
                    T.B->ownerLane());
      note(Report, Buf);
    }
    // An active TLAB must be an in-use block, never free/recycled where
    // another lane's refill could hand it out again.
    if (T.B->state() != BlockState::InUse) {
      std::snprintf(Buf, sizeof(Buf),
                    "lane %u %s TLAB block %p is in state %u, not InUse",
                    T.Lane, T.Kind, static_cast<const void *>(T.B->base()),
                    static_cast<unsigned>(T.B->state()));
      note(Report, Buf);
    }
    // Bump extent sanity: cursor and limit inside the block, ordered.
    // A null cursor is an invalidated bump region (dynamic failures
    // dropped it); the block stays owned with nothing to check.
    if (!T.Cursor)
      continue;
    const uint8_t *Base = T.B->base();
    const uint8_t *End = Base + T.B->sizeBytes();
    if (T.Cursor > T.Limit || T.Cursor < Base || T.Limit > End) {
      std::snprintf(Buf, sizeof(Buf),
                    "lane %u %s TLAB cursor [%p, %p) outside block %p",
                    T.Lane, T.Kind, static_cast<const void *>(T.Cursor),
                    static_cast<const void *>(T.Limit),
                    static_cast<const void *>(Base));
      note(Report, Buf);
      continue;
    }
    // The remaining bump region must cover no failed line: the hole was
    // carved from free lines and a fresh failure inside it invalidates
    // every lane's cache before the audit can run.
    for (const uint8_t *P = T.Cursor; P < T.Limit;
         P += T.B->lineSize()) {
      unsigned Line = T.B->lineOf(P);
      if (T.B->lineIsFailed(Line)) {
        std::snprintf(Buf, sizeof(Buf),
                      "lane %u %s TLAB bump region covers failed line %u "
                      "of block %p",
                      T.Lane, T.Kind, Line,
                      static_cast<const void *>(Base));
        note(Report, Buf);
        break;
      }
    }
  }

  // No two lanes may share a TLAB block (a shared bump target means two
  // threads would allocate over each other).
  for (size_t I = 0; I != Tlabs.size(); ++I)
    for (size_t J = I + 1; J != Tlabs.size(); ++J)
      if (Tlabs[I].B == Tlabs[J].B && Tlabs[I].Lane != Tlabs[J].Lane) {
        std::snprintf(Buf, sizeof(Buf),
                      "lanes %u and %u share TLAB block %p",
                      Tlabs[I].Lane, Tlabs[J].Lane,
                      static_cast<const void *>(Tlabs[I].B->base()));
        note(Report, Buf);
      }
}

//===----------------------------------------------------------------------===//
// Pin stability ("only unpinned objects move")
//===----------------------------------------------------------------------===//

void HeapAuditor::checkPinStability(AuditReport &Report) {
  char Buf[160];
  for (const uint8_t *Obj : ReachablePinned) {
    auto [It, Inserted] = PinnedWatch.insert(
        {Obj, PinRecord{stampOf(Obj), false, H.stats().GcCount}});
    if (!Inserted) {
      PinRecord &R = It->second;
      if (R.Stamp != stampOf(Obj)) {
        // A collection between audits legitimizes a changed stamp for
        // an auto-tracked pin: the old object can have died, had its
        // line swept free, and the slot been handed to a fresh pinned
        // allocation before any audit could observe the gap (storms
        // defer recovery, which skips the between-GC audits; SATB
        // cycles keep floating garbage alive past the drop, shifting
        // the reuse into exactly such a window). Without a collection
        // there is no legitimate path to a different object at the
        // same address, and an external registration means native code
        // still holds the pointer either way.
        if (R.External || H.stats().GcCount == R.ConfirmedAtGc) {
          std::snprintf(Buf, sizeof(Buf),
                        "pinned object at %p changed identity between "
                        "audits (was it moved and its slot reused?)",
                        static_cast<const void *>(Obj));
          note(Report, Buf);
        }
        R.Stamp = stampOf(Obj);
      }
      R.ConfirmedAtGc = H.stats().GcCount;
    }
  }
  for (auto It = PinnedWatch.begin(); It != PinnedWatch.end();) {
    if (Seen.contains(It->first)) {
      ++It;
      continue;
    }
    if (It->second.External) {
      // Native code still holds this address; losing it means a pinned
      // object moved or was collected out from under its pin.
      std::snprintf(Buf, sizeof(Buf),
                    "externally pinned object at %p is no longer "
                    "reachable at its registered address",
                    static_cast<const void *>(It->first));
      note(Report, Buf);
    }
    It = PinnedWatch.erase(It);
  }
}

} // namespace wearmem
