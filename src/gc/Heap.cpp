//===- gc/Heap.cpp - Collectors over the failure-aware heap ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"

#include "obs/Hooks.h"
#include "support/RadixSort.h"

#include "gc/ConcurrentMarker.h"
#include "gc/HeapAuditor.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <unordered_set>

using namespace wearmem;

namespace {

/// A nursery collection that frees less than this fraction of the heap
/// escalates to a full collection.
constexpr double NurseryYieldThreshold = 0.10;
/// A sticky collector forces a full collection after this many
/// consecutive nursery collections.
constexpr unsigned FullGcEvery = 16;
/// Extra full-collection retries the Throttled admission-control path
/// may spend before declaring exhaustion (each retry stops early when a
/// collection frees nothing).
constexpr unsigned ThrottleRetryBudget = 2;
/// Graceful degradation under fault campaigns. A dynamic-failure batch
/// whose accumulated line count since the last collection reaches this
/// threshold triggers an emergency defragmenting collection instead of
/// deferring recovery to the next scheduled one.
constexpr unsigned EmergencyDefragFailedLines = 32;

/// Whole microseconds from \p Start to \p End (Timing-domain metrics
/// only).
uint64_t usBetween(std::chrono::steady_clock::time_point Start,
                   std::chrono::steady_clock::time_point End) {
  return static_cast<uint64_t>(
      std::chrono::duration<double, std::micro>(End - Start).count());
}

uint64_t usSince(std::chrono::steady_clock::time_point Start) {
  return usBetween(Start, std::chrono::steady_clock::now());
}

/// The copy of \p Obj that survives its forwarding chain.
ObjRef finalCopy(ObjRef Obj) {
  while (isForwarded(Obj))
    Obj = forwardee(Obj);
  return Obj;
}

/// \p Obj's reference slots (read the header through finalCopy first).
ObjRef *slotsOf(ObjRef Obj) {
  return reinterpret_cast<ObjRef *>(Obj + ObjectHeaderBytes);
}

} // namespace

Heap::Heap(const HeapConfig &Config)
    : Config(Config),
      BlockShift(static_cast<unsigned>(std::countr_zero(Config.BlockSize))),
      Os_(Config.BudgetPages, Config.Failures,
                          std::max<size_t>(32 * KiB, Config.BlockSize)),
      Los(Os_, this->Config, Stats,
          [this](size_t Pages) {
            return pagesHeld() + Pages <= this->Config.BudgetPages;
          }) {
  assert((Config.FailureAware || Config.Failures.Rate == 0.0) &&
         "failures require a failure-aware heap");
  auto Gate = [this](size_t Pages) {
    return pagesHeld() + Pages <= this->Config.BudgetPages;
  };
  if (isImmix(Config.Collector)) {
    Immix = std::make_unique<ImmixSpace>(Os_, this->Config, Stats, Gate);
    Allocator =
        std::make_unique<ImmixAllocator>(*Immix, this->Config, Stats);
    EvacAllocator =
        std::make_unique<ImmixAllocator>(*Immix, this->Config, Stats);
    EvacAllocator->setAllowPerfectFallback(false);
    Allocator->setHoleEpochs(Epoch, Epoch);
  } else {
    FreeList =
        std::make_unique<FreeListSpace>(Os_, this->Config, Stats, Gate);
  }
  if (this->Config.GcThreads > 1)
    Workers = std::make_unique<GcWorkerPool>(this->Config.GcThreads);
  CycleStores.resize(1);
}

Heap::~Heap() {
  // Join the marker before any member is torn down: a shutdown request
  // lets an in-flight slice finish against a still-fully-alive heap.
  if (Marker)
    Marker->shutdown();
}

//===----------------------------------------------------------------------===//
// Mutator lanes
//===----------------------------------------------------------------------===//

void Heap::setMutatorLanes(unsigned Lanes) {
  assert(!InCollection && "cannot reconfigure lanes during collection");
  assert(!IncCycle &&
         "cannot reconfigure lanes while a mark cycle is open");
  Lanes = std::max(1u, Lanes);
  assert((Lanes == 1 || Immix) &&
         "multi-lane mutators require an Immix collector");
  MutatorLanes = Lanes;
  ActiveLane = 0;
  ExtraLaneAllocators.clear();
  for (unsigned Lane = 1; Lane < Lanes; ++Lane) {
    auto A = std::make_unique<ImmixAllocator>(*Immix, Config, Stats);
    A->setHoleEpochs(Epoch, Epoch);
    A->setLane(static_cast<int>(Lane));
    ExtraLaneAllocators.push_back(std::move(A));
  }
  if (Allocator)
    Allocator->setLane(Lanes > 1 ? 0 : -1);
  // One SATB buffer and one fixup-barrier buffer per lane: the write
  // barrier appends to the active lane's thread-confined buffers (no
  // cycle is open here, so both logs are empty and safe to reprovision).
  Satb.setLanes(Lanes);
  CycleStores.assign(Lanes, {});
  {
    std::lock_guard<std::mutex> Lock(MailboxMu);
    LaneMailboxes.assign(Lanes, {});
  }
}

void Heap::setActiveLane(unsigned Lane) {
  assert(Lane < MutatorLanes && "lane out of range");
  ActiveLane = Lane;
}

ImmixAllocator &Heap::laneAllocator(unsigned Lane) {
  assert(Lane < MutatorLanes && "lane out of range");
  return Lane == 0 ? *Allocator : *ExtraLaneAllocators[Lane - 1];
}

void Heap::forEachLaneAllocator(
    const std::function<void(ImmixAllocator &)> &Fn) {
  if (Allocator)
    Fn(*Allocator);
  for (auto &A : ExtraLaneAllocators)
    Fn(*A);
}

Block *Heap::mutatorTlabBlock(unsigned Lane) const {
  if (Lane >= MutatorLanes)
    return nullptr;
  const ImmixAllocator &A =
      Lane == 0 ? *Allocator : *ExtraLaneAllocators[Lane - 1];
  return A.currentBlock();
}

void Heap::routeDynamicFailureBatch(const std::vector<uint8_t *> &Addrs) {
  if (Addrs.empty() || OutOfMemory)
    return;
  if (MutatorLanes <= 1 || !Immix) {
    injectDynamicFailureBatch(Addrs, /*DeferRecovery=*/true);
    return;
  }
  Stats.InterruptsRouted += Addrs.size();
  std::vector<uint8_t *> Mine;
  std::vector<uint8_t *> Orphans;
  for (uint8_t *Addr : Addrs) {
    Block *B = Immix->blockOf(Addr);
    int Owner = B ? B->ownerLane() : -1;
    if (Owner >= 0 && static_cast<unsigned>(Owner) < MutatorLanes) {
      if (static_cast<unsigned>(Owner) == ActiveLane) {
        Mine.push_back(Addr);
      } else {
        std::lock_guard<std::mutex> Lock(MailboxMu);
        LaneMailboxes[static_cast<size_t>(Owner)].push_back(Addr);
        WEARMEM_TRACE(InterruptRouted, static_cast<uint64_t>(Owner), 1);
      }
    } else {
      Orphans.push_back(Addr);
    }
  }
  if (!Mine.empty()) {
    Stats.InterruptsDelivered += Mine.size();
    WEARMEM_TRACE(InterruptRouted, ActiveLane, Mine.size());
    injectDynamicFailureBatch(Mine, /*DeferRecovery=*/true);
  }
  if (!Orphans.empty()) {
    // No owning thread: fall back to the deferred queue drained at the
    // next end-of-collection safepoint. Flag recovery so a collection
    // arrives promptly even if no allocation slow path does.
    Stats.InterruptsOrphaned += Orphans.size();
    WEARMEM_COUNT_DET_N("gc.interrupts_orphaned", Orphans.size());
    WEARMEM_TRACE(InterruptRouted, ~0ull, Orphans.size());
    {
      std::lock_guard<std::mutex> Lock(DeferredFailureMu);
      DeferredFailures.insert(DeferredFailures.end(), Orphans.begin(),
                              Orphans.end());
    }
    if (!PendingFailureRecovery) {
      PendingFailureRecovery = true;
      ++Stats.DeferredFailureRecoveries;
    }
  }
}

size_t Heap::drainLaneMailbox(unsigned Lane) {
  assert(Lane < MutatorLanes && "lane out of range");
  assert(Lane == ActiveLane && "mailboxes drain on the owning lane's turn");
  std::vector<uint8_t *> Batch;
  {
    std::lock_guard<std::mutex> Lock(MailboxMu);
    if (Lane < LaneMailboxes.size())
      Batch.swap(LaneMailboxes[Lane]);
  }
  if (Batch.empty())
    return 0;
  // Every parked address counts as delivered to this lane (the routing
  // ledger balances on Routed == Delivered + Orphaned), even if the
  // filter below drops some because a collection since routing released
  // their containing block back to the OS pool (those failures are no
  // longer the heap's concern: their failure words traveled with the
  // grant).
  size_t Drained = Batch.size();
  Stats.InterruptsDelivered += Drained;
  if (Immix)
    Batch.erase(std::remove_if(Batch.begin(), Batch.end(),
                               [this](uint8_t *Addr) {
                                 return Immix->blockOf(Addr) == nullptr;
                               }),
                Batch.end());
  if (!Batch.empty())
    injectDynamicFailureBatch(Batch, /*DeferRecovery=*/true);
  return Drained;
}

size_t Heap::laneMailboxDepth(unsigned Lane) const {
  std::lock_guard<std::mutex> Lock(MailboxMu);
  return Lane < LaneMailboxes.size() ? LaneMailboxes[Lane].size() : 0;
}

size_t Heap::pagesHeld() const {
  size_t Pages = Los.pagesHeld();
  if (Immix)
    Pages += Immix->pagesHeld();
  if (FreeList)
    Pages += FreeList->pagesHeld();
  return Pages;
}

//===----------------------------------------------------------------------===//
// Allocation
//===----------------------------------------------------------------------===//

template <typename AllocFn>
uint8_t *Heap::allocWithGcRetry(AllocFn Fn, bool WantPerfect) {
  if (OutOfMemory)
    return nullptr;
  if (uint8_t *Mem = Fn())
    return Mem;
  // First line of defense for sticky collectors: a nursery collection,
  // unless it is time for a periodic full collection, or dynamically
  // failed lines are waiting for their deferred defragmenting collection
  // (this slow path is the "collector is ready" moment, and only a full
  // collection evacuates the fenced-off lines).
  if (isSticky(Config.Collector) && !PendingFailureRecovery &&
      NurseryGcsSinceFull < FullGcEvery) {
    collect(CollectionKind::Nursery);
    if (uint8_t *Mem = Fn())
      return Mem;
  }
  collect(CollectionKind::Full);
  if (uint8_t *Mem = Fn())
    return Mem;
  // Admission control under capacity pressure (Throttled and above):
  // spend a bounded extra full-collection retry budget before declaring
  // exhaustion, stopping as soon as a retry stops improving the yield -
  // two identical fruitless collections prove backing off is futile.
  if (Degradation == DegradationMode::Throttled ||
      Degradation == DegradationMode::Emergency) {
    double PrevYield = LastYield;
    for (unsigned Retry = 0; Retry != ThrottleRetryBudget; ++Retry) {
      ++Stats.ThrottleRetries;
      WEARMEM_COUNT_DET("heap.throttle_retries");
      collect(CollectionKind::Full);
      if (uint8_t *Mem = Fn())
        return Mem;
      if (LastYield <= PrevYield)
        break;
      PrevYield = LastYield;
    }
  }
  // Diagnosed fail-stop, not an abort: classify what ran out so the run
  // result can report it (RunResult::Dnf).
  OutOfMemory = true;
  Dnf = classifyExhaustion(WantPerfect);
  updateDegradationMode();
  return nullptr;
}

ObjRef Heap::allocate(uint32_t PayloadBytes, uint16_t NumRefs,
                      bool Pinned) {
  uint32_t Size = objectBytesFor(PayloadBytes, NumRefs);
  LastRefusal = AllocRefusal::None;
  // Emergency admission control: refuse page-hungry requests (large
  // objects and multi-line mediums) with a typed error instead of
  // burning the last perfect pages or spiralling into a premature
  // fail-stop. Small allocations continue; callers shed the refused
  // load and keep running.
  if (Degradation == DegradationMode::Emergency && !OutOfMemory &&
      Size > Config.LineSize) {
    if (Size >= LargeObjectThreshold) {
      LastRefusal = AllocRefusal::EmergencyLarge;
      ++Stats.RefusedLargeAllocs;
      WEARMEM_COUNT_DET("heap.refused_large_allocs");
    } else {
      LastRefusal = AllocRefusal::EmergencyMedium;
      ++Stats.RefusedMediumAllocs;
      WEARMEM_COUNT_DET("heap.refused_medium_allocs");
    }
    return nullptr;
  }
  uint8_t Flags = Pinned ? FlagPinned : 0;
  uint8_t *Mem = nullptr;
  if (Size >= LargeObjectThreshold) {
    uint64_t GcsBefore = Stats.GcCount;
    Mem = allocWithGcRetry([&] { return Los.alloc(Size); },
                           /*WantPerfect=*/true);
    Stats.GcTriggerLarge += Stats.GcCount - GcsBefore;
    Flags |= FlagLarge;
  } else if (Immix) {
    uint64_t GcsBefore = Stats.GcCount;
    ImmixAllocator &Lane = laneAllocator(ActiveLane);
    Mem = allocWithGcRetry([&] { return Lane.alloc(Size); });
    Stats.GcTriggerSmallMedium += Stats.GcCount - GcsBefore;
  } else {
    assert(Size <= FreeListSpace::maxCellSize() &&
           "non-large object exceeds the largest size class");
    Mem = allocWithGcRetry([&] { return FreeList->alloc(Size); });
  }
  if (!Mem)
    return nullptr;
  initObject(Mem, Size, NumRefs, Flags);
  if (IncCycle) {
    // Allocate black: objects born during an open mark cycle are
    // implicitly live for it. The mark keeps the closing sweep from
    // reclaiming them, the line marks keep their lines out of the hole
    // search, and NewObjects routes them through the closing fixup so
    // evacuations rewrite their reference slots.
    setObjectMark(Mem, Epoch);
    if (Immix && !(Flags & FlagLarge))
      markObjectLines(Immix->blockOf(Mem), Mem, Size);
    IncCycle->NewObjects.push_back(Mem);
  }
  ++Stats.ObjectsAllocated;
  Stats.BytesAllocated += Size;
  return Mem;
}

void Heap::writeRef(ObjRef Src, unsigned Slot, ObjRef Dst) {
  ObjRef *SlotP = refSlot(Src, Slot);
  if (IncCycle) {
    // SATB deletion barrier: the overwritten reference belongs to the
    // snapshot the open mark cycle promised to trace, so it joins the
    // deletion log before the store lands. Logged unconditionally - the
    // tracer deduplicates via mark claims - so the log contents are a
    // pure function of the mutation history, not of drain timing. The
    // sticky object-remembering barrier is suppressed meanwhile: the
    // open cycle is a full trace, which supersedes the mutation log
    // exactly the way a stop-the-world full collection clears it.
    if (ObjRef Old = *SlotP) {
      Satb.push(ActiveLane, Old);
      ++Stats.SatbLogged;
    }
    // Fixup barrier: the trace may already have scanned Src, and then
    // nothing else records that this slot now names an object the close
    // may move.
    if (Dst) {
      Block *B = Immix->blockOf(Dst);
      if (B && B->evacuating())
        CycleStores[ActiveLane].push_back({Src, Slot});
    }
  } else if (isSticky(Config.Collector) && objectMark(Src) == Epoch &&
             !objectHasFlag(Src, FlagLogged)) {
    // Object-remembering barrier: the first mutation of an *old* object
    // logs it, so nursery collections can find old-to-new references.
    setObjectFlag(Src, FlagLogged);
    ModBuf.push_back(Src);
    ++Stats.WriteBarrierLogs;
  }
  // Release publication: a concurrent marker reaching Dst through this
  // slot (acquire load in scanMarked) must observe it fully initialized.
  // Mutator-side readers stay plain - the mutator's own program order
  // already covers them - and on the hot path this compiles to the same
  // plain store as before.
  std::atomic_ref<ObjRef>(*SlotP).store(Dst, std::memory_order_release);
}

//===----------------------------------------------------------------------===//
// Roots
//===----------------------------------------------------------------------===//

unsigned Heap::createRoot(ObjRef Initial) {
  if (!FreeRootSlots.empty()) {
    unsigned Idx = FreeRootSlots.back();
    FreeRootSlots.pop_back();
    Roots[Idx] = Initial;
    return Idx;
  }
  Roots.push_back(Initial);
  return static_cast<unsigned>(Roots.size() - 1);
}

void Heap::releaseRoot(unsigned Idx) {
  assert(Idx < Roots.size() && "root index out of range");
  // Dropping a root overwrites a reference slot: SATB barrier applies.
  if (IncCycle && Roots[Idx]) {
    Satb.push(ActiveLane, Roots[Idx]);
    ++Stats.SatbLogged;
  }
  Roots[Idx] = nullptr;
  FreeRootSlots.push_back(Idx);
}

void Heap::setRoot(unsigned Idx, ObjRef Obj) {
  assert(Idx < Roots.size() && "root index out of range");
  if (IncCycle && Roots[Idx]) {
    Satb.push(ActiveLane, Roots[Idx]);
    ++Stats.SatbLogged;
  }
  Roots[Idx] = Obj;
}

//===----------------------------------------------------------------------===//
// Collection
//===----------------------------------------------------------------------===//

double Heap::collect(CollectionKind Kind) {
  assert(!InCollection && "re-entrant collection");
  if (IncCycle) {
    // A collection demand while a mark cycle is open closes the cycle:
    // the closing pause *is* the full defragmenting collection the
    // trigger asked for (deferred failure recovery included).
    finishIncrementalMarkCycle();
    return LastYield;
  }
  if (Kind == CollectionKind::Nursery &&
      !isSticky(Config.Collector))
    Kind = CollectionKind::Full; // Non-generational: everything is full.
  // Deferred failure recovery needs a *full* defragmenting collection: a
  // nursery pass would sweep away the fresh-failure flags without moving
  // the objects off the failed lines.
  if (PendingFailureRecovery)
    Kind = CollectionKind::Full;

  runCollection(Kind);
  // A nursery collection that freed too little escalates immediately:
  // repeated fruitless nursery collections are worse than one full one.
  if (Kind == CollectionKind::Nursery &&
      LastYield < NurseryYieldThreshold)
    runCollection(CollectionKind::Full);
  return LastYield;
}

size_t Heap::stopWorld() {
  size_t Stopped = Safepoints.stopTheWorld();
  if (Stopped)
    ++Stats.SafepointStops;
  return Stopped;
}

void Heap::runCollection(CollectionKind Kind) {
  // Kill point between batch-recovery phases: failed lines are fenced
  // (and journaled), the defragmenting collection has not started.
  if (Journal && PendingFailureRecovery)
    Journal->crashPoint(CrashPoint::RecoveryPhase);
  // Stop-the-world handshake: peer mutator threads (if any registered)
  // park or sit in a blocked region before the trace may touch the
  // heap. The kill point lands *inside* the handshake window - the
  // world is stopped, the trace has not begun.
  size_t Stopped = stopWorld();
  if (Stopped && Journal)
    Journal->crashPoint(CrashPoint::SafepointHandshake);
  InCollection = true;
  auto Start = Clock::now();
  // The whole pipeline inside one pause: open, an unbudgeted drain,
  // close.
  bool Full = Kind == CollectionKind::Full;
  openCollection(Full);
  drainMark(Full, /*Budget=*/0);
  // Open-plus-trace wall time: Timing domain only.
  WEARMEM_COUNT_TIMING_N("gc.mark_us_total", usSince(Start));
#ifdef WEARMEM_EXPENSIVE_CHECKS
  verifyMarkOracle();
#endif
  closeCollection(Full, Stopped, Start);
}

// Claims Target for this epoch, categorizes it, and queues it for
// scanning. Racing claims CAS the same header word, so every header
// read in here decodes from an atomic snapshot (see Object.h). Shared
// verbatim between the stop-the-world mark phase and the incremental
// steps - one tracer, two pacings - which is what keeps the final
// marked set identical between them.
bool Heap::claimEdge(ObjRef Target, unsigned Wk, bool Full,
                     MarkWorkList &WorkList) {
  uint64_t ClaimedWord;
  if (!tryClaimObjectMark(Target, Epoch, ClaimedWord)) {
    // Another edge claimed it, but this slot needs a fixup all the same
    // if the target is about to move.
    if (!Full || !Immix ||
        (word0Flags(objectWord0Acquire(Target)) & FlagLarge))
      return false;
    return Immix->blockOf(Target)->evacuating();
  }
  MarkWorker &MW = MarkWorkers[Wk];
  ++MW.ObjectsMarked;
#ifdef WEARMEM_EXPENSIVE_CHECKS
  MW.Claimed.push_back(Target);
#endif
  uint8_t Flags = word0Flags(ClaimedWord);
  bool MayMove = false;
  if (Immix && !(Flags & FlagLarge)) {
    Block *B = Immix->blockOf(Target);
    assert(B && "unmanaged address reached the tracer");
    size_t Size = word0Size(ClaimedWord);
    bool Pinned = (Flags & FlagPinned) != 0;
    MayMove = B->evacuating();
    // Every nursery survivor is a copy candidate (Sticky Immix).
    bool WantCopy = !Full || B->evacuating();
    if (WantCopy && !Pinned) {
      // Copying allocates, which is order-dependent; deferred to the
      // serial evacuation phase. The old lines stay unmarked, exactly
      // as the serial collector leaves them on a successful copy.
      MW.EvacCandidates.push_back({candidateKey(B, Target), Target});
    } else if (Pinned && B->hasFreshFailure() &&
               overlapsFailedLine(B, Target, Size)) {
      // A pinned object on a failed line cannot move; the OS will
      // remap the page (Section 3.3.3). Deferred: the remap must
      // precede the line marking (marking a failed line is a no-op),
      // and it mutates OS/journal state serially.
      MW.RemapCandidates.push_back({candidateKey(B, Target), Target});
    } else if (MarkerDeferLines) {
      // Concurrent marker: line marks feed the allocators' availability
      // caches, which mutators rebuild with plain writes mid-cycle, so
      // the marker must not touch them. Park the claim; the closing
      // pause applies the marks (idempotent, order-free) before the
      // sweep. Availability is unchanged either way - the lane
      // allocators honor the (Prev, Epoch) hole rule all cycle.
      MW.DeferredLineMarks.push_back(Target);
    } else {
      markObjectLines(B, Target, Size);
    }
  }
  WorkList.push(Wk, Target);
  return MayMove;
}

void Heap::scanMarked(ObjRef Obj, unsigned Wk, bool Full,
                      MarkWorkList &WorkList) {
  MarkWorker &MW = MarkWorkers[Wk];
  uint64_t Word = objectWord0Acquire(Obj);
  MW.BytesTraced += word0Size(Word);
  // An Immix nursery collection copies every young survivor, so its
  // fixup rescans each scanned object whole; every other collection
  // records only the slots whose referents may move.
  bool Whole = Immix && !Full;
  if (Whole)
    MW.Rescan.push_back(Obj);
  ObjRef *Slots = slotsOf(Obj);
  unsigned NumRefs = word0NumRefs(Word);
  // Acquire pairs with writeRef's release store: a concurrent marker
  // that loads a freshly published reference sees the referent's
  // initialized header and slots. Free at the instruction level; in the
  // stop-the-world phases the slots are stable anyway.
  auto LoadSlot = [Slots](unsigned Slot) {
    return std::atomic_ref<ObjRef>(Slots[Slot]).load(
        std::memory_order_acquire);
  };
  // Start every referent's header on its way before claiming any, so the
  // claims' header misses overlap instead of queuing one by one. (A slot
  // a concurrent mutator rewrites in between is simply claimed from its
  // newer value - the SATB log holds the old one.)
  for (unsigned Slot = 0; Slot != NumRefs; ++Slot)
    if (ObjRef Target = LoadSlot(Slot))
      __builtin_prefetch(Target);
  for (unsigned Slot = 0; Slot != NumRefs; ++Slot) {
    ObjRef Target = LoadSlot(Slot);
    if (Target && claimEdge(Target, Wk, Full, WorkList) && !Whole)
      MW.FixupSlots.push_back({Obj, Slot});
  }
}

//===----------------------------------------------------------------------===//
// The collection pipeline: open, drain, close
//===----------------------------------------------------------------------===//

void Heap::openCollection(bool Full) {
  ++Stats.GcCount;
  WEARMEM_COUNT_DET("gc.collections");
  if (Full)
    WEARMEM_COUNT_DET("gc.collections.full");
  WEARMEM_TRACE(GcBegin, Stats.GcCount, Full ? 1 : 0);

  // Every lane TLAB lapses; the close's sweep reclassifies their blocks.
  forEachLaneAllocator([](ImmixAllocator &A) { A.retire(); });

  uint8_t Prev = Epoch;
  if (Full) {
    ++Stats.FullGcCount;
    NurseryGcsSinceFull = 0;
    Epoch = nextEpoch(Epoch);
    if (Epoch == 1)
      remapMarksOnWrap(Prev);
    // Defragmentation candidates are chosen from the previous sweep's
    // statistics.
    if (Immix)
      Immix->selectDefragCandidates();
    // The mutation log is superseded by the full trace.
    for (ObjRef Logged : ModBuf)
      clearObjectFlag(Logged, FlagLogged);
    ModBuf.clear();
  } else {
    ++Stats.NurseryGcCount;
    ++NurseryGcsSinceFull;
  }
  // Until the close, holes are found against the *previous* sweep, so a
  // live line the trace has not re-marked yet is never mistaken for free
  // space - by evacuation, and by a paced cycle's in-cycle allocation
  // (which marks its own lines at the new epoch: allocate black).
  if (Immix)
    EvacAllocator->setHoleEpochs(Prev, Epoch);
  forEachLaneAllocator(
      [&](ImmixAllocator &A) { A.setHoleEpochs(Prev, Epoch); });

  // Enter the mark phase: dynamic-failure interrupts arriving from here
  // on park in the deferred queue until the close drains them.
  WEARMEM_TRACE(PhaseBegin, 0, Stats.GcCount);
  unsigned NumWorkers = Workers ? Workers->workers() : 1;
  MarkWorkers.clear();
  MarkWorkers.resize(NumWorkers);
  MarkList = std::make_unique<MarkWorkList>(NumWorkers, MarkChunkItems,
                                            MarkMaxDequeChunks);
  InMarkPhase.store(true, std::memory_order_release);
  if (MarkPhaseHook)
    MarkPhaseHook();
  // Seed worker 0 - the slot a concurrent marker owns - and let stealing
  // spread the work: the open is O(roots + logged objects), not O(heap).
  for (ObjRef Root : Roots)
    if (Root)
      claimEdge(Root, 0, Full, *MarkList);
  for (ObjRef Logged : ModBuf) {
    assert(!isForwarded(Logged) &&
           "old objects do not move in nursery collections");
    // Nursery only (a full open just emptied the log). Logged old
    // objects already carry this epoch's mark - that is what made them
    // old - so claiming would skip them: they are scan-only seeds,
    // queued directly.
    MarkList->push(0, Logged);
  }
}

bool Heap::drainMark(bool Full, uint64_t Budget) {
  MarkWorkList &WorkList = *MarkList;
  WorkList.reopen();
  // Deletions first: references overwritten since the last drain rejoin
  // the frontier (mark claims deduplicate re-logged objects). The log
  // only fills while a paced cycle is open. Its drain is not budgeted -
  // it is bounded by mutation since the last pause, which the driver
  // controls - only scanning is.
  Stats.SatbDrained += Satb.drain(
      [&](ObjRef Old) { claimEdge(Old, 0, Full, WorkList); });
  if (Budget != 0)
    WorkList.setQuota(static_cast<int64_t>(Budget));
  auto TraceFn = [&](unsigned Wk) {
    ObjRef Obj;
    while (WorkList.pop(Wk, Obj))
      scanMarked(Obj, Wk, Full, WorkList);
  };
  if (Workers)
    Workers->runOnAll(TraceFn);
  else
    TraceFn(0);
  // A spent quota leaves the rest of the frontier queued; the quiesced
  // probe across every queue decides whether more drains are needed.
  WorkList.reopen();
  return !WorkList.quiesced();
}

uint64_t Heap::closeCollection(bool Full, size_t Stopped,
                               Clock::time_point Start) {
  InMarkPhase.store(false, std::memory_order_release);
  // Apply the line marks the concurrent marker deferred since the last
  // flush handshake (none under the other pacings). Every deferred
  // object is claimed for this epoch and unmoved, so marking is
  // idempotent and order-free - the same line-mark set an inline trace
  // writes.
  applyDeferredLineMarks();

  // Deterministic merge, in worker order.
  for (MarkWorker &MW : MarkWorkers) {
    Stats.ObjectsMarked += MW.ObjectsMarked;
    Stats.BytesTraced += MW.BytesTraced;
  }
  MarkDebug.DequePeakChunks = MarkList->dequePeakChunks();
  MarkDebug.OverflowPeakChunks = MarkList->overflowPeakChunks();
  if (!Full) {
    // Clearing the logged flags is a plain header write, so it waits
    // until no claims can race.
    for (ObjRef Logged : ModBuf)
      clearObjectFlag(Logged, FlagLogged);
    ModBuf.clear();
  }
  WEARMEM_TRACE(PhaseEnd, 0, Stats.GcCount);

  // The rest of the three phases (see Heap.h): serial canonical-order
  // evacuation, then parallel reference fixup. Any worker interleaving
  // yields the same post-collection heap state.
  WEARMEM_TRACE(PhaseBegin, 1, Stats.GcCount);
  Clock::time_point EvacStart = Clock::now();
  evacuatePhase();
  Clock::time_point FixupStart = Clock::now();
  WEARMEM_TRACE(PhaseEnd, 1, Stats.GcCount);
  WEARMEM_TRACE(PhaseBegin, 2, Stats.GcCount);
  fixupPhase();
  Clock::time_point SweepStart = Clock::now();
  WEARMEM_TRACE(PhaseEnd, 2, Stats.GcCount);

  sweepPhase();
  // Per-phase wall time beside gc.mark_us_total, one clock read per
  // phase: Timing domain only.
  WEARMEM_COUNT_TIMING_N("gc.evacuate_us_total",
                         usBetween(EvacStart, FixupStart));
  WEARMEM_COUNT_TIMING_N("gc.fixup_us_total",
                         usBetween(FixupStart, SweepStart));
  WEARMEM_COUNT_TIMING_N("gc.sweep_us_total", usSince(SweepStart));

  // The mutator allocators resume under the (possibly bumped) epoch.
  forEachLaneAllocator(
      [this](ImmixAllocator &A) { A.setHoleEpochs(Epoch, Epoch); });

  if (Full) {
    // The defragmenting trace evacuated (or page-remapped) everything
    // that sat on dynamically failed lines; the recovery debt is paid
    // (batches parked during the mark phase drain below and open a
    // fresh debt).
    PendingFailureRecovery = false;
    DynamicFailedSinceGc = 0;
  }

  double Ms =
      std::chrono::duration<double, std::milli>(Clock::now() - Start)
          .count();
  if (Full)
    FullPausesMs.push_back(Ms);
  else
    NurseryPausesMs.push_back(Ms);
  // Wall-clock: Timing domain only, never in determinism comparisons.
  // Kinds split under distinct macro expansions (the function-local
  // static metric id binds to whichever name fires first).
  uint64_t PauseUs = static_cast<uint64_t>(Ms * 1000.0);
  WEARMEM_COUNT_TIMING_N("gc.pause_us_total", PauseUs);
  if (Full) {
    WEARMEM_COUNT_TIMING_N("gc.pause_full_us_total", PauseUs);
  } else {
    WEARMEM_COUNT_TIMING_N("gc.pause_nursery_us_total", PauseUs);
  }
  WEARMEM_TRACE(GcEnd, Stats.GcCount, Full ? 1 : 0);
  InCollection = false;
  MarkWorkers.clear();
  MarkList.reset();
  // Collection boundaries are the ladder's refresh points: sweep just
  // recounted retirement and the OS pools are quiescent.
  updateDegradationMode();
  if (Stopped)
    Safepoints.resumeTheWorld();
  // End-of-cycle safepoint: apply dynamic failures that arrived while
  // the mark phase was running (or were orphaned by the interrupt
  // router). Runs after the resume so an emergency re-collection it
  // triggers can perform its own handshake.
  drainDeferredFailures();
  return PauseUs;
}

void Heap::evacuatePhase() {
  if (!Immix)
    return;
  // Merge the per-worker candidate lists and process them in canonical
  // (block creation sequence, in-block offset) order: evacuation
  // allocates, so its order determines every forwarding address. Raw
  // addresses would be just as total an order, but block grants are
  // separate host allocations whose relative placement varies between
  // heap instances; the creation sequence and offset depend only on the
  // allocation history, which is what makes post-GC digests comparable
  // across worker counts and across processes. The claim packed both
  // into each candidate's key, so the sort needs no block lookups: a
  // radix sort beats a comparison sort's n log n on the few thousand
  // candidates of a defragmenting collection. Keys are unique, so the
  // order is total.
  auto Sorted = [this](std::vector<Candidate> MarkWorker::*List) {
    std::vector<Candidate> All, Scratch;
    for (MarkWorker &MW : MarkWorkers)
      All.insert(All.end(), (MW.*List).begin(), (MW.*List).end());
    radixSortByKey(All, Scratch, [](const Candidate &C) { return C.Key; });
    return All;
  };
  for (const Candidate &C : Sorted(&MarkWorker::EvacCandidates)) {
    ObjRef Target = C.Obj;
    size_t Size = objectSize(Target);
    if (uint8_t *NewMem = EvacAllocator->alloc(Size)) {
#ifdef WEARMEM_EXPENSIVE_CHECKS
      DebugCopies.push_back({reinterpret_cast<uintptr_t>(NewMem), Size});
#endif
      // The mark phase claimed the old copy's mark byte, so the copy is
      // born marked; the forwarding flag lands on the old copy only.
      std::memcpy(NewMem, Target, Size);
      // The mutation log was emptied before any evacuation can run
      // (full: at the prologue; nursery: at mark-phase end), so a
      // logged flag on the copy could only be stale - strip it rather
      // than let it disable the copy's write barrier.
      if (objectHasFlag(NewMem, FlagLogged))
        clearObjectFlag(NewMem, FlagLogged);
      forwardObject(Target, NewMem);
      ++Stats.ObjectsEvacuated;
      Stats.BytesEvacuated += Size;
      WEARMEM_COUNT_DET("gc.evacuations");
      WEARMEM_OBSERVE_DET("gc.evac_bytes",
                          ({64, 128, 256, 512, 1024, 4096, 16384}), Size);
      WEARMEM_TRACE(Evacuation, Size, 0);
      markObjectLines(Immix->blockOf(NewMem), NewMem, Size);
    } else {
      Block *B = Immix->blockOf(Target);
      if (B->hasFreshFailure() && overlapsFailedLine(B, Target, Size))
        // Could not evacuate an object sitting on a dynamically failed
        // line: fall back to the OS remapping the whole page.
        emergencyPageRemap(B, Target);
      markObjectLines(B, Target, Size);
    }
  }
  for (const Candidate &C : Sorted(&MarkWorker::RemapCandidates)) {
    Block *B = Immix->blockOf(C.Obj);
    ++Stats.PinnedFailurePageRemaps;
    emergencyPageRemap(B, C.Obj);
    markObjectLines(B, C.Obj, objectSize(C.Obj));
  }
}

void Heap::fixupPhase() {
  // Rewrites one slot if its current referent moved. Rechecking the
  // value makes every record idempotent: duplicates, and records whose
  // slot was overwritten since, are harmless.
  auto FixSlot = [](ObjRef *Slot) {
    ObjRef Target = *Slot;
    if (Target && isForwarded(Target))
      *Slot = finalCopy(Target);
  };
  // Each worker fixes what its own scans produced. Every object is
  // scanned by exactly one worker (a closing cycle's births by none),
  // so the writes are disjoint. Headers are read-only here (forwarding
  // was installed by the serial evacuation phase).
  auto FixWorker = [&](unsigned Wk) {
    MarkWorker &MW = MarkWorkers[Wk];
    for (ObjRef Obj : MW.Rescan) {
      ObjRef Final = finalCopy(Obj);
      ObjRef *Slots = slotsOf(Final);
      for (unsigned Slot = 0, E = objectNumRefs(Final); Slot != E; ++Slot)
        FixSlot(Slots + Slot);
    }
    for (const SlotRef &S : MW.FixupSlots)
      FixSlot(slotsOf(finalCopy(S.Obj)) + S.Slot);
  };
  if (Workers)
    Workers->runOnAll(FixWorker);
  else
    FixWorker(0);
  for (std::vector<SlotRef> &Lane : CycleStores) {
    for (const SlotRef &S : Lane)
      FixSlot(slotsOf(finalCopy(S.Obj)) + S.Slot);
    Lane.clear();
  }
  for (ObjRef &Root : Roots)
    if (Root)
      Root = finalCopy(Root);
#ifdef WEARMEM_EXPENSIVE_CHECKS
  verifyFixupOracle();
#endif
}

void Heap::sweepPhase() {
  // Sweep. The O(lines) per-block recounts and the LOS liveness probe
  // shard across the pool; classification and list building stay serial
  // in canonical order.
  GcParallelFor Par;
  if (Workers && Workers->workers() > 1)
    Par = [this](size_t Count, const std::function<void(size_t)> &Fn) {
      Workers->parallelChunks(Count, Fn);
    };
  WEARMEM_TRACE(PhaseBegin, 3, Stats.GcCount);
  if (Immix) {
    // Evacuation is over. Drop its blocks first: one it took but filled
    // with nothing sweeps as free and may be released below, and a
    // later retire would read the freed block.
    EvacAllocator->retire();
    ImmixSweepTotals Totals = Immix->sweep(Epoch, Par);
    WEARMEM_COUNT_DET_N("gc.sweep.lines", Totals.TotalLines);
    Immix->clearDefragCandidates();
    // Return excess empty blocks to the OS pool so page-grained
    // allocators can compete for them (the paper's global block pool).
    // The ledger forgets released blocks: their failure words travel
    // with the grant from here on.
    Immix->releaseExcessFreeBlocks(
        std::max<size_t>(4, Immix->blockCount() / 16),
        [this](const Block &B) {
          Ledger.dropBlock(reinterpret_cast<uintptr_t>(B.base()));
        });
    LastYield =
        Totals.TotalLines == 0
            ? 1.0
            : static_cast<double>(Totals.FreeLines) /
                  static_cast<double>(Totals.TotalLines);
  } else {
    FreeListSpace::SweepTotals Totals = FreeList->sweep(Epoch);
    LastYield = Totals.TotalBytes == 0
                    ? 1.0
                    : static_cast<double>(Totals.FreeBytes) /
                          static_cast<double>(Totals.TotalBytes);
  }
  Los.sweep(Epoch, Par);
  WEARMEM_TRACE(PhaseEnd, 3, Stats.GcCount);

#ifdef WEARMEM_EXPENSIVE_CHECKS
  // Evacuation targets within one collection must never overlap. This
  // caught the sweep-epoch/mark-epoch hole aliasing bug once; keep it
  // available for -DWEARMEM_EXPENSIVE_CHECKS builds.
  if (!DebugCopies.empty()) {
    std::sort(DebugCopies.begin(), DebugCopies.end());
    for (size_t I = 1; I < DebugCopies.size(); ++I) {
      if (DebugCopies[I - 1].first + DebugCopies[I - 1].second >
          DebugCopies[I].first) {
        std::fprintf(stderr, "evac overlap: [%lx +%zu] vs [%lx +%zu]\n",
                     DebugCopies[I - 1].first, DebugCopies[I - 1].second,
                     DebugCopies[I].first, DebugCopies[I].second);
        std::abort();
      }
    }
    DebugCopies.clear();
  }
#endif
}

//===----------------------------------------------------------------------===//
// Paced cycles: the pipeline with the mutator resumed between stages
//===----------------------------------------------------------------------===//

bool Heap::beginIncrementalMarkCycle() {
  if (!(Config.IncrementalMark || Config.ConcurrentMark) || !Immix ||
      IncCycle || InCollection || OutOfMemory)
    return false;
  size_t Stopped = stopWorld();
  auto Start = Clock::now();
  // The open counts as the cycle's (single) full collection: the epoch
  // bumps here and never again until the next cycle, so counter and
  // epoch evolution match a stop-the-world full collection triggered at
  // the same point in the mutation history. The mark phase it enters
  // holds for the whole cycle, so dynamic-failure batches park until the
  // close and fenced-line bookkeeping never races the trace.
  ++Stats.IncrementalCyclesOpened;
  WEARMEM_COUNT_DET("gc.inc.cycles_opened");
  openCollection(/*Full=*/true);
  IncCycle = std::make_unique<IncrementalCycle>();
  WEARMEM_COUNT_TIMING_N("gc.inc.open_us_total", usSince(Start));
  if (Stopped)
    Safepoints.resumeTheWorld();
  if (Config.ConcurrentMark) {
    // Hand the cycle to the marker thread: it exclusively owns worker
    // slot 0 and the work list until the close quiesces it. Line marks
    // defer from here on (the flag flips with the marker parked on both
    // sides, so its claimEdge reads never race).
    if (!Marker)
      Marker = std::make_unique<ConcurrentMarker>(*this);
    MarkerDeferLines = true;
    Marker->cycleOpened();
  }
  return true;
}

bool Heap::incrementalMarkStep() {
  if (!IncCycle)
    return false;
  assert(!Config.ConcurrentMark &&
         "incrementalMarkStep is the interleaved pacing; a concurrent "
         "cycle is driven by the marker thread (satbFlushHandshake)");
  assert(!InCollection && "mark increment inside a collection");
  size_t Stopped = stopWorld();
  auto Start = Clock::now();
  ++Stats.MarkIncrements;
  // Timing domain, not deterministic: with a budget armed, a parallel
  // step may retire a few objects under quota (see MarkWorkList's
  // refund-drop rule), so the number of steps a drain-to-convergence
  // driver issues varies with the worker count - like steal counts,
  // it is a schedule artifact, not a function of the mutation history.
  WEARMEM_COUNT_TIMING("gc.inc.mark_steps");
  bool More = drainMark(/*Full=*/true, Config.MarkBudget);
  WEARMEM_COUNT_TIMING_N("gc.inc.step_us_total", usSince(Start));
  if (Stopped)
    Safepoints.resumeTheWorld();
  return More;
}

void Heap::finishIncrementalMarkCycle() {
  if (!IncCycle)
    return;
  assert(!InCollection && "closing pause inside a collection");
  if (Config.ConcurrentMark && Marker) {
    // Quiesce the marker *before* stopping the world: the marker is not
    // a registered safepoint thread, so it would otherwise keep tracing
    // through the closing pause. The quiesce mutex hands every
    // marker-written structure (worklist state, worker-0 scratch,
    // deferred line marks, its SATB drain tally) to this thread.
    Marker->quiesce();
    MarkerDeferLines = false;
    Stats.SatbDrained += MarkerSatbDrained;
    MarkerSatbDrained = 0;
  }
  size_t Stopped = stopWorld();
  InCollection = true;
  auto Start = Clock::now();
  ++Stats.IncrementalCyclesClosed;
  WEARMEM_COUNT_DET("gc.inc.cycles_closed");

  // TLABs lapse again: the close's sweep reclassifies their blocks.
  forEachLaneAllocator([](ImmixAllocator &A) { A.retire(); });

  // Closing marking: rescan the roots (the *current* root values must
  // be live regardless of barrier history), then drain the deletion log
  // and the frontier with no budget until both stay empty.
  for (ObjRef Root : Roots)
    if (Root)
      claimEdge(Root, 0, /*Full=*/true, *MarkList);
  do
    drainMark(/*Full=*/true, /*Budget=*/0);
  while (!Satb.empty());

  // Objects born during the cycle were never scanned (allocate black:
  // their stores all ran through the barrier), but evacuation may move
  // what they reference - worker 0's fixup rescans them whole.
  MarkWorkers[0].Rescan.insert(MarkWorkers[0].Rescan.end(),
                               IncCycle->NewObjects.begin(),
                               IncCycle->NewObjects.end());
  IncCycle.reset();
  // SATB growth accounting: lifetime high-water marks of the sealed
  // queue and the per-lane buffers. Timing domain - they move with the
  // flush/drain schedule, never with the mutation history.
  WEARMEM_GAUGE_TIMING("gc.satb.sealed_segments_hwm",
                       Satb.sealedSegmentsHighWater());
  WEARMEM_GAUGE_TIMING("gc.satb.lane_pending_hwm",
                       Satb.lanePendingHighWater());
  Satb.reset();
  uint64_t PauseUs = closeCollection(/*Full=*/true, Stopped, Start);
  WEARMEM_COUNT_TIMING_N("gc.inc.close_us_total", PauseUs);
}

//===----------------------------------------------------------------------===//
// Mostly-concurrent marking
//===----------------------------------------------------------------------===//

void Heap::satbFlushHandshake() {
  if (!IncCycle)
    return;
  assert(!InCollection && "flush handshake inside a collection");
  // Quiesce the marker for the handshake window: the deferred
  // line-mark list below is marker-written state, and the brief park
  // (at most one bounded slice) hands it over with happens-before.
  if (Config.ConcurrentMark && Marker)
    Marker->quiesce();
  // Park peers just long enough to seal every lane's partial buffer
  // into the sealed-segment queue and retire the line marks the marker
  // has deferred so far - amortizing the close's O(live set) line-mark
  // bill across the cycle's handshakes. Deliberately *not* a
  // SafepointStops event: it is a sub-pause of the open cycle, visible
  // in the Timing domain only, so deterministic counters stay
  // identical across the three marking modes.
  Safepoints.flushHandshake([this] {
    Satb.sealAll();
    applyDeferredLineMarks(FlushLineMarkBudget);
  });
  WEARMEM_COUNT_TIMING("gc.satb.flush_handshakes");
  if (Marker)
    Marker->resume();
}

void Heap::applyDeferredLineMarks(size_t Budget) {
  // Caller must own the mark state: the marker is quiesced (or never
  // ran) and the world is stopped or single-threaded. Deferred objects
  // are claimed at the current epoch and unmoved, so the marks land
  // idempotently in any order - which is what lets a bounded call
  // retire them back-to-front and leave the remainder for the next
  // window. Line marks are only read by the closing sweep, so *when*
  // a mark lands within the cycle is invisible to the mutators.
  for (MarkWorker &MW : MarkWorkers) {
    std::vector<ObjRef> &List = MW.DeferredLineMarks;
    while (!List.empty()) {
      if (Budget == 0)
        return;
      ObjRef Obj = List.back();
      List.pop_back();
      markObjectLines(Immix->blockOf(Obj), Obj, objectSize(Obj));
      --Budget;
    }
  }
}

bool Heap::concurrentMarkSlice() {
  // Marker-thread only, strictly between cycleOpened() and quiesce():
  // IncCycle, Epoch, MarkWorkers[0] and the work list are all stable
  // (and exclusively the marker's) for that whole window.
  assert(IncCycle && "marker slice without an open cycle");
  MarkWorkList &WorkList = *MarkList;
  // Deletions first, exactly like an interleaved step: sealed segments
  // rejoin the frontier (mark claims deduplicate re-logged objects).
  // The tally merges into Stats.SatbDrained at the close - the marker
  // must not touch Stats fields mutators read mid-run.
  MarkerSatbDrained += Satb.drainSealed(
      [&](ObjRef Old) { claimEdge(Old, 0, /*Full=*/true, WorkList); });
  uint64_t Budget = Config.MarkBudget != 0 ? Config.MarkBudget
                                           : DefaultMarkerSliceQuota;
  uint64_t Scanned = 0;
  ObjRef Obj;
  while (Scanned < Budget && WorkList.tryPop(0, Obj)) {
    scanMarked(Obj, 0, /*Full=*/true, WorkList);
    ++Scanned;
  }
  WEARMEM_COUNT_TIMING_N("gc.cm.objects_scanned", Scanned);
  return Scanned == Budget || !Satb.sealedEmpty();
}

void Heap::drainDeferredFailures() {
  std::vector<uint8_t *> Batch;
  {
    std::lock_guard<std::mutex> Lock(DeferredFailureMu);
    Batch.swap(DeferredFailures);
  }
  if (Batch.empty())
    return;
  if (Immix) {
    // The collection that just finished may have released a containing
    // block back to the OS pool; such failures are no longer the heap's
    // concern (the failure words travel with the grant).
    Batch.erase(std::remove_if(Batch.begin(), Batch.end(),
                               [this](uint8_t *Addr) {
                                 return Immix->blockOf(Addr) == nullptr;
                               }),
                Batch.end());
    if (Batch.empty())
      return;
  }
  injectDynamicFailureBatch(Batch, /*DeferRecovery=*/true);
}

#ifdef WEARMEM_EXPENSIVE_CHECKS
void Heap::verifyMarkOracle() {
  // Serial differential oracle for the parallel mark phase: re-trace
  // the reachable graph read-only and check that exactly the claimable
  // closure was claimed. The seeds are the roots plus, for a nursery
  // collection, the mutation log the close has yet to consume (a full
  // open already emptied it).
  std::unordered_set<const uint8_t *> Claimed;
  for (MarkWorker &MW : MarkWorkers)
    for (ObjRef Obj : MW.Claimed)
      Claimed.insert(Obj);
  std::unordered_set<const uint8_t *> Visited;
  std::vector<ObjRef> Stack;
  auto Push = [&](ObjRef Obj) {
    // Objects move only in evacuation, and the oracle runs between mark
    // and evacuation: a reachable forwarded object is a reference the
    // last collection's fixup missed.
    if (isForwarded(Obj)) {
      std::fprintf(stderr,
                   "reachable object %p is forwarded before evacuation\n",
                   static_cast<void *>(Obj));
      std::abort();
    }
    if (objectMark(Obj) != Epoch) {
      std::fprintf(stderr,
                   "parallel mark missed reachable object %p\n",
                   static_cast<void *>(Obj));
      std::abort();
    }
    // Traverse onward only through objects this phase scanned: claimed
    // ones here, logged nursery seeds below. (Unclaimed-but-marked
    // means an old object in a nursery collection, whose fields the
    // sticky barrier guarantees hold no unlogged young references.)
    if (Claimed.count(Obj) && Visited.insert(Obj).second)
      Stack.push_back(Obj);
  };
  for (ObjRef Root : Roots)
    if (Root)
      Push(Root);
  for (ObjRef Logged : ModBuf)
    if (Visited.insert(Logged).second)
      Stack.push_back(Logged);
  while (!Stack.empty()) {
    ObjRef Obj = Stack.back();
    Stack.pop_back();
    for (unsigned Slot = 0, E = objectNumRefs(Obj); Slot != E; ++Slot)
      if (ObjRef Target = *refSlot(Obj, Slot))
        Push(Target);
  }
  for (const uint8_t *Obj : Claimed)
    if (!Visited.count(Obj)) {
      std::fprintf(stderr,
                   "parallel mark claimed unreachable object %p\n",
                   static_cast<const void *>(Obj));
      std::abort();
    }
}

void Heap::verifyFixupOracle() {
  // Reference implementation of the recorded-slot fixup: the full rescan
  // it replaced. Every slot of every object this collection claimed or
  // rescanned (a nursery's scanned set, a closing cycle's births), and
  // every root, must now name a final copy.
  auto Check = [](ObjRef Target, const void *Where) {
    if (Target && isForwarded(Target)) {
      std::fprintf(stderr, "fixup missed a reference to moved %p in %p\n",
                   static_cast<void *>(Target), Where);
      std::abort();
    }
  };
  auto CheckObject = [&](ObjRef Obj) {
    ObjRef Final = finalCopy(Obj);
    ObjRef *Slots = slotsOf(Final);
    for (unsigned Slot = 0, E = objectNumRefs(Final); Slot != E; ++Slot)
      Check(Slots[Slot], Final);
  };
  for (MarkWorker &MW : MarkWorkers) {
    for (ObjRef Obj : MW.Claimed)
      CheckObject(Obj);
    for (ObjRef Obj : MW.Rescan)
      CheckObject(Obj);
  }
  for (ObjRef Root : Roots)
    Check(Root, &Roots);
}
#endif

void Heap::markObjectLines(Block *B, ObjRef Obj, size_t Size) {
  unsigned First = B->lineOf(Obj);
  if (Config.ConservativeLineMarking && Size <= Config.LineSize) {
    // Small objects mark only their first line; the sweep conservatively
    // keeps the following line.
    B->markLineAtomic(First, Epoch);
    return;
  }
  unsigned Last = B->lineOf(Obj + Size - 1);
  for (unsigned Line = First; Line <= Last; ++Line)
    B->markLineAtomic(Line, Epoch);
}

bool Heap::overlapsFailedLine(Block *B, const uint8_t *Obj,
                              size_t Size) const {
  unsigned First = B->lineOf(Obj);
  unsigned Last = B->lineOf(Obj + Size - 1);
  // Parallel mark workers call this while others mark lines of the same
  // block.
  for (unsigned Line = First; Line <= Last; ++Line)
    if (B->lineIsFailedAtomic(Line))
      return true;
  return false;
}

void Heap::emergencyPageRemap(Block *B, const uint8_t *Obj) {
  size_t Size = objectSize(Obj);
  size_t FirstPage =
      static_cast<size_t>(Obj - B->base()) / PcmPageSize;
  size_t LastPage =
      static_cast<size_t>(Obj + Size - 1 - B->base()) / PcmPageSize;
  for (size_t Page = FirstPage; Page <= LastPage; ++Page) {
    const std::vector<uint32_t> &Ids = B->pageIds();
    if (Journal && Page < Ids.size() &&
        !B->pageWasRemapped(static_cast<unsigned>(Page)))
      // Clears durable truth for the page, passes the Remap kill point,
      // then appends the PoolTransition/PageRemap record.
      Journal->recordPageRemap(Ids[Page]);
    WEARMEM_COUNT_DET("gc.pinned_page_remaps");
    WEARMEM_TRACE(PageRemap, Page < Ids.size() ? Ids[Page] : ~0ull, Page);
    // Restored lines come back marked live for this epoch: a non-pinned
    // live object may straddle into a line that failed under it, and
    // until the next full collection re-marks the block, a free mark
    // would let the allocator clobber its tail.
    B->unfailPage(static_cast<unsigned>(Page), Epoch);
    // The failed physical lines are gone from these addresses.
    Ledger.dropPage(reinterpret_cast<uintptr_t>(B->base()), Page);
  }
}

void Heap::remapMarksOnWrap(uint8_t Prev) {
  // The epoch wrapped: stale line marks from old cycles could alias the
  // new epoch values, so zero them - but marks equal to \p Prev (the
  // epoch of the last sweep) must survive, because this collection's
  // evacuation finds holes against exactly that state. Zeroing them too
  // once made the evacuation allocator copy over live objects. Stale
  // Prev-valued marks re-alias only after another full wrap, where the
  // next remap clears them first; until then they merely float a line.
  // (Object marks need no sweep: only dead, unreachable objects carry
  // stale marks, and floating them for one cycle is benign.)
  if (!Immix)
    return;
  Immix->forEachBlock([Prev](Block &B) {
    for (unsigned Line = 0; Line != B.lineCount(); ++Line) {
      uint8_t Mark = B.lineMark(Line);
      if (Mark != LineFailed && Mark != Prev && Mark != 0)
        B.markLine(Line, 0);
    }
  });
}

//===----------------------------------------------------------------------===//
// Dynamic failures
//===----------------------------------------------------------------------===//

void Heap::injectDynamicFailureAt(uint8_t *Addr) {
  // The classic single-failure path: fence off and recover immediately.
  injectDynamicFailureBatch({Addr}, /*DeferRecovery=*/false);
}

void Heap::injectDynamicFailureBatch(const std::vector<uint8_t *> &Addrs,
                                     bool DeferRecovery) {
  if (Addrs.empty() || OutOfMemory)
    return;
  if (InMarkPhase.load(std::memory_order_acquire)) {
    // Mark-phase safepoint contract: failing lines while GC workers
    // trace would race the atomic line marking and could unfence pages
    // mid-phase. Park the batch (this path is the only one that may run
    // concurrently with the collector); the close drains it at the
    // end-of-cycle safepoint - deferred, never lost.
    std::lock_guard<std::mutex> Lock(DeferredFailureMu);
    DeferredFailures.insert(DeferredFailures.end(), Addrs.begin(),
                            Addrs.end());
    ++Stats.MarkPhaseDeferredInterrupts;
    WEARMEM_COUNT_DET("gc.failure_batches_deferred");
    WEARMEM_TRACE(DynamicFailureBatch, Addrs.size(), 1);
    return;
  }
  ++Stats.DynamicFailureBatches;
  WEARMEM_COUNT_DET("gc.dynamic_failure_batches");
  WEARMEM_TRACE(DynamicFailureBatch, Addrs.size(), 0);
  if (!Immix) {
    // Free-list heaps cannot move objects: model the failure-unaware OS
    // handling (copy each affected page to a perfect page).
    Stats.DynamicFailuresHandled += Addrs.size();
    Stats.DynamicFailurePageCopies += Addrs.size();
    return;
  }
  for (size_t I = 0; I != Addrs.size(); ++I) {
    uint8_t *Addr = Addrs[I];
    // Mid-upcall kill point: the first half of the batch is fenced and
    // journaled, the rest is only in the (durable) failure buffer.
    if (Journal && I == Addrs.size() / 2 && I != 0)
      Journal->crashPoint(CrashPoint::InterruptUpcall);
    Block *B = Immix->blockOf(Addr);
    assert(B && "dynamic failure outside the Immix space");
    size_t Offset = static_cast<size_t>(Addr - B->base());
    if (Journal) {
      // Write-ahead, in budget coordinates: durable truth first, then the
      // journal records, then the volatile line marks and ledger below.
      size_t Page = Offset / PcmPageSize;
      const std::vector<uint32_t> &Ids = B->pageIds();
      if (Page < Ids.size() &&
          !B->pageWasRemapped(static_cast<unsigned>(Page))) {
        uint32_t LineInPage =
            static_cast<uint32_t>((Offset % PcmPageSize) / PcmLineSize);
        Journal->recordLineFailure(Ids[Page], LineInPage);
        Journal->recordLedgerEntry(Ids[Page], LineInPage);
      } else {
        ++Stats.UnjournaledFailures;
      }
    }
    B->failPcmLineAt(Offset,
                     /*PreserveSpill=*/Config.ConservativeLineMarking,
                     /*LiveEpoch=*/Epoch);
    B->setFreshFailure(true);
    Ledger.record(reinterpret_cast<uintptr_t>(B->base()), Offset);
    ++Stats.DynamicFailuresHandled;
    ++Stats.FailedLinesDynamic;
  }
  // The fenced lines may sit inside any lane's cached bump regions.
  forEachLaneAllocator([](ImmixAllocator &A) { A.invalidateCache(); });
  DynamicFailedSinceGc += static_cast<unsigned>(Addrs.size());

  if (!DeferRecovery) {
    // The paper's recovery: mark the affected blocks for evacuation and
    // invoke a (full, defragmenting) copying collection.
    collect(CollectionKind::Full);
    return;
  }
  if (DynamicFailedSinceGc >= EmergencyDefragFailedLines) {
    // Storm backstop: so many lines died since the last collection that
    // waiting any longer risks allocating around a minefield.
    ++Stats.EmergencyDefrags;
    PendingFailureRecovery = true;
    collect(CollectionKind::Full);
    return;
  }
  // Hardware (failure buffer) and OS (protected pages) hold the line
  // until the collector is ready; the next slow path or collection pays
  // the debt.
  if (!PendingFailureRecovery) {
    PendingFailureRecovery = true;
    ++Stats.DeferredFailureRecoveries;
  }
  // Fresh wear may have crossed a ladder threshold even without a
  // collection (the collect paths above refresh at the close).
  updateDegradationMode();
}

//===----------------------------------------------------------------------===//
// Degradation ladder
//===----------------------------------------------------------------------===//

DegradationMode Heap::computeDegradationMode() const {
  if (OutOfMemory)
    return DegradationMode::FailStop;
  // Every escalation requires *wear* evidence - retired blocks, dynamic
  // line failures, or perfect-pool pressure under outstanding DRAM debt.
  // A healthy heap that merely grew into its page budget consumes most
  // of the unconsumed perfect stream, so raw pool levels alone must
  // never escalate the mode.
  size_t Blocks = Immix ? Immix->blockCount() : 0;
  size_t Retired = Immix ? Immix->retiredBlockCount() : 0;
  double RetiredFrac =
      Blocks == 0 ? 0.0
                  : static_cast<double>(Retired) / static_cast<double>(Blocks);
  size_t Initial = Os_.initialPerfectPages();
  size_t PerfectLeft =
      Os_.remainingPerfectPages() + Os_.perfectStockPages();
  double PerfectFrac = Initial == 0 ? 1.0
                                    : static_cast<double>(PerfectLeft) /
                                          static_cast<double>(Initial);
  // Outstanding DRAM debt alone is routine near a full heap (fussy
  // requests legitimately borrow once the unconsumed stream is spent);
  // it only signals end-of-life pressure when the device is actually
  // wearing out underneath.
  bool Wearing = Retired != 0 || Stats.FailedLinesDynamic != 0;
  bool PerfectPressure = Wearing && Os_.outstandingDebt() > 0;
  // Dynamically failed line fraction, measured against the storm
  // fail-stop threshold: the ladder arms at a quarter of it and goes to
  // Emergency at half, so a storm walks Normal -> Throttled -> Emergency
  // -> FailStop(storm) instead of jumping straight off the cliff.
  double FailedFrac = 0.0;
  if (Immix && Stats.FailedLinesDynamic != 0) {
    size_t Failed = 0;
    size_t Total = 0;
    Immix->forEachBlock([&](const Block &B) {
      Failed += B.dynamicFailedLines();
      Total += B.lineCount();
    });
    if (Total != 0)
      FailedFrac =
          static_cast<double>(Failed) / static_cast<double>(Total);
  }
  if ((PerfectPressure && PerfectFrac <= Config.EmergencyPerfectFraction) ||
      (Retired >= Config.ThrottleRetiredBlocks &&
       RetiredFrac >= Config.EmergencyRetiredFraction) ||
      FailedFrac >= 0.5 * Config.StormOverloadFraction)
    return DegradationMode::Emergency;
  if ((PerfectPressure && PerfectFrac <= Config.ThrottlePerfectFraction) ||
      Retired >= Config.ThrottleRetiredBlocks ||
      FailedFrac >= 0.25 * Config.StormOverloadFraction)
    return DegradationMode::Throttled;
  return DegradationMode::Normal;
}

void Heap::updateDegradationMode() {
  DegradationMode Next = computeDegradationMode();
  if (Next == Degradation)
    return;
  bool Recovery = Next < Degradation;
  DegradationTransition T;
  T.GcCount = Stats.GcCount;
  T.AllocBytes = Stats.BytesAllocated;
  T.From = Degradation;
  T.To = Next;
  T.Recovery = Recovery;
  if (DegradationLog.size() < DegradationLogCapacity)
    DegradationLog.push_back(T);
  else
    ++DegradationLogDropped;
  ++Stats.DegradationTransitions;
  if (Recovery)
    ++Stats.DegradationRecoveries;
  if (Journal)
    Journal->recordDegradationTransition(static_cast<uint8_t>(Degradation),
                                         static_cast<uint8_t>(Next),
                                         static_cast<uint32_t>(Stats.GcCount),
                                         Recovery);
  WEARMEM_COUNT_DET("heap.degradation_transitions");
  if (Recovery)
    WEARMEM_COUNT_DET("heap.degradation_recoveries");
  WEARMEM_GAUGE_DET("heap.degradation_mode",
                    static_cast<uint64_t>(Next));
  WEARMEM_TRACE(DegradationTransition, static_cast<uint64_t>(Next),
                Recovery ? 1 : 0);
  Degradation = Next;
  if (Next == DegradationMode::Emergency && !PendingFailureRecovery &&
      !InCollection) {
    // Entering Emergency arms a defragmenting full collection at the
    // next opportunity: compaction is the last lever that can pull the
    // heap back from the edge.
    PendingFailureRecovery = true;
    ++Stats.EmergencyDefrags;
  }
}

//===----------------------------------------------------------------------===//
// Fail-stop diagnosis and integrity checking
//===----------------------------------------------------------------------===//

DnfReason Heap::classifyExhaustion(bool WantedPerfect) const {
  // A heap drowning in failed lines died of the storm, whatever request
  // happened to deliver the final blow. Only lines that wore out while
  // running count: a heap born with static failures had its page budget
  // compensated for them, so they say nothing about a storm.
  if (Immix) {
    size_t Failed = 0;
    size_t Total = 0;
    Immix->forEachBlock([&](const Block &B) {
      Failed += B.dynamicFailedLines();
      Total += B.lineCount();
    });
    if (Total != 0 &&
        static_cast<double>(Failed) >=
            Config.StormOverloadFraction * static_cast<double>(Total))
      return DnfReason::FailureStormOverload;
  }
  // A fussy request with no perfect page anywhere - fresh stock, recycled
  // stock - and (by reaching this point) a refused or exhausted DRAM
  // borrow: the perfect pool is spent.
  if (WantedPerfect && Os_.remainingPerfectPages() == 0 &&
      Os_.perfectStockPages() == 0)
    return DnfReason::PerfectPagesExhausted;
  return DnfReason::HeapExhausted;
}

void Heap::verifyIntegrity() const {
  HeapAuditor Auditor(*this);
  AuditReport Report = Auditor.audit();
  if (Report.Violations.empty())
    return;
  for (const std::string &V : Report.Violations)
    std::fprintf(stderr, "heap audit violation: %s\n", V.c_str());
  std::abort();
}
