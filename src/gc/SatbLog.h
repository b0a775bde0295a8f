//===- gc/SatbLog.h - Per-lane SATB deletion log ----------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The snapshot-at-the-beginning deletion log. While an incremental mark
/// cycle is open, Heap::writeRef records every *overwritten* non-null
/// reference here; each mark increment / marker slice (and the final
/// closing pause) drains the log into the tracer, which is what preserves
/// the SATB invariant: everything reachable when the cycle opened gets
/// marked, no matter how the mutator rewires the graph in between.
///
/// The log is split two ways so a concurrent marker can drain it while
/// mutators keep appending:
///
///  * Each mutator lane owns a SatbBuffer: a fixed-capacity active
///    segment the write barrier bump-appends into with no lock and no
///    reallocation (lanes are turnstile-confined, so the append never
///    races). When the segment fills, it is *sealed* - handed to the
///    shared log under its mutex - and a recycled (or fresh) segment
///    takes its place. Per-lane memory is therefore capped at one
///    segment; a write storm spills into the sealed list instead of
///    growing an unbounded thread-local buffer.
///  * The SatbSharedLog holds the sealed segments. The marker (or a
///    closing pause) drains whole segments at a time, recycling them
///    onto a free list so a steady-state cycle stops allocating.
///
/// Partial active segments are sealed at safepoints (the flush-only
/// handshake) and unconditionally by the closing pause, so every logged
/// entry is drained exactly once: SatbDrained == SatbLogged at each
/// cycle close in every marking mode.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_GC_SATBLOG_H
#define WEARMEM_GC_SATBLOG_H

#include "heap/Object.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstddef>
#include <mutex>
#include <vector>

namespace wearmem {

/// Mutex-protected queue of sealed SATB segments plus the segment free
/// list. Mutator lanes submit; the marker (or a safepoint drain) takes.
class SatbSharedLog {
public:
  /// Entries per segment: 256 refs = 2 KiB, the per-lane memory cap.
  static constexpr size_t SegmentEntries = 256;
  using Segment = std::vector<ObjRef>;

  /// Hands a full (or flushed-partial) segment to the drainers.
  void submit(Segment &&Seg) {
    assert(!Seg.empty() && "sealing an empty segment");
    size_t N = Seg.size();
    std::lock_guard<std::mutex> Lock(Mu);
    Sealed.push_back(std::move(Seg));
    Entries.fetch_add(N, std::memory_order_relaxed);
    if (Sealed.size() > SealedSegmentsHighWater)
      SealedSegmentsHighWater = Sealed.size();
  }

  /// A recycled segment if one is free, else a fresh one; either way the
  /// capacity is reserved so the lane's appends never reallocate.
  Segment acquire() {
    Segment Seg;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Free.empty()) {
        Seg = std::move(Free.back());
        Free.pop_back();
      }
    }
    Seg.clear();
    Seg.reserve(SegmentEntries);
    return Seg;
  }

  /// Drains every sealed segment through \p Fn (newest first; order is
  /// irrelevant to the tracer, which deduplicates via mark claims) and
  /// recycles the segments. Returns the number of entries drained.
  template <typename Fn> size_t drainSealed(Fn F) {
    size_t Drained = 0;
    for (;;) {
      Segment Seg;
      {
        std::lock_guard<std::mutex> Lock(Mu);
        if (Sealed.empty())
          break;
        Seg = std::move(Sealed.back());
        Sealed.pop_back();
        Entries.fetch_sub(Seg.size(), std::memory_order_relaxed);
      }
      for (size_t I = Seg.size(); I != 0; --I)
        F(Seg[I - 1]);
      Drained += Seg.size();
      Seg.clear();
      std::lock_guard<std::mutex> Lock(Mu);
      Free.push_back(std::move(Seg));
    }
    return Drained;
  }

  bool sealedEmpty() const {
    return Entries.load(std::memory_order_relaxed) == 0;
  }
  size_t sealedEntries() const {
    return Entries.load(std::memory_order_relaxed);
  }

  /// High-water mark across the log's lifetime (a Timing-domain metric:
  /// it depends on flush/drain scheduling, never on mutation history).
  size_t sealedSegmentsHighWater() const {
    std::lock_guard<std::mutex> Lock(Mu);
    return SealedSegmentsHighWater;
  }

  /// Drops sealed and recycled segments (end-of-cycle teardown).
  void reset() {
    std::lock_guard<std::mutex> Lock(Mu);
    Sealed.clear();
    Free.clear();
    Entries.store(0, std::memory_order_relaxed);
  }

private:
  mutable std::mutex Mu;
  std::vector<Segment> Sealed;
  std::vector<Segment> Free;
  /// Sealed-entry total, readable without the mutex (SatbLog::size and
  /// the marker's more-work probe run off-lock).
  std::atomic<size_t> Entries{0};
  size_t SealedSegmentsHighWater = 0;
};

/// One lane's thread-confined SATB append buffer. The owning lane (under
/// the mutator turnstile, or the sole mutator thread) is the only pusher;
/// seal() may additionally run from whichever thread holds a safepoint
/// over the lane - the handshake's memory ordering covers the handoff.
class SatbBuffer {
public:
  explicit SatbBuffer(SatbSharedLog &Log) : Log(Log) {}

  /// Appends \p Ref; seals the segment to the shared log when full. The
  /// common case is one bump store - no lock, no allocation.
  void push(ObjRef Ref) {
    if (Active.capacity() == 0)
      Active = Log.acquire();
    Active.push_back(Ref);
    if (Active.size() > PendingHighWater)
      PendingHighWater = Active.size();
    if (Active.size() >= SatbSharedLog::SegmentEntries)
      seal();
  }

  /// Hands the partial active segment to the shared log (safepoint
  /// flush / cycle close). No-op when empty.
  void seal() {
    if (Active.empty())
      return;
    Log.submit(std::move(Active));
    Active = Segment();
  }

  size_t pending() const { return Active.size(); }
  size_t pendingHighWater() const { return PendingHighWater; }

private:
  using Segment = SatbSharedLog::Segment;
  SatbSharedLog &Log;
  Segment Active;
  size_t PendingHighWater = 0;
};

/// The heap-facing SATB log: the shared sealed-segment queue plus one
/// SatbBuffer per mutator lane. Single-lane legacy paths are simply lane
/// 0 of the same machinery.
class SatbLog {
public:
  SatbLog() { setLanes(1); }

  /// (Re)provisions per-lane buffers. Must run with no cycle open and
  /// the log empty (lane reconfiguration is a heap-quiescent operation).
  void setLanes(unsigned NumLanes) {
    assert(empty() && "reconfiguring lanes with SATB entries parked");
    Lanes.clear();
    for (unsigned I = 0; I < NumLanes; ++I)
      Lanes.emplace_back(Shared);
  }

  /// The write barrier's append, on the owning lane's thread.
  void push(unsigned Lane, ObjRef Ref) {
    assert(Lane < Lanes.size() && "lane out of range");
    Lanes[Lane].push(Ref);
  }

  /// Seals every lane's partial segment into the shared queue. Callers
  /// guarantee lane quiescence (a safepoint, or single-threaded use).
  void sealAll() {
    for (SatbBuffer &B : Lanes)
      B.seal();
  }

  /// Drains sealed segments only - the concurrent marker's view (lane
  /// partials stay with their lanes until the next flush handshake).
  template <typename Fn> size_t drainSealed(Fn F) {
    return Shared.drainSealed(F);
  }
  bool sealedEmpty() const { return Shared.sealedEmpty(); }

  /// Seals all lanes then drains everything - the safepoint drains
  /// (incremental steps and cycle closes) see every logged entry.
  template <typename Fn> size_t drain(Fn F) {
    sealAll();
    return Shared.drainSealed(F);
  }

  bool empty() const { return size() == 0; }
  size_t size() const {
    size_t N = Shared.sealedEntries();
    for (const SatbBuffer &B : Lanes)
      N += B.pending();
    return N;
  }

  size_t sealedSegmentsHighWater() const {
    return Shared.sealedSegmentsHighWater();
  }
  size_t lanePendingHighWater() const {
    size_t M = 0;
    for (const SatbBuffer &B : Lanes)
      M = std::max(M, B.pendingHighWater());
    return M;
  }

  /// Drops all entries and recycled segments (end of cycle teardown).
  void reset() {
    for (SatbBuffer &B : Lanes)
      B.seal();
    Shared.reset();
  }

private:
  SatbSharedLog Shared;
  std::vector<SatbBuffer> Lanes;
};

} // namespace wearmem

#endif // WEARMEM_GC_SATBLOG_H
