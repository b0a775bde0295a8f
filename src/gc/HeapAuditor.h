//===- gc/HeapAuditor.h - Cross-layer heap integrity audits -----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cross-layer integrity auditor for the failure-aware heap. Where the
/// old Heap::verifyIntegrity asserted a handful of object-graph facts,
/// the auditor checks that *three independent layers agree* after a
/// collection, which is what makes soak runs under fault campaigns
/// trustworthy:
///
///  1. the object graph - headers sane, no reachable object forwarded,
///     no two reachable objects overlap, and (outside a deferred
///     recovery window) no live object straddles a failed line; the
///     combination is the observable residue of the paper's
///     "allocate only into free lines" invariant;
///  2. heap line states vs page failure words - a failed 64 B PCM line
///     and the Immix line covering it must fail together, in both
///     directions, and retired blocks must be genuinely dead;
///  3. the dynamic-failure ledger (device truth) vs the blocks, and the
///     blocks' failure words vs the OS budget failure map - a failure
///     must never be forgotten by a lower layer that a higher layer
///     still remembers.
///
/// The "only unpinned objects move" invariant is checked the way native
/// code would notice a violation: callers register pinned addresses with
/// expectPinned (and the auditor auto-registers reachable pinned objects
/// across audits); a registered address that stops holding the same
/// pinned object while it is still reachable is a violation.
///
/// The auditor never aborts; it returns a report. Heap::verifyIntegrity
/// wraps it with the old abort-on-violation behaviour for tests.
///
/// Cost. Both graph walks are linear in the reachable set and allocate
/// nothing per object: the visited set (with digest()'s discovery
/// ordinals) is a flat open-addressing table of addresses, block
/// ordinals are a vector indexed by creation sequence, LOS membership is
/// a second flat table filled from the LOS once per pass, and the
/// overlap check radix-sorts plain addresses and reads each size back
/// from its header. On a fleet tenant's heap (12-20k reachable objects,
/// one CPU of a shared 4-vCPU host) a warm digest() costs about
/// 120-180 ns per reachable object, about half of it the FNV-1a mixing
/// of one dependent multiply per byte, and audit() about 90-150 ns,
/// mostly the walk's reads of scattered headers. A fresh auditor's
/// first pass adds the table's doublings. The scratch lives in the
/// auditor and is emptied, not freed, between passes, so a digest()
/// followed by an audit() on one auditor reuses the first pass's tables.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_GC_HEAPAUDITOR_H
#define WEARMEM_GC_HEAPAUDITOR_H

#include "heap/Object.h"

#include <cstdint>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace wearmem {

class Heap;

/// Outcome of one audit pass.
struct AuditReport {
  size_t ObjectsVisited = 0;
  size_t BlocksChecked = 0;
  size_t LedgerLinesChecked = 0;
  /// Human-readable violation descriptions, capped so a systematic
  /// corruption cannot allocate unboundedly.
  std::vector<std::string> Violations;

  bool passed() const { return Violations.empty(); }
};

/// Cross-checks the heap's three failure-tracking layers.
class HeapAuditor {
public:
  explicit HeapAuditor(const Heap &H) : H(H) {}

  /// Registers an address an external observer (native code) believes
  /// holds a pinned object; subsequent audits verify it stays put.
  void expectPinned(const uint8_t *Obj);

  /// Runs every check; O(live set + blocks + ledger).
  AuditReport audit();

  /// Position-independent digest of the post-collection heap state: the
  /// Immix line/block states in creation order plus the reachable object
  /// graph in BFS discovery order, with object locations expressed as
  /// (block ordinal, in-block offset) relative coordinates and
  /// references as discovery ordinals. Two heaps that ran the same
  /// mutator/GC schedule digest equal even in separate address spaces,
  /// which is what the parallel-GC determinism gates compare across
  /// worker counts and runs. With \p HashPayload the raw payload bytes
  /// are folded in too (only meaningful for workloads whose payloads are
  /// address-free).
  uint64_t digest(bool HashPayload = false);

private:
  struct PinRecord {
    uint64_t Stamp;
    bool External; ///< Registered via expectPinned, not auto-tracked.
    /// Heap GcCount when the entry was last seen reachable with a
    /// matching stamp. An auto-tracked pin whose stamp changes is only
    /// a violation if no collection ran since then: a sweep in between
    /// can have legitimately freed the slot for a fresh pinned
    /// allocation faster than the audit cadence could observe it.
    uint64_t ConfirmedAtGc = 0;
  };

  /// A map from object address to a 32-bit value: open addressing with
  /// linear probing over a power-of-two slot array kept at most half
  /// full, so an insert or lookup costs a multiply and a probe or two,
  /// and allocates only when the table doubles. A null key marks an
  /// empty slot (objects are never at address 0). reset() empties the
  /// table and keeps its slots for the next pass.
  class AddressTable {
  public:
    void reset();
    /// Inserts \p Key with \p Value if absent. Returns the value stored
    /// for \p Key and whether this call inserted it.
    std::pair<uint32_t, bool> insert(const uint8_t *Key, uint32_t Value);
    /// Inserts \p Key as a set member; true if it was absent.
    bool insert(const uint8_t *Key) { return insert(Key, 0).second; }
    bool contains(const uint8_t *Key) const;

  private:
    size_t find(const uint8_t *Key) const;

    std::vector<const uint8_t *> Keys;
    std::vector<uint32_t> Values;
    size_t Count = 0;
    unsigned Shift = 64;
  };

  static uint64_t stampOf(const uint8_t *Obj);
  static void note(AuditReport &Report, std::string Msg);
  void collectLosObjects();
  void checkObjectGraph(AuditReport &Report);
  void checkLineStateVsFailureWords(AuditReport &Report);
  void checkLedgerAndOsMaps(AuditReport &Report);
  void checkTlabInvariants(AuditReport &Report);
  void checkPinStability(AuditReport &Report);
  void checkDegradationMode(AuditReport &Report);

  const Heap &H;
  /// Pinned addresses under watch, with a content stamp taken when first
  /// seen. Persistent across audits (keep one auditor alive in soak
  /// mode).
  std::unordered_map<const uint8_t *, PinRecord> PinnedWatch;

  /// Scratch of one pass, kept (emptied) for the next pass on this
  /// auditor. The walk's visited set; digest() keeps each object's
  /// discovery ordinal in it, and audit()'s pin check reads it as the
  /// reachable set.
  AddressTable Seen;
  /// The walk's frontier: digest()'s BFS queue, audit()'s DFS stack.
  std::vector<const uint8_t *> Work;
  /// Every LOS object, so placing an object costs no LOS hash probe.
  AddressTable LosObjects;
  /// Block ordinals (creation order among held blocks), indexed by
  /// creationSeq() - FirstBlockSeq. Creation sequences are unique and
  /// never reused; slots of released blocks are never read.
  std::vector<uint32_t> BlockOrdinals;
  uint64_t FirstBlockSeq = 0;
  /// Addresses of reachable objects with sound headers, sorted for the
  /// overlap check (each size is read back from the header).
  std::vector<uintptr_t> Extents;
  std::vector<uintptr_t> SortBuffer;
  /// Reachable pinned objects in visit order.
  std::vector<const uint8_t *> ReachablePinned;

  static constexpr size_t MaxViolations = 32;
};

} // namespace wearmem

#endif // WEARMEM_GC_HEAPAUDITOR_H
