//===- heap/LargeObjectSpace.h - Page-grained large objects -----*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The large object space: objects at or above the large-object threshold
/// are allocated on their own page runs and never moved. LOS allocation
/// is *fussy* - it needs contiguous perfect pages - which is why Figure
/// 9(b) tracks perfect-page demand: without clustering and under many
/// failures, large-object-heavy workloads (like xalan) lean hard on
/// borrowed perfect pages.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_HEAP_LARGEOBJECTSPACE_H
#define WEARMEM_HEAP_LARGEOBJECTSPACE_H

#include "heap/HeapConfig.h"
#include "heap/Object.h"
#include "os/Os.h"

#include <functional>
#include <unordered_map>
#include <vector>

namespace wearmem {

/// Page-grained space for large objects.
class LargeObjectSpace {
public:
  using BudgetGate = std::function<bool(size_t)>;

  LargeObjectSpace(FailureAwareOs &Os, const HeapConfig &Config,
                   HeapStats &Stats, BudgetGate Gate)
      : Os(Os), Config(Config), Stats(Stats), Gate(std::move(Gate)) {}

  /// Allocates \p Size bytes on fresh perfect pages. Returns nullptr when
  /// the budget or debt cap refuses growth (collection required).
  uint8_t *alloc(size_t Size);

  /// Frees objects whose mark is not \p Epoch, returning their pages in
  /// ascending allocation order (canonical regardless of hash-map
  /// layout, worker count, or where the host placed the grants - the
  /// free order shapes the OS pool's recycling lists, so it must depend
  /// only on the allocation history). A non-empty \p Par shards the
  /// read-only liveness probe across GC workers; the frees stay serial.
  void sweep(uint8_t Epoch, const GcParallelFor &Par = {});

  /// True if \p Obj is a live node of this space.
  bool contains(const uint8_t *Obj) const {
    return Nodes.count(reinterpret_cast<uintptr_t>(Obj)) != 0;
  }

  size_t pagesHeld() const { return PagesHeld; }
  size_t objectCount() const { return Nodes.size(); }

  template <typename Fn> void forEachObject(Fn F) const {
    for (const auto &[Addr, Node] : Nodes)
      F(reinterpret_cast<ObjRef>(Addr));
  }

private:
  struct LosNode {
    PageGrant Grant;
    /// Allocation sequence number: the canonical sweep order.
    uint64_t Seq = 0;
  };

  FailureAwareOs &Os;
  const HeapConfig &Config;
  HeapStats &Stats;
  BudgetGate Gate;
  std::unordered_map<uintptr_t, LosNode> Nodes;
  size_t PagesHeld = 0;
  uint64_t NextSeq = 0;
};

} // namespace wearmem

#endif // WEARMEM_HEAP_LARGEOBJECTSPACE_H
