//===- os/Os.h - Failure-aware OS page provisioning --------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OS memory-provisioning model of Sections 3.2 and 5. A process's PCM
/// budget is a fixed set of pages whose failure bitmaps come from the
/// fault-injection module (uniform, cluster-limit, or push-clustered
/// distributions). Two allocation interfaces are exposed:
///
///  * allocRelaxed - the imperfect-mmap path used by failure-robust
///    allocators (the Immix block space): returns virtually contiguous
///    pages together with their failure maps;
///  * allocPerfect - the fussy path used by page-grained allocators (large
///    object space, overflow blocks): returns only failure-free pages.
///
/// When no perfect PCM page is available, a fussy request borrows a DRAM
/// page and records one page of debt; the relaxed allocator repays debt
/// from the recycled perfect stock, one freed perfect page per borrowed
/// page, before it grants anything (the debit-credit cost model of
/// Section 5, which makes DRAM a scarce, paid-for resource instead of a
/// free fragmentation-immune escape hatch).
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OS_OS_H
#define WEARMEM_OS_OS_H

#include "pcm/FailureMap.h"
#include "pcm/Geometry.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

namespace wearmem {

class MetadataJournal;

/// How the fault injector distributes failures over the process's pages.
enum class FailurePattern {
  /// Independent uniform line failures (the default PCM wear model).
  Uniform,
  /// Fig 8 limit study: aligned 2^N-line clusters fail wholesale.
  ClusterLimit,
  /// Uniform failures remapped by the clustering hardware
  /// (one-/two-page push).
  PushClustered,
  /// A caller-provided map (e.g. from a wear simulation), tiled to cover
  /// the budget.
  Custom,
};

/// Fault-injection parameters for a process's PCM budget.
struct FailureConfig {
  double Rate = 0.0;
  FailurePattern Pattern = FailurePattern::Uniform;
  /// ClusterLimit: cluster granularity in 64 B lines.
  size_t ClusterLines = 1;
  /// PushClustered: hardware region geometry.
  ClusterOptions Cluster;
  /// Custom: the source map to tile over the budget.
  std::shared_ptr<const FailureMap> Custom;
  uint64_t Seed = 0x05EEDULL;
};

/// A virtually contiguous grant of pages. \p FailWords holds one 64-bit
/// per-page failure map (bit i set = line i failed); DRAM pages are always
/// perfect.
struct PageGrant {
  uint8_t *Mem = nullptr;
  size_t NumPages = 0;
  std::vector<uint64_t> FailWords;
  /// Budget page indices backing the grant (relaxed grants only; empty
  /// when provenance is unknown - recycled perfect chunks, DRAM). Lets
  /// auditors cross-check a grant's failure words against the OS budget
  /// failure map.
  std::vector<uint32_t> PageIds;

  size_t sizeBytes() const { return NumPages * PcmPageSize; }
};

/// Host memory backing grants is mapped in chunks of this size, drawn from
/// a process-wide pool that OS models return their chunks to when they are
/// destroyed. Grants are carved from a chunk front to back at the grant
/// alignment; a grant larger than a chunk gets a mapping of its own.
inline constexpr size_t PoolChunkBytes = 1 * MiB;

/// Provisioning statistics (Figure 9(b) reports perfect-page demand).
struct OsStats {
  uint64_t RelaxedPagesGranted = 0;
  uint64_t PerfectPagesRequested = 0;
  uint64_t PerfectPcmServed = 0;
  uint64_t PerfectRecycledServed = 0;
  uint64_t DramBorrowed = 0;
  uint64_t DebtRepaid = 0;
  uint64_t PerfectPagesReturned = 0;
};

/// The per-process provisioning model.
class FailureAwareOs {
public:
  /// \p PcmPages is the process's whole PCM budget; its failure maps are
  /// generated eagerly by the fault injector. Grants are aligned to
  /// \p GrantAlignment bytes (callers mask object addresses down to block
  /// bases, so this must be at least the heap's block size). Grant memory
  /// is not zeroed: it may hold an earlier OS model's data, so every
  /// consumer writes what it hands out before anything reads it.
  FailureAwareOs(size_t PcmPages, const FailureConfig &Failures,
                 size_t GrantAlignment = 32 * KiB);
  ~FailureAwareOs();

  FailureAwareOs(const FailureAwareOs &) = delete;
  FailureAwareOs &operator=(const FailureAwareOs &) = delete;

  /// Imperfect mmap: grants \p NumPages virtually contiguous pages drawn
  /// from the budget in address order, after repaying outstanding debt
  /// from the recycled perfect stock. Returns std::nullopt when the budget
  /// is exhausted.
  std::optional<PageGrant> allocRelaxed(size_t NumPages);

  /// Fussy request: grants \p NumPages virtually contiguous *perfect*
  /// pages, preferring pages previously returned by freePerfect, then
  /// unconsumed perfect PCM, and borrowing DRAM (with debt) otherwise.
  /// \p BlockAligned demands the grant start at the grant alignment
  /// (required when the pages will back a heap block).
  std::optional<PageGrant> allocPerfect(size_t NumPages,
                                        bool BlockAligned = false);

  /// Returns a perfect grant (e.g. a dead large object's pages) to the OS
  /// for re-granting. Virtual remapping makes the pages fully reusable.
  void freePerfect(PageGrant &&Grant);

  /// Returns an imperfect (or perfect) grant with its failure words, e.g.
  /// an empty heap block released back to the global pool. Perfect grants
  /// are routed to the perfect stock.
  void freeRelaxed(PageGrant &&Grant);

  /// Pages not yet granted.
  size_t remainingPages() const;

  /// Unconsumed pages that are failure-free. O(1): maintained as a
  /// cached counter at every consume site (the degradation ladder polls
  /// this at collection boundaries).
  size_t remainingPerfectPages() const { return PerfectUnconsumed; }

  /// Pages sitting in the recycled perfect stock (already charged to the
  /// budget, immediately grantable to fussy requests). O(1) cached.
  size_t perfectStockPages() const { return PerfectStock; }

  /// Perfect pages the budget started with; the denominator for the
  /// degradation ladder's capacity fractions.
  size_t initialPerfectPages() const { return InitialPerfect; }

  size_t outstandingDebt() const { return Debt; }

  const OsStats &stats() const { return Stats; }

  /// The budget-wide failure map produced by the injector (tests and
  /// fragmentation diagnostics).
  const FailureMap &budgetFailureMap() const { return BudgetMap; }

  /// Binds the crash-consistency journal: perfect/imperfect pool
  /// transitions (DRAM borrows, debt repayments, perfect-stock returns)
  /// are write-ahead logged as PoolTransition records.
  void attachJournal(MetadataJournal *J) { Journal = J; }

private:
  /// Host memory for a grant of \p NumPages, at the grant alignment and
  /// not zeroed: carved from the current pool chunk (taking a new one when
  /// it is full), or mapped on its own when larger than a chunk.
  uint8_t *mapHostPages(size_t NumPages);

  /// The budget's failures, one word per page: the OS table that
  /// grants copy their failure words from.
  FailureMap BudgetMap;
  std::vector<bool> Consumed;
  /// Relaxed-allocation cursor into the page sequence.
  size_t Cursor = 0;
  size_t Debt = 0;
  size_t ConsumedCount = 0;
  /// Cached pool gauges (see remainingPerfectPages / perfectStockPages).
  size_t PerfectUnconsumed = 0;
  size_t PerfectStock = 0;
  size_t InitialPerfect = 0;
  size_t GrantAlignment;
  OsStats Stats;
  MetadataJournal *Journal = nullptr;
  /// Host chunks taken from the pool, in order; grants are carved from
  /// the last one, starting at CarveOffset. All go back to the pool on
  /// destruction.
  std::vector<uint8_t *> HostChunks;
  size_t CarveOffset = 0;
  /// Grants larger than a chunk, each its own mapping (unmapped on
  /// destruction).
  struct OwnMapping {
    uint8_t *Base;
    size_t Bytes;
  };
  std::vector<OwnMapping> OwnMappings;
  /// Recyclable perfect chunks (first-fit; front-splitting preserves the
  /// front piece's alignment).
  struct FreeChunk {
    uint8_t *Mem;
    size_t NumPages;
  };
  std::vector<FreeChunk> PerfectFreeList;
  /// Recyclable imperfect grants (exact-size reuse keeps the failure
  /// words aligned with the memory).
  std::vector<PageGrant> RelaxedFreeList;

  bool chunkIsAligned(const FreeChunk &Chunk) const {
    return (reinterpret_cast<uintptr_t>(Chunk.Mem) &
            (GrantAlignment - 1)) == 0;
  }
};

} // namespace wearmem

#endif // WEARMEM_OS_OS_H
