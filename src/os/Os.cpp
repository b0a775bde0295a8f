//===- os/Os.cpp - Failure-aware OS page provisioning ---------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/Os.h"

#include "os/MetadataJournal.h"

#include "obs/Hooks.h"
#include "support/Random.h"

#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <mutex>

#include <sanitizer/asan_interface.h>
#include <sys/mman.h>

using namespace wearmem;

//===----------------------------------------------------------------------===//
// Host memory
//===----------------------------------------------------------------------===//

/// True under AddressSanitizer, where every grant is followed by a poisoned
/// gap of one grant alignment: a write past its end then reports instead of
/// landing in the next grant carved from the same chunk.
#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
static constexpr bool GrantGuards = true;
#else
static constexpr bool GrantGuards = false;
#endif

/// Maps \p Bytes of anonymous memory at an \p Alignment boundary: maps
/// \p Alignment bytes more and unmaps the slack on either side. Pages cost
/// resident memory only once written.
static uint8_t *mapAligned(size_t Bytes, size_t Alignment) {
  size_t Padded = Bytes + Alignment;
  void *Raw = mmap(nullptr, Padded, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (Raw == MAP_FAILED) {
    // Checked in every build: handing out a failed mapping would turn an
    // out-of-memory host into silent heap corruption.
    std::fprintf(stderr, "wearmem: cannot map %zu bytes of host pages\n",
                 Padded);
    std::abort();
  }
  auto *Base = static_cast<uint8_t *>(Raw);
  auto *Mem = reinterpret_cast<uint8_t *>(
      alignUp(reinterpret_cast<uintptr_t>(Base), Alignment));
  size_t Head = static_cast<size_t>(Mem - Base);
  if (Head != 0)
    munmap(Base, Head);
  munmap(Mem + Bytes, Padded - Head - Bytes);
  return Mem;
}

namespace {
/// The process-wide pool of PoolChunkBytes host chunks, each aligned to
/// its size so it serves any grant alignment up to a chunk. Chunks come
/// back when their OS model is destroyed and go out again last-in
/// first-out, so the next runtime reuses resident memory instead of
/// faulting fresh pages in. The pool never shrinks: resident memory stays
/// at the most chunks held at once. A pooled chunk is poisoned for
/// AddressSanitizer until carved.
class ChunkPool {
public:
  uint8_t *take() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Free.empty()) {
        uint8_t *Chunk = Free.back();
        Free.pop_back();
        return Chunk;
      }
    }
    uint8_t *Chunk = mapAligned(PoolChunkBytes, PoolChunkBytes);
    ASAN_POISON_MEMORY_REGION(Chunk, PoolChunkBytes);
    return Chunk;
  }

  /// Takes back \p Chunks, handing out the first of them next.
  void giveBack(const std::vector<uint8_t *> &Chunks) {
    for (uint8_t *Chunk : Chunks)
      ASAN_POISON_MEMORY_REGION(Chunk, PoolChunkBytes);
    std::lock_guard<std::mutex> Lock(Mu);
    Free.insert(Free.end(), Chunks.rbegin(), Chunks.rend());
  }

private:
  std::mutex Mu;
  std::vector<uint8_t *> Free; ///< Guarded by Mu.
};

ChunkPool &chunkPool() {
  // Never destroyed: runtimes may be destroyed during static destruction.
  static ChunkPool *Pool = new ChunkPool;
  return *Pool;
}
} // namespace

static FailureMap generateBudgetMap(size_t PcmPages,
                                    const FailureConfig &Failures) {
  size_t NumLines = PcmPages * PcmLinesPerPage;
  Rng Rand(Failures.Seed);
  switch (Failures.Pattern) {
  case FailurePattern::Uniform:
    return FailureMap::uniform(NumLines, Failures.Rate, Rand);
  case FailurePattern::ClusterLimit:
    return FailureMap::clusterLimit(NumLines, Failures.Rate,
                                    Failures.ClusterLines, Rand);
  case FailurePattern::PushClustered: {
    FailureMap Base = FailureMap::uniform(NumLines, Failures.Rate, Rand);
    return Base.pushClustered(Failures.Cluster);
  }
  case FailurePattern::Custom: {
    assert(Failures.Custom && "custom pattern requires a source map");
    const FailureMap &Src = *Failures.Custom;
    assert(Src.numLines() > 0 && "empty custom map");
    FailureMap Map(NumLines);
    for (size_t Line = 0; Line != NumLines; ++Line)
      if (Src.isFailed(Line % Src.numLines()))
        Map.fail(Line);
    return Map;
  }
  }
  assert(false && "unknown failure pattern");
  return FailureMap(NumLines);
}

FailureAwareOs::FailureAwareOs(size_t PcmPages,
                               const FailureConfig &Failures,
                               size_t GrantAlignment)
    : BudgetMap(generateBudgetMap(PcmPages, Failures)),
      PageWords(PcmPages), Consumed(PcmPages, false),
      GrantAlignment(GrantAlignment) {
  assert(isPowerOfTwo(GrantAlignment) &&
         "grant alignment must be a power of two");
  for (size_t Page = 0; Page != PcmPages; ++Page) {
    PageWords[Page] = BudgetMap.pageWord(Page);
    if (PageWords[Page] == 0)
      ++PerfectUnconsumed;
  }
  InitialPerfect = PerfectUnconsumed;
}

FailureAwareOs::~FailureAwareOs() {
  chunkPool().giveBack(HostChunks);
  for (const OwnMapping &M : OwnMappings) {
    // A later mapping may reuse the range: leave its shadow clean.
    ASAN_UNPOISON_MEMORY_REGION(M.Base, M.Bytes);
    munmap(M.Base, M.Bytes);
  }
}

uint8_t *FailureAwareOs::mapHostPages(size_t NumPages) {
  size_t Bytes = alignUp(NumPages * PcmPageSize, GrantAlignment);
  size_t Span = Bytes + (GrantGuards ? GrantAlignment : 0);
  if (Span > PoolChunkBytes) {
    uint8_t *Mem = mapAligned(Span, GrantAlignment);
    ASAN_POISON_MEMORY_REGION(Mem + Bytes, Span - Bytes);
    OwnMappings.push_back({Mem, Span});
    return Mem;
  }
  size_t At = alignUp(CarveOffset, GrantAlignment);
  if (HostChunks.empty() || At + Span > PoolChunkBytes) {
    HostChunks.push_back(chunkPool().take());
    At = 0;
  }
  uint8_t *Mem = HostChunks.back() + At;
  CarveOffset = At + Span;
  ASAN_UNPOISON_MEMORY_REGION(Mem, Bytes);
  return Mem;
}

size_t FailureAwareOs::remainingPages() const {
  return PageWords.size() - ConsumedCount;
}

std::optional<PageGrant> FailureAwareOs::allocRelaxed(size_t NumPages) {
  assert(NumPages > 0 && "empty grant");

  // Debt repayment from the recycled perfect stock: data on borrowed DRAM
  // pages migrates onto freed perfect PCM, which consumes the stock. This
  // is the only way debt is repaid: allocPerfect borrows DRAM only once
  // its scan has consumed every unconsumed perfect page, and nothing
  // replenishes those, so while debt is outstanding the budget stream
  // holds no perfect page to divert.
  while (Debt > 0 && !PerfectFreeList.empty()) {
    FreeChunk &Chunk = PerfectFreeList.back();
    size_t Use = std::min(Debt, Chunk.NumPages);
    Debt -= Use;
    PerfectStock -= Use;
    Stats.DebtRepaid += Use;
    if (Journal)
      Journal->recordPoolTransition(PoolTransitionKind::DebtRepay,
                                    static_cast<uint32_t>(Use));
    WEARMEM_COUNT_DET_N("os.pool.debt_repaid", Use);
    WEARMEM_TRACE(PoolTransition,
                  static_cast<uint64_t>(PoolTransitionKind::DebtRepay), Use);
    if (Use == Chunk.NumPages) {
      PerfectFreeList.pop_back();
    } else {
      Chunk.Mem += Use * PcmPageSize;
      Chunk.NumPages -= Use;
    }
  }

  // Returned imperfect grants first (exact size; the failure words travel
  // with the memory).
  for (size_t I = 0; I != RelaxedFreeList.size(); ++I) {
    if (RelaxedFreeList[I].NumPages != NumPages)
      continue;
    PageGrant Recycled = std::move(RelaxedFreeList[I]);
    RelaxedFreeList.erase(RelaxedFreeList.begin() +
                          static_cast<ptrdiff_t>(I));
    Stats.RelaxedPagesGranted += NumPages;
    return Recycled;
  }

  // Returned *perfect* block-aligned chunks may serve relaxed block
  // requests. No debt can be outstanding here: the repayment above stops
  // with debt left only once the perfect stock is empty, so whatever
  // stock remains is free to serve.
  for (size_t I = 0; I != PerfectFreeList.size(); ++I) {
    FreeChunk &Chunk = PerfectFreeList[I];
    if (Chunk.NumPages != NumPages || !chunkIsAligned(Chunk))
      continue;
    PageGrant Recycled;
    Recycled.Mem = Chunk.Mem;
    Recycled.NumPages = NumPages;
    Recycled.FailWords.assign(NumPages, 0);
    // Chunk splitting and coalescing lose page identity.
    PerfectStock -= NumPages;
    PerfectFreeList.erase(PerfectFreeList.begin() +
                          static_cast<ptrdiff_t>(I));
    Stats.RelaxedPagesGranted += NumPages;
    return Recycled;
  }

  // Every page below Cursor is consumed, so the walk below sees exactly
  // remainingPages() candidates and takes every one it sees: with too
  // few, the request fails without walking (once the stream runs short,
  // every failing request would otherwise walk the whole tail again).
  assert((Debt == 0 || PerfectUnconsumed == 0) &&
         "debt is borrowed only once the perfect pages are gone");
  if (remainingPages() < NumPages)
    return std::nullopt;

  PageGrant Grant;
  Grant.FailWords.reserve(NumPages);

  // Walk the budget in address order, granting each unconsumed page
  // as-is, failure map included.
  std::vector<size_t> Chosen;
  while (Chosen.size() != NumPages && Cursor != PageWords.size()) {
    size_t Page = Cursor++;
    if (!Consumed[Page])
      Chosen.push_back(Page);
  }
  assert(Chosen.size() == NumPages && "the walk sees remainingPages()");

  for (size_t Page : Chosen) {
    Consumed[Page] = true;
    ++ConsumedCount;
    if (PageWords[Page] == 0)
      --PerfectUnconsumed;
    Grant.FailWords.push_back(PageWords[Page]);
    Grant.PageIds.push_back(static_cast<uint32_t>(Page));
  }
  Stats.RelaxedPagesGranted += NumPages;
  Grant.NumPages = NumPages;
  Grant.Mem = mapHostPages(NumPages);
  return Grant;
}

std::optional<PageGrant> FailureAwareOs::allocPerfect(size_t NumPages,
                                                      bool BlockAligned) {
  assert(NumPages > 0 && "empty grant");
  Stats.PerfectPagesRequested += NumPages;

  PageGrant Grant;
  Grant.NumPages = NumPages;
  Grant.FailWords.assign(NumPages, 0);

  // Recycled perfect chunks first; these pages were already charged to
  // the budget when first granted. Exact-size matches are preferred;
  // otherwise a larger chunk is front-split (the front piece keeps the
  // chunk's alignment, the tail remains page-granular stock). A
  // block-aligned request only accepts chunks whose front is aligned.
  size_t BestIdx = PerfectFreeList.size();
  for (size_t I = 0; I != PerfectFreeList.size(); ++I) {
    FreeChunk &Chunk = PerfectFreeList[I];
    if (Chunk.NumPages < NumPages)
      continue;
    if (BlockAligned && !chunkIsAligned(Chunk))
      continue;
    if (Chunk.NumPages == NumPages) {
      BestIdx = I;
      break; // Exact match.
    }
    if (BestIdx == PerfectFreeList.size() ||
        Chunk.NumPages < PerfectFreeList[BestIdx].NumPages)
      BestIdx = I; // Smallest chunk that fits.
  }
  if (BestIdx != PerfectFreeList.size()) {
    FreeChunk &Chunk = PerfectFreeList[BestIdx];
    Grant.Mem = Chunk.Mem;
    PerfectStock -= NumPages;
    Stats.PerfectRecycledServed += NumPages;
    if (Chunk.NumPages == NumPages) {
      PerfectFreeList.erase(PerfectFreeList.begin() +
                            static_cast<ptrdiff_t>(BestIdx));
    } else {
      Chunk.Mem += NumPages * PcmPageSize;
      Chunk.NumPages -= NumPages;
    }
    return Grant;
  }

  // Then the unconsumed perfect-PCM stock, scanning from the top of the
  // budget so the relaxed cursor keeps seeing fresh pages for as long as
  // possible (and stopping once none is left); borrow DRAM (with debt)
  // for the remainder.
  size_t FromPcm = 0;
  for (size_t Page = PageWords.size();
       Page != 0 && FromPcm != NumPages && PerfectUnconsumed != 0;) {
    --Page;
    if (!Consumed[Page] && PageWords[Page] == 0) {
      Consumed[Page] = true;
      ++ConsumedCount;
      --PerfectUnconsumed;
      ++FromPcm;
    }
  }
  size_t FromDram = NumPages - FromPcm;
  Stats.PerfectPcmServed += FromPcm;
  Stats.DramBorrowed += FromDram;
  Debt += FromDram;
  if (Journal && FromDram)
    Journal->recordPoolTransition(PoolTransitionKind::DramBorrow,
                                  static_cast<uint32_t>(FromDram));
  if (FromDram) {
    WEARMEM_COUNT_DET_N("os.pool.dram_borrowed", FromDram);
    WEARMEM_TRACE(PoolTransition,
                  static_cast<uint64_t>(PoolTransitionKind::DramBorrow),
                  FromDram);
  }

  Grant.Mem = mapHostPages(NumPages);
  return Grant;
}

void FailureAwareOs::freePerfect(PageGrant &&Grant) {
  assert(Grant.Mem != nullptr && Grant.NumPages > 0 && "empty grant");
  Stats.PerfectPagesReturned += Grant.NumPages;
  if (Journal)
    Journal->recordPoolTransition(PoolTransitionKind::PerfectReturn,
                                  static_cast<uint32_t>(Grant.NumPages));
  WEARMEM_COUNT_DET_N("os.pool.perfect_returns", Grant.NumPages);
  WEARMEM_TRACE(PoolTransition,
                static_cast<uint64_t>(PoolTransitionKind::PerfectReturn),
                Grant.NumPages);
  PerfectStock += Grant.NumPages;
  PerfectFreeList.push_back(FreeChunk{Grant.Mem, Grant.NumPages});
}

void FailureAwareOs::freeRelaxed(PageGrant &&Grant) {
  assert(Grant.Mem != nullptr && Grant.NumPages > 0 && "empty grant");
  assert(Grant.FailWords.size() == Grant.NumPages &&
         "relaxed grants carry one failure word per page");
  bool Perfect = true;
  for (uint64_t Word : Grant.FailWords)
    Perfect &= Word == 0;
  if (Perfect) {
    freePerfect(std::move(Grant));
    return;
  }
  RelaxedFreeList.push_back(std::move(Grant));
}
