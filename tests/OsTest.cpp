//===- tests/OsTest.cpp - OS provisioning and kernel tests ----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/Os.h"
#include "os/OsKernel.h"

#include "core/Runtime.h"
#include "gc/HeapAuditor.h"
#include "inject/FaultCampaign.h"
#include "support/Random.h"
#include "workload/Mutator.h"
#include "workload/Runner.h"

#include <gtest/gtest.h>

// Also defines __has_feature where the compiler does not.
#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstring>
#include <thread>

using namespace wearmem;

#if __has_feature(address_sanitizer) || defined(__SANITIZE_ADDRESS__)
static constexpr bool UnderAsan = true;
#else
static constexpr bool UnderAsan = false;
#endif

namespace {
FailureConfig uniformFailures(double Rate, uint64_t Seed = 7) {
  FailureConfig Config;
  Config.Rate = Rate;
  Config.Seed = Seed;
  return Config;
}
} // namespace

TEST(OsTest, RelaxedGrantsCarryFailureWords) {
  FailureAwareOs Os(64, uniformFailures(0.25));
  auto Grant = Os.allocRelaxed(8);
  ASSERT_TRUE(Grant.has_value());
  EXPECT_EQ(Grant->NumPages, 8u);
  ASSERT_EQ(Grant->FailWords.size(), 8u);
  // At 25% line failures, a page's word is essentially never zero.
  size_t Imperfect = 0;
  for (uint64_t Word : Grant->FailWords)
    Imperfect += Word != 0;
  EXPECT_GT(Imperfect, 5u);
  // Grants are block-aligned (not zeroed: see the pool tests below).
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Grant->Mem) % (32 * KiB), 0u);
}

TEST(OsTest, BudgetExhaustion) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  EXPECT_TRUE(Os.allocRelaxed(8).has_value());
  EXPECT_TRUE(Os.allocRelaxed(8).has_value());
  EXPECT_FALSE(Os.allocRelaxed(1).has_value());
  EXPECT_EQ(Os.remainingPages(), 0u);
}

TEST(OsTest, PerfectServedFromPcmThenDram) {
  // At a 50% failure rate over 32 pages, perfect pages are rare; fussy
  // requests beyond the stock borrow DRAM and accrue debt.
  FailureAwareOs Os(32, uniformFailures(0.5));
  size_t Stock = Os.remainingPerfectPages();
  auto Grant = Os.allocPerfect(Stock + 3);
  ASSERT_TRUE(Grant.has_value());
  EXPECT_EQ(Os.outstandingDebt(), 3u);
  EXPECT_EQ(Os.stats().DramBorrowed, 3u);
  EXPECT_EQ(Os.stats().PerfectPcmServed, Stock);
}

TEST(OsTest, RelaxedRequestRepaysDebtFromRecycledStock) {
  FailureAwareOs Os(64, uniformFailures(0.0));
  // Exhaust the perfect stock via fussy requests is impossible at f=0
  // (every page is perfect), so create debt artificially by draining the
  // stream first.
  while (Os.allocRelaxed(8))
    ;
  auto Borrowed = Os.allocPerfect(4);
  ASSERT_TRUE(Borrowed.has_value());
  EXPECT_EQ(Os.outstandingDebt(), 4u);
  // Returning a perfect grant and asking for relaxed pages repays debt
  // from the stock before granting anything.
  Os.freePerfect(std::move(*Borrowed));
  EXPECT_FALSE(Os.allocRelaxed(8).has_value());
  EXPECT_EQ(Os.outstandingDebt(), 0u);
  EXPECT_EQ(Os.stats().DebtRepaid, 4u);
}

TEST(OsTest, FreePerfectRecycles) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  auto Grant = Os.allocPerfect(4);
  ASSERT_TRUE(Grant.has_value());
  uint8_t *Mem = Grant->Mem;
  Os.freePerfect(std::move(*Grant));
  auto Again = Os.allocPerfect(4);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Mem, Mem);
  EXPECT_EQ(Os.stats().PerfectRecycledServed, 4u);
}

TEST(OsTest, RecycledChunksSplitForSmallerRequests) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  auto Big = Os.allocPerfect(8);
  ASSERT_TRUE(Big.has_value());
  uint8_t *Mem = Big->Mem;
  Os.freePerfect(std::move(*Big));
  auto Small = Os.allocPerfect(2);
  ASSERT_TRUE(Small.has_value());
  EXPECT_EQ(Small->Mem, Mem); // Front-split keeps alignment.
  auto Rest = Os.allocPerfect(6);
  ASSERT_TRUE(Rest.has_value());
  EXPECT_EQ(Rest->Mem, Mem + 2 * PcmPageSize);
}

TEST(OsTest, FreeRelaxedRoutesPerfectGrantsToStock) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  auto Grant = Os.allocRelaxed(8);
  ASSERT_TRUE(Grant.has_value());
  Os.freeRelaxed(std::move(*Grant));
  EXPECT_EQ(Os.stats().PerfectPagesReturned, 8u);
  // And the stock serves fussy requests.
  EXPECT_TRUE(Os.allocPerfect(8).has_value());
  EXPECT_EQ(Os.stats().PerfectRecycledServed, 8u);
}

TEST(OsTest, FreeRelaxedImperfectGrantsRecycleWithWords) {
  FailureAwareOs Os(16, uniformFailures(0.3));
  auto Grant = Os.allocRelaxed(8);
  ASSERT_TRUE(Grant.has_value());
  std::vector<uint64_t> Words = Grant->FailWords;
  uint8_t *Mem = Grant->Mem;
  // Exhaust the stream, then return the grant.
  while (Os.allocRelaxed(8))
    ;
  Os.freeRelaxed(std::move(*Grant));
  // The returned grant is re-granted, failure words intact.
  auto Again = Os.allocRelaxed(8);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Mem, Mem);
  EXPECT_EQ(Again->FailWords, Words);
}

//===----------------------------------------------------------------------===//
// Relaxed requests on a short budget fail fast
//===----------------------------------------------------------------------===//

namespace {
/// FailureAwareOs's page accounting as it was before failing relaxed
/// requests stopped walking the budget: every request that fails walks
/// the whole unconsumed tail, and every fussy request scans the whole
/// budget for perfect pages. Host memory is a fake bump address; only
/// its alignment and identity matter to the free lists.
class ReferenceOs {
public:
  struct Grant {
    uintptr_t Mem = 0;
    size_t NumPages = 0;
    std::vector<uint64_t> FailWords;
    std::vector<uint32_t> PageIds;
  };

  ReferenceOs(const FailureMap &Budget, size_t PcmPages, size_t Alignment)
      : PageWords(PcmPages), Consumed(PcmPages, false),
        Alignment(Alignment), NextMem(Alignment) {
    for (size_t Page = 0; Page != PcmPages; ++Page) {
      PageWords[Page] = Budget.pageWord(Page);
      PerfectUnconsumed += PageWords[Page] == 0;
    }
  }

  std::optional<Grant> allocRelaxed(size_t NumPages) {
    while (Debt > 0 && !PerfectFreeList.empty()) {
      Chunk &C = PerfectFreeList.back();
      size_t Use = std::min(Debt, C.NumPages);
      Debt -= Use;
      PerfectStock -= Use;
      Stats.DebtRepaid += Use;
      if (Use == C.NumPages) {
        PerfectFreeList.pop_back();
      } else {
        C.Mem += Use * PcmPageSize;
        C.NumPages -= Use;
      }
    }
    for (size_t I = 0; I != RelaxedFreeList.size(); ++I) {
      if (RelaxedFreeList[I].NumPages != NumPages)
        continue;
      Grant Recycled = std::move(RelaxedFreeList[I]);
      RelaxedFreeList.erase(RelaxedFreeList.begin() +
                            static_cast<ptrdiff_t>(I));
      Stats.RelaxedPagesGranted += NumPages;
      return Recycled;
    }
    if (Debt == 0) {
      for (size_t I = 0; I != PerfectFreeList.size(); ++I) {
        Chunk &C = PerfectFreeList[I];
        if (C.NumPages != NumPages || C.Mem % Alignment != 0)
          continue;
        Grant Recycled;
        Recycled.Mem = C.Mem;
        Recycled.NumPages = NumPages;
        Recycled.FailWords.assign(NumPages, 0);
        PerfectStock -= NumPages;
        PerfectFreeList.erase(PerfectFreeList.begin() +
                              static_cast<ptrdiff_t>(I));
        Stats.RelaxedPagesGranted += NumPages;
        return Recycled;
      }
    }
    size_t Mark = Cursor;
    std::vector<size_t> Chosen;
    while (Chosen.size() != NumPages && Cursor != PageWords.size()) {
      size_t Page = Cursor++;
      if (Consumed[Page])
        continue;
      if (PageWords[Page] == 0 && Debt > 0) {
        Consumed[Page] = true;
        ++ConsumedCount;
        --PerfectUnconsumed;
        --Debt;
        ++Stats.DebtRepaid;
        continue;
      }
      Chosen.push_back(Page);
    }
    if (Chosen.size() != NumPages) {
      Cursor = Mark;
      return std::nullopt;
    }
    Grant G;
    for (size_t Page : Chosen) {
      Consumed[Page] = true;
      ++ConsumedCount;
      if (PageWords[Page] == 0)
        --PerfectUnconsumed;
      G.FailWords.push_back(PageWords[Page]);
      G.PageIds.push_back(static_cast<uint32_t>(Page));
    }
    Stats.RelaxedPagesGranted += NumPages;
    G.NumPages = NumPages;
    G.Mem = map(NumPages);
    return G;
  }

  std::optional<Grant> allocPerfect(size_t NumPages, bool BlockAligned) {
    Stats.PerfectPagesRequested += NumPages;
    Grant G;
    G.NumPages = NumPages;
    G.FailWords.assign(NumPages, 0);
    size_t BestIdx = PerfectFreeList.size();
    for (size_t I = 0; I != PerfectFreeList.size(); ++I) {
      Chunk &C = PerfectFreeList[I];
      if (C.NumPages < NumPages)
        continue;
      if (BlockAligned && C.Mem % Alignment != 0)
        continue;
      if (C.NumPages == NumPages) {
        BestIdx = I;
        break;
      }
      if (BestIdx == PerfectFreeList.size() ||
          C.NumPages < PerfectFreeList[BestIdx].NumPages)
        BestIdx = I;
    }
    if (BestIdx != PerfectFreeList.size()) {
      Chunk &C = PerfectFreeList[BestIdx];
      G.Mem = C.Mem;
      PerfectStock -= NumPages;
      Stats.PerfectRecycledServed += NumPages;
      if (C.NumPages == NumPages) {
        PerfectFreeList.erase(PerfectFreeList.begin() +
                              static_cast<ptrdiff_t>(BestIdx));
      } else {
        C.Mem += NumPages * PcmPageSize;
        C.NumPages -= NumPages;
      }
      return G;
    }
    size_t FromPcm = 0;
    for (size_t Page = PageWords.size(); Page != 0 && FromPcm != NumPages;) {
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
    G.Mem = map(NumPages);
    return G;
  }

  void freePerfect(Grant &&G) {
    Stats.PerfectPagesReturned += G.NumPages;
    PerfectStock += G.NumPages;
    PerfectFreeList.push_back(Chunk{G.Mem, G.NumPages});
  }

  void freeRelaxed(Grant &&G) {
    bool Perfect = std::all_of(G.FailWords.begin(), G.FailWords.end(),
                               [](uint64_t Word) { return Word == 0; });
    if (Perfect)
      freePerfect(std::move(G));
    else
      RelaxedFreeList.push_back(std::move(G));
  }

  size_t remainingPages() const { return PageWords.size() - ConsumedCount; }
  size_t outstandingDebt() const { return Debt; }
  size_t remainingPerfectPages() const { return PerfectUnconsumed; }
  size_t perfectStockPages() const { return PerfectStock; }
  const OsStats &stats() const { return Stats; }

private:
  struct Chunk {
    uintptr_t Mem;
    size_t NumPages;
  };

  uintptr_t map(size_t NumPages) {
    uintptr_t Mem = NextMem;
    NextMem += alignUp(NumPages * PcmPageSize, Alignment);
    return Mem;
  }

  std::vector<uint64_t> PageWords;
  std::vector<bool> Consumed;
  size_t Alignment;
  uintptr_t NextMem;
  size_t Cursor = 0, Debt = 0, ConsumedCount = 0;
  size_t PerfectUnconsumed = 0, PerfectStock = 0;
  OsStats Stats;
  std::vector<Chunk> PerfectFreeList;
  std::vector<Grant> RelaxedFreeList;
};

void expectSameStats(const OsStats &A, const OsStats &B,
                     const std::string &Step) {
  EXPECT_EQ(A.RelaxedPagesGranted, B.RelaxedPagesGranted) << Step;
  EXPECT_EQ(A.PerfectPagesRequested, B.PerfectPagesRequested) << Step;
  EXPECT_EQ(A.PerfectPcmServed, B.PerfectPcmServed) << Step;
  EXPECT_EQ(A.PerfectRecycledServed, B.PerfectRecycledServed) << Step;
  EXPECT_EQ(A.DramBorrowed, B.DramBorrowed) << Step;
  EXPECT_EQ(A.DebtRepaid, B.DebtRepaid) << Step;
  EXPECT_EQ(A.PerfectPagesReturned, B.PerfectPagesReturned) << Step;
}
} // namespace

TEST(OsTest, FailingRelaxedRequestsMatchTheFullWalk) {
  // About half the pages are perfect at 1% line failures. A 16 KiB grant
  // alignment over 4 KiB pages lets split perfect chunks lose alignment.
  constexpr size_t Pages = 160;
  constexpr size_t Alignment = 16 * KiB;
  for (uint64_t Seed : {3u, 11u, 29u}) {
    FailureAwareOs Os(Pages, uniformFailures(0.01, Seed), Alignment);
    ReferenceOs Ref(Os.budgetFailureMap(), Pages, Alignment);
    Rng Rand(Seed);
    // Live grants, index-aligned across the two models.
    std::vector<PageGrant> Live;
    std::vector<ReferenceOs::Grant> RefLive;
    std::vector<bool> LivePerfect;
    size_t ShortFailures = 0, MaxDebt = 0;
    for (unsigned Step = 0; Step != 600; ++Step) {
      std::string What = "seed " + std::to_string(Seed) + " step " +
                         std::to_string(Step);
      unsigned Kind = static_cast<unsigned>(Rand.nextBelow(10));
      if (Kind < 4 || (Kind >= 7 && Live.empty())) {
        size_t N = 1 + Rand.nextBelow(12);
        bool Short = Os.remainingPages() != 0 && Os.remainingPages() < N;
        std::optional<PageGrant> G = Os.allocRelaxed(N);
        std::optional<ReferenceOs::Grant> R = Ref.allocRelaxed(N);
        ASSERT_EQ(G.has_value(), R.has_value()) << What;
        ShortFailures += Short && !G;
        if (G) {
          EXPECT_EQ(G->NumPages, R->NumPages) << What;
          EXPECT_EQ(G->FailWords, R->FailWords) << What;
          EXPECT_EQ(G->PageIds, R->PageIds) << What;
          Live.push_back(std::move(*G));
          RefLive.push_back(std::move(*R));
          LivePerfect.push_back(false);
        }
      } else if (Kind < 7) {
        size_t N = 1 + Rand.nextBelow(6);
        bool Aligned = Rand.nextBool(0.5);
        std::optional<PageGrant> G = Os.allocPerfect(N, Aligned);
        std::optional<ReferenceOs::Grant> R = Ref.allocPerfect(N, Aligned);
        ASSERT_TRUE(G && R) << What;
        EXPECT_EQ(G->FailWords, R->FailWords) << What;
        EXPECT_EQ(reinterpret_cast<uintptr_t>(G->Mem) % Alignment == 0,
                  R->Mem % Alignment == 0)
            << What;
        Live.push_back(std::move(*G));
        RefLive.push_back(std::move(*R));
        LivePerfect.push_back(true);
      } else {
        size_t I = Rand.nextBelow(Live.size());
        if (LivePerfect[I]) {
          Os.freePerfect(std::move(Live[I]));
          Ref.freePerfect(std::move(RefLive[I]));
        } else {
          Os.freeRelaxed(std::move(Live[I]));
          Ref.freeRelaxed(std::move(RefLive[I]));
        }
        Live.erase(Live.begin() + static_cast<ptrdiff_t>(I));
        RefLive.erase(RefLive.begin() + static_cast<ptrdiff_t>(I));
        LivePerfect.erase(LivePerfect.begin() + static_cast<ptrdiff_t>(I));
      }
      expectSameStats(Os.stats(), Ref.stats(), What);
      ASSERT_EQ(Os.remainingPages(), Ref.remainingPages()) << What;
      ASSERT_EQ(Os.outstandingDebt(), Ref.outstandingDebt()) << What;
      ASSERT_EQ(Os.remainingPerfectPages(), Ref.remainingPerfectPages())
          << What;
      ASSERT_EQ(Os.perfectStockPages(), Ref.perfectStockPages()) << What;
      MaxDebt = std::max(MaxDebt, Os.outstandingDebt());
    }
    // The script must have reached what the fast paths skip: relaxed
    // requests failing on a short stream, and DRAM debt later repaid.
    EXPECT_EQ(Os.remainingPages(), 0u) << Seed;
    EXPECT_GT(ShortFailures, 0u) << Seed;
    EXPECT_GT(MaxDebt, 0u) << Seed;
    EXPECT_GT(Os.stats().DebtRepaid, 0u) << Seed;
  }
}

//===----------------------------------------------------------------------===//
// Host memory: pooled chunks
//===----------------------------------------------------------------------===//

TEST(OsPoolTest, GrantsAreAlignedAndDisjoint) {
  constexpr size_t ChunkPages = PoolChunkBytes / PcmPageSize;
  for (size_t Alignment : {4 * KiB, 32 * KiB, 64 * KiB}) {
    FailureAwareOs Os(4 * ChunkPages, uniformFailures(0.0), Alignment);
    std::vector<PageGrant> Grants;
    // One grant larger than a chunk; the rest fill chunks unevenly.
    for (size_t Pages : {size_t(1), size_t(3), size_t(16), ChunkPages + 5,
                         size_t(8), ChunkPages / 2, ChunkPages / 2,
                         size_t(2), size_t(31), ChunkPages}) {
      std::optional<PageGrant> G = Grants.size() % 2
                                       ? Os.allocPerfect(Pages)
                                       : Os.allocRelaxed(Pages);
      ASSERT_TRUE(G.has_value()) << Pages;
      EXPECT_EQ(reinterpret_cast<uintptr_t>(G->Mem) % Alignment, 0u)
          << Alignment << " " << Pages;
      // Every byte of a grant is writable (and, under ASan, unpoisoned).
      std::memset(G->Mem, 0xC3, G->sizeBytes());
      Grants.push_back(std::move(*G));
    }
    std::sort(Grants.begin(), Grants.end(),
              [](const PageGrant &A, const PageGrant &B) {
                return A.Mem < B.Mem;
              });
    for (size_t I = 1; I != Grants.size(); ++I)
      EXPECT_LE(Grants[I - 1].Mem + Grants[I - 1].sizeBytes(),
                Grants[I].Mem)
          << Alignment;
  }
}

TEST(OsPoolTest, AReturnedChunkIsTheNextModelsFirstGrant) {
  uint8_t *First = nullptr;
  size_t Bytes = 0;
  {
    FailureAwareOs Os(16, uniformFailures(0.0));
    std::optional<PageGrant> G = Os.allocRelaxed(8);
    ASSERT_TRUE(G.has_value());
    First = G->Mem;
    Bytes = G->sizeBytes();
    std::memset(First, 0x5A, Bytes);
  }
  FailureAwareOs Os(16, uniformFailures(0.0));
  std::optional<PageGrant> G = Os.allocRelaxed(8);
  ASSERT_TRUE(G.has_value());
  EXPECT_EQ(G->Mem, First);
  // Reused, not mapped again: a fresh mapping would read zero.
  EXPECT_EQ(G->Mem[0], 0x5A);
  EXPECT_EQ(G->Mem[Bytes - 1], 0x5A);
}

namespace {
struct RunOutcome {
  bool Finished = false;
  bool AuditPassed = false;
  uint64_t Digest = 0;
  HeapStats Stats;
  OsStats Os;
};

/// One invocation of \p Profile, with \p Campaign pumped after every step
/// when given: settles pending recovery, audits, digests payloads too.
RunOutcome runInvocation(const RuntimeConfig &Cfg, const char *Profile,
                         double Volume, const char *Campaign = nullptr) {
  RunOutcome Out;
  Runtime Rt(Cfg);
  Mutator M(Rt, *findProfile(Profile), Cfg.Seed, Volume);
  std::unique_ptr<FaultCampaign> C;
  if (Campaign) {
    C = std::make_unique<FaultCampaign>(
        *FaultCampaign::parseSchedule(Campaign), Cfg.Seed);
    C->attachRuntime(Rt);
  }
  bool Ok = M.setUp();
  while (Ok && M.steadyAllocatedBytes() < M.targetBytes()) {
    Ok = M.step();
    if (C)
      C->pump();
  }
  Out.Finished = Ok;
  if (Rt.heap().pendingFailureRecovery())
    Rt.collect(true);
  HeapAuditor Auditor(Rt.heap());
  Out.AuditPassed = Auditor.audit().passed();
  Out.Digest = Auditor.digest(/*HashPayload=*/true);
  Out.Stats = Rt.stats();
  Out.Os = Rt.heap().os().stats();
  return Out;
}

/// Fills the top \p Bytes of the chunk pool with \p Pattern through a
/// throwaway OS model (one grant per chunk, leaving room for an ASan gap),
/// so the next runtime's grants start on known garbage.
void scribblePool(size_t Bytes, uint8_t Pattern) {
  constexpr size_t GrantPages = PoolChunkBytes / PcmPageSize - 1;
  size_t Grants = divCeil(Bytes, PoolChunkBytes);
  FailureAwareOs Os(Grants * GrantPages, uniformFailures(0.0), PcmPageSize);
  for (size_t I = 0; I != Grants; ++I) {
    std::optional<PageGrant> G = Os.allocRelaxed(GrantPages);
    ASSERT_TRUE(G.has_value());
    std::memset(G->Mem, Pattern, G->sizeBytes());
  }
}

void expectSameOutcome(const RunOutcome &A, const RunOutcome &B,
                       const std::string &What) {
  EXPECT_TRUE(B.AuditPassed) << What;
  EXPECT_EQ(A.Finished, B.Finished) << What;
  EXPECT_EQ(A.Digest, B.Digest) << What;
  static_assert(sizeof(HeapStats) % sizeof(uint64_t) == 0,
                "HeapStats holds only 64-bit counters");
  EXPECT_EQ(std::memcmp(&A.Stats, &B.Stats, sizeof(HeapStats)), 0) << What;
  expectSameStats(A.Os, B.Os, What);
}

/// Runs the same invocation three times in this process. The second run's
/// grants land on the first run's dirty chunks, and the third's on those
/// chunks scribbled over, so anything that reads a grant before writing
/// it shows up as a digest or counter difference. (An object that never
/// moves sits on the same bytes in the first two runs, so only the
/// scribble exposes a missing zeroing under it.)
void expectRerunOnDirtyChunksMatches(const RuntimeConfig &Cfg,
                                     const char *Profile, double Volume,
                                     const char *Campaign = nullptr) {
  RunOutcome First = runInvocation(Cfg, Profile, Volume, Campaign);
  ASSERT_TRUE(First.Finished) << Profile;
  EXPECT_TRUE(First.AuditPassed) << Profile;
  expectSameOutcome(First, runInvocation(Cfg, Profile, Volume, Campaign),
                    std::string(Profile) + " on dirty chunks");
  scribblePool(4 * Cfg.HeapBytes, 0xA5);
  expectSameOutcome(First, runInvocation(Cfg, Profile, Volume, Campaign),
                    std::string(Profile) + " on scribbled chunks");
}

RuntimeConfig rerunConfig(const char *Profile, double HeapFactor) {
  RuntimeConfig Cfg;
  Cfg.Collector = CollectorKind::StickyImmix;
  Cfg.HeapBytes = heapBytesFor(*findProfile(Profile), HeapFactor);
  Cfg.Seed = 17;
  return Cfg;
}
} // namespace

TEST(OsPoolTest, RerunOnDirtyChunksMatchesUnderAHoleStorm) {
  // Holes, overflow, evacuation and LOS under a drip of dynamic failures.
  RuntimeConfig Cfg = rerunConfig("pmd", 2.0);
  Cfg.FailureRate = 0.25;
  Cfg.ClusteringRegionPages = 2;
  Cfg.ThrottlePerfectFraction = -1.0;
  Cfg.EmergencyPerfectFraction = -1.0;
  expectRerunOnDirtyChunksMatches(Cfg, "pmd", 1.0,
                                  "drip@alloc:1m+256k:lines=8");
}

TEST(OsPoolTest, RerunOnDirtyChunksMatchesWithLargeObjects) {
  // xalan allocates half its bytes as large arrays in the LOS.
  expectRerunOnDirtyChunksMatches(rerunConfig("xalan", 2.0), "xalan", 1.0);
}

TEST(OsPoolTest, RerunOnDirtyChunksMatchesInFreeListCells) {
  RuntimeConfig Cfg = rerunConfig("luindex", 3.0);
  Cfg.Collector = CollectorKind::MarkSweep;
  expectRerunOnDirtyChunksMatches(Cfg, "luindex", 1.0);
}

TEST(OsPoolTest, ConcurrentRuntimesShareThePool) {
  // Four threads build and destroy small runtimes at once; each run must
  // digest as it does alone.
  constexpr unsigned Threads = 4, Rounds = 3;
  auto Config = [](unsigned T, unsigned Round) {
    RuntimeConfig Cfg = rerunConfig("luindex", 2.0);
    Cfg.FailureRate = 0.1;
    Cfg.Seed = 100 * T + Round;
    return Cfg;
  };
  std::vector<RunOutcome> Out(Threads * Rounds);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T != Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned Round = 0; Round != Rounds; ++Round)
        Out[T * Rounds + Round] =
            runInvocation(Config(T, Round), "luindex", 0.05);
    });
  for (std::thread &Th : Pool)
    Th.join();
  for (unsigned T = 0; T != Threads; ++T)
    for (unsigned Round = 0; Round != Rounds; ++Round) {
      const RunOutcome &Got = Out[T * Rounds + Round];
      RunOutcome Alone = runInvocation(Config(T, Round), "luindex", 0.05);
      EXPECT_TRUE(Got.Finished && Got.AuditPassed) << T << "/" << Round;
      EXPECT_EQ(Got.Digest, Alone.Digest) << T << "/" << Round;
    }
}

TEST(OsPoolDeathTest, WritePastAGrantReports) {
  if (!UnderAsan)
    GTEST_SKIP() << "needs AddressSanitizer";
  EXPECT_DEATH(
      {
        // The next grant is carved from the same chunk, right after the
        // first one's gap.
        FailureAwareOs Os(16, uniformFailures(0.0), PcmPageSize);
        std::optional<PageGrant> G = Os.allocRelaxed(2);
        std::optional<PageGrant> Next = Os.allocRelaxed(2);
        volatile uint8_t *End = G->Mem + G->sizeBytes();
        *End = 1;
      },
      "use-after-poison");
}

TEST(OsPoolDeathTest, ReadAfterTheModelIsDestroyedReports) {
  if (!UnderAsan)
    GTEST_SKIP() << "needs AddressSanitizer";
  EXPECT_DEATH(
      {
        volatile uint8_t *Mem = nullptr;
        {
          FailureAwareOs Os(16, uniformFailures(0.0), PcmPageSize);
          Mem = Os.allocRelaxed(2)->Mem;
          Mem[0] = 1;
        }
        uint8_t Stale = Mem[0];
        (void)Stale;
      },
      "use-after-poison");
}

//===----------------------------------------------------------------------===//
// OsKernel: dynamic-failure interrupt handling
//===----------------------------------------------------------------------===//

TEST(OsKernelTest, UpCallsRegisteredHandler) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.MeanLineLifetime = 100;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);

  std::vector<FailureRecord> Seen;
  Kernel.registerHandler([&Seen](const std::vector<FailureRecord> &Pending) {
    for (const FailureRecord &Record : Pending)
      Seen.push_back(Record);
  });

  Device.injectImminentFailure(5);
  uint8_t Data[PcmLineSize];
  std::memset(Data, 0xEE, sizeof(Data));
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Ok);

  // The interrupt fired synchronously; the handler saw the failure, and
  // the kernel cleared the buffer afterwards.
  ASSERT_EQ(Seen.size(), 1u);
  EXPECT_EQ(Seen[0].LineAddr, addrOfLine(5));
  EXPECT_EQ(Seen[0].Data[0], 0xEE);
  EXPECT_TRUE(Device.pendingFailures().empty());
  EXPECT_EQ(Kernel.stats().UpCalls, 1u);
  EXPECT_EQ(Kernel.stats().FailuresResolved, 1u);
  EXPECT_FALSE(Kernel.pageIsProtected(0));
}

TEST(OsKernelTest, FailureUnawareProcessGetsPageCopy) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);
  // No handler registered: the kernel copies the affected page.
  Device.injectImminentFailure(70); // Page 1.
  uint8_t Data[PcmLineSize] = {};
  EXPECT_EQ(Device.writeLine(70, Data), WriteResult::Ok);
  EXPECT_EQ(Kernel.stats().PageCopies, 1u);
  EXPECT_EQ(Kernel.stats().UpCalls, 0u);
}

TEST(OsKernelTest, HandlerSeesProtectedPage) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);
  bool WasProtected = false;
  Kernel.registerHandler(
      [&](const std::vector<FailureRecord> &Pending) {
        WasProtected =
            Kernel.pageIsProtected(pageOfAddr(Pending[0].LineAddr));
      });
  Device.injectImminentFailure(3);
  uint8_t Data[PcmLineSize] = {};
  Device.writeLine(3, Data);
  EXPECT_TRUE(WasProtected);
  EXPECT_FALSE(Kernel.pageIsProtected(0));
}

TEST(OsKernelTest, ReentrantFailureStaysBufferedUntilTheHandlerLoops) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.MeanLineLifetime = 1000;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);

  uint8_t Data[PcmLineSize];
  std::memset(Data, 0x5A, sizeof(Data));
  int Calls = 0;
  Kernel.registerHandler([&](const std::vector<FailureRecord> &Pending) {
    if (++Calls != 1)
      return;
    ASSERT_EQ(Pending.size(), 1u);
    EXPECT_EQ(Pending[0].LineAddr, addrOfLine(5));
    // The up-call's own write wears out another line. The interrupt
    // re-raises inside the handler; the failure must stay buffered (not
    // recurse) and be picked up when the outer handler loops.
    Device.injectImminentFailure(9);
    EXPECT_EQ(Device.writeLine(9, Data), WriteResult::Ok);
    EXPECT_EQ(Kernel.stats().ReentrantInterrupts, 1u);
    EXPECT_EQ(Device.pendingFailures().size(), 2u);
  });

  Device.injectImminentFailure(5);
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Ok);

  // One outer interrupt, two up-calls (the loop drained the re-entrant
  // failure), each failure resolved exactly once.
  EXPECT_EQ(Calls, 2);
  EXPECT_EQ(Kernel.stats().Interrupts, 1u);
  EXPECT_EQ(Kernel.stats().ReentrantInterrupts, 1u);
  EXPECT_EQ(Kernel.stats().UpCalls, 2u);
  EXPECT_EQ(Kernel.stats().FailuresResolved, 2u);
  EXPECT_TRUE(Device.pendingFailures().empty());
  EXPECT_TRUE(Device.softwareFailureMap().isFailed(5));
  EXPECT_TRUE(Device.softwareFailureMap().isFailed(9));
}
