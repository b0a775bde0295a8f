//===- obs/Snapshot.cpp - Wear heatmaps and heap snapshots ----------------===//

#include "Snapshot.h"

#include "gc/FailureLedger.h"
#include "gc/Heap.h"
#include "heap/Block.h"
#include "heap/ImmixSpace.h"
#include "heap/LargeObjectSpace.h"
#include "os/Os.h"
#include "pcm/WearSimulation.h"
#include "support/JsonWriter.h"

#include <cstdlib>

namespace wearmem {
namespace obs {

WearHeatmap WearHeatmap::fromWearSim(const WearSimResult &Result,
                                     uint64_t LinesPerBucket) {
  uint64_t NumLines = Result.WearCounts.size();
  WearHeatmap H;
  H.LinesPerBucket = LinesPerBucket ? LinesPerBucket : 1;
  H.TotalLines = NumLines;
  H.Buckets.resize((NumLines + H.LinesPerBucket - 1) / H.LinesPerBucket);
  for (uint64_t L = 0; L < NumLines; ++L) {
    WearBucket &B = H.Buckets[L / H.LinesPerBucket];
    uint64_t W = Result.WearCounts[L];
    B.Wear += W;
    B.Lines += 1;
    H.TotalWear += W;
    if (Result.Map.isFailed(LineIndex(L))) {
      B.Failed += 1;
      H.FailedLines += 1;
    }
  }
  return H;
}

void WearHeatmap::toJson(JsonWriter &W) const {
  W.key("lines_per_bucket");
  W.value(LinesPerBucket);
  W.key("total_lines");
  W.value(TotalLines);
  W.key("failed_lines");
  W.value(FailedLines);
  W.key("total_wear");
  W.value(TotalWear);
  W.key("buckets");
  W.openArray(JsonWriter::Style::Line);
  for (const WearBucket &B : Buckets) {
    W.openObject(JsonWriter::Style::Inline);
    W.key("wear");
    W.value(B.Wear);
    W.key("failed");
    W.value(B.Failed);
    W.key("lines");
    W.value(B.Lines);
    W.close();
  }
  W.close();
}

std::string WearHeatmap::toJsonString() const {
  JsonWriter W;
  W.openRoot();
  toJson(W);
  W.closeRoot();
  return W.str();
}

namespace {

bool parseU64After(const std::string &T, size_t &Pos, const char *Key,
                   uint64_t &Out) {
  std::string Needle = std::string("\"") + Key + "\": ";
  size_t P = T.find(Needle, Pos);
  if (P == std::string::npos)
    return false;
  P += Needle.size();
  char *End = nullptr;
  Out = strtoull(T.c_str() + P, &End, 10);
  if (End == T.c_str() + P)
    return false;
  Pos = size_t(End - T.c_str());
  return true;
}

} // namespace

bool WearHeatmap::fromJsonString(const std::string &Text, WearHeatmap &Out) {
  Out = WearHeatmap();
  size_t Pos = 0;
  if (!parseU64After(Text, Pos, "lines_per_bucket", Out.LinesPerBucket) ||
      !parseU64After(Text, Pos, "total_lines", Out.TotalLines) ||
      !parseU64After(Text, Pos, "failed_lines", Out.FailedLines) ||
      !parseU64After(Text, Pos, "total_wear", Out.TotalWear))
    return false;
  if (Text.find("\"buckets\": [", Pos) == std::string::npos)
    return false;
  WearBucket B;
  while (parseU64After(Text, Pos, "wear", B.Wear)) {
    if (!parseU64After(Text, Pos, "failed", B.Failed) ||
        !parseU64After(Text, Pos, "lines", B.Lines))
      return false;
    Out.Buckets.push_back(B);
  }
  return true;
}

HeapSnapshot HeapSnapshot::capture(const Heap &H) {
  HeapSnapshot S;
  S.GcCount = H.stats().GcCount;
  H.immixSpace()->forEachBlock([&](const Block &B) {
    ++S.Blocks;
    switch (B.state()) {
    case BlockState::Free:
      ++S.FreeBlocks;
      break;
    case BlockState::Recyclable:
      ++S.RecyclableBlocks;
      break;
    case BlockState::InUse:
      ++S.InUseBlocks;
      break;
    case BlockState::Full:
      ++S.FullBlocks;
      break;
    case BlockState::Retired:
      ++S.RetiredBlocks;
      break;
    }
    if (B.evacuating())
      ++S.EvacuatingBlocks;
    S.TotalLines += B.lineCount();
    S.FreeLines += B.freeLines();
    S.FailedLines += B.failedLines();
    S.DynamicFailedLines += B.dynamicFailedLines();
  });
  S.LosObjects = H.largeObjectSpace().objectCount();
  S.LosPages = H.largeObjectSpace().pagesHeld();
  S.LedgerFailedLines = H.failureLedger().totalLines();
  S.OsRemainingPages = H.os().remainingPages();
  S.OsRemainingPerfectPages = H.os().remainingPerfectPages();
  S.OsPerfectStockPages = H.os().perfectStockPages();
  S.OsDebtPages = H.os().outstandingDebt();
  return S;
}

void HeapSnapshot::toJson(JsonWriter &W) const {
  W.openObject(JsonWriter::Style::Inline);
  W.key("gc_count");
  W.value(GcCount);
  W.key("blocks");
  W.value(Blocks);
  W.key("free_blocks");
  W.value(FreeBlocks);
  W.key("recyclable_blocks");
  W.value(RecyclableBlocks);
  W.key("in_use_blocks");
  W.value(InUseBlocks);
  W.key("full_blocks");
  W.value(FullBlocks);
  W.key("retired_blocks");
  W.value(RetiredBlocks);
  W.key("evacuating_blocks");
  W.value(EvacuatingBlocks);
  W.key("total_lines");
  W.value(TotalLines);
  W.key("free_lines");
  W.value(FreeLines);
  W.key("failed_lines");
  W.value(FailedLines);
  W.key("dynamic_failed_lines");
  W.value(DynamicFailedLines);
  W.key("los_objects");
  W.value(LosObjects);
  W.key("los_pages");
  W.value(LosPages);
  W.key("ledger_failed_lines");
  W.value(LedgerFailedLines);
  W.key("os_remaining_pages");
  W.value(OsRemainingPages);
  W.key("os_remaining_perfect_pages");
  W.value(OsRemainingPerfectPages);
  W.key("os_perfect_stock_pages");
  W.value(OsPerfectStockPages);
  W.key("os_debt_pages");
  W.value(OsDebtPages);
  W.close();
}

} // namespace obs
} // namespace wearmem
