//===- obs/Snapshot.cpp - Heap snapshots ----------------------------------===//

#include "Snapshot.h"

#include "gc/FailureLedger.h"
#include "gc/Heap.h"
#include "heap/Block.h"
#include "heap/ImmixSpace.h"
#include "heap/LargeObjectSpace.h"
#include "os/Os.h"
#include "support/JsonWriter.h"


namespace wearmem {
namespace obs {

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
