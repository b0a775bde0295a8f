//===- core/Runtime.cpp - Public failure-tolerant runtime API -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"

#include "gc/HeapAuditor.h"

#include <cassert>
#include <chrono>
#include <cmath>
#include <cstdio>

using namespace wearmem;

HeapConfig RuntimeConfig::toHeapConfig() const {
  assert(FailureRate >= 0.0 && FailureRate < 1.0 &&
         "failure rate must be in [0, 1)");
  HeapConfig Heap;
  static_cast<HeapPolicy &>(Heap) = *this;

  // Space compensation (Section 6.2): given heap size h used in the
  // absence of failure and failure rate f, use h / (1 - f) so the bytes
  // of non-faulty memory are held constant. With clustering hardware the
  // redirection-map metadata lines are unusable too (every failing
  // region loses them), so they join the wasted fraction.
  double Bytes = static_cast<double>(HeapBytes);
  if (CompensateForFailures && FailureRate > 0.0) {
    double Wasted = FailureRate;
    if (ClusteringRegionPages > 0) {
      double LinesPerRegion = static_cast<double>(ClusteringRegionPages) *
                              static_cast<double>(PcmLinesPerPage);
      Wasted += static_cast<double>(FailureMap::metadataLines(
                    ClusteringRegionPages)) /
                LinesPerRegion;
    }
    Bytes /= (1.0 - Wasted);
  }
  size_t Pages = divCeil(static_cast<uint64_t>(std::ceil(Bytes)),
                         PcmPageSize);
  // A directory carve wins over the HeapBytes derivation: the arbiter
  // has already split (and compensated) the device-wide budget.
  if (BudgetPagesOverride != 0)
    Pages = BudgetPagesOverride;
  // Round to whole clustering regions and blocks.
  size_t Granule = Heap.pagesPerBlock();
  if (ClusteringRegionPages > 1)
    Granule = std::max<size_t>(Granule, ClusteringRegionPages);
  Heap.BudgetPages = alignUp(Pages, Granule);

  Heap.Failures.Rate = FailureRate;
  Heap.Failures.Seed = Seed;
  // A Custom map wins over the clustering transform: recovery re-seeds
  // the new incarnation with the reconciled map, whose failures already
  // sit wherever the clustering hardware put them.
  if (ClusteringRegionPages > 0 && FailureRate > 0.0 &&
      Pattern != FailurePattern::Custom) {
    Heap.Failures.Pattern = FailurePattern::PushClustered;
    Heap.Failures.Cluster.RegionPages = ClusteringRegionPages;
    Heap.Failures.Cluster.Policy = ClusterPolicy::Alternate;
    Heap.Failures.Cluster.ChargeMetadata = true;
  } else {
    Heap.Failures.Pattern = Pattern;
    Heap.Failures.ClusterLines = ClusterLines;
    Heap.Failures.Custom = CustomFailureMap;
  }
  return Heap;
}

std::string RuntimeConfig::describe() const {
  const char *Name = "?";
  switch (Collector) {
  case CollectorKind::MarkSweep:
    Name = "MS";
    break;
  case CollectorKind::Immix:
    Name = "IX";
    break;
  case CollectorKind::StickyMarkSweep:
    Name = "S-MS";
    break;
  case CollectorKind::StickyImmix:
    Name = "S-IX";
    break;
  }
  char Buf[128];
  if (FailureRate == 0.0) {
    std::snprintf(Buf, sizeof(Buf), "%s L%zu", Name, LineSize);
  } else {
    std::snprintf(Buf, sizeof(Buf), "%s^PCM L%zu %s f=%.0f%%%s", Name,
                  LineSize,
                  ClusteringRegionPages == 0
                      ? "noCL"
                      : (ClusteringRegionPages == 1 ? "1CL" : "2CL"),
                  FailureRate * 100.0,
                  CompensateForFailures ? "" : " NoComp");
  }
  return Buf;
}

//===----------------------------------------------------------------------===//
// Handle
//===----------------------------------------------------------------------===//

Handle::Handle(Runtime &Rt, ObjRef Obj) : Rt(&Rt) {
  Idx = Rt.Heap_.createRoot(Obj);
}

Handle::Handle(Handle &&Other) noexcept : Rt(Other.Rt), Idx(Other.Idx) {
  Other.Rt = nullptr;
}

Handle &Handle::operator=(Handle &&Other) noexcept {
  if (this != &Other) {
    release();
    Rt = Other.Rt;
    Idx = Other.Idx;
    Other.Rt = nullptr;
  }
  return *this;
}

Handle::~Handle() { release(); }

void Handle::release() {
  if (Rt) {
    Rt->Heap_.releaseRoot(Idx);
    Rt = nullptr;
  }
}

ObjRef Handle::get() const {
  assert(Rt && "empty handle");
  return Rt->Heap_.root(Idx);
}

void Handle::set(ObjRef Obj) {
  assert(Rt && "empty handle");
  Rt->Heap_.setRoot(Idx, Obj);
}

//===----------------------------------------------------------------------===//
// Runtime
//===----------------------------------------------------------------------===//

Runtime::Runtime(const RuntimeConfig &Config)
    : Config(Config), Heap_(Config.toHeapConfig()) {}

std::shared_ptr<DurableState> Runtime::bootstrapDurableState() const {
  auto DS = std::make_shared<DurableState>();
  DS->DeviceTruth = Heap_.os().budgetFailureMap();
  DS->Baseline = DS->DeviceTruth;
  return DS;
}

void Runtime::attachDurableState(std::shared_ptr<DurableState> DS) {
  assert(DS && "durable state required");
  Journal_ = std::make_unique<MetadataJournal>(std::move(DS));
  Heap_.attachJournal(Journal_.get());
}

std::unique_ptr<Runtime> Runtime::recover(const RuntimeConfig &Base,
                                          std::shared_ptr<DurableState> DS,
                                          RecoveryReport &Report) {
  auto Start = std::chrono::steady_clock::now();
  Report = RecoveryReport();

  // Phase 1: journal replay. Torn tails and corrupted cells are detected
  // by the scanner; the journal's view is rebuilt over the baseline.
  JournalScan Scan = MetadataJournal::scanBytes(DS->Journal);

  // Phase 2: device rescan + reconciliation. The device is ground truth;
  // journal-only claims are dropped and counted, device-only failures
  // (lost to a tear) are adopted silently - that is what device-wins
  // recovery is for.
  ReconcileResult Rec =
      reconcileJournal(Scan, DS->Baseline, DS->DeviceTruth);
  Report.RecordsReplayed = Rec.RecordsReplayed;
  Report.TornTailBytes = Scan.TornTailBytes;
  Report.TornRecords = Scan.TornRecords;
  Report.ChecksumFailures = Scan.ChecksumFailures;
  Report.JournalOnlyLines = Rec.JournalOnlyLines;
  Report.DeviceOnlyLines = Rec.DeviceOnlyLines;
  Report.Divergences = Scan.ChecksumFailures + Rec.JournalOnlyLines;
  Report.PoolTransitions = Rec.PoolTransitions;
  Report.LedgerEntries = Rec.LedgerEntries;
  Report.JournalBytes = DS->Journal.size();

  // Kill point between recovery phases: the journal is replayed but the
  // heap is not rebuilt. The arm is consumed, so retrying recover()
  // succeeds (and replays the same journal - recovery is idempotent).
  {
    MetadataJournal Probe(DS);
    Probe.crashPoint(CrashPoint::RecoveryPhase);
  }

  // Phase 3: rebuild. Provision the new incarnation from the reconciled
  // map. The derived page budget depends only on HeapBytes, FailureRate,
  // and the clustering geometry - all unchanged - so the budget matches
  // the map line-for-line.
  RuntimeConfig Cfg = Base;
  Cfg.Pattern = FailurePattern::Custom;
  Cfg.CustomFailureMap = std::make_shared<FailureMap>(Rec.Reconciled);
  auto Rt = std::make_unique<Runtime>(Cfg);
  assert(Rt->heap().os().budgetFailureMap().numLines() ==
             Rec.Reconciled.numLines() &&
         "page budget changed across recovery");
  Rt->attachDurableState(std::move(DS));
  Rt->Journal_->compact(Rec.Reconciled);

  // Phase 4: recovery verifier. The rebuilt heap must audit clean before
  // the mutator resumes.
  HeapAuditor Auditor(Rt->heap());
  AuditReport Audit = Auditor.audit();
  Report.AuditPassed = Audit.passed();
  Report.AuditViolations = Audit.Violations.size();
  Report.RecoveryMs =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - Start)
          .count();
  return Rt;
}

Handle Runtime::allocateRooted(uint32_t PayloadBytes, uint16_t NumRefs,
                               bool Pinned) {
  ObjRef Obj = allocate(PayloadBytes, NumRefs, Pinned);
  return Handle(*this, Obj);
}

bool Runtime::injectRandomDynamicFailure(Rng &Rand) {
  ImmixSpace *Space = Heap_.immixSpace();
  if (!Space || Space->blockCount() == 0)
    return false;
  // Scan from a random starting block for a line that is live (marked at
  // the current epoch): wear failures strike written lines.
  size_t NumBlocks = Space->blockCount();
  size_t StartBlock = Rand.nextBelow(NumBlocks);
  Block *Victim = nullptr;
  unsigned VictimLine = 0;
  size_t Inspected = 0;
  Space->forEachBlock([&](Block &B) {
    size_t Ordinal = Inspected++;
    if (Victim || Ordinal < StartBlock)
      return;
    unsigned Lines = B.lineCount();
    unsigned Offset = static_cast<unsigned>(Rand.nextBelow(Lines));
    for (unsigned I = 0; I != Lines; ++I) {
      unsigned Line = (Offset + I) % Lines;
      if (B.lineMark(Line) == Heap_.epoch()) {
        Victim = &B;
        VictimLine = Line;
        return;
      }
    }
  });
  if (!Victim)
    return false;
  Heap_.injectDynamicFailureAt(Victim->lineAddr(VictimLine));
  return true;
}
