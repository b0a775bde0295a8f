//===- workload/Lifetime.cpp - Fast-forward device-lifetime harness -------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "workload/Lifetime.h"

#include "inject/FaultCampaign.h"
#include "pcm/Geometry.h"
#include "support/CliArgs.h"
#include "support/JsonWriter.h"
#include "workload/Mutator.h"
#include "workload/Runner.h"

#include <algorithm>
#include <cmath>

using namespace wearmem;

namespace {

/// Lines to strike at checkpoint \p K: geometric growth is the
/// fast-forward (cells past their endurance rating fail super-linearly,
/// and the accelerated clock compounds it).
uint64_t wearDose(const LifetimeOptions &Opt, unsigned K) {
  double Dose = static_cast<double>(Opt.BaseFailLines) *
                std::pow(Opt.WearGrowth, static_cast<double>(K));
  return static_cast<uint64_t>(std::llround(Dose));
}

/// Strikes up to \p Want live (current-epoch) lines through the heap's
/// ordinary dynamic-failure interrupt path, drawn by the inject engine's
/// drip sampler. Returns the number actually struck (the heap can run out
/// of live lines near end of life).
uint64_t injectWear(Runtime &Rt, Rng &Rand, uint64_t Want) {
  ImmixSpace *Space = Rt.heap().immixSpace();
  if (!Space || Space->blockCount() == 0 || Rt.heap().outOfMemory())
    return 0;
  std::vector<uint8_t *> Addrs = sampleLiveLines(
      *Space, Rt.heap().epoch(), static_cast<size_t>(Want), Rand);
  if (!Addrs.empty())
    Rt.heap().routeDynamicFailureBatch(Addrs);
  return Addrs.size();
}

void updateMilestone(double &Slot, bool Reached, double Years) {
  if (Slot < 0.0 && Reached)
    Slot = Years;
}

} // namespace

LifetimeResult wearmem::runLifetime(const Profile &P,
                                    const LifetimeOptions &Opt) {
  LifetimeResult R;

  RuntimeConfig Config;
  Config.Collector = Opt.Collector;
  Config.HeapBytes = heapBytesFor(P, Opt.HeapFactor);
  Config.GcThreads = Opt.GcThreads;
  Config.Seed = Opt.Seed;
  Runtime Rt(Config);
  Mutator M(Rt, P, Opt.Seed, Opt.VolumeScale, Opt.Adversary);
  // Decorrelated from the workload stream so adversary choice never
  // perturbs which lines wear out for a fixed seed and heap shape.
  Rng WearRand(Opt.Seed ^ 0xC0FFEE0DDBA11ULL);

  R.BudgetPages = Rt.heap().config().BudgetPages;
  uint64_t BudgetLines =
      static_cast<uint64_t>(R.BudgetPages) * PcmLinesPerPage;

  bool Alive = M.setUp();
  uint64_t Slice = std::max<uint64_t>(1, M.targetBytes());

  auto takeCheckpoint = [&](double Years) {
    const HeapStats &S = Rt.stats();
    LifetimeCheckpoint C;
    C.Years = Years;
    C.WearLinesInjected = R.WearLinesInjected;
    C.FailedLinesDynamic = S.FailedLinesDynamic;
    C.BlocksRetired = S.BlocksRetired;
    C.GcCount = S.GcCount;
    C.AllocBytes = M.steadyAllocatedBytes();
    C.RefusedAllocs = M.refusedAllocs();
    C.CapacityLoss =
        BudgetLines == 0 ? 0.0
                         : static_cast<double>(S.FailedLinesDynamic) /
                               static_cast<double>(BudgetLines);
    C.Mode = Rt.heap().degradationMode();
    C.Recoveries = S.DegradationRecoveries;
    R.Curve.push_back(C);

    LifetimeMilestones &Ms = R.Milestones;
    updateMilestone(Ms.FirstRetiredBlock, C.BlocksRetired > 0, Years);
    updateMilestone(Ms.Throttled, C.Mode >= DegradationMode::Throttled,
                    Years);
    updateMilestone(Ms.Emergency, C.Mode >= DegradationMode::Emergency,
                    Years);
    updateMilestone(Ms.CapacityLoss10, C.CapacityLoss >= 0.10, Years);
    updateMilestone(Ms.CapacityLoss25, C.CapacityLoss >= 0.25, Years);
    updateMilestone(Ms.CapacityLoss50, C.CapacityLoss >= 0.50, Years);
  };
  takeCheckpoint(0.0);

  for (unsigned K = 0; Alive && K != Opt.Checkpoints; ++K) {
    double Years =
        static_cast<double>(K + 1) * Opt.YearsPerCheckpoint;
    uint64_t SliceEnd = static_cast<uint64_t>(K + 1) * Slice;
    while (Alive && M.steadyAllocatedBytes() < SliceEnd)
      Alive = M.step() && !Rt.outOfMemory();
    if (Alive) {
      // Checkpoint boundary: a full collection refreshes the line marks
      // so the wear batch lands on genuinely live lines (before the
      // first GC nothing is epoch-marked and wear would strike air).
      Rt.collect(true);
      R.WearLinesInjected += injectWear(Rt, WearRand, wearDose(Opt, K));
    }
    takeCheckpoint(Years);
    if (!Alive)
      updateMilestone(R.Milestones.Dnf, true, Years);
  }

  R.Survived = Alive && !Rt.outOfMemory();
  R.Dnf = Rt.heap().dnfReason();
  R.Transitions = Rt.heap().degradationLog();
  R.TransitionsDropped = Rt.heap().degradationLogDropped();
  R.Heap = Rt.stats();
  R.Os = Rt.osStats();

  // Monotone-degradation verdict: a backward mode step between
  // checkpoints is legitimate only when the heap logged a recovery
  // (emergency defrag reclaiming headroom) in between.
  for (size_t I = 1; I < R.Curve.size(); ++I)
    if (R.Curve[I].Mode < R.Curve[I - 1].Mode &&
        R.Curve[I].Recoveries == R.Curve[I - 1].Recoveries)
      R.MonotoneDegradation = false;
  return R;
}

bool wearmem::sameLifetime(const LifetimeResult &A, const LifetimeResult &B) {
  if (A.Survived != B.Survived || A.Dnf != B.Dnf ||
      A.WearLinesInjected != B.WearLinesInjected ||
      A.MonotoneDegradation != B.MonotoneDegradation ||
      A.Curve.size() != B.Curve.size())
    return false;
  for (size_t I = 0; I != A.Curve.size(); ++I) {
    const LifetimeCheckpoint &Ca = A.Curve[I];
    const LifetimeCheckpoint &Cb = B.Curve[I];
    if (Ca.WearLinesInjected != Cb.WearLinesInjected ||
        Ca.FailedLinesDynamic != Cb.FailedLinesDynamic ||
        Ca.BlocksRetired != Cb.BlocksRetired ||
        Ca.GcCount != Cb.GcCount || Ca.AllocBytes != Cb.AllocBytes ||
        Ca.RefusedAllocs != Cb.RefusedAllocs || Ca.Mode != Cb.Mode ||
        Ca.Recoveries != Cb.Recoveries)
      return false;
  }
  return A.Milestones.Throttled == B.Milestones.Throttled &&
         A.Milestones.Emergency == B.Milestones.Emergency &&
         A.Milestones.Dnf == B.Milestones.Dnf;
}

void wearmem::lifetimeToJson(JsonWriter &W, const Profile &P,
                             const LifetimeOptions &Opt,
                             const LifetimeResult &R) {
  W.openObject(JsonWriter::Style::Line);
  W.key("profile");
  W.value(P.Name);
  W.key("collector");
  W.value(cli::collectorFlagName(Opt.Collector));
  W.key("adversary");
  W.value(adversaryName(Opt.Adversary));
  W.key("seed");
  W.value(Opt.Seed);
  W.key("checkpoints");
  W.value(Opt.Checkpoints);
  W.key("years_per_checkpoint");
  W.valueF(Opt.YearsPerCheckpoint, 3);
  W.key("wear_growth");
  W.valueF(Opt.WearGrowth, 3);
  W.key("budget_pages");
  W.value(R.BudgetPages);
  W.key("survived");
  W.value(R.Survived);
  W.key("dnf_reason");
  W.value(dnfReasonName(R.Dnf));
  W.key("monotone_degradation");
  W.value(R.MonotoneDegradation);
  W.key("wear_lines_injected");
  W.value(R.WearLinesInjected);
  W.key("refused_large_allocs");
  W.value(R.Heap.RefusedLargeAllocs);
  W.key("refused_medium_allocs");
  W.value(R.Heap.RefusedMediumAllocs);
  W.key("throttle_retries");
  W.value(R.Heap.ThrottleRetries);
  W.key("milestones_years");
  W.openObject(JsonWriter::Style::Inline);
  W.key("first_retired_block");
  W.valueF(R.Milestones.FirstRetiredBlock, 3);
  W.key("throttled");
  W.valueF(R.Milestones.Throttled, 3);
  W.key("emergency");
  W.valueF(R.Milestones.Emergency, 3);
  W.key("capacity_loss_10");
  W.valueF(R.Milestones.CapacityLoss10, 3);
  W.key("capacity_loss_25");
  W.valueF(R.Milestones.CapacityLoss25, 3);
  W.key("capacity_loss_50");
  W.valueF(R.Milestones.CapacityLoss50, 3);
  W.key("dnf");
  W.valueF(R.Milestones.Dnf, 3);
  W.close();
  W.key("transitions");
  W.openArray(JsonWriter::Style::Line);
  for (const DegradationTransition &T : R.Transitions) {
    W.openObject(JsonWriter::Style::Inline);
    W.key("gc");
    W.value(T.GcCount);
    W.key("from");
    W.value(degradationModeName(T.From));
    W.key("to");
    W.value(degradationModeName(T.To));
    W.key("recovery");
    W.value(T.Recovery);
    W.close();
  }
  W.close();
  W.key("transitions_dropped");
  W.value(R.TransitionsDropped);
  W.key("survival_curve");
  W.openArray(JsonWriter::Style::Line);
  for (const LifetimeCheckpoint &C : R.Curve) {
    W.openObject(JsonWriter::Style::Inline);
    W.key("years");
    W.valueF(C.Years, 3);
    W.key("wear_lines");
    W.value(C.WearLinesInjected);
    W.key("failed");
    W.value(C.FailedLinesDynamic);
    W.key("retired");
    W.value(C.BlocksRetired);
    W.key("gc");
    W.value(C.GcCount);
    W.key("alloc");
    W.value(C.AllocBytes);
    W.key("refused");
    W.value(C.RefusedAllocs);
    W.key("capacity_loss");
    W.valueF(C.CapacityLoss, 4);
    W.key("mode");
    W.value(degradationModeName(C.Mode));
    W.close();
  }
  W.close();
  W.close();
}
