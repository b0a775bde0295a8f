//===- serve/TenantShard.cpp - One tenant's runtime shard -----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "serve/TenantShard.h"

#include "gc/Heap.h"
#include "gc/HeapAuditor.h"
#include "workload/PoolDriver.h"

#include <cassert>

using namespace wearmem;

TenantShard::TenantShard(const TenantShardConfig &Config, ShardDirectory &Dir)
    : Config(Config), Dir(Dir),
      Rt(std::make_unique<Runtime>(Config.Runtime)),
      SessionRand(Config.Runtime.Seed ^ 0x5E54EBA5EULL) {
  assert(this->Config.P && "tenant profile required");
  assert(this->Config.Lanes >= 1 && "at least one lane per shard");
}

TenantShard::~TenantShard() = default;

bool TenantShard::warmUp() {
  // Phase 1: a scaled pool pass builds a realistically fragmented live
  // set across every lane (same shared wiring as wearmem_run/_soak).
  {
    MutatorPoolOptions Opts;
    Opts.Lanes = Config.Lanes;
    Opts.Seed = Config.Runtime.Seed;
    Opts.VolumeScale = Config.WarmupScale;
    PoolDriver Warmup(*Rt, *Config.P, Opts);
    if (!Warmup.run())
      return false;
  }

  // Phase 2: one serving mutator per lane (decorrelated from the warmup
  // pool's lane seeds), each with its own rooted backbone.
  LaneMuts.clear();
  LaneRefusedBase.assign(Config.Lanes, 0);
  for (unsigned Lane = 0; Lane != Config.Lanes; ++Lane) {
    Rt->heap().setActiveLane(Lane);
    Rt->heap().drainLaneMailbox(Lane);
    uint64_t Seed = Config.Runtime.Seed + 0x9E3779B97F4A7C15ULL * (Lane + 101);
    auto M = std::make_unique<Mutator>(*Rt, *Config.P, Seed);
    if (!M->setUp())
      return false;
    LaneMuts.push_back(std::move(M));
  }

  // Phase 3: arm the campaign only once serving starts, so warmup is
  // identical for every tenant and scheduling order.
  if (!Config.Triggers.empty()) {
    Campaign =
        std::make_unique<FaultCampaign>(Config.Triggers, Config.Runtime.Seed);
    Campaign->attachRuntime(*Rt);
  }
  return true;
}

SessionReceipt TenantShard::serve(uint64_t RequestIndex, uint64_t NowUs) {
  assert(!LaneMuts.empty() && "warmUp() must succeed before serve()");
  SessionReceipt R;
  unsigned Lane = static_cast<unsigned>(RequestIndex % Config.Lanes);
  Rt->heap().setActiveLane(Lane);
  Rt->heap().drainLaneMailbox(Lane);

  const HeapStats &HS = Rt->stats();
  const OsStats &OS = Rt->osStats();
  uint64_t GcBefore = HS.GcCount;
  uint64_t PerfectBefore = OS.PerfectPagesRequested;
  uint64_t FailedBefore = HS.FailedLinesDynamic;
  Mutator &M = *LaneMuts[Lane];
  uint64_t RefusedBefore = M.refusedAllocs();

  unsigned Steps =
      Config.SessionSteps +
      static_cast<unsigned>(SessionRand.nextBelow(Config.SessionSteps + 1));
  for (unsigned I = 0; I != Steps; ++I) {
    if (Campaign)
      Campaign->pump();
    if (!M.step()) {
      R.Outcome = SessionOutcome::Exhausted;
      break;
    }
    ++R.Steps;
  }

  R.GcDelta = HS.GcCount - GcBefore;
  R.PerfectDelta = OS.PerfectPagesRequested - PerfectBefore;
  R.FailedLineDelta = HS.FailedLinesDynamic - FailedBefore;
  R.ShedAllocs = M.refusedAllocs() - RefusedBefore;
  if (R.Outcome != SessionOutcome::Exhausted && R.ShedAllocs > 0)
    R.Outcome = SessionOutcome::Shed;

  // Report the session's footprint to the arbiter: perfect consumption
  // against the quota window, failure lines into the shared buffer, and
  // any collection as a drain of this tenant's backlog.
  Dir.chargePerfect(Config.Id, R.PerfectDelta);
  if (R.FailedLineDelta > 0)
    Dir.noteFailureLines(Config.Id, R.FailedLineDelta, NowUs);
  if (R.GcDelta > 0)
    Dir.noteGcDrain(Config.Id, NowUs);

  // Modeled service time: dispatch + per-step work + a pause charge per
  // collection the session absorbed. Deterministic by construction.
  R.VirtualServiceUs = 40 + 3 * static_cast<uint64_t>(R.Steps) +
                       150 * R.GcDelta;
  return R;
}

void TenantShard::finishPendingRecovery() {
  if (Rt->heap().pendingFailureRecovery() && !Rt->outOfMemory())
    Rt->collect(true);
}

ShardHarvest TenantShard::harvest() {
  HeapAuditor Auditor(Rt->heap());
  ShardHarvest Out;
  finishPendingRecovery();
  Out.Digest = Auditor.digest();
  // The recovery collection can drain failures that parked during its
  // mark phase, leaving a recovery pending again.
  finishPendingRecovery();
  Out.AuditPassed = Auditor.audit().passed();
  return Out;
}
