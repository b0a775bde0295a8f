//===- serve/TenantShard.h - One tenant's runtime shard ---------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One tenant of the multi-tenant heap service: a full Runtime (with its
/// own lanes, degradation-ladder state, and optional fault campaign)
/// provisioned with the exact page carve the ShardDirectory handed it,
/// plus the request-session machinery the load harness drives.
///
/// A request session is a short burst of profile-shaped mutator steps on
/// the lane the request hashes to - the allocate/mutate/release shape of
/// a managed request handler. Its deterministic cost (steps, collections
/// triggered, perfect pages consumed, failure lines pushed) is reported
/// to the directory and converted into a virtual service time; wall
/// time is measured around it but never feeds back into scheduling.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_SERVE_TENANTSHARD_H
#define WEARMEM_SERVE_TENANTSHARD_H

#include "core/Runtime.h"
#include "inject/FaultCampaign.h"
#include "os/ShardDirectory.h"
#include "workload/Mutator.h"
#include "workload/Profile.h"

#include <memory>
#include <vector>

namespace wearmem {

struct TenantShardConfig {
  uint32_t Id = 0;
  const Profile *P = nullptr;
  /// The tenant's runtime, as runServe built it: BudgetPagesOverride is
  /// the directory's page carve, HeapBytes only sizes the TLAB/trigger
  /// heuristics, and TenantSpec's ladder overrides are already applied.
  /// Its Seed also seeds the warmup pool, the serving mutators, the
  /// campaign and the session lengths.
  RuntimeConfig Runtime;
  unsigned Lanes = 1;
  /// Pre-parsed fault campaign; empty = quiet tenant.
  std::vector<FaultTrigger> Triggers;
  /// Steady-volume fraction the warmup pool runs before serving.
  double WarmupScale = 0.05;
  /// Request sessions run SessionSteps + uniform[0, SessionSteps] steps
  /// (ServeOptions::SessionSteps).
  unsigned SessionSteps = 24;
};

/// Why a session ended.
enum class SessionOutcome : uint8_t {
  Ok,        ///< All steps completed.
  Shed,      ///< Completed, but Emergency admission shed allocations.
  Exhausted, ///< Heap exhaustion mid-session (tenant is done).
};

/// The deterministic receipt for one request session.
struct SessionReceipt {
  SessionOutcome Outcome = SessionOutcome::Ok;
  unsigned Steps = 0;
  uint64_t GcDelta = 0;         ///< Collections the session triggered.
  uint64_t PerfectDelta = 0;    ///< Perfect pages requested.
  uint64_t FailedLineDelta = 0; ///< Dynamic failure lines landed.
  uint64_t ShedAllocs = 0;      ///< Emergency-shed allocations.
  /// Modeled service time on the virtual clock: a fixed dispatch cost,
  /// a per-step cost, and a pause charge per collection.
  uint64_t VirtualServiceUs = 0;
};

/// What TenantShard::harvest reports.
struct ShardHarvest {
  uint64_t Digest = 0;
  bool AuditPassed = false; ///< True when the heap is sound.
};

class TenantShard {
public:
  TenantShard(const TenantShardConfig &Config, ShardDirectory &Dir);
  ~TenantShard();

  /// Builds the live set: a scaled PoolDriver warmup pass (the same
  /// shared helper wearmem_run and wearmem_soak drive pools through),
  /// then one serving Mutator per lane, then the fault campaign.
  /// Returns false on heap exhaustion during warmup.
  bool warmUp();

  /// Runs one request session on lane (RequestIndex % lanes) at virtual
  /// time \p NowUs, reporting costs to the directory.
  SessionReceipt serve(uint64_t RequestIndex, uint64_t NowUs);

  uint32_t id() const { return Config.Id; }
  unsigned lanes() const { return Config.Lanes; }
  Runtime &runtime() { return *Rt; }
  const Runtime &runtime() const { return *Rt; }
  DegradationMode mode() const { return Rt->heap().degradationMode(); }
  bool outOfMemory() const { return Rt->outOfMemory(); }

  /// The end-of-run checks on one auditor: the position-independent heap
  /// digest, then the full structural audit. Any deferred failure
  /// recovery is finished first, so the digest is a pure function of
  /// the event stream rather than of recovery timing.
  ShardHarvest harvest();

private:
  void finishPendingRecovery();

  TenantShardConfig Config;
  ShardDirectory &Dir;
  std::unique_ptr<Runtime> Rt;
  std::vector<std::unique_ptr<Mutator>> LaneMuts;
  std::vector<uint64_t> LaneRefusedBase;
  std::unique_ptr<FaultCampaign> Campaign;
  Rng SessionRand;
};

} // namespace wearmem

#endif // WEARMEM_SERVE_TENANTSHARD_H
