//===- serve/Service.cpp - Multi-tenant serve harness ---------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "serve/Service.h"

#include "gc/Heap.h"
#include "workload/Runner.h"

#include <chrono>
#include <cmath>
#include <deque>

using namespace wearmem;

bool wearmem::parseShardOrder(const std::string &Text, ShardOrder &Out) {
  if (Text == "forward") {
    Out = ShardOrder::Forward;
    return true;
  }
  if (Text == "reverse") {
    Out = ShardOrder::Reverse;
    return true;
  }
  if (Text == "rotate") {
    Out = ShardOrder::Rotate;
    return true;
  }
  return false;
}

const char *wearmem::rejectKindName(unsigned Kind) {
  switch (Kind) {
  case RejEmergency:
    return "emergency";
  case RejThrottled:
    return "throttled";
  case RejQuota:
    return "quota";
  case RejQueueFull:
    return "queue-full";
  }
  return "?";
}

namespace {

/// Exponential interarrival gap in whole microseconds (>= 1). Works on
/// Rng::nextDouble's 53-bit uniforms; rounding to integral microseconds
/// swallows any last-ulp libm variance, keeping the arrival schedule a
/// pure function of the seed across toolchains.
uint64_t expGapUs(Rng &Rand, double MeanUs) {
  double U = Rand.nextDouble();
  double Gap = -std::log(1.0 - U) * MeanUs;
  auto Us = static_cast<int64_t>(std::llround(Gap));
  return Us < 1 ? 1 : static_cast<uint64_t>(Us);
}

/// Wall-only drain assist: the cost of a backpressure stall. Touches no
/// deterministic state; only wall-clock latency sees it.
void stallSpin() {
  volatile unsigned Sink = 0;
  for (unsigned I = 0; I != 20000; ++I)
    Sink = Sink + I;
  (void)Sink;
}

struct ShardState {
  std::unique_ptr<TenantShard> Shard;
  std::unique_ptr<Rng> ArrRand;
  uint64_t NextArrivalUs = 0;
  bool ArrivalsDone = false;
  bool Dead = false; ///< Warmup failed or a session hit exhaustion.
  std::deque<uint64_t> Queue; ///< Admitted arrival timestamps, FIFO.
  uint64_t ServerFreeAtUs = 0;
  uint64_t ServedIdx = 0;
  uint64_t Arrivals = 0;
  uint64_t Admitted = 0;
  uint64_t Served = 0;
  std::array<uint64_t, NumRejectKinds> Rejected{};
  uint64_t ShedRequests = 0;
  uint64_t ExhaustedRequests = 0;
};

std::vector<unsigned> scanOrder(unsigned N, ShardOrder Order) {
  std::vector<unsigned> Perm(N);
  for (unsigned I = 0; I != N; ++I) {
    switch (Order) {
    case ShardOrder::Forward:
      Perm[I] = I;
      break;
    case ShardOrder::Reverse:
      Perm[I] = N - 1 - I;
      break;
    case ShardOrder::Rotate:
      Perm[I] = (I + 1) % N;
      break;
    }
  }
  return Perm;
}

} // namespace

ServeResult wearmem::runServe(const ServeOptions &Opt) {
  ServeResult Out;
  const unsigned N = static_cast<unsigned>(Opt.Tenants.size());
  if (N == 0) {
    Out.Error = "at least one tenant required";
    return Out;
  }
  if (Opt.ArrivalRatePerSec <= 0.0 || Opt.DurationSec <= 0.0 ||
      Opt.QueueDepth < 1 || Opt.LanesPerShard < 1 ||
      Opt.SessionSteps < 1) {
    Out.Error = "arrival rate, duration, queue depth, lanes, and session "
                "steps must be positive";
    return Out;
  }

  // Resolve each tenant's shard config - profile, campaign, runtime and
  // page carve - up front so misconfiguration fails before any heap
  // exists.
  std::vector<TenantShardConfig> Configs(N);
  for (unsigned K = 0; K != N; ++K) {
    const TenantSpec &Spec = Opt.Tenants[K];
    TenantShardConfig &Shard = Configs[K];
    Shard.Id = K;
    Shard.Lanes = Opt.LanesPerShard;
    Shard.WarmupScale = Opt.WarmupScale;
    Shard.SessionSteps = Opt.SessionSteps;
    Shard.P = findProfile(Spec.ProfileName);
    if (!Shard.P) {
      Out.Error = "unknown profile: " + Spec.ProfileName;
      return Out;
    }
    if (!Spec.Campaign.empty()) {
      std::string Err;
      auto Parsed = FaultCampaign::parseSchedule(Spec.Campaign, &Err);
      if (!Parsed) {
        Out.Error = "tenant " + std::to_string(K) + " campaign: " + Err;
        return Out;
      }
      Shard.Triggers = std::move(*Parsed);
    }
    if (Spec.BudgetScale <= 0.0) {
      Out.Error = "budget scale must be positive";
      return Out;
    }
    RuntimeConfig &Cfg = Shard.Runtime;
    Cfg.Collector = Opt.Collector;
    Cfg.GcThreads = Opt.GcThreads;
    Cfg.Seed = Opt.Seed + 0xD1B54A32D192ED03ULL * (K + 1);
    Cfg.FailureRate = Spec.FailureRate;
    // Sizes the TLAB/trigger heuristics; the page budget is the carve.
    Cfg.HeapBytes =
        heapBytesFor(*Shard.P, Opt.HeapFactor) * Opt.LanesPerShard;
    if (Spec.ThrottlePerfectFraction >= 0.0)
      Cfg.ThrottlePerfectFraction = Spec.ThrottlePerfectFraction;
    if (Spec.EmergencyPerfectFraction >= 0.0)
      Cfg.EmergencyPerfectFraction = Spec.EmergencyPerfectFraction;
    // The tenant's natural, compensation-aware budget - then scaled by
    // the spec. toHeapConfig re-aligns the carve to block granules.
    size_t Natural = Cfg.toHeapConfig().BudgetPages;
    size_t Carve = static_cast<size_t>(
        static_cast<double>(Natural) * Spec.BudgetScale);
    Cfg.BudgetPagesOverride = Carve < 1 ? 1 : Carve;
  }

  ShardDirectoryConfig DirCfg = Opt.Dir;
  DirCfg.Policy = Opt.Policy;
  ShardDirectory Dir(DirCfg);

  const std::vector<unsigned> Perm = scanOrder(N, Opt.Order);
  auto WallStart = std::chrono::steady_clock::now();

  // Registration, construction, and warmup all walk the permuted order:
  // the gate's claim is that none of it shows in the results.
  for (unsigned K : Perm)
    Dir.registerShard(K, Configs[K].Runtime.BudgetPagesOverride);

  std::vector<ShardState> S(N);
  const double MeanGapUs = 1e6 / Opt.ArrivalRatePerSec;
  const uint64_t HorizonUs =
      static_cast<uint64_t>(Opt.DurationSec * 1e6);
  Out.HorizonUs = HorizonUs;

  for (unsigned K : Perm) {
    S[K].Shard = std::make_unique<TenantShard>(Configs[K], Dir);
    if (!S[K].Shard->warmUp())
      S[K].Dead = true; // Carved too small: born exhausted, not an error.
    S[K].ArrRand = std::make_unique<Rng>(
        Opt.Seed + 0x9E3779B97F4A7C15ULL * (K + 201));
    S[K].NextArrivalUs = expGapUs(*S[K].ArrRand, MeanGapUs);
    if (S[K].NextArrivalUs > HorizonUs)
      S[K].ArrivalsDone = true;
  }

  LatencyRecorder Rec(N);

  // Discrete-event loop on the virtual clock. The next event is the
  // lexicographic minimum of (time, kind, tenant-id) - arrivals beat
  // service completions at the same instant, ids break the rest - so
  // the permuted scan below always finds the same winner and the shard
  // order cannot leak into any deterministic output.
  for (;;) {
    bool Have = false;
    uint64_t BestTime = 0;
    unsigned BestKind = 0; // 0 = arrival, 1 = service start.
    unsigned BestTenant = 0;
    for (unsigned K : Perm) {
      if (!S[K].ArrivalsDone) {
        uint64_t T = S[K].NextArrivalUs;
        if (!Have || T < BestTime ||
            (T == BestTime && (0u < BestKind ||
                               (0u == BestKind && K < BestTenant)))) {
          Have = true;
          BestTime = T;
          BestKind = 0;
          BestTenant = K;
        }
      }
      if (!S[K].Dead && !S[K].Queue.empty()) {
        uint64_t T = std::max(S[K].ServerFreeAtUs, S[K].Queue.front());
        if (!Have || T < BestTime ||
            (T == BestTime && (1u < BestKind ||
                               (1u == BestKind && K < BestTenant)))) {
          Have = true;
          BestTime = T;
          BestKind = 1;
          BestTenant = K;
        }
      }
    }
    if (!Have)
      break;

    const unsigned K = BestTenant;
    ShardState &St = S[K];
    const uint64_t Now = BestTime;
    Dir.advanceTo(Now);

    if (BestKind == 0) {
      // Arrival: admission control, typed rejection, bounded queue.
      ++St.Arrivals;
      DegradationMode Mode = St.Shard->mode();
      if (St.Dead || Mode == DegradationMode::Emergency ||
          Mode == DegradationMode::FailStop) {
        ++St.Rejected[RejEmergency];
      } else if (Mode == DegradationMode::Throttled) {
        ++St.Rejected[RejThrottled];
      } else if (!Dir.admitPerfect(K, Now)) {
        ++St.Rejected[RejQuota];
      } else if (St.Queue.size() >= Opt.QueueDepth) {
        ++St.Rejected[RejQueueFull];
      } else {
        St.Queue.push_back(Now);
        ++St.Admitted;
      }
      St.NextArrivalUs += expGapUs(*St.ArrRand, MeanGapUs);
      if (St.NextArrivalUs > HorizonUs)
        St.ArrivalsDone = true;
    } else {
      // Service start: the shard's single server picks up the queue
      // head. Stall backpressure charges counters and wall time only -
      // the virtual clock never sees it.
      uint64_t ArrivedAt = St.Queue.front();
      St.Queue.pop_front();
      if (Dir.chargeStallIfBackpressured(K, Now))
        stallSpin();
      auto T0 = std::chrono::steady_clock::now();
      SessionReceipt R = St.Shard->serve(St.ServedIdx++, Now);
      auto T1 = std::chrono::steady_clock::now();
      St.ServerFreeAtUs = Now + R.VirtualServiceUs;
      if (St.ServerFreeAtUs > Out.VirtualEndUs)
        Out.VirtualEndUs = St.ServerFreeAtUs;
      ++St.Served;
      if (R.Outcome == SessionOutcome::Shed)
        ++St.ShedRequests;
      if (R.Outcome == SessionOutcome::Exhausted) {
        ++St.ExhaustedRequests;
        St.Dead = true; // Queued requests never serve; arrivals reject.
      }
      Rec.recordSojourn(K, St.ServerFreeAtUs - ArrivedAt);
      Rec.recordWall(
          K, std::chrono::duration<double, std::micro>(T1 - T0).count());
    }
  }

  Out.WallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - WallStart)
                   .count();

  // Harvest, in tenant-id order regardless of scan order.
  Out.Tenants.resize(N);
  for (unsigned K = 0; K != N; ++K) {
    TenantServeResult &T = Out.Tenants[K];
    ShardState &St = S[K];
    T.Id = K;
    T.ProfileName = Opt.Tenants[K].ProfileName;
    T.Arrivals = St.Arrivals;
    T.Admitted = St.Admitted;
    T.Served = St.Served;
    T.Rejected = St.Rejected;
    T.ShedRequests = St.ShedRequests;
    T.ExhaustedRequests = St.ExhaustedRequests;
    const ShardDirStats &DS = Dir.stats(K);
    T.StallsObserved = DS.StallsObserved;
    T.StallsInflicted = DS.StallsInflicted;
    T.QuotaRejections = DS.QuotaRejections;
    T.PerfectPagesCharged = DS.PerfectPagesCharged;
    T.QuotaShareFinal = Dir.quotaShare(K);
    T.GcCount = St.Shard->runtime().stats().GcCount;
    T.FailedLinesDynamic = St.Shard->runtime().stats().FailedLinesDynamic;
    T.CarvePages = Dir.carvePages(K);
    T.FinalMode = degradationModeName(St.Shard->mode());
    ShardHarvest Harvest = St.Shard->harvest();
    T.Digest = Harvest.Digest;
    T.AuditPassed = Harvest.AuditPassed;
    T.Sojourn = Rec.sojournSummary(K);
    T.Wall = Rec.wallSummary(K);
  }
  Out.Rebalances = Dir.rebalances();
  Out.BufferPeak = Dir.bufferPeak();
  Out.JournalDropped = Dir.journalDropped();
  Out.Journal = Dir.journal();
  Out.FleetSojourn = Rec.fleetSojournSummary();
  Out.FleetWall = Rec.fleetWallSummary();
  if (Out.VirtualEndUs > 0)
    Out.FleetThroughputRps = static_cast<double>(Out.totalServed()) /
                             (static_cast<double>(Out.VirtualEndUs) / 1e6);
  Out.ConfigOk = true;
  return Out;
}
