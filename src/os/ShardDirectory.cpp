//===- os/ShardDirectory.cpp - Cross-tenant budget arbiter ----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/ShardDirectory.h"

#include "obs/Hooks.h"

#include <algorithm>
#include <cassert>

using namespace wearmem;

namespace {

/// Per-tenant counter bump through the registry. Registration is
/// idempotent by name, so the lookup cost is only paid when metrics are
/// on - and none of these sites are hot (they fire per directory
/// decision, not per allocation).
void countTenant(const char *Base, uint32_t Tenant, uint64_t N = 1) {
  if (!obs::metricsOn() || N == 0)
    return;
  auto &R = obs::MetricsRegistry::instance();
  R.add(R.counter(obs::tenantMetricName(Base, Tenant).c_str(),
                  obs::MetricDomain::Deterministic),
        N);
}

} // namespace

bool wearmem::parseQuotaPolicy(const std::string &Text, QuotaPolicy &Out) {
  if (Text == "static") {
    Out = QuotaPolicy::StaticQuota;
    return true;
  }
  if (Text == "demand") {
    Out = QuotaPolicy::DemandWeighted;
    return true;
  }
  return false;
}

const char *wearmem::directoryEventName(DirectoryEvent::Kind K) {
  switch (K) {
  case DirectoryEvent::Kind::Rebalance:
    return "rebalance";
  case DirectoryEvent::Kind::QuotaReject:
    return "quota-reject";
  case DirectoryEvent::Kind::Stall:
    return "stall";
  case DirectoryEvent::Kind::Burst:
    return "burst";
  case DirectoryEvent::Kind::Drain:
    return "drain";
  }
  return "?";
}

ShardDirectory::ShardDirectory(const ShardDirectoryConfig &Config)
    : Config(Config) {
  assert(Config.WindowUs > 0 && "window length must be positive");
  Journal.reserve(JournalCap);
}

void ShardDirectory::registerShard(uint32_t Tenant, size_t CarvePages) {
  if (Tenant >= Shards.size())
    Shards.resize(Tenant + 1);
  ShardEntry &E = Shards[Tenant];
  assert(!E.Registered && "tenant registered twice");
  E.Registered = true;
  E.CarvePages = CarvePages;
  // Initial shares over whoever is registered so far. The first window
  // boundary rebalances over the full roster; callers register every
  // shard before the clock moves, so this only covers the pre-traffic
  // warmup window. Registration is provisioning, not a journaled
  // decision, so no event and no Rebalances bump.
  computeShares(0, /*JournalIt=*/false);
}

size_t ShardDirectory::carvePages(uint32_t Tenant) const {
  return entry(Tenant).CarvePages;
}

ShardDirectory::ShardEntry &ShardDirectory::entry(uint32_t Tenant) {
  assert(Tenant < Shards.size() && Shards[Tenant].Registered &&
         "unknown tenant");
  return Shards[Tenant];
}

const ShardDirectory::ShardEntry &
ShardDirectory::entry(uint32_t Tenant) const {
  assert(Tenant < Shards.size() && Shards[Tenant].Registered &&
         "unknown tenant");
  return Shards[Tenant];
}

void ShardDirectory::record(DirectoryEvent::Kind What, uint64_t AtUs,
                            uint32_t Tenant, uint64_t Value) {
  if (Journal.size() >= JournalCap) {
    ++JournalDropped;
    return;
  }
  DirectoryEvent E;
  E.What = What;
  E.AtUs = AtUs;
  E.Tenant = Tenant;
  E.Value = Value;
  Journal.push_back(E);
}

void ShardDirectory::computeShares(uint64_t AtUs, bool JournalIt) {
  unsigned Live = 0;
  uint64_t TotalWeight = 0;
  for (ShardEntry &E : Shards)
    if (E.Registered) {
      ++Live;
      TotalWeight += E.LastDemand + 1;
    }
  if (Live == 0)
    return;
  uint64_t Budget = Config.PerfectPagesPerWindow;
  if (Config.Policy == QuotaPolicy::StaticQuota) {
    uint64_t Each = Budget / Live;
    uint64_t Rem = Budget % Live;
    for (ShardEntry &E : Shards)
      if (E.Registered) {
        E.Share = Each + (Rem > 0 ? 1 : 0);
        if (Rem > 0)
          --Rem;
      }
  } else {
    // Demand-weighted: floor of the proportional share, remainder pages
    // to low tenant ids - integral, order-independent, deterministic.
    uint64_t Assigned = 0;
    for (ShardEntry &E : Shards)
      if (E.Registered) {
        E.Share = Budget * (E.LastDemand + 1) / TotalWeight;
        Assigned += E.Share;
      }
    uint64_t Rem = Budget - Assigned;
    for (ShardEntry &E : Shards)
      if (E.Registered && Rem > 0) {
        ++E.Share;
        --Rem;
      }
  }
  if (JournalIt) {
    ++Rebalances;
    for (uint32_t T = 0; T != Shards.size(); ++T)
      if (Shards[T].Registered)
        record(DirectoryEvent::Kind::Rebalance, AtUs, T, Shards[T].Share);
  }
}

void ShardDirectory::advanceTo(uint64_t NowUs) {
  while (NowUs >= WindowStartUs + Config.WindowUs) {
    WindowStartUs += Config.WindowUs;
    for (ShardEntry &E : Shards)
      if (E.Registered) {
        E.LastDemand = E.WindowDemand;
        E.WindowDemand = 0;
        E.WindowUsed = 0;
      }
    computeShares(WindowStartUs, /*JournalIt=*/true);
  }
}

bool ShardDirectory::admitPerfect(uint32_t Tenant, uint64_t NowUs) {
  ShardEntry &E = entry(Tenant);
  ++E.WindowDemand;
  if (E.WindowUsed < E.Share)
    return true;
  ++E.Stats.QuotaRejections;
  countTenant("serve.dir.quota_rejects", Tenant);
  record(DirectoryEvent::Kind::QuotaReject, NowUs, Tenant, E.Share);
  return false;
}

void ShardDirectory::chargePerfect(uint32_t Tenant, uint64_t Pages) {
  if (Pages == 0)
    return;
  ShardEntry &E = entry(Tenant);
  E.WindowUsed += Pages;
  E.WindowDemand += Pages;
  E.Stats.PerfectPagesCharged += Pages;
  countTenant("serve.dir.perfect_pages", Tenant, Pages);
}

void ShardDirectory::noteFailureLines(uint32_t Tenant, uint64_t Lines,
                                      uint64_t NowUs) {
  if (Lines == 0)
    return;
  ShardEntry &E = entry(Tenant);
  uint64_t Room = Config.BufferCapacityLines > TotalLines
                      ? Config.BufferCapacityLines - TotalLines
                      : 0;
  uint64_t Clipped = std::min(Lines, Room);
  E.Contribution += Clipped;
  TotalLines += Clipped;
  PeakLines = std::max(PeakLines, TotalLines);
  ++E.Stats.FailureBursts;
  E.Stats.LinesContributed += Clipped;
  countTenant("serve.dir.buffer_lines", Tenant, Clipped);
  record(DirectoryEvent::Kind::Burst, NowUs, Tenant, Clipped);
}

void ShardDirectory::noteGcDrain(uint32_t Tenant, uint64_t NowUs) {
  ShardEntry &E = entry(Tenant);
  if (E.Contribution == 0)
    return;
  uint64_t Drained = E.Contribution;
  TotalLines -= Drained;
  E.Contribution = 0;
  ++E.Stats.Drains;
  record(DirectoryEvent::Kind::Drain, NowUs, Tenant, Drained);
}

bool ShardDirectory::chargeStallIfBackpressured(uint32_t Victim,
                                                uint64_t NowUs) {
  ShardEntry &V = entry(Victim);
  uint64_t Foreign = TotalLines - V.Contribution;
  if (Foreign < Config.BackpressureLines)
    return false;
  // The aggressor is the largest foreign contributor (ties to the low
  // tenant id, keeping the blame assignment deterministic).
  uint32_t Aggressor = Victim;
  uint64_t Best = 0;
  for (uint32_t T = 0; T != Shards.size(); ++T) {
    const ShardEntry &E = Shards[T];
    if (!E.Registered || T == Victim)
      continue;
    if (E.Contribution > Best) {
      Best = E.Contribution;
      Aggressor = T;
    }
  }
  ++V.Stats.StallsObserved;
  countTenant("serve.dir.stalls_observed", Victim);
  if (Aggressor != Victim) {
    ShardEntry &A = Shards[Aggressor];
    ++A.Stats.StallsInflicted;
    countTenant("serve.dir.stalls_inflicted", Aggressor);
    // The stall *is* the device catching up on the backlog: model the
    // progress by assist-draining the aggressor, so a bounded storm
    // produces a bounded stall count instead of stalling forever.
    uint64_t Assist = std::min(A.Contribution, StallAssistLines);
    A.Contribution -= Assist;
    TotalLines -= Assist;
  }
  record(DirectoryEvent::Kind::Stall, NowUs, Victim, Aggressor);
  return true;
}

uint64_t ShardDirectory::quotaShare(uint32_t Tenant) const {
  return entry(Tenant).Share;
}

const ShardDirStats &ShardDirectory::stats(uint32_t Tenant) const {
  return entry(Tenant).Stats;
}
