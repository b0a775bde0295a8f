//===- os/ShardDirectory.h - Cross-tenant budget arbiter --------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-tenant arbiter that sits above per-tenant Runtimes. Each
/// tenant owns a full Runtime (and thus its own FailureAwareOs over its
/// own simulated device region); what tenants actually share on one
/// physical part is (a) the perfect-page reserve, which the directory
/// meters out in virtual-time windows under a configurable policy, and
/// (b) the device's failure buffer, whose occupancy turns one tenant's
/// failure storm into stall backpressure on its neighbours.
///
/// Everything here is deterministic: the directory is driven only by the
/// serve layer's virtual clock and the tenants' deterministic event
/// streams, never by wall time or thread scheduling. Counters therefore
/// compare bit-identically across shard scheduling order and GC worker
/// counts (enforced by bench/serve01_multitenant).
///
/// The directory journals its decisions (bounded ring, oldest kept) so a
/// cross-tenant incident can be reconstructed: who rebalanced to what,
/// who was quota-rejected, which aggressor stalled which victim.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OS_SHARDDIRECTORY_H
#define WEARMEM_OS_SHARDDIRECTORY_H

#include <cstdint>
#include <string>
#include <vector>

namespace wearmem {

/// How the per-window perfect-page budget is split across tenants.
enum class QuotaPolicy : uint8_t {
  /// Equal shares, remainder to low tenant ids. Strong isolation: one
  /// tenant's demand spike cannot move another tenant's share.
  StaticQuota,
  /// Shares proportional to each tenant's previous-window demand
  /// (plus one page so an idle tenant can always ramp). Better
  /// utilization, weaker isolation.
  DemandWeighted,
};

inline const char *quotaPolicyName(QuotaPolicy P) {
  switch (P) {
  case QuotaPolicy::StaticQuota:
    return "static";
  case QuotaPolicy::DemandWeighted:
    return "demand";
  }
  return "?";
}

/// Parses "static" / "demand"; returns false on anything else.
bool parseQuotaPolicy(const std::string &Text, QuotaPolicy &Out);

/// Per-tenant directory counters. All deterministic-domain.
struct ShardDirStats {
  uint64_t PerfectPagesCharged = 0; ///< Perfect pages consumed.
  uint64_t QuotaRejections = 0;     ///< Admissions refused: window share.
  uint64_t StallsObserved = 0;      ///< Buffer stalls this tenant ate.
  uint64_t StallsInflicted = 0;     ///< Stalls this tenant caused others.
  uint64_t FailureBursts = 0;       ///< Failure-line bursts contributed.
  uint64_t LinesContributed = 0;    ///< Buffer lines contributed (clipped).
  uint64_t Drains = 0;              ///< GC drains clearing contributions.
};

/// One journaled directory decision.
struct DirectoryEvent {
  enum class Kind : uint8_t { Rebalance, QuotaReject, Stall, Burst, Drain };
  Kind What = Kind::Rebalance;
  uint64_t AtUs = 0;    ///< Virtual time of the decision.
  uint32_t Tenant = 0;  ///< Subject (victim, for stalls).
  uint64_t Value = 0;   ///< Kind-specific: share/lines/aggressor id.
};

const char *directoryEventName(DirectoryEvent::Kind K);

struct ShardDirectoryConfig {
  QuotaPolicy Policy = QuotaPolicy::StaticQuota;
  /// Fleet-wide perfect-page allowance per window.
  uint32_t PerfectPagesPerWindow = 96;
  /// Virtual-time window length.
  uint64_t WindowUs = 50000;
  /// Shared failure-buffer capacity (contributions clip here).
  uint32_t BufferCapacityLines = 96;
  /// Net foreign occupancy at or above this stalls a victim.
  uint32_t BackpressureLines = 48;
};

class ShardDirectory {
public:
  explicit ShardDirectory(const ShardDirectoryConfig &Config);

  /// Registers tenant \p Tenant with its PCM page carve (the caller has
  /// already applied any per-tenant budget scaling; the policy governs
  /// only the perfect-page windows, never the carve). Tenants may
  /// register in any order - state is keyed by id.
  void registerShard(uint32_t Tenant, size_t CarvePages);
  size_t carvePages(uint32_t Tenant) const;

  /// Advances the window clock to \p NowUs, rebalancing per-tenant
  /// quota shares at each window boundary crossed.
  void advanceTo(uint64_t NowUs);

  /// Would a one-page perfect admission fit tenant \p Tenant's current
  /// window share? Counts demand either way (rejected demand is still
  /// demand, so DemandWeighted can respond to it next window); on
  /// refusal charges a QuotaRejection and journals it.
  bool admitPerfect(uint32_t Tenant, uint64_t NowUs);

  /// Records \p Pages perfect pages actually consumed by \p Tenant.
  void chargePerfect(uint32_t Tenant, uint64_t Pages);

  /// Tenant \p Tenant pushed \p Lines failed lines into the shared
  /// buffer (clipped at capacity).
  void noteFailureLines(uint32_t Tenant, uint64_t Lines, uint64_t NowUs);

  /// Tenant \p Tenant completed a collection, draining its own
  /// contribution from the shared buffer.
  void noteGcDrain(uint32_t Tenant, uint64_t NowUs);

  /// Called before serving \p Victim: if foreign occupancy (total minus
  /// the victim's own contribution) has reached the backpressure line,
  /// charges the victim an observed stall, the largest contributor an
  /// inflicted stall, assist-drains that aggressor by a few lines (the
  /// stall is the device catching up), journals it, and returns true.
  bool chargeStallIfBackpressured(uint32_t Victim, uint64_t NowUs);

  uint64_t bufferPeak() const { return PeakLines; }
  /// Tenant's perfect-page share for the current window.
  uint64_t quotaShare(uint32_t Tenant) const;
  uint64_t rebalances() const { return Rebalances; }
  const ShardDirStats &stats(uint32_t Tenant) const;
  const std::vector<DirectoryEvent> &journal() const { return Journal; }
  uint64_t journalDropped() const { return JournalDropped; }

private:
  struct ShardEntry {
    bool Registered = false;
    size_t CarvePages = 0;
    uint64_t Share = 0;        ///< Current-window perfect-page share.
    uint64_t WindowUsed = 0;   ///< Perfect pages charged this window.
    uint64_t WindowDemand = 0; ///< Demand observed this window.
    uint64_t LastDemand = 0;   ///< Previous window's demand.
    uint64_t Contribution = 0; ///< Failure lines in the shared buffer.
    ShardDirStats Stats;
  };

  ShardEntry &entry(uint32_t Tenant);
  const ShardEntry &entry(uint32_t Tenant) const;
  void computeShares(uint64_t AtUs, bool JournalIt);
  void record(DirectoryEvent::Kind What, uint64_t AtUs, uint32_t Tenant,
              uint64_t Value);

  static constexpr size_t JournalCap = 512;
  /// Lines the implied assist-drain removes from the aggressor per
  /// stall, so repeated stalls converge instead of repeating forever.
  static constexpr uint64_t StallAssistLines = 8;

  ShardDirectoryConfig Config;
  std::vector<ShardEntry> Shards;
  uint64_t WindowStartUs = 0;
  uint64_t TotalLines = 0;
  uint64_t PeakLines = 0;
  uint64_t Rebalances = 0;
  uint64_t JournalDropped = 0;
  std::vector<DirectoryEvent> Journal;
};

} // namespace wearmem

#endif // WEARMEM_OS_SHARDDIRECTORY_H
