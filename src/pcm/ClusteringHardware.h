//===- pcm/ClusteringHardware.h - Failure clustering hardware ---*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The failure-clustering hardware of Section 3.1.2. Each region (one or
/// more pages) owns a redirection map, installed lazily when the region's
/// first line fails. Each map entry is indexed by the address offset within
/// the region and yields the actual line offset the access is redirected
/// to, plus a boundary pointer separating working lines from dead lines.
/// On each failure the hardware swaps the failed line's mapping with the
/// boundary line's mapping, so the *logical* failure always appears at the
/// clustered end of the region: even regions cluster at their start, odd
/// regions at their end, and multi-page regions keep whole logical pages
/// perfect for as long as possible.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_PCM_CLUSTERINGHARDWARE_H
#define WEARMEM_PCM_CLUSTERINGHARDWARE_H

#include "pcm/FailureMap.h"
#include "pcm/Geometry.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace wearmem {

/// Result of routing a line failure through the clustering hardware.
struct RedirectOutcome {
  /// Logical line offsets that software must now treat as failed: the
  /// metadata lines when the map was just installed, plus the boundary
  /// victim. Region-relative from RegionRedirector::onFailure, module-wide
  /// from ClusteringHardware::routeFailure. Their previous contents must
  /// be latched in the failure buffer by the device before the mapping
  /// changes.
  std::vector<uint64_t> NewlyFailedLogical;
  /// True if the redirection map was installed by this failure.
  bool InstalledMap = false;
  /// True if the line was already logically dead: the failure is a
  /// duplicate report (e.g. a journal replay) and changed nothing.
  bool AlreadyDead = false;
  /// True if the region is at (or past) its remap capacity: no swap was
  /// performed; the failed line simply dies in place and the region is
  /// demoted to fail-in-place behaviour.
  bool Refused = false;
};

/// Redirection state for one clustering region.
class RegionRedirector {
public:
  /// \p NumLines lines in the region; \p ClusterAtStart selects which end
  /// dead lines accumulate at; \p MetaLines is the size of the redirection
  /// map in lines (charged on installation).
  RegionRedirector(unsigned NumLines, bool ClusterAtStart,
                   unsigned MetaLines);

  /// Logical-to-physical line offset within the region. Identity until the
  /// map is installed.
  unsigned translate(unsigned LogicalOff) const {
    if (!Installed)
      return LogicalOff;
    return Redirect[LogicalOff];
  }

  /// Handles the wear-out of the physical line currently backing
  /// \p LogicalOff. Installs the map on first use, swaps the failed
  /// mapping to the boundary, and reports which logical lines software
  /// must now consider failed. \p CaptureBeforeRemap is invoked with each
  /// victim's logical offset *before* its mapping changes, so the device
  /// can latch the victim's current contents into the failure buffer.
  ///
  /// At the remap capacity boundary (half the region dead) the hardware
  /// refuses further swaps: the region demotes to fail-in-place, the
  /// failed logical line is reported back unchanged (Refused), and the
  /// redirection map stops growing. A failure reported for a line that is
  /// already logically dead is a graceful no-op (AlreadyDead) rather than
  /// a protocol violation, so journal replays and duplicate interrupts
  /// are idempotent.
  RedirectOutcome
  onFailure(unsigned LogicalOff,
            const std::function<void(unsigned)> &CaptureBeforeRemap);

  /// True if \p LogicalOff lies in the dead (clustered) portion or died
  /// in place after demotion, i.e. a correctly functioning OS would never
  /// access it.
  bool isLogicallyDead(unsigned LogicalOff) const;

  bool installed() const { return Installed; }

  /// Number of logical lines consumed at the clustered end (metadata +
  /// remapped wear failures).
  unsigned deadLines() const { return Boundary; }

  unsigned numLines() const { return NumLines; }

  /// Boundary slots the redirection hardware may consume before refusing
  /// further swaps: half the region. Past it, clustering has destroyed as
  /// much locality as it preserves and the map's boundary pointer field
  /// is saturated.
  unsigned remapCapacity() const { return NumLines / 2; }

  /// True once the region refused a swap: all later failures die in
  /// place.
  bool demoted() const { return Demoted; }

  /// Lines that died in place after demotion.
  unsigned failedInPlace() const { return FailedInPlaceCount; }

private:
  /// Logical offset of the next boundary slot to consume.
  unsigned boundarySlot() const {
    return ClusterAtStart ? Boundary : NumLines - 1 - Boundary;
  }

  unsigned NumLines;
  bool ClusterAtStart;
  unsigned MetaLines;
  bool Installed = false;
  bool Demoted = false;
  /// Count of dead logical lines accumulated at the clustered end.
  unsigned Boundary = 0;
  unsigned FailedInPlaceCount = 0;
  /// Logical -> physical line offset; allocated on installation.
  std::vector<uint16_t> Redirect;
  /// Lines dead in place (post-demotion failures); lazily sized.
  std::vector<bool> FailedInPlace_;
};

/// The per-module collection of region redirectors, plus the small cache
/// of recently used redirection maps that hides the extra map-lookup
/// accesses (Section 3.1.2 discusses the three-access problem and its
/// caching fix).
class ClusteringHardware {
public:
  /// \p NumPages in the module, grouped into regions of \p RegionPages.
  ClusteringHardware(size_t NumPages, unsigned RegionPages,
                     size_t MapCacheSize = 16);

  size_t numRegions() const { return Regions.size(); }
  size_t linesPerRegion() const { return LinesPerRegion; }

  /// Translates a module-wide logical line index to the physical line
  /// index, accounting for the region's redirection map. Updates the map
  /// cache statistics.
  LineIndex translate(LineIndex Logical);

  /// Routes a failure of the physical line backing \p Logical. Returns
  /// module-wide logical line indices that are newly failed.
  /// \p CaptureBeforeRemap receives module-wide logical indices of victims
  /// before their mappings change.
  RedirectOutcome
  routeFailure(LineIndex Logical,
               const std::function<void(LineIndex)> &CaptureBeforeRemap);

  /// True if software should treat \p Logical as already failed/dead.
  bool isLogicallyDead(LineIndex Logical) const;

  const RegionRedirector &region(size_t Idx) const { return Regions[Idx]; }

  /// Extra memory accesses that redirection lookups would have required
  /// (two per access to an installed region), and how many were absorbed
  /// by the map cache.
  uint64_t mapLookups() const { return MapLookups; }
  uint64_t mapCacheHits() const { return MapCacheHits; }

private:
  size_t regionOf(LineIndex Logical) const {
    return Logical / LinesPerRegion;
  }

  void touchCache(size_t Region);

  unsigned RegionPages;
  size_t LinesPerRegion;
  std::vector<RegionRedirector> Regions;
  std::vector<size_t> MapCache; // LRU list of region indices, front = MRU
  size_t MapCacheSize;
  uint64_t MapLookups = 0;
  uint64_t MapCacheHits = 0;
};

} // namespace wearmem

#endif // WEARMEM_PCM_CLUSTERINGHARDWARE_H
