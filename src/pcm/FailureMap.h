//===- pcm/FailureMap.h - Failure maps and distributions --------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fault-injection module of Section 5: "We model PCM failures via a
/// failure map. The failure map has one bit for each 64 B PCM line, which
/// indicates whether that line is working or has failed."
///
/// Three generators are provided, matching the paper's experiments:
///  * uniform        - each 64 B line fails independently (Figs 4-7, 9, 10);
///  * clusterLimit   - the Fig 8 limit study: aligned 2^N-line regions fail
///                     wholesale with probability p, so gaps between
///                     failures are at least 2^N lines while the per-line
///                     failure probability stays p;
///  * pushClustered  - the proposed clustering hardware as a map transform
///                     (Figs 9, 10): failures move to the start of even
///                     regions and the end of odd regions, and the
///                     redirection-map metadata lines are charged to the
///                     region once it has its first failure.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_PCM_FAILUREMAP_H
#define WEARMEM_PCM_FAILUREMAP_H

#include "pcm/Geometry.h"
#include "support/Bitmap.h"
#include "support/Random.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace wearmem {

/// How failures are laid out within each clustering region.
enum class ClusterPolicy {
  /// Even-indexed regions push failures to their start, odd-indexed regions
  /// to their end, so adjacent region interiors coalesce (Figure 1(e)).
  Alternate,
  /// All regions push to their start (used for sensitivity comparisons).
  AllToStart,
};

/// Options for the push-clustering transform.
struct ClusterOptions {
  /// Region size in pages (the paper evaluates 1 and 2; Section 7.3
  /// discusses 4).
  unsigned RegionPages = 2;
  ClusterPolicy Policy = ClusterPolicy::Alternate;
  /// Charge the redirection-map metadata lines to any region that has at
  /// least one failure (Section 3.1.2: the map is installed in the first
  /// line(s) of the region once the first line fails).
  bool ChargeMetadata = true;
};

/// One bit per 64 B PCM line over a span of pages, stored as the OS
/// table of Section 3.2.1: one 64-bit word per page, bit i = line i.
class FailureMap {
public:
  FailureMap() = default;
  explicit FailureMap(size_t NumLines) : Lines(NumLines) {}

  /// Uniform random failures. With \p Exact true (the default), exactly
  /// round(Rate * size) distinct lines fail, which keeps compensated-heap
  /// experiments noise-free; otherwise each line fails independently.
  static FailureMap uniform(size_t NumLines, double Rate, Rng &Rand,
                            bool Exact = true);

  /// Fig 8 limit study: aligned regions of \p ClusterLines lines fail
  /// wholesale with probability \p Rate.
  static FailureMap clusterLimit(size_t NumLines, double Rate,
                                 size_t ClusterLines, Rng &Rand,
                                 bool Exact = true);

  size_t numLines() const { return Lines.size(); }
  size_t numPages() const { return Lines.size() / PcmLinesPerPage; }

  bool isFailed(LineIndex Line) const { return Lines.get(Line); }
  void fail(LineIndex Line) { Lines.set(Line); }
  /// Un-fails a line (the OS remapped the page to a perfect physical
  /// page, so the address no longer maps to worn-out cells).
  void clear(LineIndex Line) { Lines.clear(Line); }
  /// Un-fails lines [From, From + Count), a word at a time.
  void clearRange(LineIndex From, size_t Count) {
    Lines.clearRange(From, Count);
  }

  size_t failedCount() const { return Lines.count(); }

  double failedFraction() const {
    return numLines() == 0
               ? 0.0
               : static_cast<double>(failedCount()) /
                     static_cast<double>(numLines());
  }

  /// The page's failure map as one 64-bit word (bit i = line i failed),
  /// the OS table encoding of Section 3.2.1. The map stores exactly these
  /// words, so this is one load; a page's failed-line count is the
  /// word's popcount and a perfect page is a zero word.
  uint64_t pageWord(PageIndex Page) const {
    static_assert(PcmLinesPerPage == 64, "one map word per page");
    assert(Page < numPages() && "page index out of range");
    return Lines.word(Page);
  }

  /// Number of perfect pages in the whole map: one zero-word test per
  /// page.
  size_t perfectPageCount() const;

  /// Applies the clustering-hardware transform: failures (plus metadata
  /// lines) move to one end of each region. The failed-line count can only
  /// grow (by the metadata charge); positions change, totals of *wear*
  /// failures are preserved. Costs a popcount per page word and one
  /// masked range per failing region.
  FailureMap pushClustered(const ClusterOptions &Opts) const;

  /// Number of redirection-map metadata lines for a region of
  /// \p RegionPages pages: (entries + boundary pointer) at
  /// ceil(log2(lines-per-region)) bits each, rounded up to whole lines.
  /// Yields 1 line for 1-page regions and 2 lines for 2-page regions,
  /// matching the paper's 889-bit figure.
  static unsigned metadataLines(unsigned RegionPages);

  /// Lengths of maximal runs of consecutive working lines, in line units.
  /// This is the fragmentation signal of Section 6.2: uniform failures
  /// shatter memory into short runs; clustering restores long ones.
  std::vector<size_t> workingRunLengths() const;

  /// Mean working-run length in lines (0 if everything failed).
  double meanWorkingRun() const;

  bool operator==(const FailureMap &Other) const {
    return Lines == Other.Lines;
  }

private:
  Bitmap Lines;
};

} // namespace wearmem

#endif // WEARMEM_PCM_FAILUREMAP_H
