//===- pcm/WearLeveler.h - Start-gap wear leveling ---------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Start-Gap wear leveling (Qureshi et al., MICRO 2009), the mechanism the
/// paper's Section 7.2 argues is *harmful* once failures begin: leveling
/// spreads wear - and therefore eventual failures - uniformly, which
/// maximizes fragmentation, whereas concentrated wear keeps failures
/// clustered and more tolerable for software.
///
/// Start-Gap maps N logical lines onto N+1 physical slots. A gap slot
/// rotates through the array: every GapInterval writes, the line preceding
/// the gap moves into it and the gap shifts down by one. After the gap has
/// traversed the whole array, the start register advances, achieving an
/// overall rotation of the address space.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_PCM_WEARLEVELER_H
#define WEARMEM_PCM_WEARLEVELER_H

#include "pcm/Geometry.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace wearmem {

/// Address-translation layer implementing Start-Gap over \p NumLines
/// logical lines (NumLines + 1 physical slots).
class StartGapLeveler {
public:
  /// \p GapInterval: writes between gap movements (psi in the paper;
  /// Qureshi et al. use 100).
  StartGapLeveler(size_t NumLines, uint64_t GapInterval = 100)
      : NumLines(NumLines), GapInterval(GapInterval), Gap(NumLines) {
    assert(NumLines > 0 && GapInterval > 0);
  }

  size_t numLines() const { return NumLines; }
  size_t gapPosition() const { return Gap; }
  size_t startPosition() const { return Start; }

  /// Logical line -> physical slot in [0, NumLines].
  size_t translate(size_t Logical) const {
    assert(Logical < NumLines && "logical line out of range");
    size_t Rotated = Logical + Start;
    if (Rotated >= NumLines)
      Rotated -= NumLines;
    // Slots at or after the gap are shifted down by one physical position.
    return Rotated >= Gap ? Rotated + 1 : Rotated;
  }

  /// Records one write; after every GapInterval writes the gap moves one
  /// slot (costing one extra line copy, which the caller should model as a
  /// write to the slot the gap vacates into).
  ///
  /// \returns the physical slot that received the gap-move copy, or
  /// SIZE_MAX if no movement occurred this write.
  size_t recordWrite() {
    if (++WritesSinceMove < GapInterval)
      return SIZE_MAX;
    WritesSinceMove = 0;
    if (Gap == 0) {
      // Gap wrapped: one full traversal complete; rotate the start.
      Gap = NumLines;
      Start = Start + 1 == NumLines ? 0 : Start + 1;
      return SIZE_MAX;
    }
    // Line content at physical slot Gap-1 moves into slot Gap.
    size_t CopyTarget = Gap;
    --Gap;
    return CopyTarget;
  }

private:
  size_t NumLines;
  uint64_t GapInterval;
  size_t Gap;
  size_t Start = 0;
  uint64_t WritesSinceMove = 0;
};

} // namespace wearmem

#endif // WEARMEM_PCM_WEARLEVELER_H
