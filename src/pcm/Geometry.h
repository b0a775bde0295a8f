//===- pcm/Geometry.h - PCM line/page geometry ------------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory-system geometry the paper assumes throughout: 64 B PCM lines
/// (the hardware write granularity and the finest failure granularity) and
/// 4 KB pages, so a page's failure map is exactly one 64-bit word.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_PCM_GEOMETRY_H
#define WEARMEM_PCM_GEOMETRY_H

#include "support/Units.h"

#include <cstdint>

namespace wearmem {

/// Size of one PCM line in bytes: the write unit, the error-correction
/// unit, and therefore the unit at which permanent failures occur.
constexpr size_t PcmLineSize = 64;

/// Size of one OS page in bytes.
constexpr size_t PcmPageSize = 4 * KiB;

/// PCM lines per page (64 with the default geometry).
constexpr size_t PcmLinesPerPage = PcmPageSize / PcmLineSize;

static_assert(PcmLinesPerPage == 64,
              "a page's failure map must fit one 64-bit word");

/// A byte address within the simulated PCM module's physical space.
using PcmAddr = uint64_t;

/// Index of a 64 B line within the module.
using LineIndex = uint64_t;

/// Index of a 4 KB page within the module.
using PageIndex = uint64_t;

constexpr LineIndex lineOfAddr(PcmAddr Addr) { return Addr / PcmLineSize; }
constexpr PcmAddr addrOfLine(LineIndex Line) { return Line * PcmLineSize; }
constexpr PageIndex pageOfAddr(PcmAddr Addr) {
  return Addr / PcmPageSize;
}

} // namespace wearmem

#endif // WEARMEM_PCM_GEOMETRY_H
