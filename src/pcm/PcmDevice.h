//===- pcm/PcmDevice.h - Simulated PCM memory module ------------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A behavioural model of a PCM memory module with wear-out (Section 2.2),
/// the failure buffer (Section 3.1.1), and optional failure-clustering
/// hardware (Section 3.1.2). Each 64 B line has a finite write budget drawn
/// from a process-variation distribution; when a write exhausts a line's
/// budget the write is latched in the failure buffer, the failure is routed
/// through the clustering hardware (if enabled), and an interrupt callback
/// fires so the OS can handle it.
///
/// Real PCM endures ~1e8 writes per cell; simulations use much smaller
/// budgets so lifetime experiments complete in milliseconds, which only
/// rescales time.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_PCM_PCMDEVICE_H
#define WEARMEM_PCM_PCMDEVICE_H

#include "pcm/ClusteringHardware.h"
#include "pcm/FailureBuffer.h"
#include "pcm/FailureMap.h"
#include "pcm/Geometry.h"
#include "support/Random.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

namespace wearmem {

/// Construction parameters for a simulated module.
struct PcmDeviceConfig {
  size_t NumPages = 256;
  /// Mean writes a line endures before permanent failure.
  uint64_t MeanLineLifetime = 10000;
  /// Coefficient of variation of per-line budgets (process variation).
  double LifetimeVariation = 0.15;
  size_t FailureBufferCapacity = 32;
  /// Enables the failure-clustering redirection hardware.
  bool ClusteringEnabled = false;
  /// Region granularity for clustering, in pages.
  unsigned RegionPages = 2;
  size_t RedirectionCacheSize = 16;
  uint64_t Seed = 0x9CF1A57EULL;
};

/// Outcome of a write request.
enum class WriteResult {
  /// Data is durable (directly, or via the failure buffer after a wear
  /// failure was absorbed).
  Ok,
  /// The failure buffer is near-full; the module refuses writes until the
  /// OS drains at least one entry.
  Stalled,
  /// The target line was already reported failed; a correct OS/runtime
  /// never does this.
  DeadLine,
};

/// Running counters for device activity.
struct PcmDeviceStats {
  uint64_t LineWrites = 0;
  uint64_t LineReads = 0;
  uint64_t WearFailures = 0;
  uint64_t BufferForwardedReads = 0;
  uint64_t StallEvents = 0;
  uint64_t DeadLineReads = 0;
  uint64_t FailureInterrupts = 0;
};

/// The simulated module. All addresses are *logical* line/byte addresses,
/// i.e. the view software has after the clustering hardware's redirection.
class PcmDevice {
public:
  /// Fires after one or more failure records were latched; the OS handler
  /// should read FailureBuffer::pending().
  using FailureInterruptFn = std::function<void()>;
  /// Fires when the buffer reaches its near-full threshold.
  using StallInterruptFn = std::function<void()>;

  explicit PcmDevice(const PcmDeviceConfig &Config);

  size_t numPages() const { return Config.NumPages; }
  size_t numLines() const { return Config.NumPages * PcmLinesPerPage; }
  size_t sizeBytes() const { return Config.NumPages * PcmPageSize; }

  void setFailureInterrupt(FailureInterruptFn Fn) {
    OnFailure = std::move(Fn);
  }
  void setStallInterrupt(StallInterruptFn Fn) { OnStall = std::move(Fn); }

  /// Writes one 64 B line. May trigger wear failure handling.
  WriteResult writeLine(LineIndex Logical, const uint8_t *Data);

  /// Reads one 64 B line, forwarding from the failure buffer when a
  /// pending entry exists.
  void readLine(LineIndex Logical, uint8_t *Out);

  /// Byte-granularity helpers (a partial-line store is a read-modify-write
  /// of the whole line, i.e. one line write of wear).
  WriteResult write(PcmAddr Addr, const uint8_t *Data, size_t Size);
  void read(PcmAddr Addr, uint8_t *Out, size_t Size);

  /// OS interface: invalidates a handled failure-buffer entry.
  bool clearBufferEntry(PcmAddr LineAddr) {
    return Buffer.invalidate(LineAddr);
  }

  const FailureBuffer &failureBuffer() const { return Buffer; }

  /// Pending (unhandled) failure records, oldest first.
  std::vector<FailureRecord> pendingFailures() const {
    return Buffer.pending();
  }

  /// The logical failure map software sees (clustered if hardware
  /// clustering is on).
  const FailureMap &softwareFailureMap() const { return SoftwareMap; }

  const PcmDeviceStats &stats() const { return Stats; }

  const ClusteringHardware *clustering() const { return Clustering.get(); }

  /// Remaining write budget of the *physical* line currently backing a
  /// logical line (test/diagnostic hook).
  uint64_t remainingWrites(LineIndex Logical) const;

  /// Forces the physical line backing \p Logical to fail on its next
  /// write (fault-injection hook for tests, examples and benches).
  void injectImminentFailure(LineIndex Logical);

private:
  LineIndex translate(LineIndex Logical);
  LineIndex translateConst(LineIndex Logical) const;
  void handleWearFailure(LineIndex Logical, const uint8_t *Data);
  uint8_t *lineStorage(LineIndex Physical) {
    return Storage.data() + Physical * PcmLineSize;
  }

  PcmDeviceConfig Config;
  std::vector<uint8_t> Storage;
  /// Remaining write budget per *physical* line.
  std::vector<uint64_t> Budget;
  /// Physical lines that have worn out.
  Bitmap PhysFailed;
  /// Logical failure map exposed to software.
  FailureMap SoftwareMap;
  FailureBuffer Buffer;
  std::unique_ptr<ClusteringHardware> Clustering;
  PcmDeviceStats Stats;
  FailureInterruptFn OnFailure;
  StallInterruptFn OnStall;
};

} // namespace wearmem

#endif // WEARMEM_PCM_PCMDEVICE_H
