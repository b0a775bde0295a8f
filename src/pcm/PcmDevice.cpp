//===- pcm/PcmDevice.cpp - Simulated PCM memory module --------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "pcm/PcmDevice.h"

#include "obs/Hooks.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace wearmem;

PcmDevice::PcmDevice(const PcmDeviceConfig &Config)
    : Config(Config), Storage(Config.NumPages * PcmPageSize, 0),
      Budget(Config.NumPages * PcmLinesPerPage),
      PhysFailed(Config.NumPages * PcmLinesPerPage),
      SoftwareMap(Config.NumPages * PcmLinesPerPage),
      Buffer(Config.FailureBufferCapacity) {
  assert(Config.MeanLineLifetime > 0 && "lines must endure some writes");
  Rng Rand(Config.Seed);
  double Mean = static_cast<double>(Config.MeanLineLifetime);
  for (uint64_t &B : Budget) {
    // Per-line budgets vary with process variation; clamp to at least one
    // write so even the weakest line is born alive.
    double Sample =
        Mean * (1.0 + Config.LifetimeVariation * Rand.nextGaussian());
    B = static_cast<uint64_t>(std::max(1.0, Sample));
  }
  if (Config.ClusteringEnabled)
    Clustering = std::make_unique<ClusteringHardware>(
        Config.NumPages, Config.RegionPages, Config.RedirectionCacheSize);
}

LineIndex PcmDevice::translate(LineIndex Logical) {
  assert(Logical < numLines() && "line index out of range");
  return Clustering ? Clustering->translate(Logical) : Logical;
}

LineIndex PcmDevice::translateConst(LineIndex Logical) const {
  assert(Logical < numLines() && "line index out of range");
  if (!Clustering)
    return Logical;
  // Bypass the stats-updating path for diagnostics.
  size_t Region = Logical / Clustering->linesPerRegion();
  unsigned Off =
      static_cast<unsigned>(Logical % Clustering->linesPerRegion());
  return Region * Clustering->linesPerRegion() +
         Clustering->region(Region).translate(Off);
}

uint64_t PcmDevice::remainingWrites(LineIndex Logical) const {
  return Budget[translateConst(Logical)];
}

void PcmDevice::injectImminentFailure(LineIndex Logical) {
  Budget[translateConst(Logical)] = 1;
}

WriteResult PcmDevice::writeLine(LineIndex Logical, const uint8_t *Data) {
  assert(Logical < numLines() && "line index out of range");
  if (SoftwareMap.isFailed(Logical))
    return WriteResult::DeadLine;
  if (Buffer.nearFull()) {
    ++Stats.StallEvents;
    WEARMEM_COUNT_DET("pcm.stall_events");
    WEARMEM_TRACE(WriteStall, Logical, Buffer.size());
    if (OnStall)
      OnStall();
    return WriteResult::Stalled;
  }

  LineIndex Physical = translate(Logical);
  assert(!PhysFailed.get(Physical) &&
         "a live logical line is backed by a dead physical line");
  ++Stats.LineWrites;
  assert(Budget[Physical] > 0 && "dead line escaped the failure map");
  if (--Budget[Physical] == 0) {
    // The write completed but verification found the cell stuck: the line
    // has permanently failed (Section 2.2). Latch data, route, interrupt.
    PhysFailed.set(Physical);
    ++Stats.WearFailures;
    WEARMEM_COUNT_DET("pcm.wear_failures");
    WEARMEM_TRACE(WearFailure, Logical, Physical);
    handleWearFailure(Logical, Data);
    ++Stats.FailureInterrupts;
    if (OnFailure)
      OnFailure();
    return WriteResult::Ok;
  }
  std::memcpy(lineStorage(Physical), Data, PcmLineSize);
  return WriteResult::Ok;
}

void PcmDevice::handleWearFailure(LineIndex Logical, const uint8_t *Data) {
  if (!Clustering) {
    // Without clustering hardware the failed line is simply reported to
    // software; its latest data lives in the failure buffer.
    FailureRecord Record;
    Record.LineAddr = addrOfLine(Logical);
    std::memcpy(Record.Data.data(), Data, PcmLineSize);
    bool Pushed = Buffer.push(Record);
    assert(Pushed && "failure buffer overflow despite stall protocol");
    (void)Pushed;
    SoftwareMap.fail(Logical);
    return;
  }

  // With clustering, the failure retires a boundary victim instead. Latch
  // each victim's pre-remap contents so nothing is lost, then rewrite the
  // in-flight data to the logical line's new physical backing.
  RedirectOutcome Outcome = Clustering->routeFailure(
      Logical, [&](LineIndex Victim) {
        // Pre-remap capture: read the victim's contents through the *old*
        // mapping, straight from physical storage.
        size_t Region = Victim / Clustering->linesPerRegion();
        unsigned Off = static_cast<unsigned>(Victim %
                                             Clustering->linesPerRegion());
        LineIndex Phys = Region * Clustering->linesPerRegion() +
                         Clustering->region(Region).translate(Off);
        FailureRecord Record;
        Record.LineAddr = addrOfLine(Victim);
        std::memcpy(Record.Data.data(), lineStorage(Phys), PcmLineSize);
        bool Pushed = Buffer.push(Record);
        assert(Pushed && "failure buffer overflow despite stall protocol");
        (void)Pushed;
      });

  bool LogicalRetired = false;
  for (uint64_t Victim : Outcome.NewlyFailedLogical) {
    SoftwareMap.fail(Victim);
    if (Victim == Logical)
      LogicalRetired = true;
  }
  if (LogicalRetired) {
    // The written line itself was retired (it coincided with the boundary
    // or a metadata slot): forward the in-flight write data instead of the
    // stale capture.
    FailureRecord Record;
    Record.LineAddr = addrOfLine(Logical);
    std::memcpy(Record.Data.data(), Data, PcmLineSize);
    bool Pushed = Buffer.push(Record);
    assert(Pushed && "failure buffer overflow despite stall protocol");
    (void)Pushed;
    return;
  }

  // The logical line survived under a new physical backing; complete the
  // write there. The backing line wears as usual and may itself fail,
  // which recurses through this path (bounded by the region size).
  LineIndex NewPhysical = translate(Logical);
  assert(!PhysFailed.get(NewPhysical) && "remapped onto a dead line");
  ++Stats.LineWrites;
  if (--Budget[NewPhysical] == 0) {
    PhysFailed.set(NewPhysical);
    ++Stats.WearFailures;
    WEARMEM_COUNT_DET("pcm.wear_failures");
    WEARMEM_TRACE(WearFailure, Logical, NewPhysical);
    handleWearFailure(Logical, Data);
    return;
  }
  std::memcpy(lineStorage(NewPhysical), Data, PcmLineSize);
}

void PcmDevice::readLine(LineIndex Logical, uint8_t *Out) {
  assert(Logical < numLines() && "line index out of range");
  ++Stats.LineReads;
  // Every read checks the buffer for the latest value written to the
  // location; the search happens in parallel with the array access.
  if (const uint8_t *Forwarded = Buffer.lookup(addrOfLine(Logical))) {
    ++Stats.BufferForwardedReads;
    std::memcpy(Out, Forwarded, PcmLineSize);
    return;
  }
  if (SoftwareMap.isFailed(Logical)) {
    // Reading a dead line after the OS cleared its buffer entry yields
    // garbage; return zeros and count the software bug.
    ++Stats.DeadLineReads;
    std::memset(Out, 0, PcmLineSize);
    return;
  }
  LineIndex Physical = translate(Logical);
  std::memcpy(Out, lineStorage(Physical), PcmLineSize);
}

WriteResult PcmDevice::write(PcmAddr Addr, const uint8_t *Data,
                             size_t Size) {
  // Split into line-sized pieces; partial lines are read-modify-write.
  size_t Done = 0;
  while (Done != Size) {
    LineIndex Line = lineOfAddr(Addr + Done);
    size_t Offset = (Addr + Done) % PcmLineSize;
    size_t Chunk = std::min(Size - Done, PcmLineSize - Offset);
    uint8_t Tmp[PcmLineSize];
    if (Offset != 0 || Chunk != PcmLineSize)
      readLine(Line, Tmp);
    std::memcpy(Tmp + Offset, Data + Done, Chunk);
    WriteResult Result = writeLine(Line, Tmp);
    if (Result != WriteResult::Ok)
      return Result;
    Done += Chunk;
  }
  return WriteResult::Ok;
}

void PcmDevice::read(PcmAddr Addr, uint8_t *Out, size_t Size) {
  size_t Done = 0;
  while (Done != Size) {
    LineIndex Line = lineOfAddr(Addr + Done);
    size_t Offset = (Addr + Done) % PcmLineSize;
    size_t Chunk = std::min(Size - Done, PcmLineSize - Offset);
    uint8_t Tmp[PcmLineSize];
    readLine(Line, Tmp);
    std::memcpy(Out + Done, Tmp + Offset, Chunk);
    Done += Chunk;
  }
}
