//===- inject/FaultCampaign.cpp - Scriptable fault campaigns --------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "inject/FaultCampaign.h"

#include "obs/Hooks.h"

#include "core/Runtime.h"

#include <algorithm>
#include <cassert>
#include <cctype>
#include <unordered_map>

using namespace wearmem;

//===----------------------------------------------------------------------===//
// Schedule parsing
//===----------------------------------------------------------------------===//

namespace {

// Digits with an optional k/m/g suffix (powers of 1024), advancing Pos.
bool parseScaled(const std::string &S, size_t &Pos, uint64_t &Out) {
  size_t Start = Pos;
  uint64_t V = 0;
  while (Pos < S.size() && S[Pos] >= '0' && S[Pos] <= '9') {
    V = V * 10 + static_cast<uint64_t>(S[Pos] - '0');
    ++Pos;
  }
  if (Pos == Start)
    return false;
  if (Pos < S.size()) {
    switch (std::tolower(static_cast<unsigned char>(S[Pos]))) {
    case 'k':
      V <<= 10;
      ++Pos;
      break;
    case 'm':
      V <<= 20;
      ++Pos;
      break;
    case 'g':
      V <<= 30;
      ++Pos;
      break;
    default:
      break;
    }
  }
  Out = V;
  return true;
}

std::string trimmed(const std::string &S) {
  size_t B = S.find_first_not_of(" \t");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t");
  return S.substr(B, E - B + 1);
}

bool parseOneTrigger(const std::string &Entry, FaultTrigger &T,
                     std::string &Error) {
  size_t At = Entry.find('@');
  if (At == std::string::npos) {
    Error = "missing '@clock' in '" + Entry + "'";
    return false;
  }
  std::string Shape = Entry.substr(0, At);
  if (Shape == "drip") {
    T.Shape = FaultShape::Drip;
    T.Lines = 1;
  } else if (Shape == "storm") {
    T.Shape = FaultShape::Storm;
    T.Lines = 16;
  } else if (Shape == "region") {
    T.Shape = FaultShape::Region;
  } else if (Shape == "crash") {
    T.Shape = FaultShape::Crash;
  } else {
    Error = "unknown shape '" + Shape + "' (drip, storm, region, crash)";
    return false;
  }

  size_t Colon = Entry.find(':', At);
  if (Colon == std::string::npos) {
    Error = "missing ':start' in '" + Entry + "'";
    return false;
  }
  std::string Clock = Entry.substr(At + 1, Colon - At - 1);
  if (Clock == "writes") {
    T.Clock = TriggerClock::Writes;
  } else if (Clock == "alloc") {
    T.Clock = TriggerClock::AllocBytes;
  } else if (Clock == "gc") {
    T.Clock = TriggerClock::GcCount;
  } else {
    Error = "unknown clock '" + Clock + "' (writes, alloc, gc)";
    return false;
  }

  std::string Rest = Entry.substr(Colon + 1);
  size_t OptColon = Rest.find(':');
  std::string Timing =
      OptColon == std::string::npos ? Rest : Rest.substr(0, OptColon);
  std::string Opts =
      OptColon == std::string::npos ? "" : Rest.substr(OptColon + 1);

  size_t Pos = 0;
  if (!parseScaled(Timing, Pos, T.Start)) {
    Error = "bad start value in '" + Entry + "'";
    return false;
  }
  if (Pos < Timing.size() && Timing[Pos] == '+') {
    ++Pos;
    if (!parseScaled(Timing, Pos, T.Period)) {
      Error = "bad period value in '" + Entry + "'";
      return false;
    }
  }
  if (Pos < Timing.size() && Timing[Pos] == 'x') {
    ++Pos;
    uint64_t Reps = 0;
    if (!parseScaled(Timing, Pos, Reps) || Reps == 0) {
      Error = "bad repeat count in '" + Entry + "'";
      return false;
    }
    T.Repeats = static_cast<unsigned>(Reps);
  }
  if (Pos != Timing.size()) {
    Error = "trailing junk '" + Timing.substr(Pos) + "' in '" + Entry + "'";
    return false;
  }

  size_t OptPos = 0;
  while (OptPos < Opts.size()) {
    size_t Comma = Opts.find(',', OptPos);
    std::string Opt = trimmed(
        Opts.substr(OptPos, Comma == std::string::npos ? std::string::npos
                                                       : Comma - OptPos));
    OptPos = Comma == std::string::npos ? Opts.size() : Comma + 1;
    if (Opt.empty())
      continue;
    if (Opt == "hot") {
      T.Hot = true;
      continue;
    }
    size_t Eq = Opt.find('=');
    if (Eq == std::string::npos) {
      Error = "bad option '" + Opt + "' in '" + Entry + "'";
      return false;
    }
    std::string Key = Opt.substr(0, Eq);
    if (Key == "at") {
      // Kill-point selector; only meaningful on crash triggers.
      if (T.Shape != FaultShape::Crash) {
        Error = "option 'at' requires the crash shape in '" + Entry + "'";
        return false;
      }
      std::string Point = Opt.substr(Eq + 1);
      if (Point == "append") {
        T.CrashAt = CrashPoint::JournalAppend;
      } else if (Point == "remap") {
        T.CrashAt = CrashPoint::Remap;
      } else if (Point == "upcall") {
        T.CrashAt = CrashPoint::InterruptUpcall;
      } else if (Point == "recovery") {
        T.CrashAt = CrashPoint::RecoveryPhase;
      } else if (Point == "handshake") {
        T.CrashAt = CrashPoint::SafepointHandshake;
      } else {
        Error = "unknown kill point '" + Point +
                "' (append, remap, upcall, recovery, handshake) in '" +
                Entry + "'";
        return false;
      }
      continue;
    }
    if (Key == "thread") {
      // Lane selector for thread-targeted storms. Lane 0 is valid, so
      // this cannot go through the generic parser below (it rejects 0).
      if (T.Shape != FaultShape::Storm) {
        Error =
            "option 'thread' requires the storm shape in '" + Entry + "'";
        return false;
      }
      std::string ValStr = Opt.substr(Eq + 1);
      size_t ValPos = 0;
      uint64_t Lane = 0;
      if (ValStr.empty() || !parseScaled(ValStr, ValPos, Lane) ||
          ValPos != ValStr.size() || Lane > 0x7FFFFFFF) {
        Error = "bad option '" + Opt + "' in '" + Entry + "'";
        return false;
      }
      T.ThreadTarget = static_cast<int>(Lane);
      continue;
    }
    uint64_t Val = 0;
    size_t ValPos = Eq + 1;
    if (!parseScaled(Opt, ValPos, Val) || ValPos != Opt.size() ||
        Val == 0) {
      Error = "bad option '" + Opt + "' in '" + Entry + "'";
      return false;
    }
    if (Key == "lines") {
      T.Lines = static_cast<unsigned>(Val);
    } else if (Key == "pages") {
      T.Pages = static_cast<unsigned>(Val);
    } else {
      Error = "unknown option '" + Key + "' in '" + Entry + "'";
      return false;
    }
  }
  return true;
}

} // namespace

std::optional<std::vector<FaultTrigger>>
FaultCampaign::parseSchedule(const std::string &Text, std::string *Error) {
  std::vector<FaultTrigger> Triggers;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Semi = Text.find(';', Pos);
    std::string Entry = trimmed(Text.substr(
        Pos, Semi == std::string::npos ? std::string::npos : Semi - Pos));
    Pos = Semi == std::string::npos ? Text.size() + 1 : Semi + 1;
    if (Entry.empty())
      continue;
    FaultTrigger T;
    std::string Err;
    if (!parseOneTrigger(Entry, T, Err)) {
      if (Error)
        *Error = Err;
      return std::nullopt;
    }
    Triggers.push_back(T);
  }
  if (Triggers.empty()) {
    if (Error)
      *Error = "empty schedule";
    return std::nullopt;
  }
  return Triggers;
}

//===----------------------------------------------------------------------===//
// Engine
//===----------------------------------------------------------------------===//

namespace {

/// The non-retired blocks holding lines marked live at \p Epoch, in block
/// order, each with its live-line count: the census the heap shapes
/// sample from.
std::vector<std::pair<Block *, unsigned>> occupiedBlocks(ImmixSpace &Space,
                                                         uint8_t Epoch) {
  std::vector<std::pair<Block *, unsigned>> Occupied;
  Space.forEachBlock([&](Block &B) {
    if (B.state() == BlockState::Retired)
      return;
    if (unsigned Count = B.countLinesMarked(Epoch))
      Occupied.emplace_back(&B, Count);
  });
  return Occupied;
}

/// The line index of \p B's \p Rank-th line marked live at \p Epoch.
unsigned nthLiveLine(const Block &B, uint8_t Epoch, size_t Rank) {
  for (unsigned Line = 0;; ++Line) {
    assert(Line < B.lineCount() && "rank beyond the block's live lines");
    if (B.lineMark(Line) == Epoch && Rank-- == 0)
      return Line;
  }
}

/// One failure strikes one 64 B PCM line; within Immix line \p Line of
/// \p B the victim PCM line is chosen uniformly.
uint8_t *pcmLineWithin(Block &B, unsigned Line, Rng &Rand) {
  size_t PerLine = std::max<size_t>(1, B.lineSize() / PcmLineSize);
  return B.lineAddr(Line) + Rand.nextBelow(PerLine) * PcmLineSize;
}

} // namespace

std::vector<uint8_t *> wearmem::sampleLiveLines(ImmixSpace &Space,
                                                uint8_t Epoch, size_t Want,
                                                Rng &Rand) {
  // A partial Fisher-Yates shuffle of the live (block, line) pairs in
  // block-then-line order. The list stays implicit - only per-block
  // counts exist, the positions the shuffle displaced sit in a small map,
  // and only the picked lines are located - so a call costs one count
  // pass, not a heap-wide list, while making the same draws and picking
  // the same victims in the same order as shuffling the listed pairs.
  std::vector<std::pair<Block *, unsigned>> Occupied =
      occupiedBlocks(Space, Epoch);
  std::vector<size_t> Ends; // Cumulative live-line counts.
  Ends.reserve(Occupied.size());
  size_t Live = 0;
  for (const auto &[B, Count] : Occupied)
    Ends.push_back(Live += Count);
  Want = std::min(Want, Live);
  std::unordered_map<size_t, size_t> Displaced;
  auto valueAt = [&](size_t Pos) {
    auto It = Displaced.find(Pos);
    return It == Displaced.end() ? Pos : It->second;
  };
  std::vector<uint8_t *> Addrs;
  Addrs.reserve(Want);
  for (size_t I = 0; I != Want; ++I) {
    size_t J = I + Rand.nextBelow(Live - I);
    size_t Pick = valueAt(J);
    Displaced[J] = valueAt(I);
    size_t K = static_cast<size_t>(
        std::upper_bound(Ends.begin(), Ends.end(), Pick) - Ends.begin());
    size_t Rank = Pick - (K == 0 ? 0 : Ends[K - 1]);
    Block &B = *Occupied[K].first;
    Addrs.push_back(pcmLineWithin(B, nthLiveLine(B, Epoch, Rank), Rand));
  }
  return Addrs;
}

FaultCampaign::FaultCampaign(std::vector<FaultTrigger> Triggers,
                             uint64_t Seed)
    : Rand(Seed) {
  for (const FaultTrigger &T : Triggers)
    Armed.push_back(ArmedTrigger{T, T.Start, 0, true});
}

uint64_t FaultCampaign::clockNow(TriggerClock Clock) const {
  if (!Rt)
    return 0;
  switch (Clock) {
  case TriggerClock::Writes:
    // Allocation dominates the write stream: approximate one line write
    // per 64 allocated bytes.
    return Rt->stats().BytesAllocated / PcmLineSize;
  case TriggerClock::AllocBytes:
    return Rt->stats().BytesAllocated;
  case TriggerClock::GcCount:
    return Rt->stats().GcCount;
  }
  return 0;
}

bool FaultCampaign::pump() {
  // pump() is documented as a mutator-step call; if a caller pumps while
  // the heap is mid-collection (e.g. from a GC callback), hold the
  // triggers rather than racing the parallel mark phase. Clocks are
  // unaffected - the firings happen at the next real mutator step.
  if (Rt && Rt->heap().inCollection()) {
    ++Stats.PumpsDeferredInGc;
    return false;
  }
  bool AnyFired = false;
  for (ArmedTrigger &A : Armed) {
    if (!A.Armed || clockNow(A.T.Clock) < A.NextAt)
      continue;
    // Fire at most once per pump per trigger: a clock that leapt ahead
    // produces a paced series of firings, not one mega-burst.
    fire(A);
    AnyFired = true;
  }
  return AnyFired;
}

void FaultCampaign::fire(ArmedTrigger &A) {
  ++Stats.Firings;
  WEARMEM_COUNT_DET("inject.firings");
  WEARMEM_TRACE(CampaignFiring, static_cast<uint64_t>(A.T.Shape),
                A.FiredCount);
  if (Rt)
    fireHeap(A.T);
  ++A.FiredCount;
  if (A.T.Period > 0 &&
      (A.T.Repeats == 0 || A.FiredCount < A.T.Repeats)) {
    A.NextAt += A.T.Period;
    return;
  }
  if (Escalate) {
    // The trigger ran its course and the heap survived: come back twice
    // as hard after one more period.
    ++Stats.Escalations;
    A.T.Lines = std::min(A.T.Lines * 2, 4096u);
    A.T.Pages = std::min(A.T.Pages * 2, 64u);
    A.FiredCount = 0;
    uint64_t Step =
        A.T.Period > 0 ? A.T.Period : std::max<uint64_t>(A.T.Start, 1);
    A.NextAt = clockNow(A.T.Clock) + Step;
    return;
  }
  A.Armed = false;
}

void FaultCampaign::fireHeap(const FaultTrigger &T) {
  ImmixSpace *Space = Rt->heap().immixSpace();
  if (!Space || Space->blockCount() == 0 || Rt->heap().outOfMemory()) {
    ++Stats.DryFirings;
    return;
  }
  uint8_t Epoch = Rt->heap().epoch();
  std::vector<uint8_t *> Addrs;

  switch (T.Shape) {
  case FaultShape::Drip:
    // Wear strikes written (live) lines, sampled uniformly across the
    // whole heap.
    Addrs = sampleLiveLines(*Space, Epoch, T.Lines, Rand);
    break;

  case FaultShape::Storm: {
    if (T.ThreadTarget >= 0) {
      // Thread-targeted burst: hit the victim lane's current TLAB block,
      // where that thread's next writes land. Dry-fires (empty batch)
      // when the lane has no TLAB yet - before its first refill - or
      // the block has since been retired.
      Block *B = Rt->heap().mutatorTlabBlock(
          static_cast<unsigned>(T.ThreadTarget));
      if (!B || B->state() == BlockState::Retired)
        break;
      std::vector<unsigned> Working;
      for (unsigned Line = 0; Line != B->lineCount(); ++Line)
        if (B->lineMark(Line) != LineFailed)
          Working.push_back(Line);
      size_t Want = std::min<size_t>(T.Lines, Working.size());
      for (size_t I = 0; I != Want; ++I) {
        size_t J = I + Rand.nextBelow(Working.size() - I);
        std::swap(Working[I], Working[J]);
        Addrs.push_back(pcmLineWithin(*B, Working[I], Rand));
      }
      break;
    }
    // A correlated burst into one block - the hottest (first with the
    // most live lines) when Hot, else a random occupied one. Only the
    // struck block's live lines are listed.
    std::vector<std::pair<Block *, unsigned>> Occupied =
        occupiedBlocks(*Space, Epoch);
    if (Occupied.empty())
      break;
    size_t Target = 0;
    if (T.Hot) {
      for (size_t I = 1; I != Occupied.size(); ++I)
        if (Occupied[I].second > Occupied[Target].second)
          Target = I;
    } else {
      Target = Rand.nextBelow(Occupied.size());
    }
    Block &B = *Occupied[Target].first;
    std::vector<unsigned> LiveLines;
    LiveLines.reserve(Occupied[Target].second);
    for (unsigned Line = 0; Line != B.lineCount(); ++Line)
      if (B.lineMark(Line) == Epoch)
        LiveLines.push_back(Line);
    size_t Want = std::min<size_t>(T.Lines, LiveLines.size());
    for (size_t I = 0; I != Want; ++I) {
      size_t J = I + Rand.nextBelow(LiveLines.size() - I);
      std::swap(LiveLines[I], LiveLines[J]);
      Addrs.push_back(pcmLineWithin(B, LiveLines[I], Rand));
    }
    break;
  }

  case FaultShape::Region: {
    // A spatially correlated wear-out: an aligned span of pages loses
    // every still-working PCM line at once.
    std::vector<Block *> Candidates;
    Space->forEachBlock([&](Block &B) {
      if (B.state() != BlockState::Retired)
        Candidates.push_back(&B);
    });
    if (Candidates.empty())
      break;
    Block &B = *Candidates[Rand.nextBelow(Candidates.size())];
    size_t PagesInBlock = B.sizeBytes() / PcmPageSize;
    size_t Span = std::min<size_t>(std::max(1u, T.Pages), PagesInBlock);
    size_t StartPage = Rand.nextBelow(PagesInBlock / Span) * Span;
    const std::vector<uint64_t> &Words = B.pageFailureWords();
    for (size_t Page = StartPage; Page != StartPage + Span; ++Page)
      for (size_t Bit = 0; Bit != PcmLinesPerPage; ++Bit) {
        if (Page < Words.size() && ((Words[Page] >> Bit) & 1))
          continue; // Already dead.
        Addrs.push_back(B.base() + Page * PcmPageSize +
                        Bit * PcmLineSize);
      }
    break;
  }

  case FaultShape::Crash:
    // Arm the kill point; the crash fires later, when execution actually
    // reaches it.
    if (MetadataJournal *J = Rt->heap().journal())
      J->armCrash(T.CrashAt);
    else
      ++Stats.DryFirings;
    return;
  }

  if (Addrs.empty()) {
    ++Stats.DryFirings;
    return;
  }
  Stats.LinesFailed += Addrs.size();
  // The router is the multi-lane-aware front door: with one lane it is
  // exactly injectDynamicFailureBatch(DeferRecovery=true); with several
  // it delivers each failure to the lane owning the hit block (active
  // lane immediately, others via their mailbox) and defers unowned
  // addresses to the next safepoint.
  Rt->heap().routeDynamicFailureBatch(Addrs);
}
