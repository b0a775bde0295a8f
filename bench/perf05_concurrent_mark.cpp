//===- bench/perf05_concurrent_mark.cpp - Concurrent marking gate ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Perf and correctness gate for the three ways of pacing the mark:
// stop-the-world, interleaved (budgeted steps on the mutator), and
// mostly-concurrent (a dedicated marker thread). Three contracts:
//
//  1. Determinism, heap-level (virtual time): a write storm - including
//     a dynamic line failure landing mid-cycle - must end in a
//     bit-identical heap with equal deterministic counters across
//     {stop-the-world, interleaved, concurrent} x GC workers {1,2,4,8}.
//     The SATB totals must agree across every paced leg, and the mark
//     increment count across the interleaved legs (the step schedule is
//     fixed). The marker thread's free-running schedule must be
//     invisible.
//  2. Determinism, pool-level: a multi-threaded MutatorPool run whose
//     turn hook opens, paces, and closes cycles at fixed turn numbers.
//     Across mutator threads {1,2,4} each mode must produce one digest
//     (OS scheduling and the marker thread are invisible), the two
//     marking pacings must produce the *same* digest, and allocation
//     and collection counters must agree across all three modes. The
//     stop-the-world digest legitimately differs from the marking
//     modes' here: this workload drops objects mid-cycle, and SATB's
//     allocate-black rule floats that garbage past the close - a
//     semantic property of snapshot marking, not a marker artifact
//     (the heap-level matrix in 1, where allocation precedes the
//     cycle, pins exact stop-the-world equality). Exit 2 on any
//     divergence in 1 or 2.
//  3. Timing SLOs at 4 GC workers (wall clock), each against the
//     stop-the-world full-mark pause over the identical heap:
//     a. interleaved: the longest pause of a cycle driven open,
//        budgeted steps to convergence, close - with no storm in
//        between - must be <= 20% of it. Median of the paired ratios,
//        accumulated across rounds.
//     b. concurrent: the longest pause the storm's cycle imposes on a
//        mutator (open, any flush handshake, or the closing drain) must
//        also be <= 20% of it, and the total mutator-attributed mark
//        time (open + flushes + close) must be < 50% of the interleaved
//        mode's (open + every budgeted step + close) over the identical
//        storm - the marker thread, not the mutator, does the tracing.
//        Best of the paired ratios per round (scheduler noise can only
//        inflate the concurrent close; a real regression inflates every
//        rep).
//     Re-measured up to two extra rounds; exit 3. --no-timing-gate
//     disarms (sanitizers).
//
// The emitted BENCH_concurrent_mark.json contains only deterministic
// values; wall times go to stdout. Exit 0 ok, 64 usage.
//
//===----------------------------------------------------------------------===//

#include "gc/Heap.h"
#include "gc/HeapAuditor.h"
#include "support/JsonWriter.h"
#include "workload/MutatorPool.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

using namespace wearmem;

namespace {

enum class Mode { Stw, Interleaved, Concurrent };

const char *modeName(Mode M) {
  switch (M) {
  case Mode::Stw:
    return "stop-the-world";
  case Mode::Interleaved:
    return "interleaved";
  case Mode::Concurrent:
    return "concurrent";
  }
  return "?";
}

constexpr unsigned WorkerCounts[] = {1, 2, 4, 8};
constexpr unsigned NumWorkerCounts = 4;
constexpr unsigned MutatorThreadCounts[] = {1, 2, 4};
constexpr unsigned NumMutatorThreadCounts = 3;
constexpr unsigned PauseWorkers = 4; // The SLOs' "4 lanes" configuration.

double msSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

//===----------------------------------------------------------------------===//
// Heap-level determinism legs: one storm, three pacings
//===----------------------------------------------------------------------===//

HeapConfig legConfig(Mode M, unsigned GcThreads, unsigned MarkBudget) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (32 * MiB) / PcmPageSize;
  Config.GcThreads = GcThreads;
  Config.Failures.Rate = 0.02;
  Config.Failures.Seed = 7;
  Config.DefragFreeFraction = 0.35;
  Config.IncrementalMark = M == Mode::Interleaved;
  Config.ConcurrentMark = M == Mode::Concurrent;
  Config.MarkBudget = MarkBudget;
  return Config;
}

/// Rooted linked lists; every fourth node carries a satellite object
/// reachable only through that node's cross-link slot. Payloads are
/// seed-stamped so the payload-hashing digest covers them.
std::vector<unsigned> buildLists(Heap &Hp, unsigned NumLists,
                                 unsigned ListLen, uint64_t Seed) {
  std::vector<unsigned> Heads;
  for (unsigned L = 0; L != NumLists; ++L) {
    unsigned HeadRoot = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != ListLen; ++I) {
      ObjRef Node = Hp.allocate(/*PayloadBytes=*/48, /*NumRefs=*/2);
      if (!Node)
        break;
      *reinterpret_cast<uint64_t *>(objectPayload(Node)) =
          Seed ^ ((uint64_t(L) << 32) | I);
      if (I % 4 == 0) {
        ObjRef Sat = Hp.allocate(/*PayloadBytes=*/32, /*NumRefs=*/0);
        if (Sat) {
          *reinterpret_cast<uint64_t *>(objectPayload(Sat)) =
              Seed ^ (0x5A7ull << 32 | (uint64_t(L) << 16) | I);
          Hp.writeRef(Node, 1, Sat);
        }
      }
      if (ObjRef Head = Hp.root(HeadRoot))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(HeadRoot, Node);
    }
    Heads.push_back(HeadRoot);
  }
  return Heads;
}

ObjRef walk(ObjRef Node, unsigned Steps) {
  for (unsigned I = 0; I != Steps && Node; ++I) {
    ObjRef Next = Heap::readRef(Node, 0);
    if (!Next)
      break;
    Node = Next;
  }
  return Node;
}

/// One deterministic reference store: swap two nodes' cross links, or
/// rewrite a head root with its own value. Swaps permute the satellites
/// without dropping any, so the live set evolves identically under every
/// marking pacing - while still opening the classic SATB window where a
/// satellite survives only in the deletion log, which here the racing
/// marker thread must be protected from.
void mutationOp(Heap &Hp, const std::vector<unsigned> &Heads,
                uint64_t I) {
  uint64_t H = (I + 1) * 0x9E3779B97F4A7C15ull;
  unsigned L1 = static_cast<unsigned>((H >> 8) % Heads.size());
  unsigned L2 = static_cast<unsigned>((H >> 24) % Heads.size());
  if ((H & 7) == 0) {
    Hp.setRoot(Heads[L1], Hp.root(Heads[L1]));
    return;
  }
  ObjRef A =
      walk(Hp.root(Heads[L1]), static_cast<unsigned>((H >> 40) % 37));
  ObjRef B =
      walk(Hp.root(Heads[L2]), static_cast<unsigned>((H >> 48) % 37));
  if (!A || !B || A == B)
    return;
  ObjRef Ta = Heap::readRef(A, 1);
  ObjRef Tb = Heap::readRef(B, 1);
  Hp.writeRef(A, 1, Tb);
  Hp.writeRef(B, 1, Ta);
}

struct LegResult {
  bool AuditPassed = false;
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t FullGcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t BytesAllocated = 0;
  uint64_t ObjectsMarked = 0;
  uint64_t BytesTraced = 0;
  uint64_t ObjectsEvacuated = 0;
  uint64_t FailedLinesDynamic = 0;
  uint64_t MarkIncrements = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;
};

/// One equivalence leg: build, write storm (one pacing point per batch:
/// a budgeted step interleaved, a flush handshake concurrent; a
/// pinned-line failure landing mid-cycle), the cycle's full collection
/// at a fixed point in the mutation history, a settling collection.
LegResult runLeg(Mode M, unsigned GcThreads, unsigned MarkBudget,
                 uint64_t Seed, double Scale) {
  Heap Hp(legConfig(M, GcThreads, MarkBudget));
  unsigned ListLen = static_cast<unsigned>(2500 * Scale);
  std::vector<unsigned> Heads = buildLists(Hp, 4, ListLen, Seed);
  ObjRef Pinned = Hp.allocate(64, 0, /*Pinned=*/true);
  Hp.createRoot(Pinned);

  const unsigned StormBatches = 40;
  const unsigned OpsPerBatch = 50;
  if (M != Mode::Stw)
    Hp.beginIncrementalMarkCycle();
  for (unsigned Batch = 0; Batch != StormBatches; ++Batch) {
    for (unsigned I = 0; I != OpsPerBatch; ++I)
      mutationOp(Hp, Heads, uint64_t(Batch) * OpsPerBatch + I);
    if (Batch == StormBatches / 2 && M != Mode::Stw && Pinned)
      // Mid-cycle failure: parked for the whole cycle, drained at the
      // close - the stop-the-world leg injects at that drain point.
      Hp.injectDynamicFailureBatch({Pinned});
    if (M == Mode::Interleaved)
      Hp.incrementalMarkStep();
    else if (M == Mode::Concurrent)
      Hp.satbFlushHandshake();
  }
  if (M != Mode::Stw) {
    Hp.finishIncrementalMarkCycle();
  } else {
    Hp.collect(CollectionKind::Full);
    if (Pinned)
      Hp.injectDynamicFailureBatch({Pinned});
  }
  Hp.collect(CollectionKind::Full); // Settle.

  HeapAuditor Auditor(Hp);
  LegResult R;
  R.AuditPassed = Auditor.audit().passed();
  R.Digest = Auditor.digest(/*HashPayload=*/true);
  const HeapStats &S = Hp.stats();
  R.GcCount = S.GcCount;
  R.FullGcCount = S.FullGcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.BytesAllocated = S.BytesAllocated;
  R.ObjectsMarked = S.ObjectsMarked;
  R.BytesTraced = S.BytesTraced;
  R.ObjectsEvacuated = S.ObjectsEvacuated;
  R.FailedLinesDynamic = S.FailedLinesDynamic;
  R.MarkIncrements = S.MarkIncrements;
  R.SatbLogged = S.SatbLogged;
  R.SatbDrained = S.SatbDrained;
  return R;
}

bool sameDeterministic(const LegResult &A, const LegResult &B) {
  return A.Digest == B.Digest && A.GcCount == B.GcCount &&
         A.FullGcCount == B.FullGcCount &&
         A.ObjectsAllocated == B.ObjectsAllocated &&
         A.BytesAllocated == B.BytesAllocated &&
         A.ObjectsMarked == B.ObjectsMarked &&
         A.BytesTraced == B.BytesTraced &&
         A.ObjectsEvacuated == B.ObjectsEvacuated &&
         A.FailedLinesDynamic == B.FailedLinesDynamic;
}

//===----------------------------------------------------------------------===//
// Pool-level determinism legs: the marker thread vs OS-scheduled mutators
//===----------------------------------------------------------------------===//

struct PoolLeg {
  bool Ok = false;
  bool AuditPassed = false;
  uint64_t Digest = 0;
  uint64_t GcCount = 0;
  uint64_t ObjectsAllocated = 0;
  uint64_t SatbLogged = 0;
  uint64_t SatbDrained = 0;
};

/// One MutatorPool leg: four lanes on \p Threads OS threads, cycles
/// opened / paced / closed by the turn hook at fixed turn numbers (the
/// lane turnstile makes turn numbers a virtual clock, so every mode and
/// thread count sees the identical schedule; the stop-the-world mode
/// takes a plain full collection at each close point). The heap is
/// sized so the schedule's own collections keep pressure low and no
/// allocation-triggered collection lands inside an open window.
PoolLeg runPoolLeg(Mode M, unsigned Threads, uint64_t Seed) {
  constexpr unsigned Lanes = 4;
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.HeapBytes = (8 * MiB) * Lanes;
  Config.GcThreads = PauseWorkers;
  Config.IncrementalMark = M == Mode::Interleaved;
  Config.ConcurrentMark = M == Mode::Concurrent;
  Runtime Rt(Config);

  MutatorPoolOptions Opts;
  Opts.Lanes = Lanes;
  Opts.Threads = Threads;
  Opts.Seed = Seed;
  Opts.VolumeScale = 0.25;
  MutatorPool Pool(Rt, *findProfile("luindex"), Opts);
  Pool.setTurnHook([&Rt, M](unsigned, uint64_t Turn) {
    if (Turn % 1024 == 0) {
      if (M != Mode::Stw && !Rt.incrementalCycleOpen())
        Rt.beginIncrementalMarkCycle();
    } else if (Turn % 1024 == 768) {
      if (M == Mode::Stw)
        Rt.collect(true);
      else if (Rt.incrementalCycleOpen())
        Rt.finishIncrementalMarkCycle();
    } else if (Turn % 128 == 64 && Rt.incrementalCycleOpen()) {
      if (M == Mode::Interleaved)
        Rt.incrementalMarkStep();
      else
        Rt.satbFlushHandshake();
    }
    return true;
  });

  PoolLeg R;
  R.Ok = Pool.run();
  if (Rt.incrementalCycleOpen())
    Rt.finishIncrementalMarkCycle();
  Rt.collect(true); // Settle at a common point.
  HeapAuditor Auditor(Rt.heap());
  R.AuditPassed = Auditor.audit().passed();
  R.Digest = Auditor.digest(/*HashPayload=*/true);
  const HeapStats &S = Rt.heap().stats();
  R.GcCount = S.GcCount;
  R.ObjectsAllocated = S.ObjectsAllocated;
  R.SatbLogged = S.SatbLogged;
  R.SatbDrained = S.SatbDrained;
  return R;
}

//===----------------------------------------------------------------------===//
// Timing legs: pause bound and mutator-attributed mark time
//===----------------------------------------------------------------------===//

/// A clean (no-failure) config so the comparison measures marking, not
/// failure recovery.
HeapConfig timingConfig(Mode M, unsigned MarkBudget) {
  HeapConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.BudgetPages = (48 * MiB) / PcmPageSize;
  Config.GcThreads = PauseWorkers;
  Config.IncrementalMark = M == Mode::Interleaved;
  Config.ConcurrentMark = M == Mode::Concurrent;
  Config.MarkBudget = MarkBudget;
  return Config;
}

struct TimingPair {
  double StwMs = 0.0;        ///< The stop-the-world full-mark pause.
  double StepMaxPauseMs = 0.0; ///< Interleaved, no storm: longest pause.
  double InterMutMs = 0.0;   ///< Interleaved: open + every step + close.
  double ConcMaxPauseMs = 0.0; ///< Concurrent: longest single mutator pause.
  double ConcMutMs = 0.0;    ///< Concurrent: open + flushes + close.
};

// The storm must hand the marker thread enough wall time to trace the
// live set while the mutator works: the single-threaded marker needs
// several stop-the-world-pause-lengths of overlap (on a single-core
// machine the storm's wall time is literally the marker's timeshare
// window), so the mutation phase is sized well above the trace time.
constexpr unsigned TimingBatches = 64;
constexpr unsigned TimingOpsPerBatch = 5000;

/// One paired measurement over the identical live set. The first paced
/// leg takes no storm: open, budgeted steps to convergence, close - the
/// interleaved pause bound, measured with no SATB entries for the steps
/// to drain. The storm legs follow. The storm between pacing points is
/// the concurrent marker's overlap window: while the mutator swaps cross
/// links, the marker drains the frontier, so the mutator-side bill
/// shrinks to the open, the flush handshakes, and whatever the close
/// still has to drain. The interleaved leg pays for the whole trace on
/// the mutator.
TimingPair measureTimingPair(uint64_t Seed, double Scale,
                             unsigned MarkBudget) {
  TimingPair P;
  unsigned ListLen = static_cast<unsigned>(12000 * Scale);
  {
    Heap Hp(timingConfig(Mode::Stw, MarkBudget));
    buildLists(Hp, 4, ListLen, Seed);
    auto T0 = std::chrono::steady_clock::now();
    Hp.collect(CollectionKind::Full);
    P.StwMs = msSince(T0);
  }
  constexpr std::pair<Mode, bool> PacedLegs[] = {
      {Mode::Interleaved, false},
      {Mode::Interleaved, true},
      {Mode::Concurrent, true}};
  for (auto [M, Storm] : PacedLegs) {
    Heap Hp(timingConfig(M, MarkBudget));
    std::vector<unsigned> Heads = buildLists(Hp, 4, ListLen, Seed);
    double MutMs = 0.0, MaxPauseMs = 0.0;
    auto Timed = [&](auto &&Fn) {
      auto T0 = std::chrono::steady_clock::now();
      Fn();
      double Ms = msSince(T0);
      MutMs += Ms;
      MaxPauseMs = std::max(MaxPauseMs, Ms);
    };
    Timed([&] { Hp.beginIncrementalMarkCycle(); });
    for (unsigned Batch = 0; Storm && Batch != TimingBatches; ++Batch) {
      for (unsigned I = 0; I != TimingOpsPerBatch; ++I)
        mutationOp(Hp, Heads,
                   uint64_t(Batch) * TimingOpsPerBatch + I);
      if (M == Mode::Interleaved)
        Timed([&] { Hp.incrementalMarkStep(); });
      else
        Timed([&] { Hp.satbFlushHandshake(); });
    }
    if (M == Mode::Interleaved) {
      // The interleaved contract: the mutator drives the trace to
      // convergence in budgeted steps before the close.
      bool More = true;
      while (More)
        Timed([&] { More = Hp.incrementalMarkStep(); });
    }
    Timed([&] { Hp.finishIncrementalMarkCycle(); });
    if (!Storm) {
      P.StepMaxPauseMs = MaxPauseMs;
    } else if (M == Mode::Interleaved) {
      P.InterMutMs = MutMs;
    } else {
      P.ConcMutMs = MutMs;
      P.ConcMaxPauseMs = MaxPauseMs;
    }
  }
  return P;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 42;
  double Scale = 1.0;
  unsigned Reps = 5;
  unsigned MarkBudget = 512;
  bool NoTimingGate = false;
  std::string OutPath = "BENCH_concurrent_mark.json";
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (std::strcmp(argv[I], "--scale") == 0 && I + 1 < argc)
      Scale = std::atof(argv[++I]);
    else if (std::strcmp(argv[I], "--reps") == 0 && I + 1 < argc)
      Reps = static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (std::strcmp(argv[I], "--mark-budget") == 0 && I + 1 < argc)
      MarkBudget =
          static_cast<unsigned>(std::strtoul(argv[++I], nullptr, 10));
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else if (std::strcmp(argv[I], "--no-timing-gate") == 0)
      NoTimingGate = true;
    else {
      std::fprintf(stderr,
                   "usage: %s [--seed N] [--scale F] [--reps N] "
                   "[--mark-budget N] [--no-timing-gate] [--out FILE]\n",
                   argv[0]);
      return 64;
    }
  }
  if (Reps == 0)
    Reps = 1;

  // Heap-level determinism: the stop-the-world reference leg, then both
  // marking pacings at every worker count. The SATB ledger must also
  // agree between the marking legs, and the increment count between the
  // interleaved legs (with identical open/step/close points both are
  // pure functions of the mutation history).
  LegResult Stw = runLeg(Mode::Stw, 1, MarkBudget, Seed, Scale);
  bool Identical = Stw.AuditPassed;
  if (!Stw.AuditPassed)
    std::printf("AUDIT FAILED: stop-the-world leg\n");
  LegResult MarkingFirst;
  bool HaveMarkingFirst = false;
  for (Mode M : {Mode::Interleaved, Mode::Concurrent}) {
    for (unsigned C = 0; C != NumWorkerCounts; ++C) {
      LegResult Leg =
          runLeg(M, WorkerCounts[C], MarkBudget, Seed, Scale);
      if (!Leg.AuditPassed) {
        Identical = false;
        std::printf("AUDIT FAILED: %s leg, %u workers\n", modeName(M),
                    WorkerCounts[C]);
      }
      if (!sameDeterministic(Leg, Stw)) {
        Identical = false;
        std::printf("MISMATCH: %s(%u workers) digest 0x%016llx vs "
                    "stop-the-world 0x%016llx\n",
                    modeName(M), WorkerCounts[C],
                    (unsigned long long)Leg.Digest,
                    (unsigned long long)Stw.Digest);
      }
      if (!HaveMarkingFirst) {
        MarkingFirst = Leg;
        HaveMarkingFirst = true;
      } else if (Leg.SatbLogged != MarkingFirst.SatbLogged ||
                 Leg.SatbDrained != MarkingFirst.SatbDrained ||
                 (M == Mode::Interleaved &&
                  Leg.MarkIncrements != MarkingFirst.MarkIncrements)) {
        Identical = false;
        std::printf("MISMATCH: SATB ledger or increments diverge at %s, "
                    "%u workers\n",
                    modeName(M), WorkerCounts[C]);
      }
    }
  }
  std::printf("determinism (heap): 3 modes x %u worker counts: %s\n",
              NumWorkerCounts, Identical ? "IDENTICAL" : "DIVERGED");
  std::printf("satb: %llu logged / %llu drained over %llu interleaved "
              "increments\n",
              (unsigned long long)MarkingFirst.SatbLogged,
              (unsigned long long)MarkingFirst.SatbDrained,
              (unsigned long long)MarkingFirst.MarkIncrements);

  // Pool-level determinism: each mode one digest across mutator thread
  // counts; the two marking pacings one digest between them; counters
  // equal across all modes. Allocate-black floating garbage exempts the
  // stop-the-world *digest* from cross-mode comparison (see header).
  bool PoolIdentical = true;
  PoolLeg ModeRef[3];
  bool HaveModeRef[3] = {false, false, false};
  for (Mode M : {Mode::Stw, Mode::Interleaved, Mode::Concurrent}) {
    unsigned MI = static_cast<unsigned>(M);
    for (unsigned C = 0; C != NumMutatorThreadCounts; ++C) {
      PoolLeg Leg = runPoolLeg(M, MutatorThreadCounts[C], Seed);
      if (!Leg.Ok || !Leg.AuditPassed) {
        PoolIdentical = false;
        std::printf("POOL LEG FAILED: %s, %u threads (run %d, audit "
                    "%d)\n",
                    modeName(M), MutatorThreadCounts[C], Leg.Ok,
                    Leg.AuditPassed);
        continue;
      }
      if (Leg.SatbDrained != Leg.SatbLogged) {
        PoolIdentical = false;
        std::printf("POOL SATB LEAK: %s, %u threads: %llu logged / "
                    "%llu drained\n",
                    modeName(M), MutatorThreadCounts[C],
                    (unsigned long long)Leg.SatbLogged,
                    (unsigned long long)Leg.SatbDrained);
      }
      if (!HaveModeRef[MI]) {
        ModeRef[MI] = Leg;
        HaveModeRef[MI] = true;
      } else if (Leg.Digest != ModeRef[MI].Digest ||
                 Leg.GcCount != ModeRef[MI].GcCount ||
                 Leg.ObjectsAllocated != ModeRef[MI].ObjectsAllocated ||
                 Leg.SatbLogged != ModeRef[MI].SatbLogged) {
        PoolIdentical = false;
        std::printf("POOL MISMATCH: %s, %u threads: digest 0x%016llx "
                    "vs 0x%016llx (gc %llu vs %llu)\n",
                    modeName(M), MutatorThreadCounts[C],
                    (unsigned long long)Leg.Digest,
                    (unsigned long long)ModeRef[MI].Digest,
                    (unsigned long long)Leg.GcCount,
                    (unsigned long long)ModeRef[MI].GcCount);
      }
    }
  }
  const PoolLeg &PoolStw = ModeRef[static_cast<unsigned>(Mode::Stw)];
  const PoolLeg &PoolInter =
      ModeRef[static_cast<unsigned>(Mode::Interleaved)];
  const PoolLeg &PoolConc =
      ModeRef[static_cast<unsigned>(Mode::Concurrent)];
  if (PoolInter.Digest != PoolConc.Digest ||
      PoolInter.SatbLogged != PoolConc.SatbLogged) {
    PoolIdentical = false;
    std::printf("POOL MISMATCH: interleaved digest 0x%016llx vs "
                "concurrent 0x%016llx\n",
                (unsigned long long)PoolInter.Digest,
                (unsigned long long)PoolConc.Digest);
  }
  if (PoolStw.GcCount != PoolConc.GcCount ||
      PoolStw.ObjectsAllocated != PoolConc.ObjectsAllocated) {
    PoolIdentical = false;
    std::printf("POOL MISMATCH: stop-the-world counters diverge from "
                "the marking modes (gc %llu vs %llu)\n",
                (unsigned long long)PoolStw.GcCount,
                (unsigned long long)PoolConc.GcCount);
  }
  std::printf("determinism (pool): 3 modes x %u mutator thread counts: "
              "%s\n",
              NumMutatorThreadCounts,
              PoolIdentical ? "IDENTICAL" : "DIVERGED");

  // Timing SLOs at 4 workers, with up to two re-measure rounds. The
  // interleaved bound takes the median of every paired ratio so far:
  // its pauses are all on the mutator, so noise hits both sides of a
  // pair alike. The concurrent bounds take the best (minimum) paired
  // ratio per round. The concurrent leg's close pause is a race against
  // how much CPU the marker thread actually got during the storm - on a
  // loaded or single-core machine that is pure scheduling noise, and
  // the noise only ever *inflates* the ratios. The best rep is
  // therefore the faithful estimate of what the machinery can do, while
  // a genuine regression (a close that always retraces, a handshake
  // that ballooned) inflates every rep, best included.
  measureTimingPair(Seed, Scale, MarkBudget); // Warm the pools.
  std::vector<double> StepRatios;
  double StepRatio = 0.0, PauseRatio = 0.0, MarkRatio = 0.0;
  double BestStw = -1.0, BestStepPause = -1.0, BestConcPause = -1.0;
  double BestInterMut = -1.0, BestConcMut = -1.0;
  constexpr unsigned MaxRounds = 3;
  for (unsigned Round = 0; Round != MaxRounds; ++Round) {
    double RoundPause = -1.0, RoundMark = -1.0;
    for (unsigned Rep = 0; Rep != Reps; ++Rep) {
      TimingPair P = measureTimingPair(Seed + Rep, Scale, MarkBudget);
      if (BestStw < 0.0 || P.StwMs < BestStw)
        BestStw = P.StwMs;
      if (BestStepPause < 0.0 || P.StepMaxPauseMs < BestStepPause)
        BestStepPause = P.StepMaxPauseMs;
      if (BestConcPause < 0.0 || P.ConcMaxPauseMs < BestConcPause)
        BestConcPause = P.ConcMaxPauseMs;
      if (BestInterMut < 0.0 || P.InterMutMs < BestInterMut)
        BestInterMut = P.InterMutMs;
      if (BestConcMut < 0.0 || P.ConcMutMs < BestConcMut)
        BestConcMut = P.ConcMutMs;
      if (P.StwMs > 0.0) {
        StepRatios.push_back(P.StepMaxPauseMs / P.StwMs);
        double R = P.ConcMaxPauseMs / P.StwMs;
        if (RoundPause < 0.0 || R < RoundPause)
          RoundPause = R;
      }
      if (P.InterMutMs > 0.0) {
        double R = P.ConcMutMs / P.InterMutMs;
        if (RoundMark < 0.0 || R < RoundMark)
          RoundMark = R;
      }
    }
    std::sort(StepRatios.begin(), StepRatios.end());
    StepRatio =
        StepRatios.empty() ? 0.0 : StepRatios[StepRatios.size() / 2];
    PauseRatio = RoundPause < 0.0 ? 0.0 : RoundPause;
    MarkRatio = RoundMark < 0.0 ? 0.0 : RoundMark;
    if (NoTimingGate ||
        (StepRatio <= 0.20 && PauseRatio <= 0.20 && MarkRatio < 0.50))
      break;
    std::printf("round %u over threshold (interleaved pause %.1f%%, "
                "concurrent pause %.1f%%, mark %.1f%%), re-measuring\n",
                Round + 1, StepRatio * 100.0, PauseRatio * 100.0,
                MarkRatio * 100.0);
  }
  std::printf("interleaved pauses at %u workers (no storm): "
              "stop-the-world best %.3f ms, longest open/step/close "
              "best %.3f ms, median paired ratio %.1f%% (gate %s: need "
              "<= 20%%)\n",
              PauseWorkers, BestStw, BestStepPause, StepRatio * 100.0,
              NoTimingGate ? "disarmed by flag" : "armed");
  std::printf("pauses at %u workers: stop-the-world best %.3f ms, max "
              "concurrent mutator pause best %.3f ms, best paired "
              "ratio %.1f%% (gate %s: need <= 20%%)\n",
              PauseWorkers, BestStw, BestConcPause, PauseRatio * 100.0,
              NoTimingGate ? "disarmed by flag" : "armed");
  std::printf("mutator-attributed mark time: interleaved best %.3f ms, "
              "concurrent best %.3f ms, best paired ratio %.1f%% "
              "(gate %s: need < 50%%)\n",
              BestInterMut, BestConcMut, MarkRatio * 100.0,
              NoTimingGate ? "disarmed by flag" : "armed");

  FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s\n", OutPath.c_str());
    return 1;
  }
  JsonWriter W(Out);
  W.openRoot();
  W.key("bench");
  W.value("concurrent_mark");
  W.key("seed");
  W.value(Seed);
  W.key("scale");
  W.valueF(Scale, 3);
  W.key("mark_budget");
  W.value(MarkBudget);
  W.key("digest");
  W.valueHex(Stw.Digest);
  W.key("counters");
  W.openObject(JsonWriter::Style::Inline);
  W.key("gc_count");
  W.value(Stw.GcCount);
  W.key("full_gc_count");
  W.value(Stw.FullGcCount);
  W.key("objects_allocated");
  W.value(Stw.ObjectsAllocated);
  W.key("bytes_allocated");
  W.value(Stw.BytesAllocated);
  W.key("objects_marked");
  W.value(Stw.ObjectsMarked);
  W.key("bytes_traced");
  W.value(Stw.BytesTraced);
  W.key("objects_evacuated");
  W.value(Stw.ObjectsEvacuated);
  W.key("failed_lines_dynamic");
  W.value(Stw.FailedLinesDynamic);
  W.close();
  W.key("satb");
  W.openObject(JsonWriter::Style::Inline);
  W.key("logged");
  W.value(MarkingFirst.SatbLogged);
  W.key("drained");
  W.value(MarkingFirst.SatbDrained);
  W.close();
  W.key("pool");
  W.openObject(JsonWriter::Style::Inline);
  W.key("stw_digest");
  W.valueHex(PoolStw.Digest);
  W.key("marking_digest");
  W.valueHex(PoolConc.Digest);
  W.key("gc_count");
  W.value(PoolConc.GcCount);
  W.key("objects_allocated");
  W.value(PoolConc.ObjectsAllocated);
  W.key("satb_logged");
  W.value(PoolConc.SatbLogged);
  W.close();
  W.key("identical");
  W.value(Identical);
  W.key("pool_identical");
  W.value(PoolIdentical);
  W.closeRoot();
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());

  if (!Identical || !PoolIdentical) {
    std::fprintf(stderr, "FAIL: concurrent marking changed the final "
                         "heap or a deterministic counter\n");
    return 2;
  }
  if (!NoTimingGate &&
      (StepRatio > 0.20 || PauseRatio > 0.20 || MarkRatio >= 0.50)) {
    std::fprintf(stderr,
                 "FAIL: interleaved pause ratio %.1f%% (need <= 20%%), "
                 "concurrent pause ratio %.1f%% (need <= 20%%), "
                 "mutator-attributed mark ratio %.1f%% (need < 50%%)\n",
                 StepRatio * 100.0, PauseRatio * 100.0, MarkRatio * 100.0);
    return 3;
  }
  return 0;
}
