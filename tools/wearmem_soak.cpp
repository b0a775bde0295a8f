//===- tools/wearmem_soak.cpp - Chaos soak runner -------------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Long mutator sessions under escalating fault campaigns. The runner
// drives a synthetic benchmark profile while a FaultCampaign wears lines
// out mid-run, audits the heap's three failure-tracking layers after
// collections, and reports a survival curve, the time-to-first-DNF, and
// the auditor verdicts as JSON on stdout.
//
// Output is byte-for-byte deterministic for a fixed seed (wall-clock
// timing is opt-in via --with-timing), so a failure storm that kills a
// run can be reproduced exactly from its command line.
//
// Exit codes: 0 survived, 2 diagnosed did-not-finish, 3 audit violation,
// 4 determinism mismatch, 64 usage error.
//
//===----------------------------------------------------------------------===//

#include "gc/HeapAuditor.h"
#include "gc/Safepoint.h"
#include "inject/FaultCampaign.h"
#include "obs/FlightRecorder.h"
#include "obs/Hooks.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Snapshot.h"
#include "pcm/WearSimulation.h"
#include "support/CliArgs.h"
#include "support/JsonWriter.h"
#include "workload/IncMarkDriver.h"
#include "workload/Lifetime.h"
#include "workload/Mutator.h"
#include "workload/PoolDriver.h"
#include "workload/Runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

using cli::ExitUsage;

struct SoakOptions {
  std::string ProfileName = "luindex";
  std::string Schedule = "storm@gc:6+2:lines=24,hot";
  CollectorKind Collector = CollectorKind::StickyImmix;
  /// --collector was given; lifetime mode then runs one cell instead of
  /// sweeping all four collectors.
  bool CollectorExplicit = false;
  AdversaryKind Adversary = AdversaryKind::None;
  uint64_t Seed = 42;
  double HeapFactor = 2.5;
  size_t HeapMb = 0; ///< Overrides HeapFactor when nonzero.
  double FailureRate = 0.0;
  unsigned ClusteringRegionPages = 0;
  size_t MaxDebtPages = 0;
  unsigned AuditEvery = 1; ///< Audit after every Nth collection; 0 = end only.
  bool Escalate = false;
  bool VerifyDeterminism = false;
  bool WithTiming = false;
  double VolumeScale = 1.0;
  /// Crash-campaign mode: kill-and-recover this many iterations.
  unsigned CrashIters = 0;
  /// --campaign was given explicitly (crash mode swaps in a denser
  /// default schedule otherwise, so kill points are actually reached).
  bool ScheduleExplicit = false;
  /// Seed the static failure map from a wear simulation run to this
  /// failed fraction (0 = off).
  double WearSimTarget = 0.0;
  /// SATB marking flags (Immix collectors only): interleaved
  /// (--incremental-mark) or a dedicated marker thread
  /// (--concurrent-mark). Either way the run drives cycles on the
  /// allocation clock via the shared IncMarkDriver policy, so curves
  /// and digests stay deterministic per seed and lane count.
  cli::MarkFlags Mark;
  /// Parallel GC workers inside each runtime (heap state is identical
  /// for any value; see gc/GcWorkers.h).
  unsigned GcThreads = 1;
  /// OS threads driving the mutator lanes (workload/MutatorPool.h);
  /// heap state is identical for any value at a fixed lane count.
  unsigned MutatorThreads = 1;
  /// Logical mutator lanes; 0 = same as MutatorThreads. The lane count
  /// fixes the allocation schedule (and the digest/curve).
  unsigned MutatorLanes = 0;
  /// Independent campaign repetitions (seed, seed+1, ...); > 1 switches
  /// to the multi-rep aggregate JSON.
  unsigned Reps = 1;
  /// Worker threads the repetitions are spread across. The aggregate
  /// JSON is printed serially in rep order after all workers join, so
  /// it is byte-identical for any --jobs value.
  unsigned Jobs = 1;
  /// Chrome trace_event JSON path (empty = tracing off).
  std::string TracePath;
  /// Metrics-registry JSON path (empty = metrics off).
  std::string MetricsOut;
  /// Capture a heap snapshot every N collections into the metrics file
  /// (0 = off; single-run mode only).
  unsigned SnapshotEvery = 0;
  /// Fast-forward device-lifetime mode (workload/Lifetime.h).
  bool Lifetime = false;
  unsigned LifetimeCheckpoints = 20;
  double LifetimeYearsPer = 0.5;
  unsigned LifetimeBaseLines = 16;
  double LifetimeGrowth = 1.6;
};

struct CurvePoint {
  uint64_t AllocBytes = 0;
  uint64_t GcCount = 0;
  uint64_t FailedLinesDynamic = 0;
  uint64_t BlocksRetired = 0;
};

struct SoakOutcome {
  bool Survived = false;
  DnfReason Dnf = DnfReason::None;
  uint64_t TtfAllocBytes = 0; ///< Alloc volume at first DNF (0 = survived).
  uint64_t AllocBytes = 0;
  uint64_t TargetBytes = 0;
  size_t Audits = 0;
  std::vector<std::string> Violations;
  std::vector<CurvePoint> Curve;
  CampaignStats Campaign;
  HeapStats Heap;
  OsStats Os;
  DegradationMode FinalMode = DegradationMode::Normal;
  size_t BudgetPages = 0;
  double RunMs = 0.0;
  std::vector<obs::HeapSnapshot> Snapshots;
  /// Multi-threaded mutator mode only (keeps legacy JSON unchanged).
  bool PoolMode = false;
  unsigned PoolThreads = 1;
  unsigned PoolLanes = 1;
  uint64_t PoolTurns = 0;
  uint64_t MailboxBacklog = 0;
  SafepointStats Safepoints;
};

void usage(FILE *Out, const char *Argv0) {
  std::fprintf(
      Out,
      "usage: %s [options]\n"
      "  --profile NAME        synthetic benchmark (default luindex)\n"
      "  --collector KIND      ms | ix | s-ms | s-ix (default s-ix;\n"
      "                        lifetime mode sweeps all four unless set)\n"
      "  --adversary NAME      adversarial mutator strategy: none |\n"
      "                        frag | pin | medium | buffer\n"
      "  --campaign SCHED      fault schedule, e.g. "
      "'storm@gc:6+2:lines=24,hot;drip@alloc:1m+256k'\n"
      "  --seed N              campaign + workload seed (default 42)\n"
      "  --heap-factor F       heap = F x profile minimum (default 2.5)\n"
      "  --heap-mb N           absolute heap size, overrides factor\n"
      "  --failure-rate F      static line-failure rate (default 0)\n"
      "  --clustering N        clustering-hardware region pages (default "
      "0 = off)\n"
      "  --max-debt-pages N    DRAM debt cap (default 0 = page budget)\n"
      "  --audit-every N       audit after every Nth GC (0 = end only; "
      "default 1)\n"
      "  --volume-scale F      scale the allocation volume (default 1)\n"
      "  --wear-sim F          derive the static failure map from a wear\n"
      "                        simulation worn to failed fraction F\n"
      "  --crash-campaign N    kill-and-recover mode: N iterations of\n"
      "                        run, crash at a rotating kill point,\n"
      "                        journal recovery, and audit\n"
      "  --incremental-mark    bounded-pause SATB marking (Immix\n"
      "                        collectors only); cycles are driven on\n"
      "                        the allocation clock, so curves stay\n"
      "                        deterministic per seed\n"
      "  --concurrent-mark     SATB marking on a dedicated marker\n"
      "                        thread (Immix collectors only);\n"
      "                        mutually exclusive with\n"
      "                        --incremental-mark, same curves and\n"
      "                        digests as the other modes\n"
      "  --mark-budget N       objects traced per mark increment or\n"
      "                        marker slice (0 = unbounded; default\n"
      "                        512 interleaved / 4096 concurrent;\n"
      "                        requires a marking mode)\n"
      "  --gc-threads N        parallel GC workers (default 1; heap\n"
      "                        state is identical for any N)\n"
      "  --mutator-threads N   OS threads driving the mutator lanes\n"
      "                        (default 1)\n"
      "  --mutator-lanes L     logical mutator lanes; fixes the\n"
      "                        allocation schedule and the survival\n"
      "                        curve (default: --mutator-threads)\n"
      "  --reps N              independent campaign repetitions with\n"
      "                        seeds seed..seed+N-1 (default 1)\n"
      "  --jobs N              threads to spread the repetitions over;\n"
      "                        output is byte-identical for any N\n"
      "  --trace FILE          write a Chrome trace_event JSON\n"
      "  --metrics-out FILE    write the metrics-registry JSON\n"
      "  --snapshot-every N    heap snapshot every N GCs into the\n"
      "                        metrics file (single-run mode)\n"
      "  --lifetime            fast-forward device-lifetime mode:\n"
      "                        checkpointed traffic slices with a\n"
      "                        geometrically accelerating wear clock;\n"
      "                        prints survival curves and milestone\n"
      "                        ages as JSON\n"
      "  --lifetime-checkpoints N  wear checkpoints (default 20)\n"
      "  --lifetime-years F    simulated years per checkpoint (0.5)\n"
      "  --lifetime-base-lines N  lines failed at the first checkpoint\n"
      "                        (default 16)\n"
      "  --lifetime-growth F   wear dose growth per checkpoint (1.6)\n"
      "  --escalate            triggers re-arm at doubled intensity\n"
      "  --verify-determinism  run twice, require identical curves\n"
      "  --with-timing         include wall-clock ms in the JSON\n"
      "  --help                print this help and exit\n",
      Argv0);
}

/// Returns -1 to proceed, otherwise the exit code (0 for --help,
/// ExitUsage for unknown flags, missing arguments, malformed values).
int parseArgs(int Argc, char **Argv, SoakOptions &Opt) {
  int Bad = -1;
  for (int I = 1; I < Argc && Bad < 0; ++I) {
    std::string Arg = Argv[I];
    auto value = [&]() -> const char * {
      if (I + 1 < Argc)
        return Argv[++I];
      std::fprintf(stderr, "option '%s' requires a value\n", Arg.c_str());
      Bad = ExitUsage;
      return nullptr;
    };
    auto u64 = [&](uint64_t &Out) {
      const char *V = value();
      if (V && !cli::parseU64(V, Out)) {
        std::fprintf(stderr, "invalid value '%s' for %s\n", V,
                     Arg.c_str());
        Bad = ExitUsage;
      }
    };
    // Out-of-range values are rejected with a usage error, never
    // silently clamped: a clamp would quietly run a different
    // experiment than the one named on the command line.
    auto uns = [&](unsigned &Out, unsigned Min = 0) {
      uint64_t Wide = 0;
      u64(Wide);
      if (Bad < 0 && (Wide > UINT32_MAX || Wide < Min)) {
        std::fprintf(stderr, "value out of range for %s (min %u)\n",
                     Arg.c_str(), Min);
        Bad = ExitUsage;
        return;
      }
      Out = static_cast<unsigned>(Wide);
    };
    auto dbl = [&](double &Out) {
      const char *V = value();
      if (V && !cli::parseDouble(V, Out)) {
        std::fprintf(stderr, "invalid value '%s' for %s\n", V,
                     Arg.c_str());
        Bad = ExitUsage;
      }
    };
    std::string MarkErr;
    if (cli::consumeMarkFlag(Argc, Argv, I, Opt.Mark, MarkErr)) {
      if (!MarkErr.empty()) {
        std::fprintf(stderr, "%s\n", MarkErr.c_str());
        Bad = ExitUsage;
      }
      continue;
    }
    const char *V;
    if (Arg == "--help" || Arg == "-h") {
      usage(stdout, Argv[0]);
      return 0;
    } else if (Arg == "--profile" && (V = value())) {
      Opt.ProfileName = V;
    } else if (Arg == "--collector" && (V = value())) {
      if (!cli::parseCollector(V, Opt.Collector)) {
        std::fprintf(stderr, "unknown collector '%s' (valid: %s)\n", V,
                     cli::collectorNameList());
        Bad = ExitUsage;
      }
      Opt.CollectorExplicit = true;
    } else if (Arg == "--adversary" && (V = value())) {
      bool Ok = false;
      Opt.Adversary = adversaryFromName(V, Ok);
      if (!Ok) {
        std::fprintf(stderr, "unknown adversary '%s' (valid: %s)\n", V,
                     adversaryNameList());
        Bad = ExitUsage;
      }
    } else if (Arg == "--campaign" && (V = value())) {
      Opt.Schedule = V;
      Opt.ScheduleExplicit = true;
    } else if (Arg == "--seed") {
      u64(Opt.Seed);
    } else if (Arg == "--heap-factor") {
      dbl(Opt.HeapFactor);
    } else if (Arg == "--heap-mb") {
      uint64_t Mb = 0;
      u64(Mb);
      Opt.HeapMb = Mb;
    } else if (Arg == "--failure-rate") {
      dbl(Opt.FailureRate);
    } else if (Arg == "--clustering") {
      uns(Opt.ClusteringRegionPages);
    } else if (Arg == "--max-debt-pages") {
      uint64_t Pages = 0;
      u64(Pages);
      Opt.MaxDebtPages = Pages;
    } else if (Arg == "--audit-every") {
      uns(Opt.AuditEvery);
    } else if (Arg == "--volume-scale") {
      dbl(Opt.VolumeScale);
    } else if (Arg == "--wear-sim") {
      dbl(Opt.WearSimTarget);
      if (Bad < 0 &&
          (Opt.WearSimTarget < 0.0 || Opt.WearSimTarget >= 1.0)) {
        std::fprintf(stderr,
                     "--wear-sim must be a failed fraction in [0, 1)\n");
        Bad = ExitUsage;
      }
    } else if (Arg == "--crash-campaign") {
      uns(Opt.CrashIters);
    } else if (Arg == "--gc-threads") {
      uns(Opt.GcThreads, 1);
    } else if (Arg == "--mutator-threads") {
      uns(Opt.MutatorThreads, 1);
    } else if (Arg == "--mutator-lanes") {
      // Explicit zero is rejected, not defaulted: the lane count fixes
      // the survival curve, so a silent fallback would change the
      // result the caller asked to pin down.
      uns(Opt.MutatorLanes, 1);
    } else if (Arg == "--reps") {
      uns(Opt.Reps, 1);
    } else if (Arg == "--jobs") {
      uns(Opt.Jobs, 1);
    } else if (Arg == "--trace" && (V = value())) {
      Opt.TracePath = V;
    } else if (Arg == "--metrics-out" && (V = value())) {
      Opt.MetricsOut = V;
    } else if (Arg == "--snapshot-every") {
      uns(Opt.SnapshotEvery);
    } else if (Arg == "--lifetime") {
      Opt.Lifetime = true;
    } else if (Arg == "--lifetime-checkpoints") {
      uns(Opt.LifetimeCheckpoints, 1);
    } else if (Arg == "--lifetime-years") {
      dbl(Opt.LifetimeYearsPer);
      if (Bad < 0 && Opt.LifetimeYearsPer <= 0.0) {
        std::fprintf(stderr, "--lifetime-years must be > 0\n");
        Bad = ExitUsage;
      }
    } else if (Arg == "--lifetime-base-lines") {
      uns(Opt.LifetimeBaseLines, 1);
    } else if (Arg == "--lifetime-growth") {
      dbl(Opt.LifetimeGrowth);
      if (Bad < 0 && Opt.LifetimeGrowth < 1.0) {
        std::fprintf(stderr, "--lifetime-growth must be >= 1\n");
        Bad = ExitUsage;
      }
    } else if (Arg == "--escalate") {
      Opt.Escalate = true;
    } else if (Arg == "--verify-determinism") {
      Opt.VerifyDeterminism = true;
    } else if (Arg == "--with-timing") {
      Opt.WithTiming = true;
    } else if (Bad < 0) {
      std::fprintf(stderr, "unknown option '%s'\n", Arg.c_str());
      Bad = ExitUsage;
    }
  }
  if (Bad < 0) {
    if (const char *Err =
            cli::validateMarkFlags(Opt.Mark, Opt.Collector)) {
      std::fprintf(stderr, "%s\n", Err);
      Bad = ExitUsage;
    }
  }
  if (Bad < 0 && Opt.Mark.anyMode() &&
      (Opt.Lifetime || Opt.CrashIters != 0)) {
    std::fprintf(stderr,
                 "--incremental-mark/--concurrent-mark are not "
                 "supported in lifetime or crash-campaign mode\n");
    Bad = ExitUsage;
  }
  if (Bad >= 0)
    usage(stderr, Argv[0]);
  return Bad;
}

/// Lanes the pool will run: an explicit --mutator-lanes wins, else one
/// lane per mutator thread.
unsigned poolLanes(const SoakOptions &Opt) {
  return Opt.MutatorLanes != 0 ? Opt.MutatorLanes : Opt.MutatorThreads;
}

bool poolMode(const SoakOptions &Opt) {
  return poolLanes(Opt) > 1 || Opt.MutatorThreads > 1;
}

RuntimeConfig makeConfig(const SoakOptions &Opt, const Profile &P) {
  RuntimeConfig Config;
  Config.Collector = Opt.Collector;
  Config.HeapBytes = Opt.HeapMb ? Opt.HeapMb * MiB
                                : heapBytesFor(P, Opt.HeapFactor);
  if (poolMode(Opt))
    // Each lane carries a full live set; scale the heap with the lane
    // count so per-lane headroom matches the single-lane run.
    Config.HeapBytes *= poolLanes(Opt);
  Config.FailureRate = Opt.FailureRate;
  Config.ClusteringRegionPages = Opt.ClusteringRegionPages;
  Config.MaxDebtPages = Opt.MaxDebtPages;
  Config.GcThreads = Opt.GcThreads;
  Config.IncrementalMark = Opt.Mark.IncrementalMark;
  Config.ConcurrentMark = Opt.Mark.ConcurrentMark;
  if (Opt.Mark.MarkBudgetSet)
    Config.MarkBudget = Opt.Mark.MarkBudget;
  Config.Seed = Opt.Seed;
  if (Opt.WearSimTarget > 0.0) {
    // Provision from a simulated wear-out instead of the parametric
    // injector: the map (and its failed fraction, which drives budget
    // compensation) comes from seeded skewed traffic.
    WearSimConfig Sim;
    Sim.Seed = Opt.Seed;
    WearSimResult R = simulateWear(Sim, Opt.WearSimTarget);
    Config.FailureRate = R.Map.failedFraction();
    Config.Pattern = FailurePattern::Custom;
    Config.CustomFailureMap =
        std::make_shared<FailureMap>(std::move(R.Map));
  }
  return Config;
}

SoakOutcome runSoak(const SoakOptions &Opt, const Profile &P,
                    const std::vector<FaultTrigger> &Triggers) {
  SoakOutcome Out;

  RuntimeConfig Config = makeConfig(Opt, P);

  Runtime Rt(Config);
  Mutator M(Rt, P, Opt.Seed, Opt.VolumeScale, Opt.Adversary);
  std::unique_ptr<PoolDriver> Pool;
  if (poolMode(Opt)) {
    MutatorPoolOptions PoolOpts;
    PoolOpts.Lanes = poolLanes(Opt);
    PoolOpts.Threads = Opt.MutatorThreads;
    PoolOpts.Seed = Opt.Seed;
    PoolOpts.VolumeScale = Opt.VolumeScale;
    PoolOpts.Adversary = Opt.Adversary;
    Pool = std::make_unique<PoolDriver>(Rt, P, PoolOpts);
  }
  FaultCampaign Campaign(Triggers, Opt.Seed);
  Campaign.attachRuntime(Rt);
  Campaign.setEscalation(Opt.Escalate);
  HeapAuditor Auditor(Rt.heap());

  Out.BudgetPages = Rt.heap().config().BudgetPages;

  auto audit = [&]() -> bool {
    AuditReport Report = Auditor.audit();
    ++Out.Audits;
    if (Report.passed())
      return true;
    Out.Violations = Report.Violations;
    return false;
  };

  auto steadyBytes = [&]() {
    return Pool ? Pool->steadyAllocatedBytes() : M.steadyAllocatedBytes();
  };
  uint64_t TargetBytes = Pool ? Pool->targetBytes() : M.targetBytes();
  // Single-mutator mode drives its own mark driver; in pool mode the
  // PoolDriver owns one and pumps it from the turn hook.
  IncMarkDriver Inc(Rt, TargetBytes);

  auto T0 = std::chrono::steady_clock::now();
  bool Alive = true;
  // Curve points land on campaign firings plus fixed allocation
  // intervals, so quiet stretches still chart.
  uint64_t CurveInterval = std::max<uint64_t>(TargetBytes / 192, 64 * KiB);
  uint64_t LastCurveAt = 0;
  uint64_t LastGc = Rt.stats().GcCount;
  unsigned GcsSinceAudit = 0;
  unsigned GcsSinceSnapshot = 0;
  bool AuditFailed = false;

  auto recordPoint = [&]() {
    Out.Curve.push_back(CurvePoint{steadyBytes(), Rt.stats().GcCount,
                                   Rt.stats().FailedLinesDynamic,
                                   Rt.stats().BlocksRetired});
    LastCurveAt = Out.Curve.back().AllocBytes;
  };
  recordPoint();

  // Per-step campaign/audit/curve bookkeeping, shared by the legacy
  // single-mutator loop and the pool's turn hook. Returns false to stop
  // the run (audit violation).
  auto onStep = [&]() -> bool {
    if (!Pool && Opt.Mark.anyMode())
      Inc.pump(steadyBytes());
    bool Fired = Campaign.pump();
    uint64_t Gc = Rt.stats().GcCount;
    if (Gc != LastGc) {
      GcsSinceAudit += static_cast<unsigned>(Gc - LastGc);
      GcsSinceSnapshot += static_cast<unsigned>(Gc - LastGc);
      LastGc = Gc;
      if (Opt.SnapshotEvery != 0 &&
          GcsSinceSnapshot >= Opt.SnapshotEvery) {
        GcsSinceSnapshot = 0;
        Out.Snapshots.push_back(obs::HeapSnapshot::capture(Rt.heap()));
        WEARMEM_TRACE(SnapshotTaken, Gc, 0);
      }
      // Audit between collections, but not mid-recovery: the deferred
      // window legitimately has live objects on failed lines.
      if (Opt.AuditEvery != 0 && GcsSinceAudit >= Opt.AuditEvery &&
          !Rt.heap().pendingFailureRecovery()) {
        GcsSinceAudit = 0;
        if (!audit()) {
          AuditFailed = true;
          return false;
        }
      }
    }
    if (Fired || steadyBytes() - LastCurveAt >= CurveInterval)
      recordPoint();
    return true;
  };

  if (Pool) {
    // The callback runs on whichever thread holds the turn, with the
    // heap handed to that lane; the turnstile serializes it against
    // every other lane, so the bookkeeping above needs no extra locking.
    Pool->setTurnCallback([&](unsigned, uint64_t) { return onStep(); });
    Alive = Pool->run();
    if (AuditFailed)
      Alive = true; // The hook aborted the pool; DNF verdicts are Survived's.
  } else {
    Alive = M.setUp();
    while (Alive && M.steadyAllocatedBytes() < M.targetBytes()) {
      if (!M.step()) {
        Alive = false;
        break;
      }
      if (!onStep())
        break;
    }
  }

  // Close any cycle the run left open, then flush any pending recovery
  // so the final audit sees a settled heap, then take the closing curve
  // point and verdict.
  if (Opt.Mark.anyMode() && !Rt.outOfMemory()) {
    if (Pool)
      Pool->flushMark();
    else
      Inc.flush();
  }
  if (!AuditFailed && !Rt.outOfMemory()) {
    if (Rt.heap().pendingFailureRecovery())
      Rt.collect(true);
    if (!audit())
      AuditFailed = true;
  }
  recordPoint();
  auto T1 = std::chrono::steady_clock::now();

  Out.AllocBytes = steadyBytes();
  Out.TargetBytes = TargetBytes;
  if (Pool) {
    Out.PoolMode = true;
    Out.PoolThreads = Pool->pool().threads();
    Out.PoolLanes = Pool->pool().lanes();
    Out.PoolTurns = Pool->pool().totalTurns();
    Out.Safepoints = Rt.safepoints().stats();
    for (unsigned Lane = 0; Lane != Pool->pool().lanes(); ++Lane)
      Out.MailboxBacklog += Rt.heap().laneMailboxDepth(Lane);
    // The routing ledger must balance: every interrupt entering the
    // router was delivered to its owning lane or deferred as an orphan,
    // with no mailbox still holding one. An imbalance is a lost
    // interrupt, which counts as an audit violation.
    const HeapStats &HS = Rt.stats();
    if (HS.InterruptsRouted !=
            HS.InterruptsDelivered + HS.InterruptsOrphaned ||
        Out.MailboxBacklog != 0) {
      Out.Violations.push_back("interrupt routing ledger imbalance");
      AuditFailed = true;
    }
  }
  Out.Survived = !AuditFailed && Alive && !Rt.outOfMemory() &&
                 Out.AllocBytes >= Out.TargetBytes;
  Out.Dnf = Rt.heap().dnfReason();
  if (!Out.Survived && !AuditFailed)
    Out.TtfAllocBytes = Out.AllocBytes;
  Out.Campaign = Campaign.stats();
  Out.Heap = Rt.stats();
  Out.Os = Rt.osStats();
  Out.FinalMode = Rt.heap().degradationMode();
  Out.RunMs =
      std::chrono::duration<double, std::milli>(T1 - T0).count();
  return Out;
}

bool sameCurve(const SoakOutcome &A, const SoakOutcome &B) {
  if (A.Curve.size() != B.Curve.size() || A.Survived != B.Survived ||
      A.Dnf != B.Dnf || A.AllocBytes != B.AllocBytes ||
      A.Campaign.LinesFailed != B.Campaign.LinesFailed)
    return false;
  for (size_t I = 0; I != A.Curve.size(); ++I) {
    const CurvePoint &X = A.Curve[I];
    const CurvePoint &Y = B.Curve[I];
    if (X.AllocBytes != Y.AllocBytes || X.GcCount != Y.GcCount ||
        X.FailedLinesDynamic != Y.FailedLinesDynamic ||
        X.BlocksRetired != Y.BlocksRetired)
      return false;
  }
  return true;
}

void printJson(const SoakOptions &Opt, const SoakOutcome &Out,
               const RuntimeConfig &Config, bool DeterminismVerified) {
  uint64_t BudgetLines =
      static_cast<uint64_t>(Out.BudgetPages) * PcmLinesPerPage;
  double WearFraction =
      BudgetLines == 0 ? 0.0
                       : static_cast<double>(Out.Heap.FailedLinesDynamic) /
                             static_cast<double>(BudgetLines);

  JsonWriter W(stdout);
  W.openRoot();
  W.key("tool");
  W.value("wearmem_soak");
  W.key("profile");
  W.value(Opt.ProfileName);
  W.key("campaign");
  W.value(Opt.Schedule);
  W.key("seed");
  W.value(Opt.Seed);
  W.key("escalate");
  W.value(Opt.Escalate);
  W.key("config");
  W.openObject(JsonWriter::Style::Inline);
  W.key("collector");
  W.value(Config.describe());
  W.key("heap_bytes");
  W.value(Config.HeapBytes);
  W.key("budget_pages");
  W.value(Out.BudgetPages);
  W.key("budget_lines");
  W.value(BudgetLines);
  W.key("max_debt_pages");
  W.value(Opt.MaxDebtPages);
  W.close();
  W.key("outcome");
  W.openObject(JsonWriter::Style::Inline);
  W.key("survived");
  W.value(Out.Survived);
  W.key("dnf_reason");
  W.value(dnfReasonName(Out.Dnf));
  W.key("ttf_alloc_bytes");
  W.value(Out.TtfAllocBytes);
  W.key("alloc_bytes");
  W.value(Out.AllocBytes);
  W.key("target_bytes");
  W.value(Out.TargetBytes);
  W.close();
  W.key("campaign_stats");
  W.openObject(JsonWriter::Style::Inline);
  W.key("firings");
  W.value(Out.Campaign.Firings);
  W.key("lines_failed");
  W.value(Out.Campaign.LinesFailed);
  W.key("dry_firings");
  W.value(Out.Campaign.DryFirings);
  W.key("escalations");
  W.value(Out.Campaign.Escalations);
  W.close();
  W.key("heap");
  W.openObject(JsonWriter::Style::Inline);
  W.key("gc_count");
  W.value(Out.Heap.GcCount);
  W.key("full_gc_count");
  W.value(Out.Heap.FullGcCount);
  W.key("dynamic_batches");
  W.value(Out.Heap.DynamicFailureBatches);
  W.key("deferred_recoveries");
  W.value(Out.Heap.DeferredFailureRecoveries);
  W.key("emergency_defrags");
  W.value(Out.Heap.EmergencyDefrags);
  W.key("blocks_retired");
  W.value(Out.Heap.BlocksRetired);
  W.key("objects_evacuated");
  W.value(Out.Heap.ObjectsEvacuated);
  W.key("pinned_page_remaps");
  W.value(Out.Heap.PinnedFailurePageRemaps);
  W.close();
  if (Opt.Mark.anyMode()) {
    // Only with a marking mode: the legacy JSON stays byte-identical
    // otherwise. Cycle and SATB totals are deterministic for a fixed
    // seed and lane count (see heap/HeapConfig.h), but the number of
    // mark increments is not: the driver steps until the work list
    // converges, and a budgeted parallel step may retire a few objects
    // under quota (MarkWorkList's refund-drop rule), so the step count
    // shifts with --gc-threads. It rides with the other schedule-domain
    // values behind --with-timing to keep the default JSON byte-
    // identical across worker counts. (Concurrent mode takes no mark
    // increments at all; its slice counts are Timing-domain metrics.)
    W.key("incremental_mark");
    W.openObject(JsonWriter::Style::Inline);
    W.key("mode");
    W.value(Opt.Mark.ConcurrentMark ? "concurrent" : "interleaved");
    W.key("cycles_opened");
    W.value(Out.Heap.IncrementalCyclesOpened);
    W.key("cycles_closed");
    W.value(Out.Heap.IncrementalCyclesClosed);
    if (Opt.WithTiming) {
      W.key("mark_increments");
      W.value(Out.Heap.MarkIncrements);
    }
    W.key("satb_logged");
    W.value(Out.Heap.SatbLogged);
    W.key("satb_drained");
    W.value(Out.Heap.SatbDrained);
    W.close();
  }
  W.key("degradation");
  W.openObject(JsonWriter::Style::Inline);
  W.key("final_mode");
  W.value(degradationModeName(Out.FinalMode));
  W.key("transitions");
  W.value(Out.Heap.DegradationTransitions);
  W.key("recoveries");
  W.value(Out.Heap.DegradationRecoveries);
  W.key("throttle_retries");
  W.value(Out.Heap.ThrottleRetries);
  W.key("refused_large_allocs");
  W.value(Out.Heap.RefusedLargeAllocs);
  W.key("refused_medium_allocs");
  W.value(Out.Heap.RefusedMediumAllocs);
  W.close();
  W.key("os");
  W.openObject(JsonWriter::Style::Inline);
  W.key("dram_borrowed");
  W.value(Out.Os.DramBorrowed);
  W.key("debt_repaid");
  W.value(Out.Os.DebtRepaid);
  W.close();
  W.key("wear");
  W.openObject(JsonWriter::Style::Inline);
  W.key("dynamic_failed_lines");
  W.value(Out.Heap.FailedLinesDynamic);
  W.key("dynamic_failed_fraction");
  W.valueF(WearFraction, 4);
  W.close();
  W.key("audits");
  W.openObject(JsonWriter::Style::Inline);
  W.key("count");
  W.value(Out.Audits);
  W.key("violations");
  W.value(Out.Violations.size());
  if (!Out.Violations.empty()) {
    W.key("messages");
    W.openArray(JsonWriter::Style::Inline);
    for (const std::string &Msg : Out.Violations)
      W.value(Msg);
    W.close();
  }
  W.close();
  if (Out.PoolMode) {
    // Multi-threaded mutator mode only: legacy single-mutator JSON stays
    // byte-identical. Safepoint counters are Timing-domain (schedule
    // dependent); everything else here is deterministic at a fixed lane
    // count.
    W.key("mutators");
    W.openObject(JsonWriter::Style::Inline);
    W.key("threads");
    W.value(Out.PoolThreads);
    W.key("lanes");
    W.value(Out.PoolLanes);
    W.key("turns");
    W.value(Out.PoolTurns);
    W.key("interrupts_routed");
    W.value(Out.Heap.InterruptsRouted);
    W.key("interrupts_delivered");
    W.value(Out.Heap.InterruptsDelivered);
    W.key("interrupts_orphaned");
    W.value(Out.Heap.InterruptsOrphaned);
    W.key("mailbox_backlog");
    W.value(Out.MailboxBacklog);
    W.key("safepoint_stops");
    W.value(Out.Safepoints.Stops);
    W.key("watchdog_fired");
    W.value(Out.Safepoints.WatchdogFired);
    W.close();
  }
  if (Opt.VerifyDeterminism) {
    W.key("determinism");
    W.value(DeterminismVerified ? "verified" : "MISMATCH");
  }
  if (Opt.WithTiming) {
    W.key("run_ms");
    W.valueF(Out.RunMs, 2);
  }
  W.key("survival_curve");
  W.openArray(JsonWriter::Style::Line);
  for (const CurvePoint &Pt : Out.Curve) {
    W.openObject(JsonWriter::Style::Inline);
    W.key("alloc");
    W.value(Pt.AllocBytes);
    W.key("gc");
    W.value(Pt.GcCount);
    W.key("failed");
    W.value(Pt.FailedLinesDynamic);
    W.key("retired");
    W.value(Pt.BlocksRetired);
    W.close();
  }
  W.close();
  W.closeRoot();
}

//===----------------------------------------------------------------------===//
// Multi-rep mode: independent campaigns across a thread pool
//===----------------------------------------------------------------------===//

/// Runs Opt.Reps independent campaigns (seed, seed+1, ...) across up to
/// Opt.Jobs threads. Each repetition owns its Runtime, Mutator, campaign
/// RNG and auditor, so repetitions share nothing; workers claim rep
/// indices from an atomic cursor and deposit outcomes into per-rep
/// slots. All printing happens serially, in rep order, after the pool
/// joins - the JSON is byte-identical for any --jobs value, which the
/// CI determinism gate compares directly.
int runMultiRep(const SoakOptions &Opt, const Profile &P,
                const std::vector<FaultTrigger> &Triggers) {
  struct RepResult {
    SoakOutcome Out;
    bool DeterminismVerified = true;
  };
  std::vector<RepResult> Results(Opt.Reps);
  std::atomic<unsigned> NextRep{0};

  auto Work = [&]() {
    for (;;) {
      unsigned Rep = NextRep.fetch_add(1, std::memory_order_relaxed);
      if (Rep >= Opt.Reps)
        return;
      SoakOptions RepOpt = Opt;
      RepOpt.Seed = Opt.Seed + Rep;
      Results[Rep].Out = runSoak(RepOpt, P, Triggers);
      if (Opt.VerifyDeterminism) {
        SoakOutcome Again = runSoak(RepOpt, P, Triggers);
        Results[Rep].DeterminismVerified =
            sameCurve(Results[Rep].Out, Again);
      }
    }
  };

  unsigned NumThreads = std::min(Opt.Jobs, Opt.Reps);
  if (NumThreads > 1) {
    std::vector<std::thread> Pool;
    Pool.reserve(NumThreads);
    for (unsigned T = 0; T != NumThreads; ++T)
      Pool.emplace_back(Work);
    for (std::thread &Th : Pool)
      Th.join();
  } else {
    Work();
  }

  unsigned Survived = 0, AuditViolations = 0, Mismatches = 0;
  for (const RepResult &R : Results) {
    Survived += R.Out.Survived ? 1 : 0;
    AuditViolations += static_cast<unsigned>(R.Out.Violations.size());
    Mismatches += R.DeterminismVerified ? 0 : 1;
  }

  JsonWriter W(stdout);
  W.openRoot();
  W.key("tool");
  W.value("wearmem_soak");
  W.key("mode");
  W.value("multi-rep");
  W.key("profile");
  W.value(Opt.ProfileName);
  W.key("campaign");
  W.value(Opt.Schedule);
  W.key("seed");
  W.value(Opt.Seed);
  W.key("reps");
  W.value(Opt.Reps);
  W.key("gc_threads");
  W.value(Opt.GcThreads);
  W.key("rep_outcomes");
  W.openArray(JsonWriter::Style::Line);
  for (unsigned Rep = 0; Rep != Opt.Reps; ++Rep) {
    const RepResult &R = Results[Rep];
    const SoakOutcome &Out = R.Out;
    W.openObject(JsonWriter::Style::Inline);
    W.key("rep");
    W.value(Rep);
    W.key("seed");
    W.value(Opt.Seed + Rep);
    W.key("survived");
    W.value(Out.Survived);
    W.key("dnf_reason");
    W.value(dnfReasonName(Out.Dnf));
    W.key("alloc_bytes");
    W.value(Out.AllocBytes);
    W.key("gc_count");
    W.value(Out.Heap.GcCount);
    W.key("lines_failed");
    W.value(Out.Campaign.LinesFailed);
    W.key("blocks_retired");
    W.value(Out.Heap.BlocksRetired);
    W.key("audits");
    W.value(Out.Audits);
    W.key("violations");
    W.value(Out.Violations.size());
    W.key("curve_points");
    W.value(Out.Curve.size());
    if (Opt.VerifyDeterminism) {
      W.key("determinism");
      W.value(R.DeterminismVerified ? "verified" : "MISMATCH");
    }
    W.close();
  }
  W.close();

  // Aggregate survival curve: the fraction of repetitions still alive
  // as the allocation volume advances, one step per death.
  std::vector<uint64_t> Deaths;
  for (const RepResult &R : Results)
    if (!R.Out.Survived)
      Deaths.push_back(R.Out.AllocBytes);
  std::sort(Deaths.begin(), Deaths.end());
  W.key("aggregate_survival");
  W.openArray(JsonWriter::Style::Line);
  W.openObject(JsonWriter::Style::Inline);
  W.key("alloc");
  W.value(0);
  W.key("surviving_fraction");
  W.valueF(1.0, 4);
  W.close();
  for (size_t I = 0; I != Deaths.size(); ++I) {
    W.openObject(JsonWriter::Style::Inline);
    W.key("alloc");
    W.value(Deaths[I]);
    W.key("surviving_fraction");
    W.valueF(static_cast<double>(Opt.Reps - I - 1) /
                 static_cast<double>(Opt.Reps),
             4);
    W.close();
  }
  W.close();
  W.key("totals");
  W.openObject(JsonWriter::Style::Inline);
  W.key("survived");
  W.value(Survived);
  W.key("dnf");
  W.value(Opt.Reps - Survived);
  W.key("audit_violations");
  W.value(AuditViolations);
  W.key("determinism_mismatches");
  W.value(Mismatches);
  W.close();
  W.closeRoot();

  if (Mismatches)
    return 4;
  if (AuditViolations)
    return 3;
  if (Survived != Opt.Reps)
    return 2;
  return 0;
}

//===----------------------------------------------------------------------===//
// Crash campaign: kill -> recover -> audit, N times
//===----------------------------------------------------------------------===//

struct CrashIterOutcome {
  CrashPoint ArmedAt = CrashPoint::JournalAppend;
  bool Fired = false;
  CrashPoint FiredAt = CrashPoint::JournalAppend;
  /// The run reached its allocation target before any kill point fired
  /// (the iteration still powers off and recovers).
  bool CompletedRun = false;
  uint64_t GcAtKill = 0;
  uint64_t AllocAtKill = 0;
  /// Times recover() itself was killed by an armed RecoveryPhase point
  /// and retried.
  unsigned RecoveryRetries = 0;
  RecoveryReport Report;
};

int runCrashCampaign(const SoakOptions &Opt, const Profile &P,
                     const std::vector<FaultTrigger> &WearTriggers) {
  RuntimeConfig Config = makeConfig(Opt, P);
  auto Rt = std::make_unique<Runtime>(Config);
  Rt->attachDurableState(Rt->bootstrapDurableState());
  size_t BudgetPages = Rt->heap().config().BudgetPages;

  std::vector<CrashIterOutcome> Iters;
  Iters.reserve(Opt.CrashIters);

  for (unsigned Iter = 0; Iter != Opt.CrashIters; ++Iter) {
    CrashIterOutcome R;
    // Rotate through all four kill points; vary the arming moment so
    // the crash lands in different run phases.
    R.ArmedAt = static_cast<CrashPoint>(Iter % 4);
    std::vector<FaultTrigger> Triggers = WearTriggers;
    FaultTrigger CrashT;
    CrashT.Shape = FaultShape::Crash;
    CrashT.Clock = TriggerClock::GcCount;
    CrashT.Start = 2 + (Iter % 3);
    CrashT.CrashAt = R.ArmedAt;
    Triggers.push_back(CrashT);

    {
      Mutator M(*Rt, P, Opt.Seed + Iter, Opt.VolumeScale, Opt.Adversary);
      FaultCampaign Campaign(Triggers, Opt.Seed + Iter);
      Campaign.attachRuntime(*Rt);
      try {
        bool Alive = M.setUp();
        while (Alive && !Rt->outOfMemory() &&
               M.steadyAllocatedBytes() < M.targetBytes()) {
          if (!M.step())
            break;
          Campaign.pump();
        }
        R.CompletedRun = true;
      } catch (const CrashSignal &Sig) {
        R.Fired = true;
        R.FiredAt = Sig.Point;
      }
      R.GcAtKill = Rt->stats().GcCount;
      R.AllocAtKill = Rt->stats().BytesAllocated;
    }

    // Power off. Every volatile layer - heap, OS pools, ledger - dies
    // with the Runtime; only the DurableState (journal + device truth)
    // survives into the next incarnation.
    std::shared_ptr<DurableState> DS = Rt->journal()->durableState();
    RuntimeConfig Base = Rt->config();
    Rt.reset();

    // Recover. An armed RecoveryPhase kill that never fired during the
    // run fires *inside* recover(); the arm is consumed, so the retry
    // replays the same journal and succeeds (recovery is idempotent).
    for (;;) {
      try {
        Rt = Runtime::recover(Base, DS, R.Report);
        break;
      } catch (const CrashSignal &) {
        ++R.RecoveryRetries;
      }
    }
    Iters.push_back(R);
  }

  uint64_t TotalFired = 0, TotalViolations = 0, TotalDivergences = 0;
  uint64_t TotalReplayed = 0, TotalTornTails = 0, TotalRetries = 0;
  for (const CrashIterOutcome &R : Iters) {
    TotalFired += R.Fired ? 1 : 0;
    TotalViolations += R.Report.AuditViolations;
    TotalDivergences += R.Report.Divergences;
    TotalReplayed += R.Report.RecordsReplayed;
    TotalTornTails += R.Report.TornRecords;
    TotalRetries += R.RecoveryRetries;
  }

  JsonWriter W(stdout);
  W.openRoot();
  W.key("tool");
  W.value("wearmem_soak");
  W.key("mode");
  W.value("crash-campaign");
  W.key("profile");
  W.value(Opt.ProfileName);
  W.key("campaign");
  W.value(Opt.Schedule);
  W.key("seed");
  W.value(Opt.Seed);
  W.key("config");
  W.openObject(JsonWriter::Style::Inline);
  W.key("collector");
  W.value(Config.describe());
  W.key("heap_bytes");
  W.value(Config.HeapBytes);
  W.key("budget_pages");
  W.value(BudgetPages);
  W.close();
  W.key("iterations");
  W.openArray(JsonWriter::Style::Line);
  for (size_t I = 0; I != Iters.size(); ++I) {
    const CrashIterOutcome &R = Iters[I];
    W.openObject(JsonWriter::Style::Inline);
    W.key("iter");
    W.value(I);
    W.key("armed");
    W.value(crashPointName(R.ArmedAt));
    W.key("fired");
    W.value(R.Fired);
    W.key("fired_at");
    W.value(R.Fired ? crashPointName(R.FiredAt) : "none");
    W.key("completed_run");
    W.value(R.CompletedRun);
    W.key("gc_at_kill");
    W.value(R.GcAtKill);
    W.key("alloc_at_kill");
    W.value(R.AllocAtKill);
    W.key("recovery_retries");
    W.value(R.RecoveryRetries);
    W.lineBreak(5); // Recovery verdicts wrap under the kill context.
    W.key("recovery");
    W.openObject(JsonWriter::Style::Inline);
    W.key("records_replayed");
    W.value(R.Report.RecordsReplayed);
    W.key("journal_bytes");
    W.value(R.Report.JournalBytes);
    W.key("torn_records");
    W.value(R.Report.TornRecords);
    W.key("torn_tail_bytes");
    W.value(R.Report.TornTailBytes);
    W.key("checksum_failures");
    W.value(R.Report.ChecksumFailures);
    W.key("journal_only_lines");
    W.value(R.Report.JournalOnlyLines);
    W.key("device_only_lines");
    W.value(R.Report.DeviceOnlyLines);
    W.key("divergences");
    W.value(R.Report.Divergences);
    W.key("pool_transitions");
    W.value(R.Report.PoolTransitions);
    W.key("ledger_entries");
    W.value(R.Report.LedgerEntries);
    W.key("audit_passed");
    W.value(R.Report.AuditPassed);
    W.key("audit_violations");
    W.value(R.Report.AuditViolations);
    if (Opt.WithTiming) {
      W.key("recovery_ms");
      W.valueF(R.Report.RecoveryMs, 6);
    }
    W.close();
    W.close();
  }
  W.close();
  W.key("totals");
  W.openObject(JsonWriter::Style::Inline);
  W.key("iterations");
  W.value(Iters.size());
  W.key("crashes_fired");
  W.value(TotalFired);
  W.key("recovery_retries");
  W.value(TotalRetries);
  W.key("records_replayed");
  W.value(TotalReplayed);
  W.key("torn_records");
  W.value(TotalTornTails);
  W.key("divergences");
  W.value(TotalDivergences);
  W.key("audit_violations");
  W.value(TotalViolations);
  W.close();
  W.closeRoot();

  // Same gate as soak mode: a recovery that does not audit clean is a
  // hard failure.
  return TotalViolations != 0 ? 3 : 0;
}

//===----------------------------------------------------------------------===//
// Lifetime mode: fast-forward wear clock, survival curves per collector
//===----------------------------------------------------------------------===//

LifetimeOptions makeLifetimeOptions(const SoakOptions &Opt,
                                    CollectorKind Collector) {
  LifetimeOptions L;
  L.Collector = Collector;
  L.Adversary = Opt.Adversary;
  L.Seed = Opt.Seed;
  L.HeapFactor = Opt.HeapFactor;
  // --volume-scale scales the per-checkpoint traffic slice around the
  // harness default.
  L.VolumeScale = 0.05 * Opt.VolumeScale;
  L.Checkpoints = Opt.LifetimeCheckpoints;
  L.YearsPerCheckpoint = Opt.LifetimeYearsPer;
  L.BaseFailLines = Opt.LifetimeBaseLines;
  L.WearGrowth = Opt.LifetimeGrowth;
  L.GcThreads = Opt.GcThreads;
  return L;
}

int runLifetimeMode(const SoakOptions &Opt, const Profile &P) {
  std::vector<CollectorKind> Collectors;
  if (Opt.CollectorExplicit)
    Collectors = {Opt.Collector};
  else
    Collectors = {CollectorKind::MarkSweep, CollectorKind::Immix,
                  CollectorKind::StickyMarkSweep,
                  CollectorKind::StickyImmix};

  struct Cell {
    LifetimeOptions LOpt;
    LifetimeResult R;
    bool DeterminismVerified = true;
  };
  std::vector<Cell> Cells;
  for (CollectorKind Collector : Collectors) {
    Cell C;
    C.LOpt = makeLifetimeOptions(Opt, Collector);
    C.R = runLifetime(P, C.LOpt);
    if (Opt.VerifyDeterminism)
      C.DeterminismVerified = sameLifetime(C.R, runLifetime(P, C.LOpt));
    Cells.push_back(std::move(C));
  }

  unsigned Survived = 0, Undiagnosed = 0, NonMonotone = 0, Mismatches = 0;
  for (const Cell &C : Cells) {
    Survived += C.R.Survived ? 1 : 0;
    // A did-not-finish must carry a diagnosis; dying with DnfReason::None
    // is the one outcome the ladder forbids.
    if (!C.R.Survived && C.R.Dnf == DnfReason::None)
      ++Undiagnosed;
    NonMonotone += C.R.MonotoneDegradation ? 0 : 1;
    Mismatches += C.DeterminismVerified ? 0 : 1;
  }

  JsonWriter W(stdout);
  W.openRoot();
  W.key("tool");
  W.value("wearmem_soak");
  W.key("mode");
  W.value("lifetime");
  W.key("profile");
  W.value(Opt.ProfileName);
  W.key("adversary");
  W.value(adversaryName(Opt.Adversary));
  W.key("seed");
  W.value(Opt.Seed);
  W.key("checkpoints");
  W.value(Opt.LifetimeCheckpoints);
  W.key("years_per_checkpoint");
  W.valueF(Opt.LifetimeYearsPer, 3);
  W.key("wear_growth");
  W.valueF(Opt.LifetimeGrowth, 3);
  W.key("cells");
  W.openArray(JsonWriter::Style::Line);
  for (const Cell &C : Cells)
    lifetimeToJson(W, P, C.LOpt, C.R);
  W.close();
  W.key("totals");
  W.openObject(JsonWriter::Style::Inline);
  W.key("cells");
  W.value(Cells.size());
  W.key("survived");
  W.value(Survived);
  W.key("undiagnosed_failstops");
  W.value(Undiagnosed);
  W.key("non_monotone");
  W.value(NonMonotone);
  if (Opt.VerifyDeterminism) {
    W.key("determinism_mismatches");
    W.value(Mismatches);
  }
  W.close();
  W.closeRoot();

  // A diagnosed DNF is an expected end-of-life outcome, not a failure;
  // the gates are determinism, monotonicity, and diagnosis.
  if (Mismatches)
    return 4;
  if (NonMonotone)
    return 3;
  if (Undiagnosed)
    return 2;
  return 0;
}

} // namespace

/// Writes the metrics-registry JSON (plus any heap snapshots) to
/// Opt.MetricsOut. Timing metrics are opt-in via --with-timing so the
/// default file stays byte-identical across runs, --jobs values, and GC
/// worker counts.
int writeMetricsFile(const SoakOptions &Opt,
                     const std::vector<obs::HeapSnapshot> &Snapshots) {
  FILE *Out = std::fopen(Opt.MetricsOut.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s\n", Opt.MetricsOut.c_str());
    return 1;
  }
  JsonWriter W(Out);
  W.openRoot();
  W.key("schema");
  W.value("wearmem-metrics-v1");
  obs::MetricsRegistry::instance().exportJson(W, Opt.WithTiming);
  if (!Snapshots.empty()) {
    W.key("snapshots");
    W.openArray(JsonWriter::Style::Line);
    for (const obs::HeapSnapshot &S : Snapshots)
      S.toJson(W);
    W.close();
  }
  W.closeRoot();
  std::fclose(Out);
  return 0;
}

int main(int Argc, char **Argv) {
  SoakOptions Opt;
  int ParseRc = parseArgs(Argc, Argv, Opt);
  if (ParseRc >= 0)
    return ParseRc;
  const Profile *P = findProfile(Opt.ProfileName);
  if (!P) {
    std::fprintf(stderr, "unknown profile '%s'\n",
                 Opt.ProfileName.c_str());
    return ExitUsage;
  }
  // The soak default storm starts at gc 6, past the end of a short
  // crash-campaign run; wear must land *while a kill point is armed*
  // for the crash to fire, so crash mode defaults to a storm on every
  // collection instead.
  if (Opt.CrashIters && !Opt.ScheduleExplicit)
    Opt.Schedule = "storm@gc:2+1:lines=32,hot";
  std::string ParseError;
  std::optional<std::vector<FaultTrigger>> Triggers =
      FaultCampaign::parseSchedule(Opt.Schedule, &ParseError);
  if (!Triggers) {
    std::fprintf(stderr, "bad campaign schedule: %s\n",
                 ParseError.c_str());
    return ExitUsage;
  }

  if (!Opt.TracePath.empty())
    obs::enable(obs::TraceDomain);
  if (!Opt.MetricsOut.empty())
    obs::enable(obs::MetricsDomain);

  int Rc;
  std::vector<obs::HeapSnapshot> Snapshots;
  if (Opt.Lifetime) {
    Rc = runLifetimeMode(Opt, *P);
  } else if (Opt.CrashIters) {
    Rc = runCrashCampaign(Opt, *P, *Triggers);
  } else if (Opt.Reps > 1) {
    Rc = runMultiRep(Opt, *P, *Triggers);
  } else {
    SoakOutcome Out = runSoak(Opt, *P, *Triggers);
    bool DeterminismVerified = true;
    if (Opt.VerifyDeterminism) {
      SoakOutcome Again = runSoak(Opt, *P, *Triggers);
      DeterminismVerified = sameCurve(Out, Again);
    }
    printJson(Opt, Out, makeConfig(Opt, *P), DeterminismVerified);
    Snapshots = std::move(Out.Snapshots);
    Rc = !DeterminismVerified      ? 4
         : !Out.Violations.empty() ? 3
         : !Out.Survived           ? 2
                                   : 0;
  }

  if (!Opt.TracePath.empty() &&
      !obs::FlightRecorder::instance().exportChromeTrace(Opt.TracePath))
    std::fprintf(stderr, "cannot write %s\n", Opt.TracePath.c_str());
  if (!Opt.MetricsOut.empty() && writeMetricsFile(Opt, Snapshots) != 0)
    return 1;
  return Rc;
}
