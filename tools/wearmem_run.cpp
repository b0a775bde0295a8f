//===- tools/wearmem_run.cpp - Command-line experiment runner -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// Runs one workload/configuration pair and prints the full accounting:
// wall time, GC behaviour, failure handling, and OS perfect-page traffic.
// Useful for exploring the design space beyond the canned figures.
//
//   wearmem_run --profile=pmd --failure-rate=0.25 --cluster=2
//   wearmem_run --profile=xalan --collector=ms --heap-factor=3
//   wearmem_run --list
//
//===----------------------------------------------------------------------===//

#include "obs/FlightRecorder.h"
#include "obs/Hooks.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Snapshot.h"
#include "support/CliArgs.h"
#include "support/JsonWriter.h"
#include "support/Table.h"
#include "workload/IncMarkDriver.h"
#include "workload/Mutator.h"
#include "workload/PoolDriver.h"
#include "workload/Runner.h"

#include "gc/HeapAuditor.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace wearmem;

namespace {

using cli::ExitUsage;

void printUsage(FILE *Out) {
  std::fprintf(
      Out,
      "usage: wearmem_run [options]\n"
      "  --list                   list workload profiles and exit\n"
      "  --profile=NAME           workload (default pmd)\n"
      "  --collector=KIND         ms | ix | s-ms | s-ix (default s-ix)\n"
      "  --adversary=NAME         adversarial mutator strategy: none |\n"
      "                           frag | pin | medium | buffer\n"
      "  --heap-factor=F          heap = F x profile min (default 2.0)\n"
      "  --heap-mb=N              absolute heap size in MiB\n"
      "  --failure-rate=F         failed line fraction 0..0.99\n"
      "  --cluster=N              clustering region pages (0=off, 1, 2..)\n"
      "  --line=N                 Immix line size: 64|128|256\n"
      "  --no-compensate          fixed physical footprint\n"
      "  --arraylets              discontiguous large arrays\n"
      "  --dynamic-failures=N     inject N line failures mid-run\n"
      "  --incremental-mark       bounded-pause SATB marking (Immix\n"
      "                           collectors only); cycles are driven\n"
      "                           on the allocation clock, so results\n"
      "                           stay deterministic per seed\n"
      "  --concurrent-mark        SATB marking on a dedicated marker\n"
      "                           thread (Immix collectors only);\n"
      "                           mutually exclusive with\n"
      "                           --incremental-mark, same digest and\n"
      "                           deterministic counters as both other\n"
      "                           modes\n"
      "  --mark-budget=N          objects traced per mark increment or\n"
      "                           marker slice (0 = unbounded; default\n"
      "                           512 interleaved / 4096 concurrent;\n"
      "                           requires a marking mode)\n"
      "  --gc-threads=N           parallel GC workers (default 1; the\n"
      "                           heap state is identical for any N)\n"
      "  --mutator-threads=N      OS threads driving the mutator lanes\n"
      "                           (default 1)\n"
      "  --mutator-lanes=L        logical mutator lanes; fixes the\n"
      "                           allocation schedule and the heap\n"
      "                           digest (default: --mutator-threads)\n"
      "  --reps=N                 repetitions (default 3)\n"
      "  --seed=N                 failure-map + workload seed\n"
      "  --trace=FILE             Chrome trace_event JSON of one\n"
      "                           instrumented run\n"
      "  --metrics-out=FILE       metrics-registry JSON of one\n"
      "                           instrumented run\n"
      "  --snapshot-every=N       heap snapshot every N GCs into the\n"
      "                           metrics file\n"
      "  --help                   print this help and exit\n");
}

} // namespace

int main(int argc, char **argv) {
  std::string ProfileName = "pmd";
  std::string CollectorName = "s-ix";
  std::string AdversaryName = "none";
  double HeapFactor = 2.0;
  double HeapMb = 0.0;
  double Rate = 0.0;
  unsigned Cluster = 0;
  size_t Line = 256;
  bool Compensate = true;
  bool Arraylets = false;
  unsigned DynamicFailures = 0;
  cli::MarkFlags Mark;
  unsigned GcThreads = 1;
  unsigned MutatorThreads = 1;
  unsigned MutatorLanes = 0;
  int Reps = 3;
  uint64_t Seed = 0x5EEDF00DULL;
  std::string TracePath;
  std::string MetricsOut;
  unsigned SnapshotEvery = 0;

  for (int I = 1; I < argc; ++I) {
    std::string Value;
    const char *Arg = argv[I];
    auto parseFlag = [&](const char *Name, std::string &Out) {
      return cli::splitEqFlag(Arg, Name, Out);
    };
    auto u64 = [&](uint64_t &Out) {
      if (cli::parseU64(Value.c_str(), Out))
        return true;
      std::fprintf(stderr, "error: invalid value '%s' in '%s'\n",
                   Value.c_str(), Arg);
      return false;
    };
    auto uns = [&](unsigned &Out) {
      uint64_t Wide = 0;
      if (!u64(Wide) || Wide > UINT32_MAX)
        return false;
      Out = static_cast<unsigned>(Wide);
      return true;
    };
    auto dbl = [&](double &Out) {
      if (cli::parseDouble(Value.c_str(), Out))
        return true;
      std::fprintf(stderr, "error: invalid value '%s' in '%s'\n",
                   Value.c_str(), Arg);
      return false;
    };
    bool ValueOk = true;
    if (parseFlag("--list", Value)) {
      Table List("Workload profiles");
      List.setHeader({"name", "live set", "alloc volume", "min heap",
                      "small/medium/large bytes"});
      for (const Profile &P : allProfiles()) {
        char Mix[48];
        std::snprintf(Mix, sizeof(Mix), "%.2f/%.2f/%.2f",
                      P.Mix.SmallWeight, P.Mix.MediumWeight,
                      P.Mix.LargeWeight);
        List.addRow({P.Buggy ? std::string(P.Name) + " (buggy)"
                             : std::string(P.Name),
                     Table::bytes(P.LiveSetBytes),
                     Table::bytes(P.AllocVolumeBytes),
                     Table::bytes(P.MinHeapBytes), Mix});
      }
      List.print();
      return 0;
    }
    if (parseFlag("--help", Value) || parseFlag("-h", Value)) {
      printUsage(stdout);
      return 0;
    }
    std::string MarkErr;
    if (cli::consumeMarkFlag(argc, argv, I, Mark, MarkErr)) {
      if (!MarkErr.empty()) {
        std::fprintf(stderr, "error: %s\n", MarkErr.c_str());
        printUsage(stderr);
        return ExitUsage;
      }
      continue;
    }
    if (parseFlag("--profile", Value)) {
      ProfileName = Value;
    } else if (parseFlag("--collector", Value)) {
      CollectorName = Value;
    } else if (parseFlag("--adversary", Value)) {
      AdversaryName = Value;
    } else if (parseFlag("--heap-factor", Value)) {
      ValueOk = dbl(HeapFactor);
    } else if (parseFlag("--heap-mb", Value)) {
      ValueOk = dbl(HeapMb);
    } else if (parseFlag("--failure-rate", Value)) {
      ValueOk = dbl(Rate) && Rate >= 0.0 && Rate <= 0.99;
      if (!ValueOk)
        std::fprintf(stderr,
                     "error: --failure-rate must be in 0..0.99\n");
    } else if (parseFlag("--cluster", Value)) {
      ValueOk = uns(Cluster);
    } else if (parseFlag("--line", Value)) {
      uint64_t L = 0;
      ValueOk = u64(L) && (L == 64 || L == 128 || L == 256);
      if (!ValueOk)
        std::fprintf(stderr, "error: --line must be 64, 128, or 256\n");
      Line = L;
    } else if (parseFlag("--no-compensate", Value)) {
      Compensate = false;
    } else if (parseFlag("--arraylets", Value)) {
      Arraylets = true;
    } else if (parseFlag("--dynamic-failures", Value)) {
      ValueOk = uns(DynamicFailures);
    } else if (parseFlag("--gc-threads", Value)) {
      ValueOk = uns(GcThreads) && GcThreads >= 1;
      if (!ValueOk)
        std::fprintf(stderr, "error: --gc-threads must be >= 1\n");
    } else if (parseFlag("--mutator-threads", Value)) {
      ValueOk = uns(MutatorThreads) && MutatorThreads >= 1;
      if (!ValueOk)
        std::fprintf(stderr, "error: --mutator-threads must be >= 1\n");
    } else if (parseFlag("--mutator-lanes", Value)) {
      // An explicit lane count of zero is rejected, not defaulted: the
      // lane count fixes the heap digest, so a silent fallback would
      // change the result the caller asked to pin down.
      ValueOk = uns(MutatorLanes) && MutatorLanes >= 1;
      if (!ValueOk)
        std::fprintf(stderr, "error: --mutator-lanes must be >= 1\n");
    } else if (parseFlag("--reps", Value)) {
      unsigned R = 0;
      ValueOk = uns(R) && R >= 1;
      Reps = static_cast<int>(R);
    } else if (parseFlag("--seed", Value)) {
      ValueOk = u64(Seed);
    } else if (parseFlag("--trace", Value)) {
      TracePath = Value;
    } else if (parseFlag("--metrics-out", Value)) {
      MetricsOut = Value;
    } else if (parseFlag("--snapshot-every", Value)) {
      ValueOk = uns(SnapshotEvery);
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", Arg);
      printUsage(stderr);
      return ExitUsage;
    }
    if (!ValueOk) {
      printUsage(stderr);
      return ExitUsage;
    }
  }

  const Profile *P = findProfile(ProfileName);
  if (!P) {
    std::fprintf(stderr, "error: unknown profile '%s' (try --list)\n",
                 ProfileName.c_str());
    return ExitUsage;
  }

  RuntimeConfig Config;
  if (!cli::parseCollector(CollectorName, Config.Collector)) {
    std::fprintf(stderr, "error: unknown collector '%s' (valid: %s)\n",
                 CollectorName.c_str(), cli::collectorNameList());
    return ExitUsage;
  }
  bool AdversaryOk = false;
  AdversaryKind Adversary = adversaryFromName(AdversaryName, AdversaryOk);
  if (!AdversaryOk) {
    std::fprintf(stderr, "error: unknown adversary '%s' (valid: %s)\n",
                 AdversaryName.c_str(), adversaryNameList());
    return ExitUsage;
  }
  if (const char *Err = cli::validateMarkFlags(Mark, Config.Collector)) {
    std::fprintf(stderr, "error: %s\n", Err);
    return ExitUsage;
  }
  Config.HeapBytes = HeapMb > 0.0
                         ? static_cast<size_t>(HeapMb * 1024 * 1024)
                         : heapBytesFor(*P, HeapFactor);
  Config.FailureRate = Rate;
  Config.ClusteringRegionPages = Cluster;
  Config.LineSize = Line;
  Config.CompensateForFailures = Compensate;
  Config.UseDiscontiguousArrays = Arraylets;
  Config.GcThreads = GcThreads;
  Config.IncrementalMark = Mark.IncrementalMark;
  Config.ConcurrentMark = Mark.ConcurrentMark;
  if (Mark.MarkBudgetSet)
    Config.MarkBudget = Mark.MarkBudget;
  Config.Seed = Seed;
  if (Config.Collector == CollectorKind::MarkSweep ||
      Config.Collector == CollectorKind::StickyMarkSweep)
    Config.FreeListFailureAware = Rate > 0.0;

  std::printf("running %s on %s, heap %s%s%s%s, seed %llu\n",
              Config.describe().c_str(), P->Name,
              Table::bytes(Config.HeapBytes).c_str(),
              Arraylets ? ", discontiguous arrays" : "",
              Adversary != AdversaryKind::None ? ", adversary " : "",
              Adversary != AdversaryKind::None ? adversaryName(Adversary)
                                               : "",
              static_cast<unsigned long long>(Seed));

  // Any observability flag switches to one instrumented run: repeated
  // timing runs would accumulate metrics across repetitions and blur
  // which events belong to which run.
  bool ObsRun =
      !TracePath.empty() || !MetricsOut.empty() || SnapshotEvery != 0;
  if (!TracePath.empty())
    obs::enable(obs::TraceDomain);
  if (!MetricsOut.empty())
    obs::enable(obs::MetricsDomain);

  if (MutatorThreads > 1 || MutatorLanes > 1) {
    // Multi-threaded mutator run: N threads over L lanes through the
    // round-robin turnstile. The digest depends only on L, so two runs
    // with different --mutator-threads but the same --mutator-lanes must
    // report the same digest (the determinism gate compares exactly
    // that).
    unsigned L = MutatorLanes != 0 ? MutatorLanes : MutatorThreads;
    // Each lane carries a full live set; scale the heap with the lane
    // count so per-lane headroom matches the single-lane run.
    Config.HeapBytes *= L;
    Runtime Rt(Config);
    MutatorPoolOptions Opts;
    Opts.Lanes = L;
    Opts.Threads = MutatorThreads;
    Opts.Seed = Seed;
    Opts.VolumeScale = benchScale();
    Opts.Adversary = Adversary;
    PoolDriver Driver(Rt, *P, Opts);
    MutatorPool &Pool = Driver.pool();
    auto Start = std::chrono::steady_clock::now();
    bool Ok = Driver.run();
    if (Mark.anyMode())
      Driver.flushMark();
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    HeapAuditor Auditor(Rt.heap());
    AuditReport Audit = Auditor.audit();
    for (const std::string &V : Audit.Violations)
      std::fprintf(stderr, "audit violation: %s\n", V.c_str());
    uint64_t Digest = Auditor.digest();
    const HeapStats &S = Rt.stats();
    const SafepointStats &Sp = Rt.safepoints().stats();
    std::printf(
        "%u threads x %u lanes: %s in %.1f ms, %llu turns, %llu "
        "collections\n"
        "safepoints: %llu stops, %llu parks, %llu blocked acks\n"
        "interrupts: %llu routed = %llu delivered + %llu orphaned\n"
        "heap digest: %016llx (audit %s)\n",
        Pool.threads(), Pool.lanes(), Ok ? "ok" : "DID NOT FINISH", Ms,
        static_cast<unsigned long long>(Pool.totalTurns()),
        static_cast<unsigned long long>(S.GcCount),
        static_cast<unsigned long long>(Sp.Stops),
        static_cast<unsigned long long>(Sp.Parks),
        static_cast<unsigned long long>(Sp.BlockedAcks),
        static_cast<unsigned long long>(S.InterruptsRouted),
        static_cast<unsigned long long>(S.InterruptsDelivered),
        static_cast<unsigned long long>(S.InterruptsOrphaned),
        static_cast<unsigned long long>(Digest),
        Audit.passed() ? "clean" : "FAILED");
    if (Mark.anyMode())
      std::printf("%s mark: %llu cycles, %llu increments, "
                  "%llu satb logged / %llu drained\n",
                  Mark.ConcurrentMark ? "concurrent" : "incremental",
                  static_cast<unsigned long long>(
                      S.IncrementalCyclesClosed),
                  static_cast<unsigned long long>(S.MarkIncrements),
                  static_cast<unsigned long long>(S.SatbLogged),
                  static_cast<unsigned long long>(S.SatbDrained));
    if (!Audit.passed())
      return 3;
    return Ok ? 0 : 2;
  }

  if (DynamicFailures > 0 || ObsRun || Mark.anyMode()) {
    // One instrumented run, optionally with evenly spaced mid-run line
    // failures.
    Runtime Rt(Config);
    Mutator M(Rt, *P, Seed, benchScale(), Adversary);
    IncMarkDriver Inc(Rt, M.targetBytes());
    Rng FailRand(Seed + 1);
    unsigned Injected = 0;
    std::vector<obs::HeapSnapshot> Snapshots;
    uint64_t LastGc = Rt.stats().GcCount;
    unsigned GcsSinceSnapshot = 0;
    auto Start = std::chrono::steady_clock::now();
    bool Ok = M.setUp();
    if (Ok) {
      uint64_t Step = M.targetBytes() / (DynamicFailures + 1);
      uint64_t Next = Step;
      while (M.steadyAllocatedBytes() < M.targetBytes() && M.step()) {
        if (Mark.anyMode())
          Inc.pump(M.steadyAllocatedBytes());
        if (M.steadyAllocatedBytes() >= Next &&
            Injected < DynamicFailures) {
          if (Rt.injectRandomDynamicFailure(FailRand))
            ++Injected;
          Next += Step;
        }
        uint64_t Gc = Rt.stats().GcCount;
        if (Gc != LastGc) {
          GcsSinceSnapshot += static_cast<unsigned>(Gc - LastGc);
          LastGc = Gc;
          if (SnapshotEvery != 0 && GcsSinceSnapshot >= SnapshotEvery) {
            GcsSinceSnapshot = 0;
            Snapshots.push_back(obs::HeapSnapshot::capture(Rt.heap()));
            WEARMEM_TRACE(SnapshotTaken, Gc, 0);
          }
        }
      }
    }
    if (Mark.anyMode())
      Inc.flush();
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - Start)
                    .count();
    std::printf("with %u dynamic failures: %s in %.1f ms, %llu "
                "collections, %llu objects evacuated\n",
                Injected, Rt.outOfMemory() ? "DID NOT FINISH" : "ok", Ms,
                static_cast<unsigned long long>(Rt.stats().GcCount),
                static_cast<unsigned long long>(
                    Rt.stats().ObjectsEvacuated));
    if (Mark.anyMode())
      std::printf("%s mark: %llu cycles, %llu increments, "
                  "%llu satb logged / %llu drained\n",
                  Mark.ConcurrentMark ? "concurrent" : "incremental",
                  static_cast<unsigned long long>(
                      Rt.stats().IncrementalCyclesClosed),
                  static_cast<unsigned long long>(
                      Rt.stats().MarkIncrements),
                  static_cast<unsigned long long>(Rt.stats().SatbLogged),
                  static_cast<unsigned long long>(
                      Rt.stats().SatbDrained));
    if (!TracePath.empty() &&
        !obs::FlightRecorder::instance().exportChromeTrace(TracePath))
      std::fprintf(stderr, "cannot write %s\n", TracePath.c_str());
    if (!MetricsOut.empty()) {
      FILE *MOut = std::fopen(MetricsOut.c_str(), "w");
      if (!MOut) {
        std::fprintf(stderr, "cannot open %s\n", MetricsOut.c_str());
        return 1;
      }
      JsonWriter W(MOut);
      W.openRoot();
      W.key("schema");
      W.value("wearmem-metrics-v1");
      obs::MetricsRegistry::instance().exportJson(W,
                                                  /*IncludeTiming=*/false);
      if (!Snapshots.empty()) {
        W.key("snapshots");
        W.openArray(JsonWriter::Style::Line);
        for (const obs::HeapSnapshot &S : Snapshots)
          S.toJson(W);
        W.close();
      }
      W.closeRoot();
      std::fclose(MOut);
    }
    return Rt.outOfMemory() ? 2 : 0;
  }

  AggregateResult Agg = runRepeated(*P, Config, Reps, Seed, Adversary);
  if (!Agg.Completed) {
    std::printf("DID NOT FINISH: the workload exhausted this heap "
                "(the paper's terminated-curve case)\n");
    return 2;
  }
  const RunResult &R = Agg.Last;
  const HeapStats &S = R.Stats;

  Table Out("Run summary (mean of repetitions; counters from last run)");
  Out.setHeader({"metric", "value"});
  Out.addRow({"time", Table::num(Agg.MeanMs, 1) + " ms +/- " +
                          Table::num(Agg.Ci95Ms, 1)});
  Out.addRow({"budget pages", std::to_string(R.BudgetPages)});
  Out.addRow({"objects allocated", std::to_string(S.ObjectsAllocated)});
  Out.addRow({"bytes allocated", Table::bytes(S.BytesAllocated)});
  Out.addRow({"collections",
              std::to_string(S.GcCount) + " (" +
                  std::to_string(S.FullGcCount) + " full, " +
                  std::to_string(S.NurseryGcCount) + " nursery)"});
  Out.addRow({"full pause mean/max",
              Table::num(R.MeanFullPauseMs, 2) + " / " +
                  Table::num(R.MaxFullPauseMs, 2) + " ms"});
  Out.addRow({"objects evacuated", std::to_string(S.ObjectsEvacuated)});
  Out.addRow({"write barrier logs", std::to_string(S.WriteBarrierLogs)});
  Out.addRow(
      {"failed lines at intake", std::to_string(S.LinesSkippedFailed)});
  Out.addRow({"overflow allocations", std::to_string(S.OverflowAllocs)});
  Out.addRow(
      {"perfect block requests", std::to_string(S.PerfectBlockRequests)});
  Out.addRow({"perfect pages requested",
              std::to_string(R.Os.PerfectPagesRequested)});
  Out.addRow({"DRAM pages borrowed", std::to_string(R.Os.DramBorrowed)});
  Out.addRow({"debt repaid", std::to_string(R.Os.DebtRepaid)});
  Out.print();
  return 0;
}
