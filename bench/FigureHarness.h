//===- bench/FigureHarness.h - Shared figure-reproduction harness -*-C++-*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Glue shared by the per-figure benchmark binaries. Each sweep point
/// (profile x configuration) registers as one google-benchmark benchmark
/// with manual timing; results are collected in a store, and after the
/// run each binary prints its figure as a table of the paper's series.
///
/// Environment knobs:
///   WEARMEM_PROFILES     "all" (default), "quick", or a name list.
///   WEARMEM_BENCH_REPS   invocations per point (default 3).
///   WEARMEM_BENCH_SCALE  workload volume multiplier (default 1.0).
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_BENCH_FIGUREHARNESS_H
#define WEARMEM_BENCH_FIGUREHARNESS_H

#include "support/Table.h"
#include "workload/Runner.h"

#include <benchmark/benchmark.h>

#include <cmath>
#include <map>
#include <string>

namespace wearmem {

/// Collected results keyed by point name.
inline std::map<std::string, AggregateResult> &resultStore() {
  static std::map<std::string, AggregateResult> Store;
  return Store;
}

/// Registers a sweep point: runs the profile under the configuration
/// (benchReps() invocations), stores the aggregate, and reports the mean
/// as the benchmark's manual time. DNF points store Completed=false and
/// report in the table as "-" (a terminated curve).
inline void registerPoint(const std::string &Name, const Profile &P,
                          const RuntimeConfig &Config) {
  benchmark::RegisterBenchmark(
      Name.c_str(),
      [&P, Config, Name](benchmark::State &State) {
        for (auto _ : State) {
          AggregateResult Agg = runRepeated(P, Config, benchReps());
          resultStore()[Name] = Agg;
          State.SetIterationTime(Agg.Completed ? Agg.MeanMs / 1000.0
                                               : 0.0);
          if (!Agg.Completed)
            State.counters["dnf"] = 1;
        }
      })
      ->Iterations(1)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond);
}

/// Mean time for a stored point; NaN if missing or DNF.
inline double storedMs(const std::string &Name) {
  auto It = resultStore().find(Name);
  if (It == resultStore().end() || !It->second.Completed)
    return std::nan("");
  return It->second.MeanMs;
}

/// Last run's detailed result for a stored point (counters), or nullptr.
inline const RunResult *storedRun(const std::string &Name) {
  auto It = resultStore().find(Name);
  return It == resultStore().end() ? nullptr : &It->second.Last;
}

/// Variant / baseline normalized time; NaN when either is missing or did
/// not complete.
inline double storedNorm(const std::string &Variant,
                         const std::string &Base) {
  auto V = resultStore().find(Variant), B = resultStore().find(Base);
  if (V == resultStore().end() || B == resultStore().end())
    return std::nan("");
  return normalizedTime(V->second, B->second);
}

/// Geomean of per-profile normalized times against a baseline namer;
/// NaN if any profile did not complete (the paper discards such points).
template <typename VariantName, typename BaseName>
double geomeanOverProfiles(const std::vector<const Profile *> &Profiles,
                           VariantName Variant, BaseName Base) {
  std::vector<double> Norms;
  for (const Profile *P : Profiles)
    Norms.push_back(storedNorm(Variant(*P), Base(*P)));
  return geomeanNormalized(Norms);
}

/// The paper's default base configuration: Sticky Immix, 256 B lines,
/// 32 KB blocks, failure-aware, compensated, at 2x the per-benchmark
/// minimum heap (set HeapBytes per profile with heapBytesFor).
inline RuntimeConfig paperBaseConfig() {
  RuntimeConfig Config;
  Config.Collector = CollectorKind::StickyImmix;
  Config.LineSize = 256;
  Config.FailureAware = true;
  Config.CompensateForFailures = true;
  return Config;
}

/// Standard heap-size multiples for the heap-sweep figures.
inline const std::vector<double> &heapFactors() {
  static const std::vector<double> Factors = {1.25, 1.5, 2.0,
                                              3.0,  4.0, 6.0};
  return Factors;
}

/// Runs the registered benchmarks and returns (after which the figure
/// tables can be printed from the store).
inline void runBenchmarks(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
}

} // namespace wearmem

#endif // WEARMEM_BENCH_FIGUREHARNESS_H
