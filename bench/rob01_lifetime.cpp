//===- bench/rob01_lifetime.cpp - Device-lifetime robustness gate ---------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
//
// End-of-life robustness gate: every collector is driven to (or toward)
// device end of life under every adversarial mutator, using the
// fast-forward lifetime harness (workload/Lifetime.h) at a short
// horizon. A cell is a (collector, adversary) pair; each cell runs the
// same seeded fast-forward campaign and must satisfy three contracts:
//
//  1. Diagnosed endings only. A cell may survive the horizon or die of
//     wear, but a death must carry a DnfReason - an undiagnosed
//     fail-stop (dead with reason "none") means the degradation ladder
//     leaked a crash path and exits 2.
//  2. Monotone degradation. The survival curve must never step to a
//     lower degradation mode without a logged recovery between the two
//     checkpoints; any silent backward step exits 3.
//  3. Determinism. Every cell is run twice in-process and the two
//     survival curves (modes, refusals, wear, milestones) must match
//     exactly, else exit 4. The emitted BENCH_lifetime.json holds only
//     deterministic values, so CI additionally runs the binary twice
//     and byte-compares the files.
//
// A fourth, coarser check guards the harness itself: at least one
// Immix-family cell must climb the ladder to Throttled or beyond
// (exit 5 otherwise) - if wear injection or mode escalation silently
// broke, an all-Normal matrix would otherwise pass vacuously.
//
// MarkSweep-family cells have no Immix space, so the line-targeted wear
// model injects nothing there; those cells exercise the no-wear control
// row of the matrix (they must stay Normal and survive). The medium
// adversary redirects the entire small-object stream into multi-line
// overflow sizes - a live-set inflation no realistic headroom covers -
// so its cells die of heap exhaustion at the first checkpoint on every
// collector; the gate's claim about them is only that the death is
// diagnosed, which is precisely the robustness contract under test.
//
// Exit codes: 0 ok, 1 usage, 2 undiagnosed fail-stop, 3 non-monotone
// degradation, 4 determinism mismatch, 5 ladder never exercised.
//
//===----------------------------------------------------------------------===//

#include "support/CliArgs.h"
#include "support/JsonWriter.h"
#include "workload/Lifetime.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

using namespace wearmem;

namespace {

constexpr CollectorKind Collectors[] = {
    CollectorKind::MarkSweep, CollectorKind::Immix,
    CollectorKind::StickyMarkSweep, CollectorKind::StickyImmix};
constexpr AdversaryKind Adversaries[] = {
    AdversaryKind::None, AdversaryKind::Frag, AdversaryKind::Pin,
    AdversaryKind::Medium, AdversaryKind::Buffer};

/// Short-horizon campaign: a steep wear ramp reaches the upper ladder
/// rungs within nine checkpoints, keeping the 20-cell matrix (run twice
/// for the determinism gate) inside a CI smoke budget.
LifetimeOptions makeCell(CollectorKind Collector, AdversaryKind Adversary,
                         uint64_t Seed, double Scale) {
  LifetimeOptions Opt;
  Opt.Collector = Collector;
  Opt.Adversary = Adversary;
  Opt.Seed = Seed;
  Opt.HeapFactor = 4.0;
  Opt.VolumeScale = 0.04 * Scale;
  Opt.Checkpoints = 9;
  Opt.YearsPerCheckpoint = 1.0;
  Opt.BaseFailLines = 32;
  Opt.WearGrowth = 2.0;
  // Parallel collection: the engine's contract is that worker count
  // never changes deterministic heap state, so the curves stay
  // byte-identical - and CI's TSan job gets real concurrency to watch.
  Opt.GcThreads = 2;
  return Opt;
}

DegradationMode maxMode(const LifetimeResult &R) {
  DegradationMode Max = DegradationMode::Normal;
  for (const LifetimeCheckpoint &C : R.Curve)
    if (C.Mode > Max)
      Max = C.Mode;
  return Max;
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Seed = 42;
  std::string OutPath = "BENCH_lifetime.json";
  double Scale = 1.0;
  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--seed") == 0 && I + 1 < argc)
      Seed = std::strtoull(argv[++I], nullptr, 10);
    else if (std::strcmp(argv[I], "--out") == 0 && I + 1 < argc)
      OutPath = argv[++I];
    else if (std::strcmp(argv[I], "--scale") == 0 && I + 1 < argc)
      Scale = std::atof(argv[++I]);
    else {
      std::fprintf(stderr, "usage: %s [--seed N] [--out FILE] [--scale F]\n",
                   argv[0]);
      return 1;
    }
  }
  if (Scale <= 0.0)
    Scale = 1.0;

  const Profile *P = findProfile("luindex");

  std::printf("%-6s %-8s %9s %6s %10s %8s %-10s %s\n", "gc", "adversary",
              "wear", "gcs", "refused", "caploss", "max-mode", "ending");

  unsigned Undiagnosed = 0;
  unsigned NonMonotone = 0;
  unsigned Mismatches = 0;
  bool LadderExercised = false;

  std::vector<LifetimeOptions> CellOpts;
  std::vector<LifetimeResult> Cells;
  for (CollectorKind Collector : Collectors)
    for (AdversaryKind Adversary : Adversaries) {
      LifetimeOptions Opt = makeCell(Collector, Adversary, Seed, Scale);
      LifetimeResult R = runLifetime(*P, Opt);
      LifetimeResult Rerun = runLifetime(*P, Opt);
      if (!sameLifetime(R, Rerun)) {
        ++Mismatches;
        std::printf("MISMATCH: %s/%s rerun diverges\n",
                    cli::collectorFlagName(Collector),
                    adversaryName(Adversary));
      }
      if (!R.Survived && R.Dnf == DnfReason::None)
        ++Undiagnosed;
      if (!R.MonotoneDegradation)
        ++NonMonotone;
      if (maxMode(R) >= DegradationMode::Throttled)
        LadderExercised = true;

      const LifetimeCheckpoint &Last = R.Curve.back();
      std::printf("%-6s %-8s %9llu %6llu %10llu %7.1f%% %-10s %s\n",
                  cli::collectorFlagName(Collector),
                  adversaryName(Adversary),
                  (unsigned long long)R.WearLinesInjected,
                  (unsigned long long)Last.GcCount,
                  (unsigned long long)Last.RefusedAllocs,
                  Last.CapacityLoss * 100.0,
                  degradationModeName(maxMode(R)),
                  R.Survived ? "survived" : dnfReasonName(R.Dnf));
      CellOpts.push_back(Opt);
      Cells.push_back(std::move(R));
    }

  // Deterministic JSON: survival curves, milestones and transition logs
  // only, fixed field order. Same seed => byte-identical file; CI runs
  // the gate twice and diffs.
  FILE *Out = std::fopen(OutPath.c_str(), "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s\n", OutPath.c_str());
    return 1;
  }
  JsonWriter W(Out);
  W.openRoot();
  W.key("bench");
  W.value("rob01_lifetime");
  W.key("seed");
  W.value(Seed);
  W.key("scale");
  W.valueF(Scale, 3);
  W.key("cells");
  W.openArray(JsonWriter::Style::Line);
  for (size_t I = 0; I != Cells.size(); ++I)
    lifetimeToJson(W, *P, CellOpts[I], Cells[I]);
  W.close();
  W.key("totals");
  W.openObject(JsonWriter::Style::Inline);
  W.key("cells");
  W.value(Cells.size());
  W.key("undiagnosed_failstops");
  W.value(Undiagnosed);
  W.key("non_monotone");
  W.value(NonMonotone);
  W.key("determinism_mismatches");
  W.value(Mismatches);
  W.key("ladder_exercised");
  W.value(LadderExercised);
  W.close();
  W.closeRoot();
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath.c_str());

  if (Undiagnosed) {
    std::printf("GATE FAILED: %u undiagnosed fail-stop(s)\n", Undiagnosed);
    return 2;
  }
  if (NonMonotone) {
    std::printf("GATE FAILED: %u non-monotone cell(s)\n", NonMonotone);
    return 3;
  }
  if (Mismatches) {
    std::printf("GATE FAILED: %u determinism mismatch(es)\n", Mismatches);
    return 4;
  }
  if (!LadderExercised) {
    std::printf("GATE FAILED: no cell ever left Normal mode\n");
    return 5;
  }
  return 0;
}
