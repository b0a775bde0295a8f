//===- tests/ObsTest.cpp - Observability subsystem tests ------------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/Runtime.h"
#include "gc/Heap.h"
#include "obs/FlightRecorder.h"
#include "obs/Hooks.h"
#include "obs/Metrics.h"
#include "obs/Obs.h"
#include "obs/Snapshot.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

using namespace wearmem;

namespace {

/// The registry and recorder are process-wide singletons, so every test
/// starts from disabled domains and zeroed values to stay independent of
/// test order.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    obs::disable(obs::AllDomains);
    obs::MetricsRegistry::instance().resetValues();
    obs::FlightRecorder::instance().reset();
  }
  void TearDown() override { obs::disable(obs::AllDomains); }
};

std::string tempPath(const char *Name) {
  return ::testing::TempDir() + Name;
}

} // namespace

TEST_F(ObsTest, EnableDisableMaskRoundTrip) {
  EXPECT_FALSE(obs::tracingOn());
  EXPECT_FALSE(obs::metricsOn());
  uint32_t Prev = obs::enable(obs::TraceDomain);
  EXPECT_EQ(Prev & obs::TraceDomain, 0u);
  EXPECT_TRUE(obs::tracingOn());
  EXPECT_FALSE(obs::metricsOn());
  obs::enable(obs::MetricsDomain);
  EXPECT_EQ(obs::enabledMask(), obs::AllDomains);
  Prev = obs::disable(obs::TraceDomain);
  EXPECT_EQ(Prev, obs::AllDomains);
  EXPECT_FALSE(obs::tracingOn());
  EXPECT_TRUE(obs::metricsOn());
}

TEST_F(ObsTest, CounterRegistrationIsIdempotent) {
  auto &R = obs::MetricsRegistry::instance();
  obs::MetricId A =
      R.counter("test.idem", obs::MetricDomain::Deterministic);
  obs::MetricId B =
      R.counter("test.idem", obs::MetricDomain::Deterministic);
  EXPECT_EQ(A.Index, B.Index);
  EXPECT_EQ(A.Slot, B.Slot);
  R.add(A, 3);
  R.add(B, 4);
  EXPECT_EQ(R.counterValue(A), 7u);
}

TEST_F(ObsTest, GaugeHoldsLastValue) {
  auto &R = obs::MetricsRegistry::instance();
  obs::MetricId G = R.gauge("test.gauge", obs::MetricDomain::Deterministic);
  R.set(G, 41);
  R.set(G, 17);
  EXPECT_EQ(R.gaugeValue(G), 17u);
}

TEST_F(ObsTest, HistogramBucketsSamplesIncludingOverflow) {
  auto &R = obs::MetricsRegistry::instance();
  obs::MetricId H =
      R.histogram("test.hist", obs::MetricDomain::Deterministic,
                  {10, 100, 1000});
  R.observe(H, 0);    // <= 10
  R.observe(H, 10);   // <= 10 (bound is inclusive)
  R.observe(H, 11);   // <= 100
  R.observe(H, 999);  // <= 1000
  R.observe(H, 5000); // overflow bucket
  std::vector<uint64_t> Counts = R.histogramCounts(H);
  ASSERT_EQ(Counts.size(), 4u) << "3 bounds + implicit overflow bucket";
  EXPECT_EQ(Counts[0], 2u);
  EXPECT_EQ(Counts[1], 1u);
  EXPECT_EQ(Counts[2], 1u);
  EXPECT_EQ(Counts[3], 1u);
}

TEST_F(ObsTest, ShardsSumAcrossThreads) {
  auto &R = obs::MetricsRegistry::instance();
  obs::MetricId C =
      R.counter("test.sharded", obs::MetricDomain::Deterministic);
  constexpr unsigned NumThreads = 8;
  constexpr uint64_t PerThread = 10000;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&R, C] {
      for (uint64_t I = 0; I != PerThread; ++I)
        R.add(C);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(R.counterValue(C), NumThreads * PerThread);
}

TEST_F(ObsTest, TimingDomainOnlyExportsWhenAskedFor) {
  auto &R = obs::MetricsRegistry::instance();
  R.add(R.counter("test.det_only", obs::MetricDomain::Deterministic), 5);
  R.add(R.counter("test.timing_only", obs::MetricDomain::Timing), 9);
  std::string DetOnly = R.exportJsonString(/*IncludeTiming=*/false);
  EXPECT_NE(DetOnly.find("\"test.det_only\": 5"), std::string::npos);
  EXPECT_EQ(DetOnly.find("test.timing_only"), std::string::npos);
  EXPECT_EQ(DetOnly.find("\"timing\""), std::string::npos);
  std::string Both = R.exportJsonString(/*IncludeTiming=*/true);
  EXPECT_NE(Both.find("\"test.timing_only\": 9"), std::string::npos);
}

TEST_F(ObsTest, ExportSortsNamesIndependentOfRegistrationOrder) {
  auto &R = obs::MetricsRegistry::instance();
  R.add(R.counter("test.zz_last", obs::MetricDomain::Deterministic), 1);
  R.add(R.counter("test.aa_first", obs::MetricDomain::Deterministic), 1);
  std::string Json = R.exportJsonString(false);
  size_t First = Json.find("test.aa_first");
  size_t Last = Json.find("test.zz_last");
  ASSERT_NE(First, std::string::npos);
  ASSERT_NE(Last, std::string::npos);
  EXPECT_LT(First, Last);
}

TEST_F(ObsTest, ResetValuesZeroesButKeepsRegistrations) {
  auto &R = obs::MetricsRegistry::instance();
  obs::MetricId C = R.counter("test.reset", obs::MetricDomain::Deterministic);
  R.add(C, 12);
  EXPECT_EQ(R.counterValue(C), 12u);
  R.resetValues();
  EXPECT_EQ(R.counterValue(C), 0u);
  // The cached id survives the reset and keeps counting.
  R.add(C, 2);
  EXPECT_EQ(R.counterValue(C), 2u);
}

TEST_F(ObsTest, HookMacrosAreInertWhileDisabled) {
  WEARMEM_COUNT_DET("test.hook_gated");
  WEARMEM_TRACE(SnapshotTaken, 1, 2);
  // Nothing registered, nothing recorded: the export carries no such
  // metric and the recorder stays empty.
  std::string Json =
      obs::MetricsRegistry::instance().exportJsonString(true);
  EXPECT_EQ(Json.find("test.hook_gated"), std::string::npos);
  EXPECT_TRUE(obs::FlightRecorder::instance().collect().empty());
}

TEST_F(ObsTest, HookMacrosCountAndRecordWhenEnabled) {
  obs::enable(obs::AllDomains);
  for (int I = 0; I != 3; ++I)
    WEARMEM_COUNT_DET("test.hook_live");
  WEARMEM_TRACE(SnapshotTaken, 7, 0);
  std::string Json =
      obs::MetricsRegistry::instance().exportJsonString(false);
  EXPECT_NE(Json.find("\"test.hook_live\": 3"), std::string::npos);
  std::vector<obs::TraceEvent> Events =
      obs::FlightRecorder::instance().collect();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].Kind,
            static_cast<uint16_t>(obs::EventKind::SnapshotTaken));
  EXPECT_EQ(Events[0].A, 7u);
}

TEST_F(ObsTest, RingKeepsMostRecentEventsAfterWrap) {
  obs::enable(obs::TraceDomain);
  const size_t Capacity = obs::FlightRecorder::DefaultCapacity;
  const size_t Total = Capacity + 500;
  for (size_t I = 0; I != Total; ++I)
    obs::FlightRecorder::record(obs::EventKind::BufferPush, I, 0);
  std::vector<obs::TraceEvent> Events =
      obs::FlightRecorder::instance().collect();
  ASSERT_EQ(Events.size(), Capacity);
  // The oldest 500 fell off the ring; what's left is the tail window.
  EXPECT_EQ(Events.front().A, 500u);
  EXPECT_EQ(Events.back().A, Total - 1);
}

TEST_F(ObsTest, CollectOrdersEventsByTimestamp) {
  obs::enable(obs::TraceDomain);
  for (uint64_t I = 0; I != 100; ++I)
    obs::FlightRecorder::record(obs::EventKind::Interrupt, I, 0);
  std::vector<obs::TraceEvent> Events =
      obs::FlightRecorder::instance().collect();
  ASSERT_EQ(Events.size(), 100u);
  for (size_t I = 1; I != Events.size(); ++I)
    EXPECT_GE(Events[I].TsNs, Events[I - 1].TsNs);
}

TEST_F(ObsTest, ChromeTraceExportContainsRecordedEvents) {
  obs::enable(obs::TraceDomain);
  obs::FlightRecorder::record(obs::EventKind::GcBegin, 1, 1);
  obs::FlightRecorder::record(obs::EventKind::Evacuation, 48, 0);
  obs::FlightRecorder::record(obs::EventKind::GcEnd, 1, 1);
  std::string Path = tempPath("obs_trace.json");
  ASSERT_TRUE(obs::FlightRecorder::instance().exportChromeTrace(Path));
  FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Text(1 << 16, '\0');
  Text.resize(std::fread(&Text[0], 1, Text.size(), F));
  std::fclose(F);
  EXPECT_NE(Text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(Text.find("\"evacuation\""), std::string::npos);
  EXPECT_NE(Text.find("\"collection\""), std::string::npos);
  // GC begin/end pairs become duration events.
  EXPECT_NE(Text.find("\"B\""), std::string::npos);
  EXPECT_NE(Text.find("\"E\""), std::string::npos);
  std::remove(Path.c_str());
}

TEST_F(ObsTest, ResetDropsEventsAndRestartsClock) {
  obs::enable(obs::TraceDomain);
  obs::FlightRecorder::record(obs::EventKind::Interrupt, 1, 0);
  obs::FlightRecorder::instance().reset();
  EXPECT_TRUE(obs::FlightRecorder::instance().collect().empty());
  obs::FlightRecorder::record(obs::EventKind::Interrupt, 2, 0);
  std::vector<obs::TraceEvent> Events =
      obs::FlightRecorder::instance().collect();
  ASSERT_EQ(Events.size(), 1u);
  EXPECT_EQ(Events[0].A, 2u);
}

TEST_F(ObsTest, GcPauseAccountingStaysInTheTimingDomain) {
  // Regression: wall-clock pause totals (and every other *_us_total
  // duration) must surface only through Timing-domain metrics. The
  // deterministic export is compared byte-for-byte across reruns and
  // worker counts, so a pause counter leaking into it would break the
  // determinism gates on every machine with different timing.
  obs::enable(obs::MetricsDomain);
  RuntimeConfig Cfg;
  Cfg.Collector = CollectorKind::StickyImmix;
  Cfg.HeapBytes = 8 * MiB;
  Cfg.IncrementalMark = true;
  Runtime Rt(Cfg);
  Handle Head = Rt.allocateRooted(8, 1);
  ASSERT_NE(Head.get(), nullptr);
  for (int I = 0; I != 2000; ++I) {
    ObjRef Node = Rt.allocate(8, 1);
    ASSERT_NE(Node, nullptr);
    Rt.writeRef(Node, 0, Head.get());
    Head.set(Node);
  }
  Rt.collect(true);  // Full pause.
  Rt.collect(false); // Nursery pause.
  ASSERT_TRUE(Rt.beginIncrementalMarkCycle());
  while (Rt.incrementalMarkStep())
    ;
  Rt.finishIncrementalMarkCycle();
  EXPECT_GT(Rt.heap().fullGcPausesMs().size(), 0u);
  EXPECT_GT(Rt.heap().nurseryGcPausesMs().size(), 0u);

  auto &R = obs::MetricsRegistry::instance();
  std::string Det = R.exportJsonString(/*IncludeTiming=*/false);
  EXPECT_EQ(Det.find("pause"), std::string::npos)
      << "pause accounting leaked into the deterministic export";
  EXPECT_EQ(Det.find("_us_total"), std::string::npos)
      << "a wall-clock duration leaked into the deterministic export";
  // The deterministic side of incremental marking does export: cycle
  // counts are driver-controlled. The step count is NOT deterministic -
  // a budgeted parallel step can retire under quota, so the number of
  // steps a drain-to-convergence driver issues shifts with the worker
  // count - and must stay in the timing (schedule) domain.
  EXPECT_NE(Det.find("gc.inc.cycles_opened"), std::string::npos);
  EXPECT_NE(Det.find("gc.inc.cycles_closed"), std::string::npos);
  EXPECT_EQ(Det.find("gc.inc.mark_steps"), std::string::npos)
      << "schedule-dependent step count leaked into the deterministic "
         "export";

  std::string Timing = R.exportJsonString(/*IncludeTiming=*/true);
  for (const char *Name :
       {"gc.pause_us_total", "gc.pause_full_us_total",
        "gc.pause_nursery_us_total", "gc.mark_us_total",
        "gc.evacuate_us_total", "gc.fixup_us_total", "gc.sweep_us_total",
        "gc.inc.open_us_total", "gc.inc.step_us_total",
        "gc.inc.close_us_total", "gc.inc.mark_steps"})
    EXPECT_NE(Timing.find(Name), std::string::npos) << Name;
}

TEST_F(ObsTest, PauseHistoryHasOneEntryPerCollectionUnderEveryPacing) {
  // Drivers that time the paced pauses themselves (perfbench's
  // lanes_concurrent) swap the heap's pause entries for their own by
  // position. That relies on three rules, whatever the pacing: every
  // full collection appends exactly one fullGcPausesMs() entry - a
  // stop-the-world pause or a paced cycle's close; opens, steps and
  // flush handshakes append nothing; nursery collections append to
  // nurseryGcPausesMs() only.
  enum class Pacing { Stw, Interleaved, Concurrent };
  for (Pacing P : {Pacing::Stw, Pacing::Interleaved, Pacing::Concurrent}) {
    HeapConfig Config;
    Config.Collector = CollectorKind::StickyImmix;
    Config.BudgetPages = (16 * MiB) / PcmPageSize;
    Config.GcThreads = 2;
    Config.IncrementalMark = P == Pacing::Interleaved;
    Config.ConcurrentMark = P == Pacing::Concurrent;
    Config.MarkBudget = 64;
    Heap Hp(Config);
    unsigned Root = Hp.createRoot(nullptr);
    for (unsigned I = 0; I != 4000; ++I) {
      ObjRef Node = Hp.allocate(48, 1);
      ASSERT_NE(Node, nullptr);
      if (ObjRef Head = Hp.root(Root))
        Hp.writeRef(Node, 0, Head);
      Hp.setRoot(Root, Node);
    }
    const std::vector<double> &Fulls = Hp.fullGcPausesMs();
    const std::vector<double> &Nurseries = Hp.nurseryGcPausesMs();
    // A paced open counts its full collection before the close records
    // the pause.
    auto expectOneEntryPerCollection = [&](const char *When) {
      uint64_t Open = Hp.incrementalCycleOpen() ? 1 : 0;
      EXPECT_EQ(Fulls.size(), Hp.stats().FullGcCount - Open) << When;
      EXPECT_EQ(Nurseries.size(), Hp.stats().NurseryGcCount) << When;
    };
    bool SawCycleOpen = false;
    Hp.setMarkPhaseHook([&] { SawCycleOpen |= Hp.incrementalCycleOpen(); });
    Hp.collect(CollectionKind::Full);
    EXPECT_EQ(Fulls.size(), 1u);
    Hp.collect(CollectionKind::Nursery);
    EXPECT_EQ(Nurseries.size(), 1u);
    expectOneEntryPerCollection("stop-the-world");
    EXPECT_FALSE(SawCycleOpen)
        << "a stop-the-world collection must not read as an open cycle";
    Hp.setMarkPhaseHook(nullptr);
    if (P == Pacing::Stw) {
      EXPECT_EQ(Hp.stats().IncrementalCyclesOpened, 0u);
      EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 0u);
      continue;
    }

    size_t Before = Fulls.size();
    ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
    EXPECT_EQ(Fulls.size(), Before) << "an open appended a pause";
    for (unsigned I = 0; I != 3; ++I) {
      if (P == Pacing::Interleaved)
        Hp.incrementalMarkStep();
      else
        Hp.satbFlushHandshake();
      EXPECT_EQ(Fulls.size(), Before) << "a step or handshake appended";
    }
    expectOneEntryPerCollection("mid-cycle");
    Hp.finishIncrementalMarkCycle();
    EXPECT_EQ(Fulls.size(), Before + 1) << "a close must append one pause";
    // A collection demand on an open cycle closes it: still one entry.
    ASSERT_TRUE(Hp.beginIncrementalMarkCycle());
    Hp.collect(CollectionKind::Full);
    EXPECT_EQ(Fulls.size(), Before + 2);
    EXPECT_EQ(Nurseries.size(), 1u);
    expectOneEntryPerCollection("after the closes");
    EXPECT_EQ(Hp.stats().IncrementalCyclesClosed, 2u);
  }
}
