//===- tests/OsTest.cpp - OS provisioning and kernel tests ----------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/Os.h"
#include "os/OsKernel.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace wearmem;

namespace {
FailureConfig uniformFailures(double Rate, uint64_t Seed = 7) {
  FailureConfig Config;
  Config.Rate = Rate;
  Config.Seed = Seed;
  return Config;
}
} // namespace

TEST(OsTest, RelaxedGrantsCarryFailureWords) {
  FailureAwareOs Os(64, uniformFailures(0.25));
  auto Grant = Os.allocRelaxed(8);
  ASSERT_TRUE(Grant.has_value());
  EXPECT_EQ(Grant->NumPages, 8u);
  ASSERT_EQ(Grant->FailWords.size(), 8u);
  // At 25% line failures, a page's word is essentially never zero.
  size_t Imperfect = 0;
  for (uint64_t Word : Grant->FailWords)
    Imperfect += Word != 0;
  EXPECT_GT(Imperfect, 5u);
  // Grants are block-aligned and zeroed.
  EXPECT_EQ(reinterpret_cast<uintptr_t>(Grant->Mem) % (32 * KiB), 0u);
  for (size_t I = 0; I < Grant->sizeBytes(); I += 997)
    EXPECT_EQ(Grant->Mem[I], 0u);
}

TEST(OsTest, BudgetExhaustion) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  EXPECT_TRUE(Os.allocRelaxed(8).has_value());
  EXPECT_TRUE(Os.allocRelaxed(8).has_value());
  EXPECT_FALSE(Os.allocRelaxed(1).has_value());
  EXPECT_EQ(Os.remainingPages(), 0u);
}

TEST(OsTest, PerfectServedFromPcmThenDram) {
  // At a 50% failure rate over 32 pages, perfect pages are rare; fussy
  // requests beyond the stock borrow DRAM and accrue debt.
  FailureAwareOs Os(32, uniformFailures(0.5));
  size_t Stock = Os.remainingPerfectPages();
  auto Grant = Os.allocPerfect(Stock + 3);
  ASSERT_TRUE(Grant.has_value());
  EXPECT_EQ(Os.outstandingDebt(), 3u);
  EXPECT_EQ(Os.stats().DramBorrowed, 3u);
  EXPECT_EQ(Os.stats().PerfectPcmServed, Stock);
}

TEST(OsTest, RelaxedDivertsPerfectPagesToRepayDebt) {
  FailureAwareOs Os(64, uniformFailures(0.0));
  // Exhaust the perfect stock via fussy requests is impossible at f=0
  // (every page is perfect), so create debt artificially by draining the
  // stream first.
  while (Os.allocRelaxed(8))
    ;
  auto Borrowed = Os.allocPerfect(4);
  ASSERT_TRUE(Borrowed.has_value());
  EXPECT_EQ(Os.outstandingDebt(), 4u);
  // Returning a perfect grant and asking for relaxed pages repays debt
  // from the stock before granting anything.
  Os.freePerfect(std::move(*Borrowed));
  EXPECT_FALSE(Os.allocRelaxed(8).has_value());
  EXPECT_EQ(Os.outstandingDebt(), 0u);
  EXPECT_EQ(Os.stats().DebtRepaid, 4u);
}

TEST(OsTest, FreePerfectRecycles) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  auto Grant = Os.allocPerfect(4);
  ASSERT_TRUE(Grant.has_value());
  uint8_t *Mem = Grant->Mem;
  Os.freePerfect(std::move(*Grant));
  auto Again = Os.allocPerfect(4);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Mem, Mem);
  EXPECT_EQ(Os.stats().PerfectRecycledServed, 4u);
}

TEST(OsTest, RecycledChunksSplitForSmallerRequests) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  auto Big = Os.allocPerfect(8);
  ASSERT_TRUE(Big.has_value());
  uint8_t *Mem = Big->Mem;
  Os.freePerfect(std::move(*Big));
  auto Small = Os.allocPerfect(2);
  ASSERT_TRUE(Small.has_value());
  EXPECT_EQ(Small->Mem, Mem); // Front-split keeps alignment.
  auto Rest = Os.allocPerfect(6);
  ASSERT_TRUE(Rest.has_value());
  EXPECT_EQ(Rest->Mem, Mem + 2 * PcmPageSize);
}

TEST(OsTest, FreeRelaxedRoutesPerfectGrantsToStock) {
  FailureAwareOs Os(16, uniformFailures(0.0));
  auto Grant = Os.allocRelaxed(8);
  ASSERT_TRUE(Grant.has_value());
  Os.freeRelaxed(std::move(*Grant));
  EXPECT_EQ(Os.stats().PerfectPagesReturned, 8u);
  // And the stock serves fussy requests.
  EXPECT_TRUE(Os.allocPerfect(8).has_value());
  EXPECT_EQ(Os.stats().PerfectRecycledServed, 8u);
}

TEST(OsTest, FreeRelaxedImperfectGrantsRecycleWithWords) {
  FailureAwareOs Os(16, uniformFailures(0.3));
  auto Grant = Os.allocRelaxed(8);
  ASSERT_TRUE(Grant.has_value());
  std::vector<uint64_t> Words = Grant->FailWords;
  uint8_t *Mem = Grant->Mem;
  // Exhaust the stream, then return the grant.
  while (Os.allocRelaxed(8))
    ;
  Os.freeRelaxed(std::move(*Grant));
  // The returned grant is re-granted, failure words intact.
  auto Again = Os.allocRelaxed(8);
  ASSERT_TRUE(Again.has_value());
  EXPECT_EQ(Again->Mem, Mem);
  EXPECT_EQ(Again->FailWords, Words);
}

//===----------------------------------------------------------------------===//
// OsKernel: dynamic-failure interrupt handling
//===----------------------------------------------------------------------===//

TEST(OsKernelTest, UpCallsRegisteredHandler) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.MeanLineLifetime = 100;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);

  std::vector<FailureRecord> Seen;
  Kernel.registerHandler([&Seen](const std::vector<FailureRecord> &Pending) {
    for (const FailureRecord &Record : Pending)
      Seen.push_back(Record);
  });

  Device.injectImminentFailure(5);
  uint8_t Data[PcmLineSize];
  std::memset(Data, 0xEE, sizeof(Data));
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Ok);

  // The interrupt fired synchronously; the handler saw the failure, and
  // the kernel cleared the buffer afterwards.
  ASSERT_EQ(Seen.size(), 1u);
  EXPECT_EQ(Seen[0].LineAddr, addrOfLine(5));
  EXPECT_EQ(Seen[0].Data[0], 0xEE);
  EXPECT_TRUE(Device.pendingFailures().empty());
  EXPECT_EQ(Kernel.stats().UpCalls, 1u);
  EXPECT_EQ(Kernel.stats().FailuresResolved, 1u);
  EXPECT_FALSE(Kernel.pageIsProtected(0));
}

TEST(OsKernelTest, FailureUnawareProcessGetsPageCopy) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);
  // No handler registered: the kernel copies the affected page.
  Device.injectImminentFailure(70); // Page 1.
  uint8_t Data[PcmLineSize] = {};
  EXPECT_EQ(Device.writeLine(70, Data), WriteResult::Ok);
  EXPECT_EQ(Kernel.stats().PageCopies, 1u);
  EXPECT_EQ(Kernel.stats().UpCalls, 0u);
}

TEST(OsKernelTest, HandlerSeesProtectedPage) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);
  bool WasProtected = false;
  Kernel.registerHandler(
      [&](const std::vector<FailureRecord> &Pending) {
        WasProtected =
            Kernel.pageIsProtected(pageOfAddr(Pending[0].LineAddr));
      });
  Device.injectImminentFailure(3);
  uint8_t Data[PcmLineSize] = {};
  Device.writeLine(3, Data);
  EXPECT_TRUE(WasProtected);
  EXPECT_FALSE(Kernel.pageIsProtected(0));
}

TEST(OsKernelTest, ReentrantFailureStaysBufferedUntilTheHandlerLoops) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.MeanLineLifetime = 1000;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  OsKernel Kernel(Device);

  uint8_t Data[PcmLineSize];
  std::memset(Data, 0x5A, sizeof(Data));
  int Calls = 0;
  Kernel.registerHandler([&](const std::vector<FailureRecord> &Pending) {
    if (++Calls != 1)
      return;
    ASSERT_EQ(Pending.size(), 1u);
    EXPECT_EQ(Pending[0].LineAddr, addrOfLine(5));
    // The up-call's own write wears out another line. The interrupt
    // re-raises inside the handler; the failure must stay buffered (not
    // recurse) and be picked up when the outer handler loops.
    Device.injectImminentFailure(9);
    EXPECT_EQ(Device.writeLine(9, Data), WriteResult::Ok);
    EXPECT_EQ(Kernel.stats().ReentrantInterrupts, 1u);
    EXPECT_EQ(Device.pendingFailures().size(), 2u);
  });

  Device.injectImminentFailure(5);
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Ok);

  // One outer interrupt, two up-calls (the loop drained the re-entrant
  // failure), each failure resolved exactly once.
  EXPECT_EQ(Calls, 2);
  EXPECT_EQ(Kernel.stats().Interrupts, 1u);
  EXPECT_EQ(Kernel.stats().ReentrantInterrupts, 1u);
  EXPECT_EQ(Kernel.stats().UpCalls, 2u);
  EXPECT_EQ(Kernel.stats().FailuresResolved, 2u);
  EXPECT_TRUE(Device.pendingFailures().empty());
  EXPECT_TRUE(Device.softwareFailureMap().isFailed(5));
  EXPECT_TRUE(Device.softwareFailureMap().isFailed(9));
}

TEST(OsKernelTest, WriteWithBackpressureDrainsAStalledBuffer) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.FailureBufferCapacity = 4; // Near-full at 2 with reserve 2.
  Config.MeanLineLifetime = 1000;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);

  // Latch two failures before any kernel exists, so the buffer sits at
  // the stall threshold with nobody having drained it.
  uint8_t Data[PcmLineSize] = {};
  for (LineIndex Line : {0u, 1u}) {
    Device.injectImminentFailure(Line);
    EXPECT_EQ(Device.writeLine(Line, Data), WriteResult::Ok);
  }
  EXPECT_TRUE(Device.failureBuffer().nearFull());

  OsKernel Kernel(Device);
  Kernel.registerHandler([](const std::vector<FailureRecord> &) {});
  // The plain device write would return Stalled; backpressure drains and
  // retries until it lands.
  EXPECT_EQ(Kernel.writeWithBackpressure(addrOfLine(3), Data, PcmLineSize),
            WriteResult::Ok);
  EXPECT_GE(Kernel.stats().StallRetries, 1u);
  EXPECT_EQ(Kernel.stats().StallDrainFailures, 0u);
  EXPECT_TRUE(Device.pendingFailures().empty());
}

TEST(OsKernelTest, BackpressureGivesUpWhenTheDrainPathIsBusy) {
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.FailureBufferCapacity = 4;
  Config.MeanLineLifetime = 1000;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  uint8_t Data[PcmLineSize] = {};
  for (LineIndex Line : {0u, 1u}) {
    Device.injectImminentFailure(Line);
    EXPECT_EQ(Device.writeLine(Line, Data), WriteResult::Ok);
  }

  OsKernel Kernel(Device);
  int Calls = 0;
  WriteResult Inner = WriteResult::Ok;
  Kernel.registerHandler([&](const std::vector<FailureRecord> &) {
    if (Calls++ != 0)
      return;
    // A write issued from inside the failure handler finds the buffer
    // still near-full, and the drain path cannot re-enter: the bounded
    // retry budget must expire cleanly instead of spinning or crashing.
    Inner = Kernel.writeWithBackpressure(addrOfLine(3), Data, PcmLineSize);
  });
  Kernel.handleFailures();

  EXPECT_EQ(Inner, WriteResult::Stalled);
  EXPECT_EQ(Kernel.stats().StallRetries, OsKernel::MaxStallRetries);
  EXPECT_EQ(Kernel.stats().StallDrainFailures, 1u);
  // Once the handler returned, the outer loop drained everything.
  EXPECT_TRUE(Device.pendingFailures().empty());
  EXPECT_EQ(Calls, 1);
}
