//===- tests/FailureBufferTest.cpp - Failure buffer unit tests ------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "pcm/FailureBuffer.h"
#include "pcm/PcmDevice.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace wearmem;

static FailureRecord makeRecord(PcmAddr LineAddr, uint8_t Fill) {
  FailureRecord Record;
  Record.LineAddr = LineAddr;
  Record.Data.fill(Fill);
  return Record;
}

TEST(FailureBufferTest, PushLookup) {
  FailureBuffer Buffer(8);
  EXPECT_TRUE(Buffer.empty());
  EXPECT_TRUE(Buffer.push(makeRecord(0, 0x11)));
  EXPECT_TRUE(Buffer.push(makeRecord(64, 0x22)));
  ASSERT_NE(Buffer.lookup(0), nullptr);
  EXPECT_EQ(Buffer.lookup(0)[0], 0x11);
  EXPECT_EQ(Buffer.lookup(64)[0], 0x22);
  EXPECT_EQ(Buffer.lookup(128), nullptr);
}

TEST(FailureBufferTest, SameAddressInvalidatesEarlier) {
  FailureBuffer Buffer(4);
  EXPECT_TRUE(Buffer.push(makeRecord(64, 0xAA)));
  EXPECT_TRUE(Buffer.push(makeRecord(64, 0xBB)));
  EXPECT_EQ(Buffer.size(), 1u);
  EXPECT_EQ(Buffer.lookup(64)[0], 0xBB);
}

TEST(FailureBufferTest, FifoOrder) {
  FailureBuffer Buffer(8);
  Buffer.push(makeRecord(0, 1));
  Buffer.push(makeRecord(64, 2));
  Buffer.push(makeRecord(128, 3));
  std::vector<FailureRecord> Pending = Buffer.pending();
  ASSERT_EQ(Pending.size(), 3u);
  EXPECT_EQ(Pending[0].LineAddr, 0u);
  EXPECT_EQ(Pending[1].LineAddr, 64u);
  EXPECT_EQ(Pending[2].LineAddr, 128u);
}

TEST(FailureBufferTest, Invalidate) {
  FailureBuffer Buffer(8);
  Buffer.push(makeRecord(64, 7));
  EXPECT_TRUE(Buffer.invalidate(64));
  EXPECT_FALSE(Buffer.invalidate(64));
  EXPECT_EQ(Buffer.lookup(64), nullptr);
  EXPECT_TRUE(Buffer.empty());
}

TEST(FailureBufferTest, NearFullWithDrainReserve) {
  FailureBuffer Buffer(4, /*DrainReserve=*/2);
  EXPECT_FALSE(Buffer.nearFull());
  Buffer.push(makeRecord(0, 0));
  EXPECT_FALSE(Buffer.nearFull());
  Buffer.push(makeRecord(64, 0));
  // 2 entries + 2 reserved = capacity: the stall threshold.
  EXPECT_TRUE(Buffer.nearFull());
  // The reserve still accepts the in-flight failures.
  EXPECT_TRUE(Buffer.push(makeRecord(128, 0)));
  EXPECT_TRUE(Buffer.push(makeRecord(192, 0)));
  // Completely full: data would be lost.
  EXPECT_FALSE(Buffer.push(makeRecord(256, 0)));
  EXPECT_EQ(Buffer.highWater(), 4u);
}

TEST(FailureBufferTest, HighWaterTracksPeak) {
  FailureBuffer Buffer(8);
  Buffer.push(makeRecord(0, 0));
  Buffer.push(makeRecord(64, 0));
  Buffer.invalidate(0);
  Buffer.invalidate(64);
  EXPECT_EQ(Buffer.size(), 0u);
  EXPECT_EQ(Buffer.highWater(), 2u);
}

TEST(FailureBufferTest, SaturatedBufferRefusesWithoutDroppingLatched) {
  // Fill every slot including the drain reserve, then verify the refusal
  // path loses nothing: all latched records stay pending, in FIFO order,
  // with their data intact.
  FailureBuffer Buffer(4, /*DrainReserve=*/2);
  for (unsigned I = 0; I != 4; ++I)
    ASSERT_TRUE(Buffer.push(makeRecord(I * 64, static_cast<uint8_t>(I))));
  EXPECT_FALSE(Buffer.push(makeRecord(512, 0xFF)));
  EXPECT_EQ(Buffer.size(), 4u);
  std::vector<FailureRecord> Pending = Buffer.pending();
  ASSERT_EQ(Pending.size(), 4u);
  for (unsigned I = 0; I != 4; ++I) {
    EXPECT_EQ(Pending[I].LineAddr, I * 64u);
    EXPECT_EQ(Pending[I].Data[0], I);
  }
  EXPECT_EQ(Buffer.lookup(512), nullptr);
}

//===----------------------------------------------------------------------===//
// Device-level saturation: the stall protocol end to end
//===----------------------------------------------------------------------===//

TEST(FailureBufferTest, DeviceStallProtocolUnderSaturation) {
  // A small buffer with no OS attached: failures accumulate until the
  // near-full threshold, after which the module must stall writes (and
  // raise the stall interrupt) rather than silently drop a record.
  PcmDeviceConfig Config;
  Config.NumPages = 4;
  Config.FailureBufferCapacity = 4; // Near-full at 2 with reserve 2.
  Config.MeanLineLifetime = 1000;
  Config.LifetimeVariation = 0.0;
  PcmDevice Device(Config);
  unsigned Stalls = 0;
  Device.setStallInterrupt([&Stalls] { ++Stalls; });

  uint8_t Data[PcmLineSize];
  std::memset(Data, 0xAB, sizeof(Data));
  for (LineIndex Line : {0u, 1u}) {
    Device.injectImminentFailure(Line);
    EXPECT_EQ(Device.writeLine(Line, Data), WriteResult::Ok);
  }
  EXPECT_TRUE(Device.failureBuffer().nearFull());

  // Saturated: writes stall, the interrupt fires, nothing is lost.
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Stalled);
  EXPECT_EQ(Stalls, 1u);
  EXPECT_EQ(Device.stats().StallEvents, 1u);
  EXPECT_EQ(Device.pendingFailures().size(), 2u);

  // Draining one entry re-enables writes; the surviving record still
  // forwards its latched data.
  EXPECT_TRUE(Device.clearBufferEntry(addrOfLine(0)));
  EXPECT_EQ(Device.writeLine(5, Data), WriteResult::Ok);
  uint8_t Out[PcmLineSize];
  Device.readLine(1, Out);
  EXPECT_EQ(Out[0], 0xAB);
  EXPECT_EQ(Device.stats().BufferForwardedReads, 1u);
}
