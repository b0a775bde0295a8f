//===- obs/FlightRecorder.cpp - Per-thread event rings --------------------===//

#include "FlightRecorder.h"

#include "support/JsonWriter.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace wearmem {
namespace obs {

const char *eventKindName(EventKind K) {
  switch (K) {
  case EventKind::None:
    return "none";
  case EventKind::WearFailure:
    return "wear_failure";
  case EventKind::WriteStall:
    return "write_stall";
  case EventKind::ClusterRedirect:
    return "cluster_redirect";
  case EventKind::ClusterMapInstalled:
    return "cluster_map_installed";
  case EventKind::ClusterRefused:
    return "cluster_refused";
  case EventKind::BufferPush:
    return "fbuf_push";
  case EventKind::BufferInvalidate:
    return "fbuf_invalidate";
  case EventKind::Interrupt:
    return "interrupt";
  case EventKind::ReentrantInterrupt:
    return "interrupt_reentrant";
  case EventKind::PoolTransition:
    return "pool_transition";
  case EventKind::PageRemap:
    return "page_remap";
  case EventKind::JournalAppend:
    return "journal_append";
  case EventKind::GcBegin:
  case EventKind::GcEnd:
    return "collection";
  case EventKind::PhaseBegin:
  case EventKind::PhaseEnd:
    return "phase";
  case EventKind::Evacuation:
    return "evacuation";
  case EventKind::DynamicFailureBatch:
    return "dynamic_failure_batch";
  case EventKind::CampaignFiring:
    return "campaign_firing";
  case EventKind::SnapshotTaken:
    return "snapshot";
  case EventKind::SafepointBegin:
  case EventKind::SafepointEnd:
    return "safepoint";
  case EventKind::WatchdogFired:
    return "watchdog_fired";
  case EventKind::InterruptRouted:
    return "interrupt_routed";
  case EventKind::DegradationTransition:
    return "degradation_transition";
  }
  return "unknown";
}

namespace {

const char *eventCategory(EventKind K) {
  switch (K) {
  case EventKind::WearFailure:
  case EventKind::WriteStall:
  case EventKind::ClusterRedirect:
  case EventKind::ClusterMapInstalled:
  case EventKind::ClusterRefused:
  case EventKind::BufferPush:
  case EventKind::BufferInvalidate:
    return "pcm";
  case EventKind::Interrupt:
  case EventKind::ReentrantInterrupt:
  case EventKind::PoolTransition:
  case EventKind::PageRemap:
  case EventKind::JournalAppend:
    return "os";
  case EventKind::CampaignFiring:
    return "inject";
  case EventKind::SnapshotTaken:
    return "obs";
  default:
    return "gc";
  }
}

const char *gcPhaseName(uint64_t Phase) {
  switch (Phase) {
  case 0:
    return "mark";
  case 1:
    return "evacuate";
  case 2:
    return "fixup";
  case 3:
    return "sweep";
  }
  return "phase";
}

struct Ring {
  // Each slot is four relaxed words republished by a release store of
  // Head, so a quiesced reader sees whole events; a racing reader can at
  // worst see a torn in-flight slot, never a fault.
  std::unique_ptr<std::atomic<uint64_t>[]> Words;
  std::atomic<uint64_t> Head{0};
  size_t Capacity = 0;
  uint16_t Tid = 0;
};

} // namespace

struct FlightRecorder::Impl {
  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Ring>> Rings;
  std::chrono::steady_clock::time_point Start =
      std::chrono::steady_clock::now();

  Ring &localRing();
  uint64_t nowNs() const {
    return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - Start)
                        .count());
  }
};

namespace {
thread_local Ring *TlsRing = nullptr;
} // namespace

Ring &FlightRecorder::Impl::localRing() {
  if (!TlsRing) {
    std::lock_guard<std::mutex> Lock(Mu);
    auto R = std::make_unique<Ring>();
    R->Capacity = FlightRecorder::DefaultCapacity;
    R->Words = std::make_unique<std::atomic<uint64_t>[]>(R->Capacity * 4);
    for (size_t I = 0; I < R->Capacity * 4; ++I)
      R->Words[I].store(0, std::memory_order_relaxed);
    R->Tid = uint16_t(Rings.size());
    Rings.push_back(std::move(R));
    TlsRing = Rings.back().get();
  }
  return *TlsRing;
}

FlightRecorder &FlightRecorder::instance() {
  static FlightRecorder FR;
  return FR;
}

FlightRecorder::Impl &FlightRecorder::impl() const {
  static Impl I;
  return I;
}

void FlightRecorder::record(EventKind K, uint64_t A, uint64_t B) {
  Impl &I = instance().impl();
  Ring &R = I.localRing();
  uint64_t H = R.Head.load(std::memory_order_relaxed);
  std::atomic<uint64_t> *Slot = &R.Words[(H % R.Capacity) * 4];
  Slot[0].store(I.nowNs(), std::memory_order_relaxed);
  Slot[1].store(A, std::memory_order_relaxed);
  Slot[2].store(B, std::memory_order_relaxed);
  Slot[3].store(uint64_t(uint16_t(K)) | (uint64_t(R.Tid) << 16),
                std::memory_order_relaxed);
  R.Head.store(H + 1, std::memory_order_release);
}

std::vector<TraceEvent> FlightRecorder::collect() const {
  Impl &I = impl();
  std::vector<TraceEvent> Events;
  {
    std::lock_guard<std::mutex> Lock(I.Mu);
    for (const auto &R : I.Rings) {
      uint64_t H = R->Head.load(std::memory_order_acquire);
      uint64_t First = H > R->Capacity ? H - R->Capacity : 0;
      for (uint64_t Idx = First; Idx < H; ++Idx) {
        const std::atomic<uint64_t> *Slot = &R->Words[(Idx % R->Capacity) * 4];
        TraceEvent E;
        E.TsNs = Slot[0].load(std::memory_order_relaxed);
        E.A = Slot[1].load(std::memory_order_relaxed);
        E.B = Slot[2].load(std::memory_order_relaxed);
        uint64_t Meta = Slot[3].load(std::memory_order_relaxed);
        E.Kind = uint16_t(Meta & 0xFFFF);
        E.Tid = uint16_t(Meta >> 16);
        Events.push_back(E);
      }
    }
  }
  std::stable_sort(Events.begin(), Events.end(),
                   [](const TraceEvent &L, const TraceEvent &R) {
                     return L.TsNs < R.TsNs;
                   });
  return Events;
}

void FlightRecorder::reset() {
  Impl &I = impl();
  std::lock_guard<std::mutex> Lock(I.Mu);
  for (const auto &R : I.Rings)
    R->Head.store(0, std::memory_order_release);
  I.Start = std::chrono::steady_clock::now();
}

void FlightRecorder::exportChromeTrace(FILE *Out) const {
  std::vector<TraceEvent> Events = collect();
  uint64_t Base = Events.empty() ? 0 : Events.front().TsNs;

  JsonWriter W(Out);
  W.openRoot();
  W.key("displayTimeUnit");
  W.value("ms");
  W.key("traceEvents");
  W.openArray(JsonWriter::Style::Line);
  for (const TraceEvent &E : Events) {
    EventKind K = EventKind(E.Kind);
    W.openObject(JsonWriter::Style::Inline);
    W.key("name");
    if (K == EventKind::PhaseBegin || K == EventKind::PhaseEnd)
      W.value(gcPhaseName(E.A));
    else
      W.value(eventKindName(K));
    W.key("cat");
    W.value(eventCategory(K));
    W.key("ph");
    if (K == EventKind::GcBegin || K == EventKind::PhaseBegin)
      W.value("B");
    else if (K == EventKind::GcEnd || K == EventKind::PhaseEnd)
      W.value("E");
    else
      W.value("i");
    W.key("ts");
    W.valueF(double(E.TsNs - Base) / 1000.0, 3);
    W.key("pid");
    W.value(0);
    W.key("tid");
    W.value(unsigned(E.Tid));
    if (K == EventKind::GcBegin || K == EventKind::PhaseBegin ||
        K == EventKind::GcEnd || K == EventKind::PhaseEnd) {
      // Duration events; payload repeated on B so E can stay bare.
      if (K == EventKind::GcBegin || K == EventKind::PhaseBegin) {
        W.key("args");
        W.openObject(JsonWriter::Style::Inline);
        W.key("a");
        W.value(E.A);
        W.key("b");
        W.value(E.B);
        W.close();
      }
    } else {
      W.key("s");
      W.value("t");
      W.key("args");
      W.openObject(JsonWriter::Style::Inline);
      W.key("a");
      W.value(E.A);
      W.key("b");
      W.value(E.B);
      W.close();
    }
    W.close();
  }
  W.close();
  W.closeRoot();
}

bool FlightRecorder::exportChromeTrace(const std::string &Path) const {
  FILE *Out = fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  exportChromeTrace(Out);
  fclose(Out);
  return true;
}

} // namespace obs
} // namespace wearmem
