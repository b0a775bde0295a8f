//===- os/OsKernel.h - Dynamic-failure interrupt handling --------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The OS side of dynamic-failure handling (Section 3.2.2). When the PCM
/// module raises a failure interrupt, the kernel reads the failure buffer,
/// revokes access to the affected virtual pages (modelled as a protected
/// set), and resolves each failure: for a failure-aware process it
/// up-calls the runtime's registered handler with the addresses and data
/// of all pending failures; for a failure-unaware process it copies the
/// whole affected page to a perfect page. Only after resolution are the
/// buffer entries invalidated, re-enabling the module to accept writes.
///
/// The kernel neither gates nor journals the up-call: the heap parks a
/// batch that arrives mid mark phase itself
/// (Heap::injectDynamicFailureBatch), and crash recovery runs through
/// Runtime::recover.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_OS_OSKERNEL_H
#define WEARMEM_OS_OSKERNEL_H

#include "pcm/PcmDevice.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace wearmem {

/// The runtime's up-call: receives the addresses and data of all pending
/// failures and must relocate the affected objects before returning.
using RuntimeFailureHandler =
    std::function<void(const std::vector<FailureRecord> &)>;

/// Kernel statistics for the dynamic-failure path.
struct OsKernelStats {
  uint64_t Interrupts = 0;
  uint64_t FailuresResolved = 0;
  uint64_t UpCalls = 0;
  /// Whole-page copies performed for failure-unaware handling.
  uint64_t PageCopies = 0;
  uint64_t StallsDrained = 0;
  /// Interrupts raised while the handler was already running (failures
  /// raised by the up-call itself; they stay buffered for the loop).
  uint64_t ReentrantInterrupts = 0;
};

/// Interrupt-handling glue between a PcmDevice and a managed runtime.
class OsKernel {
public:
  explicit OsKernel(PcmDevice &Device);

  /// Registers the failure-aware runtime's handler. A process without a
  /// handler gets the failure-unaware page-copy treatment.
  void registerHandler(RuntimeFailureHandler Handler) {
    Handler_ = std::move(Handler);
  }

  /// Services the failure interrupt: snapshots pending failures, revokes
  /// page permissions, up-calls (or page-copies), then clears the buffer
  /// entries. Called automatically via the device interrupt; may also be
  /// called directly to drain a stall.
  void handleFailures();

  /// True while \p Page is under revoked permissions (failure being
  /// resolved). Exposed for tests.
  bool pageIsProtected(PageIndex Page) const {
    return ProtectedPages.count(Page) != 0;
  }

  const OsKernelStats &stats() const { return Stats; }

private:
  PcmDevice &Device;
  RuntimeFailureHandler Handler_;
  std::set<PageIndex> ProtectedPages;
  OsKernelStats Stats;

  // Handler re-entrancy state. The owner id distinguishes the two ways a
  // second handleFailures can arrive while one runs: the *same* thread
  // re-entering through an up-call's own failed writes stays buffered
  // (counted in ReentrantInterrupts, exactly the old single-thread
  // semantics), while a *different* thread waits on HandlerMu and then
  // services whatever is still pending. A plain bool cannot tell those
  // apart and would drop the cross-thread batch on the floor.
  std::mutex HandlerMu;
  std::atomic<std::thread::id> HandlerOwner{};
};

} // namespace wearmem

#endif // WEARMEM_OS_OSKERNEL_H
