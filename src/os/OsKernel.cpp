//===- os/OsKernel.cpp - Dynamic-failure interrupt handling ---------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "os/OsKernel.h"

#include "obs/Hooks.h"

using namespace wearmem;

OsKernel::OsKernel(PcmDevice &Device) : Device(Device) {
  Device.setFailureInterrupt([this] { handleFailures(); });
  Device.setStallInterrupt([this] {
    ++Stats.StallsDrained;
    handleFailures();
  });
}

void OsKernel::handleFailures() {
  // The up-call may perform PCM writes that themselves fail and re-raise
  // the interrupt; those failures stay buffered until this invocation
  // loops back around, mirroring the paper's "the hardware and OS handle
  // these failures until the collector is ready to deal with them". Only
  // the owning thread short-circuits: a different thread arriving here
  // has a batch of its own to service and waits for the mutex below.
  if (HandlerOwner.load(std::memory_order_acquire) ==
      std::this_thread::get_id()) {
    ++Stats.ReentrantInterrupts;
    WEARMEM_COUNT_DET("os.interrupts.reentrant");
    WEARMEM_TRACE(ReentrantInterrupt, Device.failureBuffer().size(), 0);
    return;
  }
  std::lock_guard<std::mutex> Lock(HandlerMu);
  HandlerOwner.store(std::this_thread::get_id(), std::memory_order_release);
  // A handler that unwinds (an up-call reaching an armed kill point throws
  // CrashSignal) must not leave the owner id behind for a recovered
  // incarnation that happens to reuse this thread.
  struct OwnerReset {
    std::atomic<std::thread::id> &Owner;
    ~OwnerReset() { Owner.store(std::thread::id(), std::memory_order_release); }
  } Reset{HandlerOwner};
  ++Stats.Interrupts;
  WEARMEM_COUNT_DET("os.interrupts");
  WEARMEM_TRACE(Interrupt, Device.failureBuffer().size(), 0);

  while (true) {
    std::vector<FailureRecord> Pending = Device.pendingFailures();
    if (Pending.empty())
      break;

    // Before removing entries the OS must prevent accesses to the failing
    // addresses: revoke permissions on the owning virtual pages (found by
    // reverse address translation; identity-mapped here).
    for (const FailureRecord &Record : Pending)
      ProtectedPages.insert(pageOfAddr(Record.LineAddr));

    if (Handler_) {
      ++Stats.UpCalls;
      Handler_(Pending);
    } else {
      // Failure-unaware process: the only option is to copy each affected
      // page to a perfect page. The copy itself is modelled as a page's
      // worth of work; the device keeps the data forwardable until the
      // entries are cleared below.
      std::set<PageIndex> Pages;
      for (const FailureRecord &Record : Pending)
        Pages.insert(pageOfAddr(Record.LineAddr));
      Stats.PageCopies += Pages.size();
    }

    // Resolution complete: invalidate the handled entries and restore
    // permissions.
    for (const FailureRecord &Record : Pending) {
      Device.clearBufferEntry(Record.LineAddr);
      ++Stats.FailuresResolved;
    }
    for (const FailureRecord &Record : Pending)
      ProtectedPages.erase(pageOfAddr(Record.LineAddr));
  }
}
