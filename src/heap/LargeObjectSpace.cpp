//===- heap/LargeObjectSpace.cpp - Page-grained large objects -------------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "heap/LargeObjectSpace.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace wearmem;

uint8_t *LargeObjectSpace::alloc(size_t Size) {
  assert(Size >= LargeObjectThreshold &&
         "undersized object for the LOS");
  size_t Pages = divCeil(Size, PcmPageSize);
  if (!Gate(Pages))
    return nullptr;
  if (Os.outstandingDebt() >= Config.maxDebtPages())
    return nullptr;
  std::optional<PageGrant> Grant = Os.allocPerfect(Pages);
  if (!Grant)
    return nullptr;
  ++Stats.LargeObjectAllocs;
  uint8_t *Mem = Grant->Mem;
  std::memset(Mem, 0, Pages * PcmPageSize);
  PagesHeld += Pages;
  Nodes.emplace(reinterpret_cast<uintptr_t>(Mem),
                LosNode{std::move(*Grant), NextSeq++});
  return Mem;
}

void LargeObjectSpace::sweep(uint8_t Epoch, const GcParallelFor &Par) {
  if (Nodes.empty())
    return;
  // Canonical allocation order: the free order (and thus the OS pool
  // state afterwards) must not depend on hash-map iteration order, on
  // which GC worker classified which node, or on where the host placed
  // the grants - address order would replay differently in another heap
  // instance even for an identical allocation history.
  std::vector<std::pair<uint64_t, uintptr_t>> BySeq;
  BySeq.reserve(Nodes.size());
  for (const auto &KV : Nodes)
    BySeq.emplace_back(KV.second.Seq, KV.first);
  std::sort(BySeq.begin(), BySeq.end());
  std::vector<uintptr_t> Addrs;
  Addrs.reserve(BySeq.size());
  for (const auto &[Seq, Addr] : BySeq)
    Addrs.push_back(Addr);
  std::vector<uint8_t> Dead(Addrs.size(), 0);
  auto Classify = [&](size_t I) {
    Dead[I] = objectMark(reinterpret_cast<ObjRef>(Addrs[I])) != Epoch;
  };
  // The liveness probe only reads headers, so it shards across workers;
  // the frees mutate the OS pool and stay serial, in allocation order.
  if (Par && Addrs.size() >= 64)
    Par(Addrs.size(), Classify);
  else
    for (size_t I = 0, E = Addrs.size(); I != E; ++I)
      Classify(I);
  for (size_t I = 0, E = Addrs.size(); I != E; ++I) {
    if (!Dead[I])
      continue;
    auto It = Nodes.find(Addrs[I]);
    PagesHeld -= It->second.Grant.NumPages;
    Os.freePerfect(std::move(It->second.Grant));
    Nodes.erase(It);
  }
}
