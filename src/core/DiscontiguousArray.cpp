//===- core/DiscontiguousArray.cpp - Arraylet-based large arrays ----------===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//

#include "core/DiscontiguousArray.h"

#include <algorithm>
#include <cassert>
#include <cstring>

using namespace wearmem;

namespace {

/// Spine payload layout.
struct SpineInfo {
  uint64_t TotalBytes;
  uint64_t ArrayletBytes;
};

SpineInfo &spineInfo(ObjRef Spine) {
  return *reinterpret_cast<SpineInfo *>(objectPayload(Spine));
}

} // namespace

size_t wearmem::maxDiscontiguousArrayBytes(const Runtime &Rt,
                                           size_t ArrayletBytes) {
  // The spine must stay below the LOS threshold: header + 16-byte info
  // payload + one 8-byte slot per arraylet.
  size_t MaxSlots =
      (LargeObjectThreshold - ObjectHeaderBytes - sizeof(SpineInfo) - 1) /
      RefSlotBytes;
  return MaxSlots * ArrayletBytes;
}

ObjRef wearmem::allocateDiscontiguousArray(Runtime &Rt, size_t TotalBytes,
                                           size_t ArrayletBytes) {
  assert(TotalBytes > 0 && "empty array");
  assert(ArrayletBytes >= 64 && ArrayletBytes % ObjectAlignment == 0 &&
         "arraylet size must be a reasonable aligned value");
  size_t NumArraylets = divCeil(TotalBytes, ArrayletBytes);
  assert(TotalBytes <= maxDiscontiguousArrayBytes(Rt, ArrayletBytes) &&
         "array too large for one spine; raise ArrayletBytes");

  ObjRef SpineObj = Rt.allocate(
      sizeof(SpineInfo), static_cast<uint16_t>(NumArraylets));
  if (!SpineObj)
    return nullptr;
  spineInfo(SpineObj) = {TotalBytes, ArrayletBytes};

  // Root the spine while the arraylets are allocated (each allocation
  // may run a moving collection).
  Handle SpineRoot(Rt, SpineObj);
  for (size_t I = 0; I != NumArraylets; ++I) {
    ObjRef Arraylet =
        Rt.allocate(static_cast<uint32_t>(ArrayletBytes), 0);
    if (!Arraylet)
      return nullptr;
    Rt.writeRef(SpineRoot.get(), static_cast<unsigned>(I), Arraylet);
  }
  return SpineRoot.get();
}

bool wearmem::isDiscontiguousArray(ObjRef Spine) {
  if (objectNumRefs(Spine) == 0 ||
      objectPayloadSize(Spine) != sizeof(SpineInfo))
    return false;
  const SpineInfo &Info = spineInfo(Spine);
  if (Info.ArrayletBytes == 0)
    return false;
  return divCeil(Info.TotalBytes, Info.ArrayletBytes) ==
         objectNumRefs(Spine);
}

size_t wearmem::discontiguousArrayBytes(ObjRef Spine) {
  assert(isDiscontiguousArray(Spine) && "not a discontiguous array");
  return spineInfo(Spine).TotalBytes;
}

size_t wearmem::discontiguousArrayletBytes(ObjRef Spine) {
  assert(isDiscontiguousArray(Spine) && "not a discontiguous array");
  return spineInfo(Spine).ArrayletBytes;
}

uint8_t wearmem::readDiscontiguousByte(ObjRef Spine, size_t Offset) {
  assert(Offset < discontiguousArrayBytes(Spine) && "index out of range");
  size_t Chunk = spineInfo(Spine).ArrayletBytes;
  ObjRef Arraylet = Runtime::readRef(
      Spine, static_cast<unsigned>(Offset / Chunk));
  return objectPayload(Arraylet)[Offset % Chunk];
}

void wearmem::writeDiscontiguousByte(ObjRef Spine, size_t Offset,
                                     uint8_t Value) {
  assert(Offset < discontiguousArrayBytes(Spine) && "index out of range");
  size_t Chunk = spineInfo(Spine).ArrayletBytes;
  ObjRef Arraylet = Runtime::readRef(
      Spine, static_cast<unsigned>(Offset / Chunk));
  objectPayload(Arraylet)[Offset % Chunk] = Value;
}

void wearmem::copyToDiscontiguous(ObjRef Spine, size_t Offset,
                                  const uint8_t *Src, size_t Size) {
  assert(Offset + Size <= discontiguousArrayBytes(Spine) &&
         "range out of bounds");
  size_t Chunk = spineInfo(Spine).ArrayletBytes;
  size_t Done = 0;
  while (Done != Size) {
    size_t At = Offset + Done;
    ObjRef Arraylet =
        Runtime::readRef(Spine, static_cast<unsigned>(At / Chunk));
    size_t Within = At % Chunk;
    size_t Piece = std::min(Size - Done, Chunk - Within);
    std::memcpy(objectPayload(Arraylet) + Within, Src + Done, Piece);
    Done += Piece;
  }
}

void wearmem::copyFromDiscontiguous(ObjRef Spine, size_t Offset,
                                    uint8_t *Dst, size_t Size) {
  assert(Offset + Size <= discontiguousArrayBytes(Spine) &&
         "range out of bounds");
  size_t Chunk = spineInfo(Spine).ArrayletBytes;
  size_t Done = 0;
  while (Done != Size) {
    size_t At = Offset + Done;
    ObjRef Arraylet =
        Runtime::readRef(Spine, static_cast<unsigned>(At / Chunk));
    size_t Within = At % Chunk;
    size_t Piece = std::min(Size - Done, Chunk - Within);
    std::memcpy(Dst + Done, objectPayload(Arraylet) + Within, Piece);
    Done += Piece;
  }
}
