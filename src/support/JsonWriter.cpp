//===- support/JsonWriter.cpp - Deterministic JSON emission ---------------===//

#include "JsonWriter.h"

#include <cassert>
#include <cstdarg>
#include <cstring>

namespace wearmem {

void JsonWriter::emit(const char *Text, size_t Len) {
  if (Out)
    fwrite(Text, 1, Len, Out);
  else
    Buf.append(Text, Len);
}

void JsonWriter::emit(const char *Text) { emit(Text, std::strlen(Text)); }

void JsonWriter::printf(const char *Fmt, ...) {
  char Tmp[160];
  va_list Ap;
  va_start(Ap, Fmt);
  int N = vsnprintf(Tmp, sizeof(Tmp), Fmt, Ap);
  va_end(Ap);
  assert(N >= 0 && static_cast<size_t>(N) < sizeof(Tmp) &&
         "JsonWriter scalar overflowed its format buffer");
  emit(Tmp, static_cast<size_t>(N));
}

void JsonWriter::push(Style S, char Open, char Close) {
  char OpenStr[2] = {Open, '\0'};
  emit(OpenStr, 1);
  Frame F;
  F.S = S;
  F.Close = Close;
  F.LineDepth = Stack.empty()
                    ? 1u
                    : Stack.back().LineDepth + (S == Style::Line ? 1u : 0u);
  Stack.push_back(F);
}

void JsonWriter::sep() {
  if (PendingValue) {
    // Value immediately after its key: no separator of its own.
    PendingValue = false;
    return;
  }
  assert(!Stack.empty() && "entry outside any container");
  Frame &F = Stack.back();
  if (BreakSpaces >= 0) {
    if (F.Count)
      emit(",", 1);
    emit("\n", 1);
    for (int I = 0; I < BreakSpaces; ++I)
      emit(" ", 1);
    BreakSpaces = -1;
  } else if (F.S == Style::Line) {
    emit(F.Count ? ",\n" : "\n");
    for (unsigned I = 0; I < 2 * F.LineDepth; ++I)
      emit(" ", 1);
  } else if (F.Count) {
    emit(", ", 2);
  }
  ++F.Count;
}

void JsonWriter::beginValue() { sep(); }

void JsonWriter::openRoot() {
  assert(Stack.empty() && "root must be the outermost container");
  push(Style::Line, '{', '}');
}

void JsonWriter::closeRoot() {
  close();
  assert(Stack.empty() && "unclosed containers at closeRoot");
  emit("\n", 1);
}

void JsonWriter::key(const char *Key) {
  sep();
  emit("\"", 1);
  emit(Key);
  emit("\": ", 3);
  PendingValue = true;
}

void JsonWriter::openObject(Style S) {
  beginValue();
  push(S, '{', '}');
}

void JsonWriter::openArray(Style S) {
  beginValue();
  push(S, '[', ']');
}

void JsonWriter::close() {
  assert(!Stack.empty() && "close without open");
  Frame F = Stack.back();
  Stack.pop_back();
  if (F.S == Style::Line) {
    emit("\n", 1);
    unsigned Outer = F.LineDepth - 1;
    for (unsigned I = 0; I < 2 * Outer; ++I)
      emit(" ", 1);
  }
  char CloseStr[2] = {F.Close, '\0'};
  emit(CloseStr, 1);
}

void JsonWriter::value(unsigned long long V) {
  beginValue();
  printf("%llu", V);
}

void JsonWriter::value(long long V) {
  beginValue();
  printf("%lld", V);
}

void JsonWriter::value(const char *S) {
  beginValue();
  emit("\"", 1);
  for (const char *P = S; *P; ++P) {
    switch (*P) {
    case '"':
      emit("\\\"", 2);
      break;
    case '\\':
      emit("\\\\", 2);
      break;
    case '\n':
      emit("\\n", 2);
      break;
    case '\t':
      emit("\\t", 2);
      break;
    default:
      if (static_cast<unsigned char>(*P) < 0x20)
        printf("\\u%04x", static_cast<unsigned>(*P));
      else
        emit(P, 1);
    }
  }
  emit("\"", 1);
}

void JsonWriter::value(bool B) {
  beginValue();
  emit(B ? "true" : "false");
}

void JsonWriter::valueF(double V, int Precision) {
  beginValue();
  printf("%.*f", Precision, V);
}

void JsonWriter::valueHex(uint64_t V) {
  beginValue();
  printf("\"0x%016llx\"", static_cast<unsigned long long>(V));
}

void JsonWriter::lineBreak(unsigned Spaces) {
  BreakSpaces = static_cast<int>(Spaces);
}

} // namespace wearmem
