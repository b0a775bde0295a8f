//===- support/JsonWriter.h - Deterministic JSON emission -------*- C++ -*-===//
//
// Part of the wearmem project, a reproduction of "Using Managed Runtime
// Systems to Tolerate Holes in Wearable Memories" (PLDI 2013).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One JSON emitter for every tool, benchmark, and observability exporter.
/// The repo's JSON contract is stronger than well-formedness: committed
/// baselines (BENCH_alloc_path.json, BENCH_parallel_gc.json) and the CI
/// determinism gates compare outputs with cmp, so emission must be
/// byte-for-byte reproducible - fixed field order, fixed float precision,
/// no locale dependence. This writer produces exactly the layout the
/// previously hand-rolled fprintf emitters produced:
///
///  * Line containers put every entry on its own line, indented two
///    spaces per nesting level, with "," separators at line ends;
///  * Inline containers keep all entries on one line with ", "
///    separators (the compact per-row objects inside report arrays);
///  * lineBreak(N) forces the next separator inside an Inline container
///    to be ",\n" plus N spaces (the wrapped rows some reports use).
///
/// Separators are written *before* each entry, so callers never need to
/// know whether an entry is the last of its container.
///
//===----------------------------------------------------------------------===//

#ifndef WEARMEM_SUPPORT_JSONWRITER_H
#define WEARMEM_SUPPORT_JSONWRITER_H

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wearmem {

class JsonWriter {
public:
  /// Layout of a container's entries (see file comment).
  enum class Style { Line, Inline };

  /// Writes through to \p Out (not owned, not closed).
  explicit JsonWriter(FILE *Out) : Out(Out) {}
  /// Accumulates into an internal string (read with str()).
  JsonWriter() = default;

  const std::string &str() const { return Buf; }

  /// Opens the top-level object. Every document starts here.
  void openRoot();
  /// Closes the top-level object and emits the trailing newline.
  void closeRoot();

  /// Starts an entry: separator for the current container, then
  /// "key": with the value to follow (a value call or an open).
  void key(const char *Key);

  /// Opens an object / array in value position (after key()) or as an
  /// array element (separator applied).
  void openObject(Style S);
  void openArray(Style S);
  /// Closes the innermost container.
  void close();

  /// \name Values
  /// In value position after key(), or as array elements.
  /// @{
  void value(unsigned long long V);
  void value(long long V);
  void value(unsigned long V) { value(static_cast<unsigned long long>(V)); }
  void value(long V) { value(static_cast<long long>(V)); }
  void value(unsigned V) { value(static_cast<unsigned long long>(V)); }
  void value(int V) { value(static_cast<long long>(V)); }
  void value(const char *S);
  void value(const std::string &S) { value(S.c_str()); }
  void value(bool B);
  /// Fixed-precision double: printf "%.*f".
  void valueF(double V, int Precision);
  /// Quoted "0x%016llx" (the digest format).
  void valueHex(uint64_t V);
  /// @}

  /// Forces the next separator in the current Inline container to be
  /// ",\n" followed by \p Spaces spaces (one-shot).
  void lineBreak(unsigned Spaces);

private:
  struct Frame {
    Style S;
    char Close;
    unsigned Count = 0;
    unsigned LineDepth = 0; ///< Enclosing Line containers, this included.
  };

  void emit(const char *Text, size_t Len);
  void emit(const char *Text);
  void printf(const char *Fmt, ...) __attribute__((format(printf, 2, 3)));
  /// Separator + indent before an entry; cleared by PendingValue for the
  /// value immediately following a key().
  void sep();
  void beginValue();
  void push(Style S, char Open, char Close);

  FILE *Out = nullptr;
  std::string Buf;
  std::vector<Frame> Stack;
  bool PendingValue = false;
  int BreakSpaces = -1;
};

} // namespace wearmem

#endif // WEARMEM_SUPPORT_JSONWRITER_H
