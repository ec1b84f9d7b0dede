//===- Tracer.h - In-memory spans written as a Chrome trace -----*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's recorder. The trace is specified first, as a projection
/// of the execution: one span per call into a layer, carrying its name,
/// layer, start, end, the span that encloses it, and the id of the pair or
/// job it serves. Spans stay in memory and are written out once, as Chrome
/// trace-event JSON, when the run ends. Single-threaded: a Scope nests in
/// the innermost open Scope. Spans measured elsewhere (on sender threads)
/// are added after the fact with add().
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACER_H
#define PERFBENCH_TRACER_H

#include "Common.h"

#include <string>
#include <vector>

namespace perfbench {

class Tracer {
public:
  struct Span {
    const char *Name;
    const char *Layer;
    Clock::time_point Start, End;
    uint64_t Id = 0;
    uint64_t Parent = 0; ///< 0 = top level
    uint64_t Trace = 0;  ///< the pair or job this span serves
  };

  /// A span open for the lifetime of the object; seconds() closes it.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name, const char *Layer, uint64_t Trace);
    ~Scope() { seconds(); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Closes the span (once) and returns its duration.
    double seconds();

  private:
    Tracer &T;
    size_t Index;
    bool Open = true;
  };

  /// Records a finished span (parent: the innermost open Scope, if any).
  void add(const char *Name, const char *Layer, Clock::time_point Start,
           Clock::time_point End, uint64_t Trace);

  size_t size() const { return Spans.size(); }

  /// Writes every span as a complete ("X") event; false on I/O error.
  bool write(const std::string &Path) const;

private:
  Clock::time_point Epoch = Clock::now();
  std::vector<Span> Spans;
  std::vector<uint64_t> Open; ///< ids of the open Scopes, innermost last
};

} // namespace perfbench

#endif // PERFBENCH_TRACER_H
