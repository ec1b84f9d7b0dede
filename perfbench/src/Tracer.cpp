//===- Tracer.cpp - In-memory spans written as a Chrome trace -------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "Tracer.h"

#include <cstdio>
#include <unistd.h>

namespace perfbench {

Tracer::Scope::Scope(Tracer &T, const char *Name, const char *Layer,
                     uint64_t Trace)
    : T(T), Index(T.Spans.size()) {
  uint64_t Parent = T.Open.empty() ? 0 : T.Open.back();
  Clock::time_point Now = Clock::now();
  T.Spans.push_back({Name, Layer, Now, Now, Index + 1, Parent, Trace});
  T.Open.push_back(Index + 1);
}

double Tracer::Scope::seconds() {
  Span &S = T.Spans[Index];
  if (Open) {
    S.End = Clock::now();
    T.Open.pop_back();
    Open = false;
  }
  return std::chrono::duration<double>(S.End - S.Start).count();
}

void Tracer::add(const char *Name, const char *Layer, Clock::time_point Start,
                 Clock::time_point End, uint64_t Trace) {
  uint64_t Parent = Open.empty() ? 0 : Open.back();
  Spans.push_back({Name, Layer, Start, End, Spans.size() + 1, Parent, Trace});
}

bool Tracer::write(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  auto Us = [&](Clock::time_point T) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::microseconds>(T - Epoch)
            .count());
  };
  int Pid = static_cast<int>(getpid());
  std::fprintf(F, "{\"traceEvents\": [");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    long long Ts = Us(S.Start);
    long long Dur = Us(S.End) - Ts;
    std::fprintf(F,
                 "%s\n{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %lld, \"dur\": %lld, \"pid\": %d, \"tid\": 1, "
                 "\"args\": {\"span\": %llu, \"parent\": %llu, "
                 "\"trace_id\": %llu}}",
                 I ? "," : "", S.Name, S.Layer, Ts, Dur < 0 ? 0 : Dur, Pid,
                 static_cast<unsigned long long>(S.Id),
                 static_cast<unsigned long long>(S.Parent),
                 static_cast<unsigned long long>(S.Trace));
  }
  std::fprintf(F, "\n], \"displayTimeUnit\": \"ms\"}\n");
  return std::fclose(F) == 0;
}

} // namespace perfbench
