//===- Warm.h - Warm-replay set-up shared with the traced run ---*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WARM_H
#define PERFBENCH_WARM_H

#include "Suite.h"

#include "driver/ValidationEngine.h"

namespace perfbench {

/// Verdicts for other modules written into the warm store next to the
/// suite's own (~470), so each job's store load reads far more than it
/// uses, as a long-lived CI store does.
constexpr unsigned WarmFillerEntries = 4000;

struct WarmState {
  Suite S;
  std::string Store;
  /// Per module: the proving run's report, provenance flags stripped.
  std::vector<std::string> Reference;
};

/// Generates the suite, writes the filler, and proves every verdict of the
/// suite into the store.
std::unique_ptr<WarmState> buildWarmState(const Options &O);

/// One warm job's engine: single-threaded, loads the store, never saves.
llvmmd::EngineConfig warmJobConfig(const std::string &Store);

/// A report's function entries with provenance stripped, one per line.
std::string reportDigest(const llvmmd::ValidationReport &Rep);

} // namespace perfbench

#endif // PERFBENCH_WARM_H
