//===- Fleet.h - Job texts and client helpers for served jobs ---*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_FLEET_H
#define PERFBENCH_FLEET_H

#include "Common.h"

#include "server/Protocol.h"
#include "server/ServerClient.h"

#include <string>
#include <vector>

namespace llvmmd {
class FleetRouter;
}

namespace perfbench {

/// One small module as inline mini-IR text.
struct JobText {
  std::string Name;
  std::string Text;
  unsigned Functions = 0;
};

/// Functions per served job.
constexpr unsigned JobFunctions = 2;

/// \p Count job texts: job J is profile J mod 12 of the suite, drawn with
/// its own seed and JobFunctions functions, printed as mini-IR. The pool
/// does not depend on the run seed, so every run sends the same work.
std::vector<JobText> buildJobPool(uint64_t SuiteSeed, unsigned Count);

llvmmd::SubmitPayload submission(const JobText &J);

/// Pins worker I of \p Router to CPU nproc-1-I. A worker's connection,
/// executor and engine threads then pass each job along on one CPU instead
/// of waking one another across CPUs, which made job_ms_p99 swing by a
/// third from run to run. The router and the load generator float on the
/// remaining CPUs. Skipped on hosts with fewer than 3 CPUs.
void pinWorkers(llvmmd::FleetRouter &Router);

/// Connects to the unix socket \p Path and handshakes under the default
/// rule configuration, with a receive timeout so a stuck peer fails the
/// run instead of hanging it.
bool attach(llvmmd::ServerClient &C, const std::string &Path,
            std::string *Error);

struct JobOutcome {
  bool Ok = false;
  std::string Error;
  /// Streamed function entries, provenance stripped, one per line.
  std::string Digest;
  unsigned Transformed = 0;
  unsigned Validated = 0;
  Clock::time_point Accepted;
  Clock::time_point Done;
};

/// Submits \p Req on \p C and drains its events through JobDone.
JobOutcome runJob(llvmmd::ServerClient &C, const llvmmd::SubmitPayload &Req);

/// The in-process engine's report digest for each of \p Jobs, loaded from
/// the same text the server parses.
std::vector<std::string> referenceDigests(const std::vector<JobText> &Jobs);

} // namespace perfbench

#endif // PERFBENCH_FLEET_H
