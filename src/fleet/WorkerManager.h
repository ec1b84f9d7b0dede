//===- WorkerManager.h - Worker process lifecycle ---------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spawns and supervises the fleet's worker processes: N `validate_server`
/// daemons, each listening on a private unix socket and persisting to its
/// own verdict-store shard (`<base>.shard<i>`).
///
/// Supervision is a single monitor thread doing two things:
///
///  * **Reap + restart** — waitpid(WNOHANG) every tick; an exited worker
///    (crash, OOM kill, `kill -9`) is respawned on the same socket path
///    with a bumped generation counter. The router's dispatchers key their
///    cached connections on the generation, so a restart is observed as
///    "reconnect and requeue what was in flight", never as silent frame
///    loss.
///  * **Ping deadline** — every PingIntervalMs the monitor opens a short
///    connection to each worker (handshake + Ping with a receive timeout).
///    A worker that is alive as a process but not answering the protocol
///    (wedged accept loop, deadlocked executor) is SIGKILLed; the reap
///    path then restarts it. Losing a worker costs exactly the jobs in
///    flight on it — the fleet never follows it down.
///
/// Store lifecycle: start() unions any leftover shards into the base store
/// and seeds every shard from the merged base, so each worker loads the
/// full fleet history; stop() shuts workers down gracefully (they
/// checkpoint their shards) and merges the shards back into the base. A
/// fleet restarted on the same base store replays 100% warm.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FLEET_WORKERMANAGER_H
#define LLVMMD_FLEET_WORKERMANAGER_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#ifndef _WIN32
#include <sys/types.h>
#endif

namespace llvmmd {

class WorkerManager {
public:
  struct Config {
    /// The worker executable (a stock validate_server binary).
    std::string Binary = "./validate_server";
    /// Worker i listens on `SocketPrefix + ".w" + i`.
    std::string SocketPrefix = "llvmmd-fleet";
    /// Base verdict store; "" disables persistence. Worker i persists to
    /// VerdictStore::shardPath(StoreBase, i).
    std::string StoreBase;
    unsigned Workers = 2;
    /// Engine threads per worker (0 = the worker's hardware default).
    unsigned WorkerThreads = 1;
    std::string Pipeline;
    /// Rule mask passed to every worker via --rule-mask; ~0u = leave the
    /// worker on its default (paper) mask. The fixpoint budget is not
    /// CLI-reachable, so only its default value can be fleet-served — the
    /// start()-time handshake catches any mismatch.
    unsigned RuleMask = ~0u;
    bool Triage = false;
    unsigned CheckpointEveryJobs = 1;
    unsigned QueueBound = 64;
    /// The digest every handshake (ping + start verification) is gated on.
    uint64_t ConfigDigest = 0;
    unsigned PingIntervalMs = 500;
    unsigned PingTimeoutMs = 2000;
    bool HealthPing = true;
    /// Grace period for a worker to drain and exit after Shutdown before
    /// stop() escalates to SIGKILL.
    unsigned ShutdownGraceMs = 10000;
  };

  explicit WorkerManager(Config C);
  ~WorkerManager();

  WorkerManager(const WorkerManager &) = delete;
  WorkerManager &operator=(const WorkerManager &) = delete;

  /// Seeds the shards, spawns every worker, and verifies each one answers
  /// the handshake + WorkerHello with its own pid. False (with \p Error)
  /// when any worker cannot be brought up.
  bool start(std::string *Error = nullptr);

  /// Graceful stop: Shutdown frame to every worker (they checkpoint their
  /// shards on the way out), SIGKILL after the grace period, reap all,
  /// merge the shards into the base store.
  void stop();

  std::string socketPath(unsigned I) const;
  /// "" when persistence is off.
  std::string shardPath(unsigned I) const;

  unsigned count() const { return Cfg.Workers; }
  pid_t pid(unsigned I) const;
  uint64_t generation(unsigned I) const;

  /// SIGKILL worker \p I (tests and the kill-a-worker demo); the monitor
  /// reaps and restarts it.
  bool killWorker(unsigned I);

  uint64_t restarts() const { return Restarts.load(); }
  uint64_t healthKills() const { return HealthKills.load(); }

private:
  bool spawn(unsigned I, std::string *Error);
  bool verifyWorker(unsigned I, std::string *Error);
  void monitorLoop();
  bool pingWorker(unsigned I);
  void seedShards();
  void mergeShards();

  Config Cfg;
  struct Slot {
    pid_t Pid = -1;
    uint64_t Generation = 0;
    std::chrono::steady_clock::time_point LastPing;
  };
  mutable std::mutex Lock;
  std::vector<Slot> Slots;
  std::thread Monitor;
  std::atomic<bool> StopMonitor{false};
  std::atomic<bool> Started{false};
  std::atomic<uint64_t> Restarts{0};
  std::atomic<uint64_t> HealthKills{0};
};

} // namespace llvmmd

#endif // LLVMMD_FLEET_WORKERMANAGER_H
