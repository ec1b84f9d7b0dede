//===- FleetRouter.h - Sharded validation fleet front-end -------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet's single front door: a router daemon that speaks the same
/// framed protocol as `validate_server` (clients — validate_client, the CI
/// scripts — cannot tell the difference), performs the digest-gated
/// handshake itself, and fans submissions out over a fleet of per-core
/// worker processes supervised by the WorkerManager.
///
/// The load-bearing invariant is *byte-identity*: a worker's response
/// frames are streamed back to the subscribers unchanged (only the JobDone
/// frame has its job id rewritten into the router's numbering), so a suite
/// report served by the fleet is byte-identical to `batch_validate --json`
/// over the same inputs and store state — the same bar the single server
/// already meets, now across process boundaries.
///
/// Structure (blocking I/O throughout, like the server):
///
///   * the server's front door (server/FrontDoor.h): listeners, HTTP
///     /metrics sidecar, accept thread and one detached thread per client
///     connection; this class handles the frames (handshake,
///     Submit/Subscribe/Stats/Metrics/Ping/Shutdown);
///   * a JobTable deduplicating identical concurrent submissions onto one
///     engine run and letting Subscribe join a running job mid-flight
///     (bounded replay buffer, then the live tail);
///   * one dispatcher thread per worker owning that worker's connection
///     and its FIFO queue. Jobs stick to a worker by submission key, so a
///     repeated suite returns to the shard that already holds its
///     verdicts. A worker crash (`kill -9`) costs exactly the jobs in
///     flight on it: the dispatcher reconnects to the restarted worker
///     (generation-checked via WorkerHello) and requeues, skipping frames
///     already fanned out — determinism makes the re-run byte-identical —
///     until the per-job attempt budget is spent, at which point the job
///     fails with a WorkerLost error. The fleet itself never goes down
///     with a worker.
///
/// Store lifecycle is the WorkerManager's: shards seeded from the merged
/// base at start, checkpointed by the workers while serving, merged back
/// at drain — so a restarted fleet replays 100% warm.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_FLEET_FLEETROUTER_H
#define LLVMMD_FLEET_FLEETROUTER_H

#include "fleet/JobTable.h"
#include "fleet/WorkerManager.h"
#include "normalize/Rules.h"
#include "server/FrontDoor.h"
#include "server/Protocol.h"
#include "server/ServerClient.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace llvmmd {

struct FleetConfig {
  /// Client-facing unix socket (unlinked before bind and on shutdown).
  std::string UnixPath;
  /// Client-facing loopback TCP: -1 = none, 0 = ephemeral.
  int TcpPort = -1;
  unsigned Workers = 2;
  /// Worker executable; a stock validate_server.
  std::string WorkerBinary = "./validate_server";
  /// Worker i listens on `WorkerSocketPrefix + ".w" + i`; "" derives the
  /// prefix from UnixPath.
  std::string WorkerSocketPrefix;
  /// Base verdict store ("" = no persistence); workers persist to
  /// per-worker shards that are merged back into it at drain.
  std::string StorePath;
  /// Engine threads per worker (0 = hardware default).
  unsigned WorkerThreads = 1;
  std::string Pipeline;
  /// Rule configuration the handshake digest is computed from. Only the
  /// mask is forwardable to workers; the fixpoint budget must stay at its
  /// default (WorkerManager::start rejects the mismatch otherwise).
  RuleConfig Rules;
  bool Triage = false;
  unsigned CheckpointEveryJobs = 1;
  /// Admission bound on queued-not-yet-running jobs across the fleet.
  unsigned MaxQueuedJobs = 64;
  /// Total dispatch attempts per job (2 = one requeue after a crash).
  unsigned MaxJobAttempts = 2;
  uint64_t ReplayBufferBytes = 8ull << 20;
  unsigned PingIntervalMs = 500;
  unsigned PingTimeoutMs = 2000;
  bool HealthPing = true;
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// `HOST:PORT` for the embedded HTTP responder (GET /metrics +
  /// /healthz; empty = none, port 0 = ephemeral). A stock Prometheus can
  /// scrape the fleet-wide roll-up straight off the router.
  std::string HttpMetrics;
};

struct FleetCounters {
  uint64_t ConnectionsAccepted = 0;
  uint64_t HandshakesRejected = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t JobsSubmitted = 0;    ///< jobs created (post-dedup)
  uint64_t JobsDeduplicated = 0; ///< Submits folded onto a live job
  uint64_t Subscribes = 0;
  uint64_t UnknownJobErrors = 0;
  uint64_t JobsRejected = 0; ///< admission control
  uint64_t JobsDispatched = 0; ///< attempts handed to a worker
  uint64_t JobsCompleted = 0;
  uint64_t JobsErrored = 0; ///< worker answered with an Error frame
  uint64_t JobsFailed = 0;  ///< attempt budget exhausted (WorkerLost)
  uint64_t JobsRequeued = 0;
  uint64_t WorkerReconnects = 0;
  uint64_t MaxQueueDepth = 0;
};

class FleetRouter {
public:
  explicit FleetRouter(FleetConfig Config);
  ~FleetRouter();

  FleetRouter(const FleetRouter &) = delete;
  FleetRouter &operator=(const FleetRouter &) = delete;

  /// Binds the listeners and the HTTP sidecar, seeds and spawns the
  /// workers (failing loudly if any cannot serve), and starts the accept
  /// + dispatcher threads. On failure nothing is left listening.
  bool start(std::string *Error = nullptr);

  /// Asynchronous graceful-stop trigger (see ValidationServer): admission
  /// closes, dispatchers drain, workers shut down and checkpoint, shards
  /// merge into the base store.
  void requestStop();

  /// Async-signal-safe stop subset: atomic stores only; all waiters poll.
  void requestStopFromSignal() {
    Accepting = false;
    DrainAndExit = true;
    Door.requestStop();
    StopRequested = true;
  }

  /// Blocking stop. Must not be called from a router-owned thread.
  void stop();

  /// Blocks until a requested stop completes (daemon main loop).
  void wait();

  bool isStopped() const { return Stopped; }

  uint64_t configDigest() const;
  int boundTcpPort() const { return Door.boundTcpPort(); }

  FleetCounters counters() const;
  JobTable::Stats tableStats() const;
  uint64_t workerRestarts() const;
  std::string statsJSON() const;
  /// The fleet-wide /metrics roll-up in Prometheus text exposition
  /// format: the router's own `llvmmd_fleet_*` families plus every live
  /// worker's scrape with its samples re-labeled `worker="N"` (same-name
  /// families from different workers merge into one `# TYPE` group).
  /// Each call dials every worker afresh (connect, handshake, Metrics),
  /// with a 300 ms receive deadline per dial: a worker that does not
  /// answer in time reads `llvmmd_fleet_worker_up{worker="N"} 0`. Safe to
  /// call from any thread, concurrently.
  std::string metricsText() const;

  /// The HTTP responder's kernel-assigned port; -1 when HttpMetrics is
  /// unset or before start().
  int boundHttpPort() const { return Door.boundHttpPort(); }

  /// Test/demo access to the supervised workers (pids, kill).
  WorkerManager *workers() { return WM.get(); }

private:
  /// One worker's dispatch state: the FIFO of jobs routed to it and the
  /// dispatcher's cached connection (dispatcher-thread only).
  struct WorkerLink {
    std::mutex Lock;
    std::condition_variable CV;
    std::deque<JobTable::JobPtr> Queue;
    std::unique_ptr<ServerClient> Client;
    uint64_t ConnectedGen = 0;
  };

  /// One request frame; returns false when the connection must close.
  bool handleFrame(const FrontDoor::ConnectionPtr &C, const Frame &F);
  void dispatcherLoop(unsigned W);
  /// One dispatch attempt; requeues or finishes the job itself.
  void runJobOnWorker(unsigned W, const JobTable::JobPtr &J);
  bool ensureWorkerLink(unsigned W, std::string *Error);
  void enqueue(const JobTable::JobPtr &J);
  void bumpCounter(uint64_t FleetCounters::*Field, uint64_t Delta = 1);

  FleetConfig Cfg;
  std::unique_ptr<JobTable> Table;
  std::unique_ptr<WorkerManager> WM;
  std::vector<std::unique_ptr<WorkerLink>> Links;
  std::vector<std::thread> Dispatchers;

  std::atomic<uint64_t> QueuedJobs{0};

  std::atomic<bool> Accepting{false};
  std::atomic<bool> DrainAndExit{false};

  mutable std::mutex LifeLock;
  std::condition_variable LifeCV;
  std::atomic<bool> Started{false};
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Stopped{false};

  mutable std::mutex StatsLock;
  FleetCounters Counters;

  /// Listeners, HTTP sidecar, accept loop and connection threads.
  FrontDoor Door;
};

} // namespace llvmmd

#endif // LLVMMD_FLEET_FLEETROUTER_H
