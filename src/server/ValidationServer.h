//===- ValidationServer.h - Persistent validation daemon --------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving layer over the ValidationEngine: a long-running daemon that
/// keeps one engine — its thread pool, its verdict cache, its triage cache
/// and its warm persistent store — hot in a single process and multiplexes
/// many clients onto it. Where `batch_validate` pays module load,
/// optimization and normalization from scratch every invocation, the
/// server pays them once and serves every later submission of the same
/// functions as a pure replay.
///
/// Architecture (all blocking I/O, no event loop to get subtly wrong):
///
///   * the front door (server/FrontDoor.h, shared with the fleet router)
///     owns the listeners (unix-domain socket and/or loopback TCP), the
///     HTTP /metrics sidecar, the accept thread and one thread per
///     connection;
///   * this class handles each connection's frames (server/Protocol.h):
///     versioned handshake gated on the verdict-store config digest,
///     then Submit/Stats/Metrics/Ping/WorkerHello/Shutdown requests;
///   * an admission-controlled FIFO job queue hands submissions to the one
///     executor thread, which owns the ValidationEngine exclusively —
///     engine parallelism comes from the engine's own work-stealing pool,
///     so the engine's single-caller contract is honored by construction.
///     Admission control is a hard queue bound: a client that would grow
///     the backlog past MaxQueuedJobs gets an immediate QueueFull error
///     instead of an unbounded latency promise.
///
/// Responses stream: per-function JSON frames (byte-identical to the
/// corresponding entries of the final report) as each module finishes, the
/// per-module report, then the final suite report — exactly the bytes a
/// batch run over the same inputs would emit — and a JobDone frame with
/// the engine's cache-stat deltas for the job.
///
/// Restart warmness: the engine loads the persistent VerdictStore at
/// startup and the server checkpoints it (atomic merge-on-save, the same
/// discipline the store itself enforces) every CheckpointEveryJobs
/// completed jobs and once more at shutdown. A daemon restarted on the
/// same store replays verdicts *and* triage results without recomputing
/// anything.
///
/// A client disconnecting mid-job only kills its response stream; the job
/// itself runs to completion so its verdicts still warm the shared caches
/// for everyone else.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SERVER_VALIDATIONSERVER_H
#define LLVMMD_SERVER_VALIDATIONSERVER_H

#include "driver/ValidationEngine.h"
#include "server/FrontDoor.h"
#include "server/Protocol.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace llvmmd {

class Context;
class Module;

struct ServerConfig {
  /// Unix-domain socket path to listen on (empty = no unix listener). The
  /// path is unlinked before binding and on shutdown.
  std::string UnixPath;
  /// Loopback TCP port to listen on: -1 = no TCP listener, 0 = ephemeral
  /// (kernel-assigned; read it back with boundTcpPort()).
  int TcpPort = -1;
  /// Pass pipeline applied to every submitted module; empty = the paper's.
  std::string Pipeline;
  /// Engine configuration. CachePath enables the warm persistent store;
  /// CacheSave is forced off because the *server* owns the checkpoint
  /// cadence (see CheckpointEveryJobs).
  EngineConfig Engine;
  /// Hard bound on queued (not yet running) jobs; submissions beyond it
  /// are rejected with QueueFull.
  unsigned MaxQueuedJobs = 32;
  /// Checkpoint the verdict store every N completed jobs (0 = only at
  /// shutdown). Checkpoints are skipped while the cache is clean.
  unsigned CheckpointEveryJobs = 1;
  /// Per-frame payload ceiling for this server's connections.
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
  /// Log a warn-level line for any job whose end-to-end wall time exceeds
  /// this many microseconds (0 = disabled). Diagnostic only — the job
  /// itself is unaffected.
  uint64_t SlowJobMicroseconds = 0;
  /// `HOST:PORT` for the embedded HTTP responder serving GET /metrics and
  /// /healthz (empty = none; port 0 = ephemeral, read back with
  /// boundHttpPort()). Lets a stock Prometheus scrape the daemon without
  /// `validate_client` as a bridge; the body is byte-identical to the
  /// protocol Metrics frame.
  std::string HttpMetrics;
};

/// Monotonic serving counters, exposed through /stats (statsJSON) and the
/// test suite. Engine cache counters are snapshotted separately.
struct ServerCounters {
  uint64_t ConnectionsAccepted = 0;
  uint64_t HandshakesRejected = 0;
  uint64_t ProtocolErrors = 0;
  uint64_t JobsSubmitted = 0;
  uint64_t JobsCompleted = 0;
  uint64_t JobsRejected = 0; ///< admission control (queue full / stopping)
  uint64_t JobsErrored = 0;  ///< bad submit (unknown profile, parse error)
  uint64_t MaxQueueDepth = 0;
  uint64_t FunctionsReported = 0;
  uint64_t ModulesValidated = 0;
  uint64_t JobMicroseconds = 0; ///< summed end-to-end job wall time
  /// Summed Accepted -> executor-start wait. With JobsCompleted this
  /// gives mean queue wait; the per-job distribution is in /metrics.
  uint64_t QueueWaitMicroseconds = 0;
  uint64_t Checkpoints = 0;
};

class ValidationServer {
public:
  explicit ValidationServer(ServerConfig Config);
  ~ValidationServer();

  ValidationServer(const ValidationServer &) = delete;
  ValidationServer &operator=(const ValidationServer &) = delete;

  /// Binds the listeners, loads the warm store, and spawns the accept and
  /// executor threads. False (with \p Error) when a listener or the HTTP
  /// sidecar could not be bound; nothing is left listening then.
  bool start(std::string *Error = nullptr);

  /// Asynchronous graceful-stop trigger: admission closes immediately, the
  /// executor drains the queue (checkpointing at the end), listeners and
  /// connections wind down. Safe to call from connection threads (the
  /// Shutdown frame handler) — it only flags and notifies.
  void requestStop();

  /// The async-signal-safe subset of requestStop: atomic stores only, no
  /// locks, no condition-variable calls. Every waiter polls its predicate
  /// on a short timeout, so the flags are noticed within ~200ms. This is
  /// what a SIGINT/SIGTERM handler may call.
  void requestStopFromSignal() {
    Accepting = false;
    DrainAndExit = true;
    Door.requestStop();
    StopRequested = true;
  }

  /// Blocking stop: requestStop() plus joining every thread and the final
  /// checkpoint. Must not be called from a server-owned thread.
  void stop();

  /// Blocks until a requested stop has fully completed (the daemon main's
  /// "serve until a client asks us to exit"), performing the blocking part
  /// of the stop itself.
  void wait();

  bool isStopped() const;

  /// Gates the executor between jobs: while paused, accepted jobs stay
  /// queued. Deterministic admission-control tests and maintenance windows
  /// (checkpoint + copy the store) are the intended users. Ignored once a
  /// stop is requested (draining overrides pausing).
  void setPaused(bool P);

  /// The digest the handshake is gated on (rule mask, fixpoint budget,
  /// semantics salt — the verdict store's own gate).
  uint64_t configDigest() const;

  /// The kernel-assigned port when TcpPort was 0; -1 before start().
  int boundTcpPort() const { return Door.boundTcpPort(); }

  /// The HTTP responder's kernel-assigned port; -1 when HttpMetrics is
  /// unset or before start().
  int boundHttpPort() const { return Door.boundHttpPort(); }

  unsigned engineThreads() const;

  ServerCounters counters() const;
  EngineCacheStats engineStats() const;
  /// The /stats reply: serving counters + engine cache counters + queue
  /// depth as one JSON document.
  std::string statsJSON() const;
  /// The /metrics reply: the process metrics registry rendered as
  /// Prometheus text exposition format (server gauges refreshed first).
  std::string metricsText() const;

private:
  /// Opened by the connection thread once the Accepted frame is on the
  /// wire, so the executor can never race a job's first response frame
  /// ahead of its acceptance.
  struct JobGate {
    std::mutex Lock;
    std::condition_variable CV;
    bool Open = false;
  };

  struct Job {
    uint64_t Id = 0;
    FrontDoor::ConnectionPtr Conn;
    std::shared_ptr<JobGate> Gate;
    SubmitPayload Req;
    /// Stamped under QueueLock at admission; the executor measures
    /// Accepted -> executor-start queue wait against it on pop.
    std::chrono::steady_clock::time_point Enqueued;
    /// Event-buffer index snapshotted at executor pop: the job's own
    /// spans are exactly [TraceStartIdx, end) when JobDone is built,
    /// because the executor is the only traced writer between pop and
    /// done. Meaningful only for traced jobs (Req.TraceId != 0).
    size_t TraceStartIdx = 0;
  };

  /// One request frame; returns false when the connection must close.
  bool handleFrame(const FrontDoor::ConnectionPtr &C, const Frame &F);
  void countProtocolError();
  void countHandshakeRejected();
  void executorLoop();
  void runJob(const Job &J);
  /// Engine-thread only: checkpoint the store when dirty (no-op while the
  /// cache is clean or no store is configured).
  void checkpoint();
  /// Engine-thread only: resolve one submitted module to a Module* through
  /// the shared ModuleLoader. \p Unsupported receives the ingest frontend's
  /// per-function rejections for `.ll` submissions; \p Error gets the
  /// loader's diagnostic (with line/column) on failure.
  const Module *materializeModule(const SubmitModule &M, Context &JobCtx,
                                  std::vector<std::unique_ptr<Module>> &Own,
                                  std::vector<UnsupportedFunctionEntry> *Unsupported,
                                  std::string *Error);

  ServerConfig Cfg;
  std::string Pipeline;
  std::unique_ptr<ValidationEngine> Engine;
  /// True while span collection is on because a *traced job* turned it on
  /// (as opposed to the operator's --trace): the executor turns it back
  /// off once no traced work remains, so an untraced daemon does not
  /// accumulate events forever. Guarded by QueueLock.
  bool TraceSelfEnabled = false;

  /// Generated-profile cache: submitted profiles are materialized once per
  /// (name, function-count) and revalidated from the same IR afterwards.
  /// Executor-thread only.
  std::unique_ptr<Context> GenCtx;
  std::map<std::string, std::unique_ptr<Module>> GenCache;

  std::thread ExecutorThread;

  mutable std::mutex QueueLock;
  std::condition_variable QueueCV;
  std::deque<Job> Queue;
  uint64_t NextJobId = 1;
  /// Lifecycle flags are atomics (not QueueLock-guarded state) so the
  /// signal-safe stop path can set them without taking a lock; every CV
  /// wait on them is a bounded wait_for, so a store without a notify is
  /// still observed promptly.
  std::atomic<bool> Accepting{false};
  std::atomic<bool> Paused{false};
  std::atomic<bool> DrainAndExit{false};

  mutable std::mutex LifeLock;
  std::condition_variable LifeCV;
  std::atomic<bool> Started{false};
  std::atomic<bool> StopRequested{false};
  std::atomic<bool> Stopped{false};

  mutable std::mutex StatsLock;
  ServerCounters Counters;
  /// Executor-updated copy of the engine's cache stats: the engine itself
  /// is single-caller, so /stats must read a snapshot, not the live engine.
  EngineCacheStats EngineSnapshot;

  /// Listeners, HTTP sidecar, accept loop and connection threads.
  FrontDoor Door;
};

} // namespace llvmmd

#endif // LLVMMD_SERVER_VALIDATIONSERVER_H
