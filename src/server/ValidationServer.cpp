//===- ValidationServer.cpp - Persistent validation daemon --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "server/ValidationServer.h"

#include "driver/ModuleLoader.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Log.h"
#include "support/Telemetry.h"
#include "support/Trace.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

using namespace llvmmd;

namespace {

uint64_t elapsedMicroseconds(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - Start)
      .count();
}

/// Server-level instruments in the process registry: the /metrics side of
/// the /stats counters, plus the latency distributions /stats cannot
/// carry. Registered once per process; a test constructing several
/// servers keeps accumulating into the same (monotonic) instruments.
struct ServerMetrics {
  Gauge &QueueDepth;
  Histogram &QueueWaitUs;
  Histogram &JobUs;
  Counter &JobsCompleted;
  Counter &JobsRejected;
  Counter &HandshakeErrors;
  Counter &ProtocolErrors;
  Histogram &CheckpointUs;
};

ServerMetrics &serverMetrics() {
  static ServerMetrics M{
      telemetry().gauge("llvmmd_server_queue_depth",
                        "Jobs queued, not yet running"),
      telemetry().histogram(
          "llvmmd_server_queue_wait_us",
          "Accepted to executor-start wait (microseconds)",
          defaultLatencyBoundsMicros()),
      telemetry().histogram("llvmmd_server_job_us",
                            "End-to-end job wall time (microseconds)",
                            defaultLatencyBoundsMicros()),
      telemetry().counter("llvmmd_server_jobs_completed_total",
                          "Jobs run to completion"),
      telemetry().counter("llvmmd_server_jobs_rejected_total",
                          "Submissions refused by admission control"),
      telemetry().counter("llvmmd_server_handshake_errors_total",
                          "Handshakes rejected (version or digest mismatch)"),
      telemetry().counter("llvmmd_server_protocol_errors_total",
                          "Malformed, oversized or unexpected frames"),
      telemetry().histogram("llvmmd_server_checkpoint_us",
                            "Verdict-store shard checkpoint wall time "
                            "(microseconds)",
                            defaultLatencyBoundsMicros()),
  };
  return M;
}

} // namespace

ValidationServer::ValidationServer(ServerConfig Config)
    : Cfg(std::move(Config)) {
  Pipeline = Cfg.Pipeline.empty() ? getPaperPipeline() : Cfg.Pipeline;
  // The server owns the checkpoint cadence; an engine that saved after
  // every run would rewrite the store once per job even when
  // CheckpointEveryJobs asks for less.
  Cfg.Engine.CacheSave = false;
}

ValidationServer::~ValidationServer() { stop(); }

uint64_t ValidationServer::configDigest() const {
  return verdictStoreConfigDigest(Cfg.Engine.Rules);
}

unsigned ValidationServer::engineThreads() const {
  return Engine ? Engine->getThreadCount() : 0;
}

ServerCounters ValidationServer::counters() const {
  std::lock_guard<std::mutex> G(StatsLock);
  return Counters;
}

EngineCacheStats ValidationServer::engineStats() const {
  std::lock_guard<std::mutex> G(StatsLock);
  return EngineSnapshot;
}

std::string ValidationServer::statsJSON() const {
  ServerCounters C;
  EngineCacheStats E;
  {
    std::lock_guard<std::mutex> G(StatsLock);
    C = Counters;
    E = EngineSnapshot;
  }
  size_t Depth;
  {
    std::lock_guard<std::mutex> G(QueueLock);
    Depth = Queue.size();
  }
  std::ostringstream OS;
  OS << "{\"schema\": \"llvmmd-server-stats-v1\""
     << ", \"connections_accepted\": " << C.ConnectionsAccepted
     << ", \"handshakes_rejected\": " << C.HandshakesRejected
     << ", \"protocol_errors\": " << C.ProtocolErrors << ", \"jobs\": {"
     << "\"submitted\": " << C.JobsSubmitted
     << ", \"completed\": " << C.JobsCompleted
     << ", \"rejected\": " << C.JobsRejected
     << ", \"errored\": " << C.JobsErrored
     << ", \"queue_depth\": " << Depth
     << ", \"max_queue_depth\": " << C.MaxQueueDepth
     << ", \"job_us\": " << C.JobMicroseconds
     << ", \"queue_wait_us\": " << C.QueueWaitMicroseconds << '}'
     << ", \"functions_reported\": " << C.FunctionsReported
     << ", \"modules_validated\": " << C.ModulesValidated
     << ", \"checkpoints\": " << C.Checkpoints << ", \"engine\": {"
     << "\"hits\": " << E.Hits << ", \"warm_hits\": " << E.WarmHits
     << ", \"misses\": " << E.Misses
     << ", \"skipped_identical\": " << E.SkippedIdentical
     << ", \"entries\": " << E.Entries
     << ", \"store_loaded\": " << E.StoreLoaded
     << ", \"store_saved\": " << E.StoreSaved
     << ", \"triage_hits\": " << E.TriageHits
     << ", \"triage_warm_hits\": " << E.TriageWarmHits
     << ", \"triage_misses\": " << E.TriageMisses
     << ", \"triage_store_loaded\": " << E.TriageStoreLoaded << "}}\n";
  return OS.str();
}

std::string ValidationServer::metricsText() const {
  // Gauges describe "now"; refresh them from the live queue before the
  // registry snapshot so a scrape never reports a stale depth.
  {
    std::lock_guard<std::mutex> G(QueueLock);
    serverMetrics().QueueDepth.set(static_cast<int64_t>(Queue.size()));
  }
  return telemetry().renderPrometheus();
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

bool ValidationServer::start(std::string *Error) {
  {
    std::lock_guard<std::mutex> G(LifeLock);
    if (Started) {
      if (Error)
        *Error = "server already started";
      return false;
    }
  }
  // Every job runs this pipeline; an unknown pass would let each one
  // "succeed" with nothing transformed.
  if (std::string Bad = pipelineError(Pipeline); !Bad.empty()) {
    if (Error)
      *Error = Bad;
    return false;
  }
  FrontDoor::Config FC;
  FC.UnixPath = Cfg.UnixPath;
  FC.TcpPort = Cfg.TcpPort;
  FC.HttpMetrics = Cfg.HttpMetrics;
  FC.MaxFrameBytes = Cfg.MaxFrameBytes;
  if (!Door.open(FC, [this] { return metricsText(); }, Error))
    return false;

  // The engine opens the warm store here (CacheLoad), before any client
  // can connect: a store that fails its header or index checks is
  // rejected up front, and healthy shards are read on first lookup.
  Engine = std::make_unique<ValidationEngine>(Cfg.Engine);
  {
    std::lock_guard<std::mutex> G(StatsLock);
    EngineSnapshot = Engine->cacheStats();
  }

  Accepting = true;
  Started = true;
  Stopped = false;
  StopRequested = false;
  FrontDoor::Hooks H;
  H.OnFrame = [this](const FrontDoor::ConnectionPtr &C, const Frame &F) {
    return handleFrame(C, F);
  };
  H.OnFrameError = [this](ReadStatus RS) {
    countProtocolError();
    logWarn("server", std::string("dropping connection: ") +
                          (RS == ReadStatus::Oversized
                               ? "oversized frame"
                               : "truncated or unreadable frame"));
  };
  H.OnAccept = [this] {
    std::lock_guard<std::mutex> G(StatsLock);
    ++Counters.ConnectionsAccepted;
  };
  Door.serve(std::move(H));
  ExecutorThread = std::thread([this] { executorLoop(); });
  return true;
}

void ValidationServer::requestStop() {
  requestStopFromSignal();
  // Prompt wakeups for the common (non-signal) path; waiters poll on a
  // timeout anyway, so a missed notify only costs the poll interval.
  QueueCV.notify_all();
  LifeCV.notify_all();
}

void ValidationServer::stop() {
  if (!Started || Stopped)
    return;
  requestStop();

  Door.stopAccepting();
  // The executor drains every admitted job (clients that stayed connected
  // get full responses) and takes the final checkpoint on its way out.
  if (ExecutorThread.joinable())
    ExecutorThread.join();
  // Then the connections wind down, the listeners close and the HTTP
  // sidecar goes last.
  Door.close();

  Stopped = true;
  LifeCV.notify_all();
}

void ValidationServer::wait() {
  {
    std::unique_lock<std::mutex> G(LifeLock);
    // Bounded waits: a signal handler sets the flags without notifying.
    while (!LifeCV.wait_for(G, std::chrono::milliseconds(200), [this] {
      return StopRequested.load() || Stopped.load();
    }))
      ;
  }
  stop();
}

bool ValidationServer::isStopped() const { return Stopped; }

void ValidationServer::setPaused(bool P) {
  Paused = P;
  QueueCV.notify_all();
}

//===----------------------------------------------------------------------===//
// Serving connections
//===----------------------------------------------------------------------===//

void ValidationServer::countProtocolError() {
  {
    std::lock_guard<std::mutex> G(StatsLock);
    ++Counters.ProtocolErrors;
  }
  serverMetrics().ProtocolErrors.inc();
}

void ValidationServer::countHandshakeRejected() {
  {
    std::lock_guard<std::mutex> G(StatsLock);
    ++Counters.HandshakesRejected;
  }
  serverMetrics().HandshakeErrors.inc();
}

bool ValidationServer::handleFrame(const FrontDoor::ConnectionPtr &C,
                                   const Frame &F) {
  // The handshake must come first, and exactly once.
  if (!C->Handshaken) {
    if (F.Type != FrameType::Hello) {
      countProtocolError();
      C->sendError(ErrorCode::Protocol, "expected Hello");
      return false;
    }
    HelloPayload H;
    if (!decodeHello(F.Payload, H)) {
      countProtocolError();
      C->sendError(ErrorCode::Protocol, "undecodable Hello");
      return false;
    }
    if (H.Version != ServerProtocolVersion) {
      countHandshakeRejected();
      logWarn("server", "handshake rejected: client speaks protocol v" +
                            std::to_string(H.Version) + ", server v" +
                            std::to_string(ServerProtocolVersion));
      C->sendError(ErrorCode::Handshake,
                   "protocol version " + std::to_string(H.Version) +
                       " (server speaks " +
                       std::to_string(ServerProtocolVersion) + ")");
      return false;
    }
    if (H.ConfigDigest != configDigest()) {
      // The whole point of carrying the digest: a client configured for
      // different rules must hear "no", never receive verdicts proven
      // under rules it did not ask for.
      countHandshakeRejected();
      logWarn("server", "handshake rejected: config digest mismatch");
      C->sendError(ErrorCode::Handshake,
                   "config digest mismatch: server validates under a "
                   "different rule configuration");
      return false;
    }
    HelloOkPayload Ok;
    Ok.ConfigDigest = configDigest();
    Ok.EngineThreads = engineThreads();
    Ok.TriageEnabled = Cfg.Engine.Triage.Enabled;
    C->Handshaken = true;
    return C->send(FrameType::HelloOk, encodeHelloOk(Ok));
  }

  switch (F.Type) {
  case FrameType::Submit: {
    SubmitPayload S;
    if (!decodeSubmit(F.Payload, S) || S.Modules.empty()) {
      countProtocolError();
      C->sendError(ErrorCode::Protocol, "undecodable or empty Submit");
      return false;
    }
    // The job holds the connection so the executor keeps it alive even
    // after the client disconnects.
    Job J;
    J.Req = std::move(S);
    J.Conn = C;

    // Admission decision under the queue lock; the (possibly slow) socket
    // writes happen after it so one stalled client cannot block admission
    // for everyone.
    uint64_t JobId = 0;
    uint32_t Position = 0;
    std::shared_ptr<JobGate> Gate;
    std::string RejectReason;
    {
      std::lock_guard<std::mutex> G(QueueLock);
      if (!Accepting) {
        RejectReason = "server is shutting down";
      } else if (Queue.size() >= Cfg.MaxQueuedJobs) {
        RejectReason =
            "queue full (" + std::to_string(Queue.size()) + " jobs pending)";
      } else {
        JobId = NextJobId++;
        Position = static_cast<uint32_t>(Queue.size());
        J.Id = JobId;
        Gate = std::make_shared<JobGate>();
        J.Gate = Gate;
        J.Enqueued = std::chrono::steady_clock::now();
        // A traced submission turns span collection on for its own sake
        // (a fleet worker has no --trace of its own); the executor turns
        // it back off once no traced work remains. Enabling here, at
        // admission, puts the job's queue wait inside the trace epoch.
        if (J.Req.TraceId && !traceEnabled()) {
          traceEnable();
          TraceSelfEnabled = true;
        }
        Queue.push_back(std::move(J));
        serverMetrics().QueueDepth.set(static_cast<int64_t>(Queue.size()));
      }
    }
    {
      std::lock_guard<std::mutex> SG(StatsLock);
      if (!RejectReason.empty())
        ++Counters.JobsRejected;
      else {
        ++Counters.JobsSubmitted;
        Counters.MaxQueueDepth =
            std::max<uint64_t>(Counters.MaxQueueDepth, Position + 1);
      }
    }
    if (!RejectReason.empty()) {
      serverMetrics().JobsRejected.inc();
      logInfo("server", "submission rejected: " + RejectReason);
      C->sendError(ErrorCode::QueueFull, RejectReason);
      return true;
    }
    QueueCV.notify_all();
    AcceptedPayload A;
    A.JobId = JobId;
    A.QueuePosition = Position;
    C->send(FrameType::Accepted, encodeAccepted(A));
    // Only now may the executor write frames for this job: the Accepted
    // frame must be the first thing the client reads about it, even when
    // the queue was empty and the job fails immediately.
    {
      std::lock_guard<std::mutex> G(Gate->Lock);
      Gate->Open = true;
    }
    Gate->CV.notify_all();
    return true;
  }
  case FrameType::Stats:
    return C->send(FrameType::StatsReply, statsJSON());
  case FrameType::Metrics:
    return C->send(FrameType::MetricsReply, metricsText());
  case FrameType::Ping:
    return C->send(FrameType::Pong, std::string());
  case FrameType::WorkerHello: {
    // The fleet router's identity check: after the digest-gated handshake
    // it asks "are you the process I spawned?" and verifies the pid in the
    // reply. Any handshaken client may ask; the answer is only about us.
    WorkerHelloPayload WH;
    if (!decodeWorkerHello(F.Payload, WH)) {
      countProtocolError();
      C->sendError(ErrorCode::Protocol, "undecodable WorkerHello");
      return false;
    }
    WorkerHelloOkPayload Ok;
#ifndef _WIN32
    Ok.Pid = static_cast<uint64_t>(::getpid());
#endif
    {
      std::lock_guard<std::mutex> G(StatsLock);
      Ok.JobsCompleted = Counters.JobsCompleted;
    }
    Ok.StorePath = Cfg.Engine.CachePath;
    return C->send(FrameType::WorkerHelloOk, encodeWorkerHelloOk(Ok));
  }
  case FrameType::Shutdown:
    requestStop();
    return true; // connection closes when the server winds down
  default: {
    countProtocolError();
    logWarn("server", "closing connection: unexpected frame type " +
                          std::to_string(static_cast<unsigned>(F.Type)));
    C->sendError(ErrorCode::Protocol, "unexpected frame type");
    return false;
  }
  }
}

//===----------------------------------------------------------------------===//
// The executor: one thread, one engine
//===----------------------------------------------------------------------===//

void ValidationServer::checkpoint() {
  // Dirty-gated: a drained daemon serving pure replays must not rewrite an
  // unchanged store once per cadence interval.
  if (Cfg.Engine.CachePath.empty() || !Engine->cacheDirty())
    return;
  auto Start = std::chrono::steady_clock::now();
  TraceSpan Span("checkpoint", "store");
  Engine->saveCache();
  serverMetrics().CheckpointUs.observe(elapsedMicroseconds(Start));
  std::lock_guard<std::mutex> G(StatsLock);
  ++Counters.Checkpoints;
  EngineSnapshot = Engine->cacheStats();
}

void ValidationServer::executorLoop() {
  unsigned SinceCheckpoint = 0;
  for (;;) {
    Job J;
    {
      std::unique_lock<std::mutex> G(QueueLock);
      // Bounded wait: the signal-safe stop path stores flags without a
      // notify, so re-check the predicate every 200ms regardless.
      while (!QueueCV.wait_for(G, std::chrono::milliseconds(200), [this] {
        return DrainAndExit.load() || (!Paused.load() && !Queue.empty());
      }))
        ;
      if (Queue.empty() && DrainAndExit)
        break;
      if (Queue.empty())
        continue;
      // A requested stop drains: Paused is only honored while serving.
      if (Paused && !DrainAndExit)
        continue;
      J = std::move(Queue.front());
      Queue.pop_front();
      serverMetrics().QueueDepth.set(static_cast<int64_t>(Queue.size()));
    }
    // Everything the executor (and the engine pool under it) records from
    // here to JobDone belongs to this job: snapshot the buffer index for
    // the span blob and point the process-global current trace id at the
    // job so every nested span inherits it.
    J.TraceStartIdx = J.Req.TraceId ? traceEventCount() : 0;
    traceSetCurrentTraceId(J.Req.TraceId);
    // Accepted -> executor-start wait, measured at the pop so it covers
    // exactly the time the job sat behind others (or a paused executor).
    uint64_t WaitUs = elapsedMicroseconds(J.Enqueued);
    serverMetrics().QueueWaitUs.observe(WaitUs);
    if (traceEnabled())
      traceCompleteEvent("queue_wait", "server",
                         traceNowUs() > WaitUs ? traceNowUs() - WaitUs : 0,
                         WaitUs, "job " + std::to_string(J.Id));
    {
      std::lock_guard<std::mutex> G(StatsLock);
      Counters.QueueWaitMicroseconds += WaitUs;
    }
    runJob(J);
    traceSetCurrentTraceId(0);
    if (J.Req.TraceId) {
      // Turn self-enabled collection back off once the queue holds no
      // more traced jobs, so an untraced daemon stops accumulating
      // events. An operator's --trace (TraceSelfEnabled false) stays on.
      std::lock_guard<std::mutex> G(QueueLock);
      if (TraceSelfEnabled) {
        bool MoreTraced = false;
        for (const Job &Q : Queue)
          if (Q.Req.TraceId)
            MoreTraced = true;
        if (!MoreTraced) {
          traceDisable();
          TraceSelfEnabled = false;
        }
      }
    }
    ++SinceCheckpoint;
    if (Cfg.CheckpointEveryJobs &&
        SinceCheckpoint >= Cfg.CheckpointEveryJobs) {
      checkpoint();
      SinceCheckpoint = 0;
    }
  }
  // Shutdown checkpoint: whatever the cadence left unsaved survives the
  // restart. The SaveLock inside the store is released with the process,
  // so a clean exit leaks no lock.
  checkpoint();
}

const Module *
ValidationServer::materializeModule(const SubmitModule &M, Context &JobCtx,
                                    std::vector<std::unique_ptr<Module>> &Own,
                                    std::vector<UnsupportedFunctionEntry> *Unsupported,
                                    std::string *Error) {
  if (M.Source == SubmitProfile) {
    std::string Key = M.Name + ":" + std::to_string(M.FnCount);
    auto It = GenCache.find(Key);
    if (It != GenCache.end())
      return It->second.get();
    if (!GenCtx)
      GenCtx = std::make_unique<Context>();
    ModuleSpec Spec;
    Spec.From = ModuleSpec::Source::Profile;
    Spec.Value = M.Name;
    Spec.ProfileFnCount = M.FnCount;
    LoadResult LR = loadModule(*GenCtx, Spec);
    if (!LR) {
      *Error = LR.Error;
      return nullptr;
    }
    const Module *Result = LR.Modules.front().M.get();
    GenCache.emplace(std::move(Key), std::move(LR.Modules.front().M));
    return Result;
  }
  LoadResult LR = loadModuleText(
      JobCtx, M.Text, M.Name,
      M.Source == SubmitInlineMini   ? ModuleFormat::MiniIR
      : M.Source == SubmitInlineLLVM ? ModuleFormat::LLVMIR
                                     : ModuleFormat::Auto);
  if (!LR) {
    // LR.Error leads with the module name and the loader's line/column
    // diagnostic, which is exactly what the Error frame should carry.
    *Error = "load error: " + LR.Error;
    return nullptr;
  }
  if (Unsupported)
    *Unsupported = std::move(LR.Modules.front().Unsupported);
  Own.push_back(std::move(LR.Modules.front().M));
  return Own.back().get();
}

void ValidationServer::runJob(const Job &J) {
  // The submitting thread opens the gate right after the Accepted frame;
  // waiting here (briefly) keeps the response stream well-ordered.
  {
    std::unique_lock<std::mutex> G(J.Gate->Lock);
    J.Gate->CV.wait(G, [&] { return J.Gate->Open; });
  }
  auto Start = std::chrono::steady_clock::now();
  // Not a plain RAII span: a traced job's blob is serialized before the
  // JobDone frame, and the "job" span must already be in the buffer by
  // then — so it is closed by hand right after the suite report streams.
  auto JobSpan = std::make_unique<TraceSpan>("job", "server",
                                             "job " + std::to_string(J.Id));
  FrontDoor::Connection &C = *J.Conn;

  // Materialize every module up front so a bad submission fails before any
  // verdict frame is streamed.
  Context JobCtx;
  std::vector<std::unique_ptr<Module>> Own;
  std::vector<const Module *> Mods;
  std::vector<std::vector<UnsupportedFunctionEntry>> Unsupported;
  for (const SubmitModule &M : J.Req.Modules) {
    std::string Error;
    std::vector<UnsupportedFunctionEntry> U;
    const Module *Mod = materializeModule(M, JobCtx, Own, &U, &Error);
    if (!Mod) {
      logWarn("server", "job " + std::to_string(J.Id) + " failed: " + Error +
                            traceLogTag(J.Req.TraceId));
      C.sendError(ErrorCode::BadSubmit, Error);
      std::lock_guard<std::mutex> G(StatsLock);
      ++Counters.JobsErrored;
      return;
    }
    Mods.push_back(Mod);
    Unsupported.push_back(std::move(U));
  }

  const EngineCacheStats Before = Engine->cacheStats();

  // Validate module by module (not one big batch) so each module's report
  // streams as soon as it is ready — a client watching a 12-program suite
  // sees verdicts for the first program while the last is still
  // optimizing. The engine's cross-run verdict cache makes the per-module
  // reports byte-identical to a single-batch run of the same suite.
  SuiteReport SR;
  SR.Pipeline = Pipeline;
  SR.RuleMask = Cfg.Engine.Rules.Mask;
  SR.Stepwise = Cfg.Engine.Granularity == ValidationGranularity::PerPass;
  SR.Threads = Engine->getThreadCount();
  for (size_t Mi = 0; Mi < Mods.size(); ++Mi) {
    EngineRun Run = Engine->run(*Mods[Mi], Pipeline);
    // The ingest frontend's rejections ride on the module report so the
    // streamed and final JSON match batch_validate's byte for byte.
    Run.Report.UnsupportedFunctions = std::move(Unsupported[Mi]);
    for (const FunctionReportEntry &E : Run.Report.Functions) {
      FunctionPayload FP;
      FP.ModuleIndex = static_cast<uint32_t>(Mi);
      FP.ModuleName = Run.Report.ModuleName;
      FP.Json = functionEntryToJSON(E);
      C.send(FrameType::Function, encodeFunction(FP));
    }
    ModuleReportPayload MP;
    MP.ModuleIndex = static_cast<uint32_t>(Mi);
    MP.Json = reportToJSON(Run.Report);
    C.send(FrameType::ModuleReport, encodeModuleReport(MP));
    {
      std::lock_guard<std::mutex> G(StatsLock);
      ++Counters.ModulesValidated;
      Counters.FunctionsReported += Run.Report.Functions.size();
    }
    SR.Modules.push_back(std::move(Run.Report));
  }
  SR.WallMicroseconds = elapsedMicroseconds(Start);

  // The authoritative response: exactly the bytes batch_validate's --json
  // would emit for this suite (suiteToJSON omits the nondeterministic
  // timing fields, which is what makes the equality testable).
  C.send(FrameType::SuiteReport, suiteToJSON(SR));

  // Close the job span now so a traced job's blob carries it.
  JobSpan.reset();

  const EngineCacheStats After = Engine->cacheStats();
  JobDonePayload D;
  D.JobId = J.Id;
  D.Status = SR.validated() == SR.transformed() ? 0 : 2;
  D.Hits = After.Hits - Before.Hits;
  D.WarmHits = After.WarmHits - Before.WarmHits;
  D.Misses = After.Misses - Before.Misses;
  D.SkippedIdentical = After.SkippedIdentical - Before.SkippedIdentical;
  D.TriageHits = After.TriageHits - Before.TriageHits;
  D.TriageWarmHits = After.TriageWarmHits - Before.TriageWarmHits;
  D.TriageMisses = After.TriageMisses - Before.TriageMisses;
  D.WallMicroseconds = SR.WallMicroseconds;
  if (J.Req.TraceId) {
    // Ship this job's spans home: the router (or whoever traced the
    // submission) merges them into its own buffer, rebased onto its
    // epoch, so one fleet job renders as one flame across pids.
    D.TraceId = J.Req.TraceId;
    D.TraceBlob = traceSerializeEvents(J.TraceStartIdx);
  }

  // Counters first, then the frame: a client holding JobDone must see its
  // job reflected in /stats.
  {
    std::lock_guard<std::mutex> G(StatsLock);
    ++Counters.JobsCompleted;
    Counters.JobMicroseconds += SR.WallMicroseconds;
    EngineSnapshot = After;
  }
  serverMetrics().JobsCompleted.inc();
  serverMetrics().JobUs.observe(SR.WallMicroseconds);
  if (Cfg.SlowJobMicroseconds && SR.WallMicroseconds > Cfg.SlowJobMicroseconds)
    logWarn("server",
            "slow job " + std::to_string(J.Id) + ": " +
                std::to_string(SR.WallMicroseconds / 1000) + " ms over " +
                std::to_string(SR.Modules.size()) + " module(s), threshold " +
                std::to_string(Cfg.SlowJobMicroseconds / 1000) + " ms" +
                traceLogTag(J.Req.TraceId));
  C.send(FrameType::JobDone, encodeJobDone(D));
}
