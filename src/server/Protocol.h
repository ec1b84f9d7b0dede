//===- Protocol.h - Validation service wire protocol ------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The framed wire protocol between the validation daemon and its clients.
///
/// Every message is one length-prefixed frame:
///
///   u32 LE payload length | u8 frame type | payload bytes
///
/// The reader never trusts the length field: a frame claiming more than the
/// negotiated maximum is rejected before a byte of its payload is read, a
/// short read (peer died mid-frame) surfaces as a clean disconnect, and an
/// unknown frame type or undecodable payload is a protocol error that
/// closes the connection — never undefined behavior.
///
/// A connection starts with a versioned handshake: the client's Hello
/// carries the protocol version and its *verdict-store config digest* (rule
/// mask, fixpoint budget, semantics salt — exactly the header gate of the persistent VerdictStore). The server compares both
/// against its own; a mismatch is rejected with an Error frame, never
/// silently served, because a verdict proven under different rules is not
/// the verdict the client asked for.
///
/// After HelloOk the client may Submit jobs (profile-generated or inline IR
/// modules), request Stats, Ping, or request Shutdown. Job responses
/// stream: one Function frame per function (the single-line JSON object of
/// functionEntryToJSON, byte-identical to the entry in the final report), a
/// ModuleReport frame per module as soon as that module's validation
/// finishes, the final authoritative SuiteReport frame (exactly the bytes
/// suiteToJSON emits for a batch run of the same inputs), and a JobDone
/// frame carrying the engine's cache-stat deltas for the job — which is how
/// `--expect-warm` keeps its meaning end to end over the wire.
///
/// Version 2 adds the fleet vocabulary (src/fleet/):
///  * Subscribe (client -> router) joins a running job's response stream
///    mid-flight by job id; already-sent frames are replayed from the
///    router's bounded per-job buffer, then the live tail follows.
///  * JobId (router -> client) answers a Submit that was deduplicated onto
///    an already-running identical job, or a Subscribe — it names the
///    shared job and how many frames were replayed.
///  * WorkerHello / WorkerHelloOk let the router verify, after the normal
///    digest-gated handshake, that the process behind a worker socket is
///    exactly the worker it spawned (pid check) and which store shard it
///    persists to — a stale socket of a crashed generation can never be
///    mistaken for a live worker.
///
/// Version 3 adds the telemetry vocabulary:
///  * Metrics (client -> server) requests a scrape; MetricsReply carries
///    the raw Prometheus text-exposition payload (like StatsReply carries
///    raw JSON). A server answers with its own registry; the fleet router
///    answers with a roll-up — its own fleet metrics plus every live
///    worker's scrape re-labeled `worker="N"` — so one scrape shows the
///    whole fleet. Metrics are a diagnostic channel only: verdict-bearing
///    frames are byte-identical whether or not anything ever scrapes.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SERVER_PROTOCOL_H
#define LLVMMD_SERVER_PROTOCOL_H

#include <cstdint>
#include <string>
#include <vector>

namespace llvmmd {

/// Bumped on any wire-format change; a version mismatch fails the
/// handshake in either direction. v2: fleet frames (Subscribe, JobId,
/// WorkerHello/WorkerHelloOk). v3: telemetry frames (Metrics,
/// MetricsReply). Still v3: the trace extension (Submit carries a
/// trailing TraceId, JobDone a trailing TraceId + span blob) is encoded
/// only for traced jobs and decoded only if present, so both directions
/// interoperate with pre-trace v3 peers — untraced traffic is
/// byte-identical, and a traced field reaching an old decoder only fails
/// that one frame's strict-length check, never the handshake.
constexpr uint32_t ServerProtocolVersion = 3;

/// Default ceiling on one frame's payload. Large enough for a suite report
/// over a big module set, small enough that a garbage length field cannot
/// drive an allocation anywhere near memory limits.
constexpr uint32_t DefaultMaxFrameBytes = 32u << 20;

enum class FrameType : uint8_t {
  // Client -> server.
  Hello = 1,
  Submit = 2,
  Stats = 3,
  Ping = 4,
  Shutdown = 5,
  Subscribe = 6,   ///< join a running job's stream by id (fleet router)
  WorkerHello = 7, ///< router -> worker identity check after the handshake
  Metrics = 8,     ///< scrape request; answered with MetricsReply

  // Server -> client.
  HelloOk = 64,
  Accepted = 65,
  Function = 66,
  ModuleReport = 67,
  SuiteReport = 68,
  JobDone = 69,
  StatsReply = 70,
  Pong = 71,
  Error = 72,
  JobId = 73,         ///< submission deduplicated / subscription attached
  WorkerHelloOk = 74, ///< worker identity reply (pid + shard path)
  MetricsReply = 75,  ///< raw Prometheus text-exposition payload
};

enum class ErrorCode : uint8_t {
  Protocol = 1,  ///< malformed/oversized/unexpected frame; connection closes
  Handshake = 2, ///< version or config-digest mismatch; connection closes
  QueueFull = 3, ///< admission control rejected the job; connection stays up
  BadSubmit = 4, ///< unknown profile / unparsable module; connection stays up
  WorkerLost = 5, ///< the fleet lost the job's worker past the requeue budget
  UnknownJob = 6, ///< Subscribe named a job that is not running (or the
                  ///< replay window was exceeded); connection stays up
};

struct Frame {
  FrameType Type = FrameType::Error;
  std::string Payload;
};

enum class ReadStatus : uint8_t {
  Ok,
  Eof,       ///< orderly close (or shutdown) before a frame header
  Truncated, ///< peer died mid-frame
  Oversized, ///< length field exceeds the cap; nothing further was read
  IOError,
};

/// Writes one frame to the connected socket \p Fd (blocking, SIGPIPE
/// suppressed). Returns false when the peer is gone.
bool writeFrame(int Fd, FrameType Type, const std::string &Payload);

/// Reads one frame (blocking). \p MaxPayload bounds the length field.
ReadStatus readFrame(int Fd, Frame &F, uint32_t MaxPayload);

/// Bounds every later blocking read on \p Fd to \p Ms milliseconds; a read
/// that times out fails like a dead peer. A prober that must not be
/// wedged by a stopped or wedged daemon sets this after connecting.
void setRecvTimeout(int Fd, unsigned Ms);

//===----------------------------------------------------------------------===//
// Frame payloads
//===----------------------------------------------------------------------===//

struct HelloPayload {
  uint32_t Version = ServerProtocolVersion;
  uint64_t ConfigDigest = 0; ///< verdictStoreConfigDigest of the rule config
};

/// The server's half of the handshake.
struct HelloOkPayload {
  uint32_t Version = ServerProtocolVersion;
  uint64_t ConfigDigest = 0;
  uint32_t EngineThreads = 0;
  uint8_t TriageEnabled = 0;
};

/// Source selector of one submitted module. Wire-compatible with the
/// original boolean "from profile" byte: 0 keeps its old meaning (inline
/// text) and 1 still means a generated profile. Inline text always goes
/// through the one `.ll` reader; the inline codes pick only what happens
/// to a function the reader refuses (ModuleFormat in ModuleLoader.h).
enum SubmitSource : uint8_t {
  SubmitInlineAuto = 0, ///< inline text; refused functions are demoted
  SubmitProfile = 1,    ///< server-generated benchmark profile
  SubmitInlineMini = 2, ///< inline text; a refused function fails the job
  SubmitInlineLLVM = 3, ///< inline text; same as SubmitInlineAuto
};

/// One module of a submission: either a named BenchmarkProfile the server
/// generates (FunctionCount optionally overridden — tests and benchmarks
/// shrink profiles this way) or inline IR text the server loads through
/// the shared ModuleLoader (see SubmitSource for the refusal policy).
struct SubmitModule {
  uint8_t Source = SubmitProfile;
  std::string Name;      ///< profile name, or module name for inline IR
  std::string Text;      ///< IR text for the inline sources
  uint32_t FnCount = 0;  ///< profile FunctionCount override; 0 = default
};

struct SubmitPayload {
  std::vector<SubmitModule> Modules;
  /// Distributed-tracing id minted at the front door (router or
  /// `batch_validate`); 0 = untraced. **Optional trailing field**: encoded
  /// only when nonzero, so untraced traffic is byte-identical to the
  /// pre-trace v3 wire format and a decoder that stops at the module list
  /// (an old peer) simply never sees a traced submission's id. TraceId
  /// never contributes to job identity — the fleet's dedup key zeroes it
  /// before hashing.
  uint64_t TraceId = 0;
};

struct AcceptedPayload {
  uint64_t JobId = 0;
  uint32_t QueuePosition = 0; ///< jobs ahead of this one when admitted
};

/// Streamed per-function verdict: \p Json is functionEntryToJSON's
/// single-line object, byte-identical to the entry in the final report.
struct FunctionPayload {
  uint32_t ModuleIndex = 0;
  std::string ModuleName;
  std::string Json;
};

struct ModuleReportPayload {
  uint32_t ModuleIndex = 0;
  std::string Json; ///< reportToJSON bytes for this module
};

/// End-of-job summary: the engine's cache-stat deltas attributable to this
/// job. Misses == 0 and TriageMisses == 0 is the served form of the
/// `--expect-warm` invariant.
struct JobDonePayload {
  uint64_t JobId = 0;
  /// 0 = every transformed function validated; 2 = some did not (the
  /// batch_validate exit-code convention).
  uint8_t Status = 0;
  uint64_t Hits = 0;
  uint64_t WarmHits = 0;
  uint64_t Misses = 0;
  uint64_t SkippedIdentical = 0;
  uint64_t TriageHits = 0;
  uint64_t TriageWarmHits = 0;
  uint64_t TriageMisses = 0;
  uint64_t WallMicroseconds = 0;
  /// Echo of the submission's trace id (0 = untraced); optional trailing
  /// field, same compatibility contract as SubmitPayload::TraceId.
  uint64_t TraceId = 0;
  /// The executing server's span buffer for this job, serialized by
  /// `traceSerializeEvents` — shipped back so the router can merge worker
  /// spans into one flame. Present only when TraceId is nonzero; the
  /// router strips it (keeping TraceId) before fanning JobDone out to
  /// subscribers.
  std::string TraceBlob;
};

struct ErrorPayload {
  ErrorCode Code = ErrorCode::Protocol;
  std::string Message;
};

/// Client -> router: attach to job \p JobId's response stream mid-flight.
struct SubscribePayload {
  uint64_t JobId = 0;
};

/// Router -> client: the submission joined (or a Subscribe attached to) an
/// already-running job. \p ReplayedFrames counts the buffered response
/// frames that were replayed before the live tail.
struct JobIdPayload {
  uint64_t JobId = 0;
  uint8_t Deduplicated = 0; ///< 1 when a Submit was folded onto a live job
  uint32_t ReplayedFrames = 0;
};

/// Router -> worker, after the normal handshake: "prove you are the process
/// I spawned". The reply's pid is checked against the spawned child, so a
/// stale socket left by a dead generation can never be dispatched to.
struct WorkerHelloPayload {
  uint64_t RouterId = 0;
  uint32_t WorkerIndex = 0;
  uint64_t Generation = 0;
};

struct WorkerHelloOkPayload {
  uint64_t Pid = 0;
  uint64_t JobsCompleted = 0;
  std::string StorePath; ///< the worker's verdict-store shard ("" = none)
};

std::string encodeHello(const HelloPayload &P);
bool decodeHello(const std::string &Bytes, HelloPayload &P);
std::string encodeHelloOk(const HelloOkPayload &P);
bool decodeHelloOk(const std::string &Bytes, HelloOkPayload &P);
std::string encodeSubmit(const SubmitPayload &P);
bool decodeSubmit(const std::string &Bytes, SubmitPayload &P);
std::string encodeAccepted(const AcceptedPayload &P);
bool decodeAccepted(const std::string &Bytes, AcceptedPayload &P);
std::string encodeFunction(const FunctionPayload &P);
bool decodeFunction(const std::string &Bytes, FunctionPayload &P);
std::string encodeModuleReport(const ModuleReportPayload &P);
bool decodeModuleReport(const std::string &Bytes, ModuleReportPayload &P);
std::string encodeJobDone(const JobDonePayload &P);
bool decodeJobDone(const std::string &Bytes, JobDonePayload &P);
std::string encodeError(const ErrorPayload &P);
bool decodeError(const std::string &Bytes, ErrorPayload &P);
std::string encodeSubscribe(const SubscribePayload &P);
bool decodeSubscribe(const std::string &Bytes, SubscribePayload &P);
std::string encodeJobId(const JobIdPayload &P);
bool decodeJobId(const std::string &Bytes, JobIdPayload &P);
std::string encodeWorkerHello(const WorkerHelloPayload &P);
bool decodeWorkerHello(const std::string &Bytes, WorkerHelloPayload &P);
std::string encodeWorkerHelloOk(const WorkerHelloOkPayload &P);
bool decodeWorkerHelloOk(const std::string &Bytes, WorkerHelloOkPayload &P);

} // namespace llvmmd

#endif // LLVMMD_SERVER_PROTOCOL_H
