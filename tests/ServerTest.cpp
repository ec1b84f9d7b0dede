//===- ServerTest.cpp - Validation service daemon tests -----------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Protocol robustness (handshake digest mismatches, disconnects mid-job;
// garbage, oversized and truncated frames are FrontDoorTest's, run against
// both daemons), admission control, and the
// serving invariants: responses are byte-identical across server thread
// counts and to the batch engine's reports for the same inputs, a second
// client replays 100% warm, and a daemon restarted on its checkpointed
// store replays verdicts *and* triage results without recomputing
// anything.
//
// Servers listen on unix-domain sockets under the test temp dir; raw
// protocol abuse uses ServerClient::sendRaw and hand-rolled sockets.
//
//===----------------------------------------------------------------------===//

#include "server/ServerClient.h"
#include "server/ValidationServer.h"

#include "driver/Report.h"
#include "ir/Module.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include "TestUtil.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <netinet/in.h>
#include <sstream>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

using namespace llvmmd;

namespace {

/// Fresh socket path + optional store path under the test temp dir;
/// removed on destruction.
class ServeDir {
public:
  explicit ServeDir(const std::string &Tag)
      : Sock(::testing::TempDir() + "/llvmmd-" + Tag + ".sock"),
        Store(::testing::TempDir() + "/llvmmd-" + Tag + ".vstore") {
    std::remove(Sock.c_str());
    std::remove(Store.c_str());
  }
  ~ServeDir() {
    std::remove(Sock.c_str());
    std::remove(Store.c_str());
    std::remove((Store + ".lock").c_str());
  }
  const std::string Sock, Store;
};

ServerConfig smallServerConfig(const ServeDir &D, unsigned Threads = 1,
                               bool Triage = true, bool WithStore = false) {
  ServerConfig C;
  C.UnixPath = D.Sock;
  C.Engine.Threads = Threads;
  C.Engine.Triage.Enabled = Triage;
  if (WithStore)
    C.Engine.CachePath = D.Store;
  return C;
}

SubmitPayload sqliteSubmission(unsigned Functions = 16) {
  SubmitPayload Req;
  SubmitModule M;
  M.Source = SubmitProfile;
  M.Name = "sqlite";
  M.FnCount = Functions;
  Req.Modules.push_back(std::move(M));
  return Req;
}

/// Drives one submission to completion. Returns false on any transport
/// error; collects the streamed function frames, the final suite JSON and
/// the JobDone stats.
bool runJob(ServerClient &Client, const SubmitPayload &Req,
            std::string *SuiteJson, JobDonePayload *Done,
            std::vector<FunctionPayload> *Functions = nullptr,
            std::vector<std::string> *ModuleJsons = nullptr) {
  if (!Client.submit(Req))
    return false;
  for (;;) {
    ServerClient::Event E;
    if (!Client.nextEvent(E))
      return false;
    switch (E.K) {
    case ServerClient::Event::Kind::Function:
      if (Functions)
        Functions->push_back(std::move(E.Function));
      break;
    case ServerClient::Event::Kind::ModuleReport:
      if (ModuleJsons)
        ModuleJsons->push_back(std::move(E.Module.Json));
      break;
    case ServerClient::Event::Kind::SuiteReport:
      if (SuiteJson)
        *SuiteJson = std::move(E.SuiteJson);
      break;
    case ServerClient::Event::Kind::JobDone:
      if (Done)
        *Done = E.Done;
      return true;
    case ServerClient::Event::Kind::Error:
      return false;
    }
  }
}

/// Connect + handshake against a default-rules server.
bool attach(ServerClient &Client, const std::string &Sock,
            std::string *Error = nullptr) {
  RuleConfig Rules;
  return Client.connectUnix(Sock, Error) &&
         Client.handshake(verdictStoreConfigDigest(Rules), nullptr, Error);
}

/// Minimal HTTP/1.1 GET against 127.0.0.1:\p Port — deliberately not the
/// ServerClient (the whole point of the HTTP endpoint is that a plain
/// scraper needs none of our code). Fills the status line, the
/// Content-Type header value, and the body.
bool httpGet(int Port, const std::string &Path, std::string *StatusLine,
             std::string *ContentType, std::string *Body) {
  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return false;
  sockaddr_in Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<uint16_t>(Port));
  Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return false;
  }
  std::string Req =
      "GET " + Path + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  size_t Sent = 0;
  while (Sent < Req.size()) {
    ssize_t N = ::send(Fd, Req.data() + Sent, Req.size() - Sent, 0);
    if (N <= 0) {
      ::close(Fd);
      return false;
    }
    Sent += static_cast<size_t>(N);
  }
  std::string Resp;
  char Buf[4096];
  for (;;) {
    ssize_t N = ::recv(Fd, Buf, sizeof(Buf), 0);
    if (N < 0) {
      ::close(Fd);
      return false;
    }
    if (N == 0)
      break;
    Resp.append(Buf, static_cast<size_t>(N));
  }
  ::close(Fd);
  size_t HeaderEnd = Resp.find("\r\n\r\n");
  if (HeaderEnd == std::string::npos)
    return false;
  std::string Headers = Resp.substr(0, HeaderEnd);
  if (Body)
    *Body = Resp.substr(HeaderEnd + 4);
  size_t LineEnd = Headers.find("\r\n");
  if (StatusLine)
    *StatusLine = Headers.substr(0, LineEnd);
  if (ContentType) {
    ContentType->clear();
    size_t CT = Headers.find("Content-Type: ");
    if (CT != std::string::npos) {
      size_t End = Headers.find("\r\n", CT);
      size_t Start = CT + std::strlen("Content-Type: ");
      *ContentType = Headers.substr(Start, End - Start);
    }
  }
  return true;
}

/// What the batch engine would produce for the same submission and cache
/// state: one engine.run per module, assembled into the suite shape the
/// server streams.
std::string batchSuiteJSON(const EngineConfig &EC,
                           const std::vector<const Module *> &Mods) {
  ValidationEngine Engine(EC);
  SuiteReport SR;
  SR.Pipeline = getPaperPipeline();
  SR.RuleMask = EC.Rules.Mask;
  SR.Stepwise = EC.Granularity == ValidationGranularity::PerPass;
  SR.Threads = Engine.getThreadCount();
  for (const Module *M : Mods)
    SR.Modules.push_back(Engine.run(*M, getPaperPipeline()).Report);
  return suiteToJSON(SR);
}

} // namespace

//===----------------------------------------------------------------------===//
// Handshake
//===----------------------------------------------------------------------===//

TEST(ServerTest, HandshakeRejectsConfigDigestMismatch) {
  ServeDir D("digest");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());

  // A client configured for the extended rules must be refused — serving
  // it verdicts proven under the paper rules would be silently wrong.
  ServerClient Bad;
  ASSERT_TRUE(Bad.connectUnix(D.Sock));
  RuleConfig Extended;
  Extended.Mask = RS_All;
  std::string Error;
  EXPECT_FALSE(
      Bad.handshake(verdictStoreConfigDigest(Extended), nullptr, &Error));
  EXPECT_NE(Error.find("digest"), std::string::npos) << Error;

  // The rejection is per-connection: a correctly-configured client works.
  ServerClient Good;
  EXPECT_TRUE(attach(Good, D.Sock));
  EXPECT_TRUE(Good.ping());
  EXPECT_EQ(Server.counters().HandshakesRejected, 1u);
  Server.stop();
}

// Jobs under an unknown pass would "succeed" with nothing transformed, so
// the server refuses the pipeline before it listens, in every build.
TEST(ServerTest, UnknownPassInPipelineIsRefusedAtStart) {
  ServeDir D("pipeline");
  ServerConfig C = smallServerConfig(D);
  C.Pipeline = "adce,bogus";
  ValidationServer Server(std::move(C));
  std::string Error;
  EXPECT_FALSE(Server.start(&Error));
  EXPECT_EQ(Error, "bad pipeline 'adce,bogus'");
  ServerClient Client;
  EXPECT_FALSE(Client.connectUnix(D.Sock));
}

TEST(ServerTest, HandshakeRejectsProtocolVersionMismatch) {
  ServeDir D("version");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());

  ServerClient Client;
  ASSERT_TRUE(Client.connectUnix(D.Sock));
  HelloPayload H;
  H.Version = ServerProtocolVersion + 1;
  H.ConfigDigest = Server.configDigest();
  ASSERT_TRUE(Client.sendRaw(FrameType::Hello, encodeHello(H)));
  Frame F;
  ASSERT_EQ(readFrame(Client.fd(), F, DefaultMaxFrameBytes), ReadStatus::Ok);
  ASSERT_EQ(F.Type, FrameType::Error);
  ErrorPayload E;
  ASSERT_TRUE(decodeError(F.Payload, E));
  EXPECT_EQ(E.Code, ErrorCode::Handshake);
  Server.stop();
}

TEST(ServerTest, UnknownProfileIsABadSubmitNotADisconnect) {
  ServeDir D("badsubmit");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  SubmitPayload Req;
  SubmitModule M;
  M.Source = SubmitProfile;
  M.Name = "not-a-benchmark";
  Req.Modules.push_back(std::move(M));
  ASSERT_TRUE(Client.submit(Req));
  ServerClient::Event E;
  ASSERT_TRUE(Client.nextEvent(E));
  ASSERT_EQ(E.K, ServerClient::Event::Kind::Error);
  EXPECT_EQ(E.Error.Code, ErrorCode::BadSubmit);

  // The connection survives a bad submission; a good one completes.
  std::string Json;
  JobDonePayload Done;
  EXPECT_TRUE(runJob(Client, sqliteSubmission(6), &Json, &Done));
  EXPECT_EQ(Server.counters().JobsErrored, 1u);
  Server.stop();
}

//===----------------------------------------------------------------------===//
// Serving invariants
//===----------------------------------------------------------------------===//

TEST(ServerTest, StreamedFunctionsMatchTheFinalReportAndTheBatchEngine) {
  ServeDir D("stream");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string SuiteJson;
  JobDonePayload Done;
  std::vector<FunctionPayload> Streamed;
  std::vector<std::string> ModuleJsons;
  ASSERT_TRUE(runJob(Client, sqliteSubmission(), &SuiteJson, &Done, &Streamed,
                     &ModuleJsons));
  Server.stop();

  // Every streamed frame's JSON appears verbatim inside the module report
  // and the final suite report: a client acting on streamed verdicts acts
  // on exactly what the report will say.
  ASSERT_EQ(ModuleJsons.size(), 1u);
  ASSERT_FALSE(Streamed.empty());
  for (const FunctionPayload &F : Streamed) {
    EXPECT_NE(ModuleJsons[0].find(F.Json), std::string::npos) << F.Json;
    EXPECT_NE(SuiteJson.find(F.Json), std::string::npos);
  }

  // And the final report is byte-identical to the batch engine over the
  // same generated module.
  Context Ctx;
  BenchmarkProfile P = getProfile("sqlite");
  P.FunctionCount = 16;
  auto M = generateBenchmark(Ctx, P);
  EngineConfig EC;
  EC.Threads = 1;
  EC.Triage.Enabled = true;
  EXPECT_EQ(SuiteJson, batchSuiteJSON(EC, {M.get()}));
}

TEST(ServerTest, ResponsesAreByteIdenticalAcrossServerThreadCounts) {
  // The engine guarantees thread-count-independent reports; the serving
  // layer must not break that. Each thread count gets a fresh server and
  // two sequential clients; responses must be byte-identical across
  // thread counts position by position (first submissions cold, second
  // submissions replaying).
  std::vector<std::string> FirstJsons, SecondJsons;
  for (unsigned Threads : {1u, 2u, 8u}) {
    ServeDir D("threads" + std::to_string(Threads));
    ValidationServer Server(smallServerConfig(D, Threads));
    ASSERT_TRUE(Server.start());

    ServerClient A;
    ASSERT_TRUE(attach(A, D.Sock));
    std::string JsonA;
    JobDonePayload DoneA;
    ASSERT_TRUE(runJob(A, sqliteSubmission(), &JsonA, &DoneA));
    EXPECT_GT(DoneA.Misses, 0u);

    ServerClient B;
    ASSERT_TRUE(attach(B, D.Sock));
    std::string JsonB;
    JobDonePayload DoneB;
    ASSERT_TRUE(runJob(B, sqliteSubmission(), &JsonB, &DoneB));
    // The second client replays everything the first proved — verdicts
    // and triage results.
    EXPECT_EQ(DoneB.Misses, 0u);
    EXPECT_EQ(DoneB.TriageMisses, 0u);
    EXPECT_EQ(DoneB.Hits, DoneA.Hits + DoneA.Misses);

    FirstJsons.push_back(std::move(JsonA));
    SecondJsons.push_back(std::move(JsonB));
    Server.stop();
  }
  EXPECT_EQ(FirstJsons[0], FirstJsons[1]);
  EXPECT_EQ(FirstJsons[0], FirstJsons[2]);
  EXPECT_EQ(SecondJsons[0], SecondJsons[1]);
  EXPECT_EQ(SecondJsons[0], SecondJsons[2]);
}

TEST(ServerTest, RestartedServerReplaysVerdictsAndTriageWarm) {
  ServeDir D("restart");
  std::string ColdJson;
  {
    ValidationServer Server(
        smallServerConfig(D, 1, /*Triage=*/true, /*WithStore=*/true));
    ASSERT_TRUE(Server.start());
    ServerClient Client;
    ASSERT_TRUE(attach(Client, D.Sock));
    JobDonePayload Done;
    ASSERT_TRUE(runJob(Client, sqliteSubmission(), &ColdJson, &Done));
    EXPECT_GT(Done.Misses, 0u);
    EXPECT_GT(Done.TriageMisses, 0u) << "profile must provoke alarms";
    Server.stop();
  }
  {
    // The restarted daemon loads the checkpointed store: 100% warm replay
    // of verdicts *and* triage, and the bytes match the batch engine
    // warm-loading the same store.
    ValidationServer Server(
        smallServerConfig(D, 1, /*Triage=*/true, /*WithStore=*/true));
    ASSERT_TRUE(Server.start());
    ServerClient Client;
    ASSERT_TRUE(attach(Client, D.Sock));
    std::string WarmJson;
    JobDonePayload Done;
    ASSERT_TRUE(runJob(Client, sqliteSubmission(), &WarmJson, &Done));
    EXPECT_EQ(Done.Misses, 0u) << "verdict replay below 100% after restart";
    EXPECT_EQ(Done.TriageMisses, 0u)
        << "triage replay below 100% after restart";
    EXPECT_GT(Done.WarmHits, 0u);
    Server.stop();

    Context Ctx;
    BenchmarkProfile P = getProfile("sqlite");
    P.FunctionCount = 16;
    auto M = generateBenchmark(Ctx, P);
    EngineConfig EC;
    EC.Threads = 1;
    EC.Triage.Enabled = true;
    EC.CachePath = D.Store;
    EC.CacheSave = false;
    EXPECT_EQ(WarmJson, batchSuiteJSON(EC, {M.get()}));
  }
}

TEST(ServerTest, ClientDisconnectMidJobDoesNotKillTheJobOrTheServer) {
  ServeDir D("disconnect");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());

  // Submit, then vanish before a single response frame is consumed.
  {
    ServerClient Ghost;
    ASSERT_TRUE(attach(Ghost, D.Sock));
    ASSERT_TRUE(Ghost.submit(sqliteSubmission()));
    Ghost.close();
  }

  // The abandoned job still runs to completion and warms the cache: a
  // second client submitting the same suite replays it entirely.
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Json;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, sqliteSubmission(), &Json, &Done));
  EXPECT_EQ(Done.Misses, 0u)
      << "the disconnected client's job must still warm the shared cache";
  EXPECT_EQ(Server.counters().JobsCompleted, 2u);
  Server.stop();
}

TEST(ServerTest, AdmissionControlRejectsBeyondTheQueueBound) {
  ServeDir D("admission");
  ServerConfig C = smallServerConfig(D, 1, /*Triage=*/false);
  C.MaxQueuedJobs = 1;
  ValidationServer Server(C);
  ASSERT_TRUE(Server.start());
  // Paused executor: admitted jobs stay queued, so the bound is exercised
  // deterministically.
  Server.setPaused(true);

  ServerClient A, B;
  ASSERT_TRUE(attach(A, D.Sock));
  ASSERT_TRUE(attach(B, D.Sock));
  ASSERT_TRUE(A.submit(sqliteSubmission(4)));

  // The queue is full; B must be rejected immediately, not queued behind
  // an unbounded backlog.
  std::string Error;
  EXPECT_FALSE(B.submit(sqliteSubmission(4), nullptr, &Error));
  EXPECT_NE(Error.find("queue full"), std::string::npos) << Error;

  Server.setPaused(false);
  // A's job now runs to completion.
  std::string Json;
  JobDonePayload Done;
  bool GotDone = false;
  for (;;) {
    ServerClient::Event E;
    ASSERT_TRUE(A.nextEvent(E));
    if (E.K == ServerClient::Event::Kind::JobDone) {
      GotDone = true;
      break;
    }
    if (E.K == ServerClient::Event::Kind::Error)
      break;
  }
  EXPECT_TRUE(GotDone);
  EXPECT_EQ(Server.counters().JobsRejected, 1u);
  Server.stop();
}

TEST(ServerTest, InlineIRSubmissionValidatesLikeTheBatchEngine) {
  // Round-trip a generated module through the printer and submit it as
  // inline IR — the path a compiler toolchain embedding the client uses.
  Context Ctx;
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = 6;
  auto M = generateBenchmark(Ctx, P);
  std::string Ir = printModule(*M);

  ServeDir D("inline");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));

  SubmitPayload Req;
  SubmitModule SM;
  SM.Source = SubmitInlineAuto;
  SM.Name = "inline-test";
  SM.Text = Ir;
  Req.Modules.push_back(std::move(SM));

  std::string Json;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, Req, &Json, &Done));
  Server.stop();

  EXPECT_FALSE(Json.empty());
  EXPECT_NE(Json.find("\"llvmmd-suite-report-v1\""), std::string::npos);
  EXPECT_GT(Done.Misses + Done.Hits + Done.SkippedIdentical, 0u);
}

TEST(ServerTest, StatsAndPing) {
  ServeDir D("stats");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  EXPECT_TRUE(Client.ping());

  std::string Json;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, sqliteSubmission(6), &Json, &Done));

  std::string Stats;
  ASSERT_TRUE(Client.stats(&Stats));
  EXPECT_NE(Stats.find("\"llvmmd-server-stats-v1\""), std::string::npos);
  EXPECT_NE(Stats.find("\"completed\": 1"), std::string::npos) << Stats;
  Server.stop();
}

TEST(ServerTest, MetricsScrapeIsPrometheusExposition) {
  ServeDir D("metrics");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));

  std::string Json;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, sqliteSubmission(6), &Json, &Done));

  std::string Text;
  ASSERT_TRUE(Client.metrics(&Text));
  // Well-formed exposition: HELP/TYPE headers, and the server families the
  // job just exercised. Counters are process-global, so assert >= 1 rather
  // than == 1 (other tests in this binary may have run jobs already).
  EXPECT_NE(Text.find("# HELP llvmmd_server_jobs_completed_total"),
            std::string::npos)
      << Text;
  EXPECT_NE(Text.find("# TYPE llvmmd_server_jobs_completed_total counter"),
            std::string::npos);
  EXPECT_NE(Text.find("# TYPE llvmmd_server_job_us histogram"),
            std::string::npos);
  EXPECT_NE(Text.find("llvmmd_server_job_us_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(Text.find("llvmmd_server_queue_depth 0"), std::string::npos);
  EXPECT_NE(Text.find("llvmmd_server_queue_wait_us_count"),
            std::string::npos);
  // The engine families ride in the same registry.
  EXPECT_NE(Text.find("llvmmd_engine_pairs_validated_total"),
            std::string::npos);
  // Every line is a comment or `name[{labels}] value`.
  std::istringstream Lines(Text);
  std::string Line;
  while (std::getline(Lines, Line)) {
    ASSERT_FALSE(Line.empty());
    if (Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    ASSERT_NE(Space, std::string::npos) << Line;
    EXPECT_NE(Line.substr(0, Space).find("llvmmd_"), std::string::npos)
        << Line;
  }

  // The /stats JSON carries the queue-wait aggregate next to job_us.
  std::string Stats;
  ASSERT_TRUE(Client.stats(&Stats));
  EXPECT_NE(Stats.find("\"queue_wait_us\""), std::string::npos) << Stats;
  Server.stop();
}

TEST(ServerTest, HttpMetricsScrapeIsByteIdenticalToProtocolScrape) {
  ServeDir D("http");
  ServerConfig C = smallServerConfig(D);
  C.HttpMetrics = "127.0.0.1:0"; // ephemeral: the test reads the bound port
  ValidationServer Server(std::move(C));
  ASSERT_TRUE(Server.start());
  ASSERT_GT(Server.boundHttpPort(), 0);

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Json;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, sqliteSubmission(6), &Json, &Done));

  // Same renderer behind both transports; the server is idle between the
  // two scrapes, so the bytes must match exactly.
  std::string FrameText;
  ASSERT_TRUE(Client.metrics(&FrameText));
  std::string Status, ContentType, Body;
  ASSERT_TRUE(httpGet(Server.boundHttpPort(), "/metrics", &Status,
                      &ContentType, &Body));
  EXPECT_EQ(Status, "HTTP/1.1 200 OK");
  EXPECT_EQ(ContentType, PrometheusContentType);
  EXPECT_EQ(Body, FrameText);

  ASSERT_TRUE(httpGet(Server.boundHttpPort(), "/healthz", &Status, nullptr,
                      &Body));
  EXPECT_EQ(Status, "HTTP/1.1 200 OK");
  EXPECT_EQ(Body, "ok\n");

  // Unknown paths miss cleanly; query strings are stripped before match.
  ASSERT_TRUE(httpGet(Server.boundHttpPort(), "/nope", &Status, nullptr,
                      nullptr));
  EXPECT_EQ(Status, "HTTP/1.1 404 Not Found");
  ASSERT_TRUE(httpGet(Server.boundHttpPort(), "/metrics?format=raw", &Status,
                      nullptr, &Body));
  EXPECT_EQ(Status, "HTTP/1.1 200 OK");

  Server.stop();
}

TEST(ServerTest, TraceExtensionIsOptionalTrailingAndRoundTrips) {
  // Untraced payloads encode byte-identically to the pre-extension wire
  // format: the trace fields only exist on the wire when set.
  SubmitPayload Plain = sqliteSubmission(4);
  SubmitPayload Traced = sqliteSubmission(4);
  Traced.TraceId = 0xabcdef0123456789ull;
  std::string PlainBytes = encodeSubmit(Plain);
  std::string TracedBytes = encodeSubmit(Traced);
  EXPECT_EQ(TracedBytes.size(), PlainBytes.size() + 8);
  EXPECT_EQ(TracedBytes.compare(0, PlainBytes.size(), PlainBytes), 0);

  SubmitPayload Out;
  ASSERT_TRUE(decodeSubmit(PlainBytes, Out));
  EXPECT_EQ(Out.TraceId, 0u);
  ASSERT_TRUE(decodeSubmit(TracedBytes, Out));
  EXPECT_EQ(Out.TraceId, Traced.TraceId);

  JobDonePayload D;
  D.JobId = 7;
  D.Hits = 4;
  std::string LegacyDone = encodeJobDone(D);
  D.TraceId = Traced.TraceId;
  D.TraceBlob = "opaque span bytes";
  std::string TracedDone = encodeJobDone(D);
  EXPECT_GT(TracedDone.size(), LegacyDone.size());

  JobDonePayload DOut;
  ASSERT_TRUE(decodeJobDone(LegacyDone, DOut));
  EXPECT_EQ(DOut.TraceId, 0u);
  EXPECT_TRUE(DOut.TraceBlob.empty());
  ASSERT_TRUE(decodeJobDone(TracedDone, DOut));
  EXPECT_EQ(DOut.TraceId, D.TraceId);
  EXPECT_EQ(DOut.TraceBlob, D.TraceBlob);

  // A traced frame with its blob torn off is a decode error, not a
  // silently-mangled payload.
  EXPECT_FALSE(decodeJobDone(TracedDone.substr(0, TracedDone.size() - 4), DOut));
}

TEST(ServerTest, ShutdownFrameDrainsAndStops) {
  ServeDir D("shutdown");
  ValidationServer Server(smallServerConfig(D));
  ASSERT_TRUE(Server.start());
  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  std::string Json;
  JobDonePayload Done;
  ASSERT_TRUE(runJob(Client, sqliteSubmission(6), &Json, &Done));
  EXPECT_TRUE(Client.requestShutdown());
  // wait() completes the stop the frame requested.
  Server.wait();
  EXPECT_TRUE(Server.isStopped());
  // Submissions after shutdown are refused (the listener is gone).
  ServerClient Late;
  EXPECT_FALSE(Late.connectUnix(D.Sock));
}

//===----------------------------------------------------------------------===//
// Connect retry (fleet dispatchers ride out worker restarts with this)
//===----------------------------------------------------------------------===//

TEST(ServerTest, RetryBackoffScheduleIsDeterministic) {
  ServerClient::RetryPolicy P;
  P.BaseDelayMs = 10;
  P.MaxDelayMs = 1000;
  // Exponential doubling from the base...
  EXPECT_EQ(ServerClient::retryDelayMs(P, 0), 10u);
  EXPECT_EQ(ServerClient::retryDelayMs(P, 1), 20u);
  EXPECT_EQ(ServerClient::retryDelayMs(P, 2), 40u);
  EXPECT_EQ(ServerClient::retryDelayMs(P, 3), 80u);
  EXPECT_EQ(ServerClient::retryDelayMs(P, 6), 640u);
  // ...saturating at the cap instead of overflowing the shift.
  EXPECT_EQ(ServerClient::retryDelayMs(P, 7), 1000u);
  EXPECT_EQ(ServerClient::retryDelayMs(P, 31), 1000u);
  EXPECT_EQ(ServerClient::retryDelayMs(P, 200), 1000u);

  ServerClient::RetryPolicy Tight;
  Tight.BaseDelayMs = 0;
  Tight.MaxDelayMs = 0;
  EXPECT_EQ(ServerClient::retryDelayMs(Tight, 5), 0u);
}

TEST(ServerTest, ConnectRetriesUntilTheSocketAppears) {
  ServeDir D("retry");

  // Bind the daemon only after a delay: the default fail-fast client must
  // error immediately, while a retrying client (the fleet's dispatcher
  // behavior) connects once the socket shows up.
  ServerClient FailFast;
  EXPECT_FALSE(FailFast.connectUnix(D.Sock));

  ValidationServer Server(smallServerConfig(D, 1, /*Triage=*/false));
  std::thread Late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ASSERT_TRUE(Server.start());
  });

  ServerClient Patient;
  Patient.Retry.Retries = 30;
  Patient.Retry.BaseDelayMs = 20;
  Patient.Retry.MaxDelayMs = 100;
  std::string Error;
  EXPECT_TRUE(Patient.connectUnix(D.Sock, &Error)) << Error;
  EXPECT_TRUE(Patient.handshake(
      verdictStoreConfigDigest(RuleConfig{}), nullptr, &Error))
      << Error;
  EXPECT_TRUE(Patient.ping());

  Late.join();
  Server.stop();
}

TEST(ServerTest, WorkerHelloReportsTheServersOwnPid) {
  ServeDir D("workerhello");
  ServerConfig SC = smallServerConfig(D, 1, /*Triage=*/false,
                                      /*WithStore=*/true);
  ValidationServer Server(std::move(SC));
  ASSERT_TRUE(Server.start());

  ServerClient Client;
  ASSERT_TRUE(attach(Client, D.Sock));
  WorkerHelloPayload WH;
  WH.RouterId = 42;
  WH.WorkerIndex = 3;
  WH.Generation = 7;
  WorkerHelloOkPayload Ok;
  std::string Error;
  ASSERT_TRUE(Client.workerHello(WH, &Ok, &Error)) << Error;
  // The pid is the identity check the fleet's stale-socket defense rests
  // on; the store path tells the router which shard this worker persists.
  EXPECT_EQ(Ok.Pid, static_cast<uint64_t>(::getpid()));
  EXPECT_EQ(Ok.StorePath, D.Store);
  Server.stop();
}
