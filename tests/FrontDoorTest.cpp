//===- FrontDoorTest.cpp - Hostile input at the daemons' front doors ----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Both daemons — `validate_server` (ValidationServer) and `validate_fleet`
// (FleetRouter) — take client bytes through one front door
// (server/FrontDoor.h). The parametrised tests drive each daemon with the
// same hostile input: garbage, oversized and truncated frames must close
// only the offending connection, and a start that fails after a listener
// was bound must leave nothing a client could connect to.
//
// The frame codec tests feed seeded mutations (byte flips, truncations,
// extensions) of valid encodings to every payload decoder and to
// readFrame: a decoder accepts exactly the bytes its encoder produces,
// and readFrame classifies every input as its header says.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetRouter.h"
#include "server/ServerClient.h"
#include "server/ValidationServer.h"

#include "driver/VerdictStore.h"
#include "support/Hashing.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <netinet/in.h>
#include <string>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#include <vector>

using namespace llvmmd;

namespace {

enum class Daemon { Server, Fleet };

struct Listeners {
  std::string UnixPath;
  int TcpPort = -1;
  std::string HttpMetrics;
  uint32_t MaxFrameBytes = DefaultMaxFrameBytes;
};

/// One daemon of either kind on a fresh unix socket under the test temp
/// dir. A fleet gets one worker (the stock `validate_server` next to this
/// test in the build tree, ctest's working directory).
class FrontDoorTest : public ::testing::TestWithParam<Daemon> {
protected:
  void SetUp() override {
    // Parametrised test names carry a '/' ("Name/Server").
    std::string Name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::replace(Name.begin(), Name.end(), '/', '-');
    Sock = ::testing::TempDir() + "/llvmmd-door-" + Name + ".sock";
    removeSockets();
  }
  void TearDown() override {
    stop();
    removeSockets();
  }

  void removeSockets() {
    std::remove(Sock.c_str());
    std::remove((Sock + ".w0").c_str());
  }

  bool start(const Listeners &L, std::string *Error = nullptr) {
    if (GetParam() == Daemon::Server) {
      ServerConfig C;
      C.UnixPath = L.UnixPath;
      C.TcpPort = L.TcpPort;
      C.HttpMetrics = L.HttpMetrics;
      C.MaxFrameBytes = L.MaxFrameBytes;
      C.Engine.Threads = 1;
      Server = std::make_unique<ValidationServer>(C);
      return Server->start(Error);
    }
    FleetConfig C;
    C.UnixPath = L.UnixPath;
    C.TcpPort = L.TcpPort;
    C.HttpMetrics = L.HttpMetrics;
    C.MaxFrameBytes = L.MaxFrameBytes;
    C.Workers = 1;
    C.WorkerBinary = "./validate_server";
    C.WorkerThreads = 1;
    Fleet = std::make_unique<FleetRouter>(C);
    return Fleet->start(Error);
  }

  bool start(std::string *Error = nullptr) {
    Listeners L;
    L.UnixPath = Sock;
    return start(L, Error);
  }

  /// Destroys the daemon (a started one stops first).
  void stop() {
    Server.reset();
    Fleet.reset();
  }

  uint64_t protocolErrors() const {
    return Server ? Server->counters().ProtocolErrors
                  : Fleet->counters().ProtocolErrors;
  }

  /// Connect + handshake under the default rules, then one Ping: the
  /// daemon still serves a well-behaved client.
  bool serves() const {
    ServerClient Client;
    return Client.connectUnix(Sock) &&
           Client.handshake(verdictStoreConfigDigest(RuleConfig())) &&
           Client.ping();
  }

  std::string Sock;
  std::unique_ptr<ValidationServer> Server;
  std::unique_ptr<FleetRouter> Fleet;
};

std::string daemonName(const ::testing::TestParamInfo<Daemon> &Info) {
  return Info.param == Daemon::Server ? "Server" : "Fleet";
}

/// A listening loopback socket on an ephemeral port, closed on
/// destruction: a port any other bind must fail on.
struct BusyPort {
  int Fd = -1;
  int Port = -1;
  BusyPort() {
    Fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = 0;
    socklen_t Len = sizeof(Addr);
    if (Fd >= 0 &&
        ::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) == 0 &&
        ::listen(Fd, 1) == 0 &&
        ::getsockname(Fd, reinterpret_cast<sockaddr *>(&Addr), &Len) == 0)
      Port = ntohs(Addr.sin_port);
  }
  ~BusyPort() {
    if (Fd >= 0)
      ::close(Fd);
  }
};

bool pathExists(const std::string &Path) {
  struct stat St;
  return ::stat(Path.c_str(), &St) == 0;
}

} // namespace

INSTANTIATE_TEST_SUITE_P(BothDaemons, FrontDoorTest,
                         ::testing::Values(Daemon::Server, Daemon::Fleet),
                         daemonName);

//===----------------------------------------------------------------------===//
// Frame robustness: nothing a client sends may take a daemon down
//===----------------------------------------------------------------------===//

TEST_P(FrontDoorTest, GarbageFrameClosesOnlyThatConnection) {
  std::string Error;
  ASSERT_TRUE(start(&Error)) << Error;

  // A frame with a plausible header but an unknown type and junk payload.
  ServerClient Raw;
  ASSERT_TRUE(Raw.connectUnix(Sock));
  ASSERT_TRUE(Raw.sendRaw(static_cast<FrameType>(0xEE), "\x01\x02garbage"));
  // The daemon answers with a protocol error (it has not seen Hello) and
  // closes; either the error frame or a straight EOF is acceptable.
  Frame F;
  ReadStatus RS = readFrame(Raw.fd(), F, DefaultMaxFrameBytes);
  if (RS == ReadStatus::Ok)
    EXPECT_EQ(F.Type, FrameType::Error);
  EXPECT_TRUE(serves());
}

TEST_P(FrontDoorTest, OversizedFrameIsRejectedBeforeItsPayload) {
  Listeners L;
  L.UnixPath = Sock;
  L.MaxFrameBytes = 4096;
  std::string Error;
  ASSERT_TRUE(start(L, &Error)) << Error;

  // Hand-write a header claiming a payload far past the daemon's limit;
  // it must reject on the header alone (the body is never sent).
  ServerClient Raw;
  ASSERT_TRUE(Raw.connectUnix(Sock));
  std::string Header;
  appendU32LE(Header, 64u << 20);
  Header.push_back(static_cast<char>(FrameType::Hello));
  ASSERT_EQ(::send(Raw.fd(), Header.data(), Header.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(Header.size()));
  Frame F;
  ASSERT_EQ(readFrame(Raw.fd(), F, DefaultMaxFrameBytes), ReadStatus::Ok);
  ASSERT_EQ(F.Type, FrameType::Error);
  ErrorPayload E;
  ASSERT_TRUE(decodeError(F.Payload, E));
  EXPECT_EQ(E.Code, ErrorCode::Protocol);
  EXPECT_NE(E.Message.find("size"), std::string::npos) << E.Message;

  EXPECT_TRUE(serves());
  EXPECT_GE(protocolErrors(), 1u);
}

TEST_P(FrontDoorTest, TruncatedFrameIsACleanDisconnect) {
  std::string Error;
  ASSERT_TRUE(start(&Error)) << Error;

  // Half a header, then hang up.
  {
    ServerClient Raw;
    ASSERT_TRUE(Raw.connectUnix(Sock));
    ASSERT_EQ(::send(Raw.fd(), "\x08\x00", 2, MSG_NOSIGNAL), 2);
    Raw.close();
  }
  // A full header promising more payload than ever arrives.
  {
    ServerClient Raw;
    ASSERT_TRUE(Raw.connectUnix(Sock));
    std::string Header;
    appendU32LE(Header, 100);
    Header.push_back(static_cast<char>(FrameType::Hello));
    ASSERT_EQ(::send(Raw.fd(), Header.data(), Header.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(Header.size()));
    Raw.close();
  }
  EXPECT_TRUE(serves());
}

//===----------------------------------------------------------------------===//
// Lifecycle: a failed start leaves no listener behind
//===----------------------------------------------------------------------===//

TEST_P(FrontDoorTest, FailedStartLeavesNoListener) {
  // The unix listener binds first; the TCP listener or the HTTP sidecar
  // then fails on a port that is already taken.
  BusyPort Busy;
  ASSERT_GT(Busy.Port, 0);
  for (bool Http : {false, true}) {
    SCOPED_TRACE(Http ? "HTTP sidecar bind fails" : "TCP bind fails");
    Listeners L;
    L.UnixPath = Sock;
    if (Http)
      L.HttpMetrics = "127.0.0.1:" + std::to_string(Busy.Port);
    else
      L.TcpPort = Busy.Port;
    std::string Error;
    EXPECT_FALSE(start(L, &Error));
    EXPECT_FALSE(Error.empty());
    // Right after the failed start, and again after the destructor: no
    // socket file, and nothing a client could attach to.
    for (int Phase = 0; Phase < 2; ++Phase) {
      EXPECT_FALSE(pathExists(Sock)) << "phase " << Phase;
      ServerClient Probe;
      EXPECT_FALSE(Probe.connectUnix(Sock)) << "phase " << Phase;
      stop();
    }
  }
}

//===----------------------------------------------------------------------===//
// Frame codecs under seeded mutation
//===----------------------------------------------------------------------===//

namespace {

/// One payload codec: valid sample encodings, and "decode these bytes and
/// re-encode what came out" (false when the decoder refuses them).
struct Codec {
  std::string Name;
  std::vector<std::string> Samples;
  std::function<bool(const std::string &, std::string &)> DecodeThenEncode;
};

template <typename P>
Codec makeCodec(const std::string &Name, std::string (*Encode)(const P &),
                bool (*Decode)(const std::string &, P &),
                const std::vector<P> &Payloads) {
  Codec C;
  C.Name = Name;
  for (const P &Payload : Payloads)
    C.Samples.push_back(Encode(Payload));
  C.DecodeThenEncode = [Encode, Decode](const std::string &Bytes,
                                        std::string &Out) {
    P Decoded;
    if (!Decode(Bytes, Decoded))
      return false;
    Out = Encode(Decoded);
    return true;
  };
  return C;
}

std::vector<Codec> allCodecs() {
  HelloPayload Hello;
  Hello.ConfigDigest = 0x1234abcd;
  HelloOkPayload HelloOk;
  HelloOk.ConfigDigest = 0x77;
  HelloOk.EngineThreads = 4;
  HelloOk.TriageEnabled = 1;

  SubmitModule Profile;
  Profile.Source = SubmitProfile;
  Profile.Name = "sqlite";
  Profile.FnCount = 16;
  SubmitModule Inline;
  Inline.Source = SubmitInlineLLVM;
  Inline.Name = "m";
  Inline.Text = "define i32 @f() {\n  ret i32 0\n}\n";
  SubmitPayload Submit, TracedSubmit, EmptySubmit;
  Submit.Modules = {Profile, Inline};
  TracedSubmit.Modules = {Profile};
  // One nonzero byte: a single mutation can zero the whole id.
  TracedSubmit.TraceId = 0x2a;

  AcceptedPayload Accepted;
  Accepted.JobId = 9;
  Accepted.QueuePosition = 2;
  FunctionPayload Function;
  Function.ModuleIndex = 1;
  Function.ModuleName = "sqlite";
  Function.Json = "{\"name\": \"f\"}";
  ModuleReportPayload ModuleReport;
  ModuleReport.Json = "{}";

  JobDonePayload Done, TracedDone;
  Done.JobId = 3;
  Done.Status = 2;
  Done.Hits = 5;
  Done.Misses = 1;
  Done.WallMicroseconds = 1000;
  TracedDone = Done;
  TracedDone.TraceId = 0x2a;
  TracedDone.TraceBlob = "spans";

  ErrorPayload Error;
  Error.Code = ErrorCode::QueueFull;
  Error.Message = "queue full";
  SubscribePayload Subscribe;
  Subscribe.JobId = 11;
  JobIdPayload JobId;
  JobId.JobId = 11;
  JobId.Deduplicated = 1;
  JobId.ReplayedFrames = 7;
  WorkerHelloPayload WorkerHello;
  WorkerHello.RouterId = 100;
  WorkerHello.WorkerIndex = 1;
  WorkerHello.Generation = 2;
  WorkerHelloOkPayload WorkerHelloOk;
  WorkerHelloOk.Pid = 4242;
  WorkerHelloOk.JobsCompleted = 8;
  WorkerHelloOk.StorePath = "/tmp/s.vstore.0";

  return {
      makeCodec("Hello", encodeHello, decodeHello, {Hello}),
      makeCodec("HelloOk", encodeHelloOk, decodeHelloOk, {HelloOk}),
      makeCodec("Submit", encodeSubmit, decodeSubmit,
                {Submit, TracedSubmit, EmptySubmit}),
      makeCodec("Accepted", encodeAccepted, decodeAccepted, {Accepted}),
      makeCodec("Function", encodeFunction, decodeFunction, {Function}),
      makeCodec("ModuleReport", encodeModuleReport, decodeModuleReport,
                {ModuleReport}),
      makeCodec("JobDone", encodeJobDone, decodeJobDone, {Done, TracedDone}),
      makeCodec("Error", encodeError, decodeError, {Error}),
      makeCodec("Subscribe", encodeSubscribe, decodeSubscribe, {Subscribe}),
      makeCodec("JobId", encodeJobId, decodeJobId, {JobId}),
      makeCodec("WorkerHello", encodeWorkerHello, decodeWorkerHello,
                {WorkerHello}),
      makeCodec("WorkerHelloOk", encodeWorkerHelloOk, decodeWorkerHelloOk,
                {WorkerHelloOk}),
  };
}

/// Every mutation of \p Bytes the codec tests feed a reader, each with a
/// description: all truncations, single-byte overwrites (0x00, 0xff, a
/// flipped top bit) at every offset, seeded extensions, and \p Rounds
/// seeded multi-byte flips.
void forEachMutation(
    const std::string &Bytes, SplitMixRng &R, unsigned Rounds,
    const std::function<void(const std::string &, const std::string &)>
        &Visit) {
  for (size_t Keep = 0; Keep < Bytes.size(); ++Keep)
    Visit(Bytes.substr(0, Keep), "truncated to " + std::to_string(Keep));
  for (size_t At = 0; At < Bytes.size(); ++At) {
    for (unsigned char V : {0x00, 0xff}) {
      std::string M = Bytes;
      M[At] = static_cast<char>(V);
      Visit(M, "byte " + std::to_string(At) + " = " + std::to_string(V));
    }
    std::string M = Bytes;
    M[At] = static_cast<char>(M[At] ^ 0x80);
    Visit(M, "top bit flipped @" + std::to_string(At));
  }
  for (unsigned I = 0; I < 16; ++I) {
    std::string Junk(1 + R.below(16), '\0');
    for (char &C : Junk)
      C = static_cast<char>(R.next());
    Visit(Bytes + Junk, "extended by " + std::to_string(Junk.size()));
  }
  if (Bytes.empty())
    return;
  for (unsigned Round = 0; Round < Rounds; ++Round) {
    std::string M = Bytes;
    std::string What = "flipped";
    for (unsigned Flips = 1 + R.below(3); Flips; --Flips) {
      size_t At = R.below(M.size());
      M[At] = static_cast<char>(M[At] ^ (1u << R.below(8)));
      What += " @" + std::to_string(At);
    }
    Visit(M, What);
  }
}

std::string frameBytes(FrameType T, const std::string &Payload) {
  std::string Out;
  appendU32LE(Out, static_cast<uint32_t>(Payload.size()));
  Out.push_back(static_cast<char>(T));
  return Out + Payload;
}

} // namespace

TEST(FrameCodecTest, SeededMutationsDecodeOnlyToCanonicalPayloads) {
  // A decoder must refuse the bytes, or accept exactly what its encoder
  // would have written for the payload it returns — so the payload
  // re-encodes and decodes to itself, and no two byte strings mean the
  // same frame.
  SplitMixRng R(0xf7a3e);
  for (const Codec &C : allCodecs()) {
    for (const std::string &Sample : C.Samples) {
      std::string Out;
      ASSERT_TRUE(C.DecodeThenEncode(Sample, Out)) << C.Name;
      ASSERT_EQ(Out, Sample) << C.Name;
      forEachMutation(Sample, R, 400,
                      [&](const std::string &M, const std::string &What) {
                        std::string ReEncoded;
                        if (C.DecodeThenEncode(M, ReEncoded))
                          EXPECT_EQ(ReEncoded, M) << C.Name << ", " << What;
                      });
    }
  }
}

TEST(FrameCodecTest, SeededMutationsReadAsTheirHeaderSays) {
  // readFrame over a socketpair whose writer sent the mutated bytes and
  // hung up. The expected status follows from the bytes alone: empty is
  // Eof, a short header or payload is Truncated, a length over the cap is
  // Oversized with nothing past the header consumed, and anything else is
  // Ok with exactly the header's type and payload.
  constexpr uint32_t MaxPayload = 64;
  SplitMixRng R(0x5eed);
  std::vector<std::string> Frames = {
      frameBytes(FrameType::Ping, ""),
      frameBytes(FrameType::Hello, encodeHello(HelloPayload())),
      frameBytes(FrameType::Error,
                 encodeError({ErrorCode::Protocol, "unexpected frame type"})),
  };
  for (const std::string &Sample : Frames) {
    forEachMutation(Sample, R, 200, [&](const std::string &M,
                                        const std::string &What) {
      int Fds[2];
      ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds), 0);
      ASSERT_EQ(::send(Fds[0], M.data(), M.size(), MSG_NOSIGNAL),
                static_cast<ssize_t>(M.size()));
      ::shutdown(Fds[0], SHUT_WR);
      Frame F;
      ReadStatus RS = readFrame(Fds[1], F, MaxPayload);

      uint32_t Len = 0;
      size_t Cur = 0;
      readU32LE(M.data(), M.size(), Cur, Len);
      if (M.empty()) {
        EXPECT_EQ(RS, ReadStatus::Eof) << What;
      } else if (M.size() < 5) {
        EXPECT_EQ(RS, ReadStatus::Truncated) << What;
      } else if (Len > MaxPayload) {
        EXPECT_EQ(RS, ReadStatus::Oversized) << What;
        std::string Rest(M.size(), '\0');
        ssize_t N = ::recv(Fds[1], Rest.data(), Rest.size(), 0);
        Rest.resize(N > 0 ? static_cast<size_t>(N) : 0);
        EXPECT_EQ(Rest, M.substr(5)) << What;
      } else if (M.size() < 5 + Len) {
        EXPECT_EQ(RS, ReadStatus::Truncated) << What;
      } else {
        EXPECT_EQ(RS, ReadStatus::Ok) << What;
        EXPECT_EQ(frameBytes(F.Type, F.Payload), M.substr(0, 5 + Len))
            << What;
      }
      ::close(Fds[0]);
      ::close(Fds[1]);
    });
  }
}
