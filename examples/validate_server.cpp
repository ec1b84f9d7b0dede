//===- validate_server.cpp - Validation service daemon ------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The long-running front-end of the validation engine: listen on a
// unix-domain socket (and/or loopback TCP), keep one engine and its warm
// verdict/triage store hot, and serve every connected client's submissions
// from the shared caches. See src/server/ValidationServer.h for the
// architecture and src/server/Protocol.h for the wire format.
//
//   $ ./validate_server [options]
//     --listen PATH      unix-domain socket to listen on
//                        (default: llvmmd-serve.sock in the CWD)
//     --tcp PORT         also listen on 127.0.0.1:PORT (0 picks a free
//                        port and prints it)
//     --no-unix          TCP only: do not bind the unix socket
//     --threads N        engine worker threads (default: hardware)
//     --pipeline P       pass pipeline for submitted modules (default:
//                        the paper's); an unknown pass exits 2
//     --all-rules        enable the libc/float/global extension rule sets
//     --rule-mask N      set the rule mask explicitly
//     --stepwise         per-pass validation with guilty-pass attribution
//     --triage           triage every rejected pair (witness search,
//                        reduction, rule-gap attribution)
//     --cache PATH       persistent verdict store: loaded at startup,
//                        checkpointed while serving, saved at shutdown —
//                        a restarted daemon replays verdicts and triage
//                        results warm
//     --queue N          admission control: at most N queued jobs
//                        (default 32)
//     --checkpoint N     checkpoint the store every N completed jobs
//                        (default 1; 0 = only at shutdown)
//     --print-config-digest
//                        print the handshake/store config digest and exit
//     --slow-job-ms N    log a warn-level line for any job slower than N
//                        milliseconds end-to-end (0 = disabled); traced
//                        jobs carry their trace id in the line
//     --http-metrics A   serve GET /metrics (Prometheus text exposition,
//                        same content as the protocol Metrics frame) and
//                        /healthz over HTTP on HOST:PORT (port 0 =
//                        ephemeral, printed at startup)
//     --log-level L      diagnostic log verbosity: debug|info|warn|error|
//                        off (default warn; LLVMMD_LOG env is the fallback)
//     --log-json         emit log lines as JSON objects (one per line)
//                        instead of text — for log shippers
//     --quiet            only errors on stderr
//
// The daemon runs until a client sends a Shutdown frame or it receives
// SIGINT/SIGTERM; either way it drains admitted jobs, checkpoints the
// store, and exits 0.
//
//===----------------------------------------------------------------------===//

#include "opt/Pass.h"
#include "server/ValidationServer.h"
#include "support/Log.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace llvmmd;

namespace {

ValidationServer *TheServer = nullptr;

void onSignal(int) {
  // Only atomic stores are allowed here; the server's waiters poll their
  // stop flags, and the actual teardown happens on wait().
  if (TheServer)
    TheServer->requestStopFromSignal();
}

} // namespace

int main(int argc, char **argv) {
  ServerConfig C;
  C.UnixPath = "llvmmd-serve.sock";
  bool NoUnix = false, Quiet = false, PrintDigest = false;

  for (int I = 1; I < argc; ++I) {
    auto Value = [&](const char *Opt) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Opt);
        return nullptr;
      }
      return argv[++I];
    };
    if (std::strcmp(argv[I], "--listen") == 0) {
      const char *V = Value("--listen");
      if (!V)
        return 1;
      C.UnixPath = V;
    } else if (std::strcmp(argv[I], "--tcp") == 0) {
      const char *V = Value("--tcp");
      if (!V)
        return 1;
      int Port = std::atoi(V);
      if (Port < 0 || Port > 65535) {
        std::fprintf(stderr, "error: bad --tcp port '%s'\n", V);
        return 1;
      }
      C.TcpPort = Port;
    } else if (std::strcmp(argv[I], "--no-unix") == 0) {
      NoUnix = true;
    } else if (std::strcmp(argv[I], "--threads") == 0) {
      const char *V = Value("--threads");
      if (!V)
        return 1;
      C.Engine.Threads = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(argv[I], "--pipeline") == 0) {
      const char *V = Value("--pipeline");
      if (!V)
        return 1;
      C.Pipeline = V;
    } else if (std::strcmp(argv[I], "--all-rules") == 0) {
      C.Engine.Rules.Mask = RS_All;
    } else if (std::strcmp(argv[I], "--rule-mask") == 0) {
      const char *V = Value("--rule-mask");
      if (!V)
        return 1;
      char *End = nullptr;
      unsigned long Mask = std::strtoul(V, &End, 0);
      if (!End || *End != '\0' || Mask > RS_All) {
        std::fprintf(stderr, "error: bad --rule-mask value '%s'\n", V);
        return 1;
      }
      C.Engine.Rules.Mask = static_cast<unsigned>(Mask);
    } else if (std::strcmp(argv[I], "--stepwise") == 0) {
      C.Engine.Granularity = ValidationGranularity::PerPass;
    } else if (std::strcmp(argv[I], "--triage") == 0) {
      C.Engine.Triage.Enabled = true;
    } else if (std::strcmp(argv[I], "--cache") == 0) {
      const char *V = Value("--cache");
      if (!V)
        return 1;
      C.Engine.CachePath = V;
    } else if (std::strcmp(argv[I], "--queue") == 0) {
      const char *V = Value("--queue");
      if (!V)
        return 1;
      C.MaxQueuedJobs = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(argv[I], "--checkpoint") == 0) {
      const char *V = Value("--checkpoint");
      if (!V)
        return 1;
      C.CheckpointEveryJobs = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(argv[I], "--print-config-digest") == 0) {
      PrintDigest = true;
    } else if (std::strcmp(argv[I], "--slow-job-ms") == 0) {
      const char *V = Value("--slow-job-ms");
      if (!V)
        return 1;
      C.SlowJobMicroseconds =
          static_cast<uint64_t>(std::strtoull(V, nullptr, 10)) * 1000;
    } else if (std::strcmp(argv[I], "--http-metrics") == 0) {
      const char *V = Value("--http-metrics");
      if (!V)
        return 1;
      C.HttpMetrics = V;
    } else if (std::strcmp(argv[I], "--log-level") == 0) {
      const char *V = Value("--log-level");
      if (!V)
        return 1;
      LogLevel L;
      if (!parseLogLevel(V, L)) {
        std::fprintf(stderr,
                     "error: bad --log-level '%s' "
                     "(debug|info|warn|error|off)\n",
                     V);
        return 1;
      }
      setLogLevel(L);
    } else if (std::strcmp(argv[I], "--log-json") == 0) {
      setLogJSON(true);
    } else if (std::strcmp(argv[I], "--quiet") == 0) {
      Quiet = true;
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return 1;
    }
  }
  if (NoUnix)
    C.UnixPath.clear();
  // An unknown pass would let every job "succeed" with nothing
  // transformed; refuse it before binding anything.
  if (std::string Bad = pipelineError(C.Pipeline); !Bad.empty()) {
    std::fprintf(stderr, "error: %s\n", Bad.c_str());
    return 2;
  }

  // Remember the HTTP host for the startup banner (scripts grep the
  // "http:" line for the ephemeral port); the config moves into the
  // server next.
  std::string HttpHost = "127.0.0.1";
  size_t HostEnd = C.HttpMetrics.rfind(':');
  if (HostEnd != std::string::npos && HostEnd > 0)
    HttpHost = C.HttpMetrics.substr(0, HostEnd);
  if (HttpHost == "localhost")
    HttpHost = "127.0.0.1";

  ValidationServer Server(std::move(C));
  if (PrintDigest) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(Server.configDigest()));
    return 0;
  }

  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  TheServer = &Server;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  if (!Quiet) {
    std::printf("validate_server: listening (config digest %016llx, "
                "%u engine threads)\n",
                static_cast<unsigned long long>(Server.configDigest()),
                Server.engineThreads());
    if (Server.boundTcpPort() >= 0)
      std::printf("  tcp: 127.0.0.1:%d\n", Server.boundTcpPort());
    if (Server.boundHttpPort() >= 0)
      std::printf("  http: %s:%d\n", HttpHost.c_str(),
                  Server.boundHttpPort());
    std::fflush(stdout);
  }

  // Serve until a Shutdown frame or signal; wait() performs the graceful
  // teardown (drain + checkpoint) itself.
  Server.wait();
  TheServer = nullptr;
  if (!Quiet)
    std::printf("validate_server: stopped cleanly\n");
  return 0;
}
