//===- validate_fleet.cpp - Sharded validation fleet daemon -------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The fleet front door: a router daemon speaking the validate_server wire
// protocol that fans submissions out to N supervised per-core
// validate_server worker processes, each with a private unix socket and
// its own verdict-store shard. Clients (validate_client, the CI scripts)
// cannot tell it from a single server — same handshake, same frames,
// byte-identical suite reports — but a `kill -9`'d worker costs only the
// jobs in flight on it, and identical concurrent submissions share one
// engine run. See src/fleet/FleetRouter.h.
//
//   $ ./validate_fleet [options]
//     --listen PATH      client-facing unix socket
//                        (default: llvmmd-fleet.sock in the CWD)
//     --tcp PORT         also listen on 127.0.0.1:PORT (0 = ephemeral)
//     --no-unix          TCP only
//     --workers N        worker processes (default 2)
//     --worker-binary P  worker executable (default: validate_server next
//                        to this binary)
//     --worker-threads N engine threads per worker (default 1)
//     --pipeline P       pass pipeline for submitted modules; an unknown
//                        pass exits 2
//     --all-rules        enable the extension rule sets fleet-wide
//     --rule-mask N      set the rule mask explicitly
//     --triage           triage rejected pairs on every worker
//     --cache PATH       base verdict store; workers persist to
//                        PATH.shard<i>, merged back at shutdown
//     --queue N          admission control across the fleet (default 64)
//     --checkpoint N     worker checkpoint cadence in jobs (default 1)
//     --max-attempts N   dispatch attempts per job (default 2 = one
//                        requeue after a worker crash)
//     --no-health-ping   disable the monitor's protocol-level health pings
//     --http-metrics A   serve GET /metrics (the fleet-wide Prometheus
//                        roll-up) and /healthz over HTTP on HOST:PORT
//                        (port 0 = ephemeral, printed at startup)
//     --trace FILE       trace the fleet: every admitted job gets a trace
//                        id, workers ship their spans home, and one
//                        merged Chrome trace-event JSON (open in
//                        ui.perfetto.dev) is written at shutdown
//     --print-config-digest
//                        print the handshake/store config digest and exit
//     --log-level L      diagnostic log verbosity: debug|info|warn|error|
//                        off (default warn; LLVMMD_LOG env is the fallback)
//     --log-json         emit log lines as JSON objects instead of text
//     --quiet            only errors on stderr
//
// Runs until a client sends Shutdown or SIGINT/SIGTERM arrives; either way
// the dispatchers drain, the workers checkpoint and exit, and the shards
// merge into the base store so the next start replays 100% warm.
//
//===----------------------------------------------------------------------===//

#include "fleet/FleetRouter.h"
#include "opt/Pass.h"
#include "support/Log.h"
#include "support/Trace.h"

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

using namespace llvmmd;

namespace {

FleetRouter *TheRouter = nullptr;

void onSignal(int) {
  // Only atomic stores are allowed here; every waiter polls its stop flag
  // and the teardown happens on wait().
  if (TheRouter)
    TheRouter->requestStopFromSignal();
}

/// The worker binary defaults to `validate_server` in this binary's own
/// directory, so `./validate_fleet` from a build tree just works.
std::string defaultWorkerBinary(const char *Argv0) {
  std::string Self = Argv0 ? Argv0 : "";
  size_t Slash = Self.rfind('/');
  if (Slash == std::string::npos)
    return "./validate_server";
  return Self.substr(0, Slash + 1) + "validate_server";
}

} // namespace

int main(int argc, char **argv) {
  FleetConfig C;
  C.UnixPath = "llvmmd-fleet.sock";
  C.WorkerBinary = defaultWorkerBinary(argv[0]);
  bool NoUnix = false, Quiet = false, PrintDigest = false;
  std::string TracePath;

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
    } else if (std::strcmp(argv[I], "--workers") == 0) {
      const char *V = Value("--workers");
      if (!V)
        return 1;
      int N = std::atoi(V);
      if (N < 1 || N > 256) {
        std::fprintf(stderr, "error: bad --workers count '%s'\n", V);
        return 1;
      }
      C.Workers = static_cast<unsigned>(N);
    } else if (std::strcmp(argv[I], "--worker-binary") == 0) {
      const char *V = Value("--worker-binary");
      if (!V)
        return 1;
      C.WorkerBinary = V;
    } else if (std::strcmp(argv[I], "--worker-threads") == 0) {
      const char *V = Value("--worker-threads");
      if (!V)
        return 1;
      C.WorkerThreads = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(argv[I], "--pipeline") == 0) {
      const char *V = Value("--pipeline");
      if (!V)
        return 1;
      C.Pipeline = V;
    } else if (std::strcmp(argv[I], "--all-rules") == 0) {
      C.Rules.Mask = RS_All;
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
      C.Rules.Mask = static_cast<unsigned>(Mask);
    } else if (std::strcmp(argv[I], "--triage") == 0) {
      C.Triage = true;
    } else if (std::strcmp(argv[I], "--cache") == 0) {
      const char *V = Value("--cache");
      if (!V)
        return 1;
      C.StorePath = V;
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
    } else if (std::strcmp(argv[I], "--max-attempts") == 0) {
      const char *V = Value("--max-attempts");
      if (!V)
        return 1;
      int N = std::atoi(V);
      if (N < 1) {
        std::fprintf(stderr, "error: bad --max-attempts value '%s'\n", V);
        return 1;
      }
      C.MaxJobAttempts = static_cast<unsigned>(N);
    } else if (std::strcmp(argv[I], "--no-health-ping") == 0) {
      C.HealthPing = false;
    } else if (std::strcmp(argv[I], "--http-metrics") == 0) {
      const char *V = Value("--http-metrics");
      if (!V)
        return 1;
      C.HttpMetrics = V;
    } else if (std::strcmp(argv[I], "--trace") == 0) {
      const char *V = Value("--trace");
      if (!V)
        return 1;
      TracePath = V;
    } else if (std::strcmp(argv[I], "--print-config-digest") == 0) {
      PrintDigest = true;
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
  // router next.
  std::string HttpHost = "127.0.0.1";
  size_t HostEnd = C.HttpMetrics.rfind(':');
  if (HostEnd != std::string::npos && HostEnd > 0)
    HttpHost = C.HttpMetrics.substr(0, HostEnd);
  if (HttpHost == "localhost")
    HttpHost = "127.0.0.1";

  FleetRouter Router(std::move(C));
  if (PrintDigest) {
    std::printf("%016llx\n",
                static_cast<unsigned long long>(Router.configDigest()));
    return 0;
  }

  // Tracing goes on before the router serves: the Submit path mints a
  // trace id for every admitted job only while tracing is enabled.
  if (!TracePath.empty())
    traceEnable();

  std::string Error;
  if (!Router.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  TheRouter = &Router;
  std::signal(SIGINT, onSignal);
  std::signal(SIGTERM, onSignal);

  if (!Quiet) {
    WorkerManager *WM = Router.workers();
    std::printf("validate_fleet: routing (config digest %016llx)\n",
                static_cast<unsigned long long>(Router.configDigest()));
    for (unsigned W = 0; WM && W < WM->count(); ++W)
      std::printf("  worker %u: pid %ld on %s\n", W,
                  static_cast<long>(WM->pid(W)), WM->socketPath(W).c_str());
    if (Router.boundTcpPort() >= 0)
      std::printf("  tcp: 127.0.0.1:%d\n", Router.boundTcpPort());
    if (Router.boundHttpPort() >= 0)
      std::printf("  http: %s:%d\n", HttpHost.c_str(),
                  Router.boundHttpPort());
    std::fflush(stdout);
  }

  Router.wait();
  TheRouter = nullptr;

  // Written after the drain: every dispatched job's span blob has been
  // ingested by then, so the file is the whole fleet's merged flame.
  if (!TracePath.empty()) {
    std::string TraceErr;
    if (!traceWriteFile(TracePath, &TraceErr))
      std::fprintf(stderr, "error: cannot write trace: %s\n",
                   TraceErr.c_str());
    else if (!Quiet)
      std::printf("validate_fleet: merged trace written to %s\n",
                  TracePath.c_str());
  }

  if (!Quiet)
    std::printf("validate_fleet: stopped cleanly\n");
  return 0;
}
