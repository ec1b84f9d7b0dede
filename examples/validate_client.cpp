//===- validate_client.cpp - Validation service client CLI --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Submits work to a running validate_server and streams the verdicts as
// they are proven. The final suite report is byte-identical to what
// `batch_validate --json` emits for the same inputs and cache state, and
// --expect-warm keeps its batch meaning end to end over the wire: exit 3
// unless the daemon replayed every verdict *and* every triage result.
//
//   $ ./validate_client [options] [SPEC ...]
//     SPEC               module spec: FILE, `-` (stdin) or profile:NAME —
//                        the same --input grammar every llvm-md CLI takes;
//                        file/stdin text is read locally and submitted
//                        inline (the server reads it as .ll)
//     --input SPEC       same as a positional SPEC
//     --connect PATH     unix-domain socket of the daemon
//                        (default: llvmmd-serve.sock)
//     --tcp HOST:PORT    connect over TCP instead
//     --suite NAMES      submit the comma-separated benchmark profiles
//                        (same as profile:A profile:B ...)
//     --functions N      override each profile's function count (testing)
//     --all-rules        handshake for the extended rule configuration
//     --rule-mask N      handshake for an explicit rule mask; the daemon
//                        rejects a digest mismatch rather than serving
//                        verdicts proven under different rules
//     --json [PATH]      write the final suite-report JSON (default stdout)
//     --progress         print one line per streamed function verdict
//     --expect-warm      exit 3 unless the job replayed 100% warm
//     --stats            print the daemon's /stats JSON after the job
//     --metrics          print the daemon's /metrics scrape (Prometheus
//                        text exposition; against a fleet router this is
//                        the fleet-wide roll-up) after the job
//     --shutdown         ask the daemon to shut down (after any job)
//     --quiet            suppress the text summary
//
// Exit status mirrors batch_validate: 0 all validated, 2 some
// transformation could not be proven, 3 --expect-warm violated, 1 on
// usage/connection/protocol errors.
//
//===----------------------------------------------------------------------===//

#include "driver/ModuleLoader.h"
#include "driver/VerdictStore.h"
#include "normalize/Rules.h"
#include "server/ServerClient.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

using namespace llvmmd;

namespace {

void printHelp() {
  std::fputs("usage: validate_client [options] [SPEC ...]\n\n", stdout);
  std::fputs(moduleSpecHelp(), stdout);
  std::fputs("\n  See the header of examples/validate_client.cpp for the "
             "full option list.\n",
             stdout);
}

bool writeOrPrint(const std::string &Path, const std::string &Content) {
  if (Path.empty() || Path == "-") {
    std::fputs(Content.c_str(), stdout);
    return true;
  }
  std::ofstream Out(Path);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Path.c_str());
    return false;
  }
  Out << Content;
  return true;
}

} // namespace

int main(int argc, char **argv) {
  std::string UnixPath = "llvmmd-serve.sock";
  std::string TcpHost;
  uint16_t TcpPort = 0;
  std::string SuiteNames, JsonPath;
  std::vector<ModuleSpec> Specs;
  bool EmitJson = false, Progress = false, ExpectWarm = false;
  bool WantStats = false, WantMetrics = false, WantShutdown = false;
  bool Quiet = false;
  unsigned FnCount = 0;
  RuleConfig Rules;

  for (int I = 1; I < argc; ++I) {
    if (std::strcmp(argv[I], "--help") == 0) {
      printHelp();
      return 0;
    } else if (std::strcmp(argv[I], "--input") == 0 && I + 1 < argc) {
      Specs.push_back(parseModuleSpec(argv[++I]));
    } else if (std::strcmp(argv[I], "--connect") == 0 && I + 1 < argc) {
      UnixPath = argv[++I];
    } else if (std::strcmp(argv[I], "--tcp") == 0 && I + 1 < argc) {
      std::string V = argv[++I];
      size_t Colon = V.rfind(':');
      if (Colon == std::string::npos) {
        std::fprintf(stderr, "error: --tcp needs HOST:PORT\n");
        return 1;
      }
      TcpHost = V.substr(0, Colon);
      TcpPort = static_cast<uint16_t>(std::atoi(V.c_str() + Colon + 1));
    } else if (std::strcmp(argv[I], "--suite") == 0 && I + 1 < argc) {
      SuiteNames = argv[++I];
    } else if (std::strcmp(argv[I], "--functions") == 0 && I + 1 < argc) {
      FnCount = static_cast<unsigned>(std::atoi(argv[++I]));
    } else if (std::strcmp(argv[I], "--all-rules") == 0) {
      Rules.Mask = RS_All;
    } else if (std::strcmp(argv[I], "--rule-mask") == 0 && I + 1 < argc) {
      char *End = nullptr;
      unsigned long V = std::strtoul(argv[++I], &End, 0);
      if (!End || *End != '\0' || V > RS_All) {
        std::fprintf(stderr, "error: bad --rule-mask value '%s'\n", argv[I]);
        return 1;
      }
      Rules.Mask = static_cast<unsigned>(V);
    } else if (std::strcmp(argv[I], "--json") == 0) {
      EmitJson = true;
      if (I + 1 < argc && (argv[I + 1][0] != '-' || argv[I + 1][1] == '\0'))
        JsonPath = argv[++I];
    } else if (std::strcmp(argv[I], "--progress") == 0) {
      Progress = true;
    } else if (std::strcmp(argv[I], "--expect-warm") == 0) {
      ExpectWarm = true;
    } else if (std::strcmp(argv[I], "--stats") == 0) {
      WantStats = true;
    } else if (std::strcmp(argv[I], "--metrics") == 0) {
      WantMetrics = true;
    } else if (std::strcmp(argv[I], "--shutdown") == 0) {
      WantShutdown = true;
    } else if (std::strcmp(argv[I], "--quiet") == 0) {
      Quiet = true;
    } else if (argv[I][0] != '-' || argv[I][1] == '\0') {
      Specs.push_back(parseModuleSpec(argv[I]));
    } else {
      std::fprintf(stderr, "error: unknown option '%s'\n", argv[I]);
      return 1;
    }
  }

  // Build the submission. --suite NAMES is shorthand for profile:NAME
  // specs; every other spec's text is read locally and submitted inline
  // (the server's ModuleLoader reads it the way the batch CLI would).
  SubmitPayload Req;
  if (!SuiteNames.empty()) {
    std::stringstream SS(SuiteNames);
    std::string Name;
    while (std::getline(SS, Name, ',')) {
      if (Name.empty())
        continue;
      ModuleSpec S;
      S.From = ModuleSpec::Source::Profile;
      S.Value = Name;
      Specs.push_back(std::move(S));
    }
  }
  for (const ModuleSpec &Spec : Specs) {
    SubmitModule M;
    switch (Spec.From) {
    case ModuleSpec::Source::Profile:
      M.Source = SubmitProfile;
      M.Name = Spec.Value;
      M.FnCount = FnCount;
      break;
    case ModuleSpec::Source::Stdin: {
      std::ostringstream SS;
      SS << std::cin.rdbuf();
      M.Source = SubmitInlineAuto;
      M.Name = "<stdin>";
      M.Text = SS.str();
      break;
    }
    case ModuleSpec::Source::File:
    case ModuleSpec::Source::Inline: {
      std::ifstream In(Spec.Value);
      if (!In) {
        std::fprintf(stderr, "error: cannot open %s\n", Spec.Value.c_str());
        return 1;
      }
      std::ostringstream SS;
      SS << In.rdbuf();
      M.Source = SubmitInlineAuto;
      M.Name = Spec.Value;
      M.Text = SS.str();
      break;
    }
    }
    Req.Modules.push_back(std::move(M));
  }
  bool HaveJob = !Req.Modules.empty();
  if (!HaveJob && !WantStats && !WantMetrics && !WantShutdown) {
    std::fprintf(stderr,
                 "error: nothing to do (need --suite, input files, --stats, "
                 "--metrics or --shutdown)\n");
    return 1;
  }

  ServerClient Client;
  std::string Error;
  bool Connected = !TcpHost.empty()
                       ? Client.connectTcp(TcpHost, TcpPort, &Error)
                       : Client.connectUnix(UnixPath, &Error);
  if (!Connected) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }

  HelloOkPayload Info;
  if (!Client.handshake(verdictStoreConfigDigest(Rules), &Info, &Error)) {
    std::fprintf(stderr, "error: handshake failed: %s\n", Error.c_str());
    return 1;
  }

  int ExitCode = 0;
  if (HaveJob) {
    AcceptedPayload Accepted;
    if (!Client.submit(Req, &Accepted, &Error)) {
      std::fprintf(stderr, "error: submit failed: %s\n", Error.c_str());
      return 1;
    }
    if (!Quiet)
      std::printf("job %llu accepted (%u ahead in queue, server runs %u "
                  "engine threads)\n",
                  static_cast<unsigned long long>(Accepted.JobId),
                  Accepted.QueuePosition, Info.EngineThreads);

    std::string SuiteJson;
    JobDonePayload Done;
    bool GotDone = false;
    while (!GotDone) {
      ServerClient::Event E;
      if (!Client.nextEvent(E, &Error)) {
        std::fprintf(stderr, "error: %s\n", Error.c_str());
        return 1;
      }
      switch (E.K) {
      case ServerClient::Event::Kind::Function:
        if (Progress)
          std::printf("  [%u:%s] %s\n", E.Function.ModuleIndex,
                      E.Function.ModuleName.c_str(), E.Function.Json.c_str());
        break;
      case ServerClient::Event::Kind::ModuleReport:
        if (!Quiet)
          std::printf("module %u validated\n", E.Module.ModuleIndex);
        break;
      case ServerClient::Event::Kind::SuiteReport:
        SuiteJson = std::move(E.SuiteJson);
        break;
      case ServerClient::Event::Kind::JobDone:
        Done = E.Done;
        GotDone = true;
        break;
      case ServerClient::Event::Kind::Error:
        std::fprintf(stderr, "error: server: %s\n", E.Error.Message.c_str());
        return 1;
      }
    }

    if (!Quiet)
      std::printf("job %llu done in %.2f ms: %llu replayed (%llu warm), "
                  "%llu validated from scratch; triage %llu replayed "
                  "(%llu warm), %llu from scratch\n",
                  static_cast<unsigned long long>(Done.JobId),
                  Done.WallMicroseconds / 1000.0,
                  static_cast<unsigned long long>(Done.Hits),
                  static_cast<unsigned long long>(Done.WarmHits),
                  static_cast<unsigned long long>(Done.Misses),
                  static_cast<unsigned long long>(Done.TriageHits),
                  static_cast<unsigned long long>(Done.TriageWarmHits),
                  static_cast<unsigned long long>(Done.TriageMisses));
    if (EmitJson && !writeOrPrint(JsonPath, SuiteJson))
      return 1;

    if (ExpectWarm && (Done.Misses > 0 || Done.TriageMisses > 0)) {
      std::fprintf(stderr,
                   "error: --expect-warm, but the server computed %llu "
                   "verdict(s) and %llu triage result(s) from scratch\n",
                   static_cast<unsigned long long>(Done.Misses),
                   static_cast<unsigned long long>(Done.TriageMisses));
      return 3;
    }
    ExitCode = Done.Status == 0 ? 0 : 2;
  }

  if (WantStats) {
    std::string Json;
    if (!Client.stats(&Json, &Error)) {
      std::fprintf(stderr, "error: stats failed: %s\n", Error.c_str());
      return 1;
    }
    std::fputs(Json.c_str(), stdout);
  }

  if (WantMetrics) {
    std::string Text;
    if (!Client.metrics(&Text, &Error)) {
      std::fprintf(stderr, "error: metrics failed: %s\n", Error.c_str());
      return 1;
    }
    std::fputs(Text.c_str(), stdout);
  }

  if (WantShutdown)
    Client.requestShutdown();

  return ExitCode;
}
