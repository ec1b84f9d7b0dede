//===- FleetOpen.cpp - Open-loop served jobs through a 2-worker fleet -----===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Jobs arrive on a fixed schedule, JobRate per second, whether or not
// earlier ones finished. They go through an in-process FleetRouter to two
// validate_server workers, each with its own verdict store that it
// checkpoints after every job. Every fifth job repeats an earlier job's
// text: most repeat a long-finished job (the seed picks which) and hit the
// worker's cache; every fifth repeat is sent together with its original
// and folds onto it in the router's dedup. One extra connection scrapes
// the fleet's /metrics roll-up every ScrapeIntervalMs. Each job is timed
// from the moment it was due, so a stall also charges the jobs queued
// behind it.
//
//===----------------------------------------------------------------------===//

#include "Fleet.h"
#include "Suite.h"
#include "Tracer.h"

#include "driver/ModuleLoader.h"
#include "driver/Report.h"
#include "driver/ValidationEngine.h"
#include "fleet/FleetRouter.h"
#include "fleet/WorkerManager.h"
#include "ir/Printer.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "workload/Generator.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <sys/socket.h>
#include <sys/time.h>
#include <thread>

using namespace llvmmd;

namespace perfbench {

namespace {

/// Jobs per second, about a fifth of the 168 jobs/s the two workers
/// completed when jobs arrived back to back (see perfbench/README.md). A
/// constant on purpose: the parent and a change must receive the same load.
constexpr double JobRate = 35;
constexpr unsigned ResubmitEvery = 5;
/// Every DuplicateEvery-th resubmission repeats the job just before it, at
/// the same due time, so it folds onto the running original (router
/// dedup). The others repeat a seeded pick among the ResubmitWindow jobs
/// due ResubmitLag jobs (about 1.8 s) earlier, long finished, so they hit
/// the worker's cache. Which one the seed picks hardly changes the cost.
constexpr unsigned DuplicateEvery = 5;
constexpr unsigned ResubmitLag = 64;
constexpr unsigned ResubmitWindow = 8;
constexpr unsigned ScrapeIntervalMs = 50;
/// A refused, errored or lost job counts as slower than any limit.
constexpr double FailedJobMs = 1e9;
/// Trace ids of fleet jobs start here (pairs count from 1).
constexpr uint64_t FleetTraceBase = 2000000;

struct FleetState {
  std::string Sock, Store;
  std::vector<JobText> Pool;
  std::vector<std::string> Frames; ///< encoded Submit per pool text
  std::unique_ptr<FleetRouter> Router;
  ServerClient Sender, Scraper;

  ~FleetState() {
    Sender.close();
    Scraper.close();
    if (Router)
      Router->stop();
  }
};

std::unique_ptr<FleetState> buildFleet(const Options &O, unsigned Fresh,
                                       std::string *Error) {
  auto F = std::make_unique<FleetState>();
  F->Sock = O.WorkDir + "/fleet.sock";
  F->Store = O.WorkDir + "/fleet.vstore";
  for (unsigned I = 0; I < 2; ++I)
    std::remove(VerdictStore::shardPath(F->Store, I).c_str());
  std::remove(F->Store.c_str());
  F->Pool = buildJobPool(O.SuiteSeed, Fresh);
  for (const JobText &J : F->Pool)
    F->Frames.push_back(encodeSubmit(submission(J)));

  FleetConfig C;
  C.UnixPath = F->Sock;
  C.WorkerSocketPrefix = O.WorkDir + "/w";
  C.StorePath = F->Store;
  C.Workers = 2;
  C.WorkerBinary = O.WorkerBinary;
  C.WorkerThreads = 1;
  C.MaxQueuedJobs = 1024;
  F->Router = std::make_unique<FleetRouter>(C);
  if (!F->Router->start(Error) || !attach(F->Sender, F->Sock, Error) ||
      !attach(F->Scraper, F->Sock, Error))
    return nullptr;
  pinWorkers(*F->Router);
  return F;
}

struct Slot {
  unsigned Pool = 0;
  unsigned DueAt = 0; ///< position in the arrival schedule
  Clock::time_point Due, Sent, Done;
  double SendMs = 0; ///< time the Submit write blocked
  bool Ok = false;
  std::string Error;
  std::string Digest;
  unsigned Transformed = 0, Validated = 0;
};

/// The receiving half of the multiplexed connection. Every Submit is
/// answered in order by Accepted, JobId (folded onto a live job) or Error
/// (refused); verdict frames carry the module name, which is unique per
/// pool text, and JobDone carries the job id.
class Receiver {
public:
  Receiver(std::vector<Slot> &Slots, const FleetState &F)
      : Slots(Slots), F(F), Lines(F.Pool.size()) {}

  /// Called by the sender just before it writes slot \p K's Submit.
  void expect(unsigned K) {
    std::lock_guard<std::mutex> G(Mu);
    Awaiting.push_back(K);
  }

  /// Reads frames until every slot is finished or the link fails.
  void run(int Fd, size_t N) {
    std::map<std::string, unsigned> PoolByName;
    for (unsigned I = 0; I < F.Pool.size(); ++I)
      PoolByName[F.Pool[I].Name] = I;
    while (Finished < N) {
      Frame Fr;
      if (readFrame(Fd, Fr, DefaultMaxFrameBytes) != ReadStatus::Ok) {
        failRest("lost: connection closed or timed out");
        return;
      }
      switch (Fr.Type) {
      case FrameType::Accepted: {
        AcceptedPayload A;
        if (decodeAccepted(Fr.Payload, A))
          attachNext(A.JobId);
        break;
      }
      case FrameType::JobId: {
        JobIdPayload J;
        if (decodeJobId(Fr.Payload, J))
          attachNext(J.JobId);
        break;
      }
      case FrameType::Function: {
        FunctionPayload FP;
        auto It = decodeFunction(Fr.Payload, FP)
                      ? PoolByName.find(FP.ModuleName)
                      : PoolByName.end();
        if (It == PoolByName.end())
          break;
        // A folded submission replays the stream it joined, so one
        // connection may see a line twice; keep each once, in order.
        std::vector<std::string> &L = Lines[It->second];
        std::string Line = stripProvenance(FP.Json);
        if (std::find(L.begin(), L.end(), Line) == L.end())
          L.push_back(std::move(Line));
        break;
      }
      case FrameType::JobDone: {
        JobDonePayload D;
        if (decodeJobDone(Fr.Payload, D))
          finishJob(D.JobId);
        break;
      }
      case FrameType::Error: {
        ErrorPayload E;
        decodeError(Fr.Payload, E);
        refuseNext("error frame: " + E.Message);
        break;
      }
      default:
        break;
      }
    }
  }

private:
  void attachNext(uint64_t JobId) {
    std::lock_guard<std::mutex> G(Mu);
    if (Awaiting.empty())
      return;
    ByJob[JobId].push_back(Awaiting.front());
    Awaiting.pop_front();
  }

  void refuseNext(const std::string &Why) {
    unsigned K;
    {
      std::lock_guard<std::mutex> G(Mu);
      if (Awaiting.empty())
        return;
      K = Awaiting.front();
      Awaiting.pop_front();
    }
    Slots[K].Error = Why;
    Slots[K].Done = Clock::now();
    ++Finished;
  }

  void finishJob(uint64_t JobId) {
    Clock::time_point Now = Clock::now();
    std::vector<unsigned> Ks;
    {
      std::lock_guard<std::mutex> G(Mu);
      auto It = ByJob.find(JobId);
      if (It == ByJob.end())
        return;
      Ks = std::move(It->second);
      ByJob.erase(It);
    }
    for (unsigned K : Ks) {
      Slot &S = Slots[K];
      S.Done = Now;
      S.Ok = true;
      for (const std::string &Line : Lines[S.Pool]) {
        S.Digest += Line + "\n";
        if (Line.find("\"transformed\": true") != std::string::npos) {
          ++S.Transformed;
          S.Validated +=
              Line.find("\"validated\": true") != std::string::npos;
        }
      }
      ++Finished;
    }
    // Folded duplicates shared this JobDone; a later resubmission of the
    // same text must stream its own entries.
    if (!Ks.empty())
      Lines[Slots[Ks.front()].Pool].clear();
  }

  void failRest(const std::string &Why) {
    for (Slot &S : Slots)
      if (!S.Ok && S.Error.empty())
        S.Error = Why;
  }

  std::vector<Slot> &Slots;
  const FleetState &F;
  std::vector<std::vector<std::string>> Lines; ///< per pool text
  std::mutex Mu;                                ///< guards the two below
  std::deque<unsigned> Awaiting; ///< slots sent, not yet given a job id
  std::map<uint64_t, std::vector<unsigned>> ByJob;
  size_t Finished = 0; ///< touched by the receiving thread only
};

} // namespace

void pinWorkers(FleetRouter &Router) {
  unsigned N = std::thread::hardware_concurrency();
  WorkerManager *WM = Router.workers();
  if (N < 3 || !WM)
    return;
  for (unsigned I = 0; I < WM->count() && I + 2 < N; ++I)
    pinProcess(WM->pid(I), N - 1 - I);
}

std::vector<JobText> buildJobPool(uint64_t SuiteSeed, unsigned Count) {
  std::vector<BenchmarkProfile> Ps = suiteProfiles(SuiteSeed);
  Context Ctx;
  std::vector<JobText> Pool;
  for (unsigned J = 0; J < Count; ++J) {
    BenchmarkProfile P = Ps[J % Ps.size()];
    P.FunctionCount = JobFunctions;
    P.Seed = hashCombine(P.Seed, 0x10b0000 + J);
    auto M = generateBenchmark(Ctx, P);
    Pool.push_back({"job" + std::to_string(J), printModule(*M),
                    static_cast<unsigned>(M->definedFunctions().size())});
  }
  return Pool;
}

SubmitPayload submission(const JobText &J) {
  SubmitPayload Req;
  SubmitModule M;
  M.Source = SubmitInlineMini;
  M.Name = J.Name;
  M.Text = J.Text;
  Req.Modules.push_back(std::move(M));
  return Req;
}

bool attach(ServerClient &C, const std::string &Path, std::string *Error) {
  if (!C.connectUnix(Path, Error) ||
      !C.handshake(verdictStoreConfigDigest(RuleConfig()), nullptr, Error))
    return false;
  timeval TV{60, 0};
  setsockopt(C.fd(), SOL_SOCKET, SO_RCVTIMEO, &TV, sizeof(TV));
  return true;
}

JobOutcome runJob(ServerClient &C, const SubmitPayload &Req) {
  JobOutcome Out;
  if (!C.submit(Req, nullptr, &Out.Error)) {
    Out.Error = "submit: " + Out.Error;
    return Out;
  }
  Out.Accepted = Clock::now();
  for (;;) {
    ServerClient::Event E;
    if (!C.nextEvent(E, &Out.Error)) {
      Out.Error = "lost: " + Out.Error;
      return Out;
    }
    switch (E.K) {
    case ServerClient::Event::Kind::Function:
      Out.Digest += stripProvenance(E.Function.Json) + "\n";
      if (E.Function.Json.find("\"transformed\": true") != std::string::npos) {
        ++Out.Transformed;
        if (E.Function.Json.find("\"validated\": true") != std::string::npos)
          ++Out.Validated;
      }
      break;
    case ServerClient::Event::Kind::Error:
      Out.Error = "error frame: " + E.Error.Message;
      return Out;
    case ServerClient::Event::Kind::JobDone:
      Out.Done = Clock::now();
      Out.Ok = true;
      return Out;
    default:
      break;
    }
  }
}

std::vector<std::string> referenceDigests(const std::vector<JobText> &Jobs) {
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Own;
  std::vector<const Module *> Mods;
  for (const JobText &J : Jobs) {
    ModuleSpec Spec;
    Spec.From = ModuleSpec::Source::Inline;
    Spec.Value = J.Text;
    Spec.Name = J.Name;
    Spec.Format = ModuleFormat::MiniIR;
    LoadResult LR = loadModule(Ctx, Spec);
    Own.push_back(LR ? std::move(LR.Modules.front().M) : nullptr);
    if (Own.back())
      Mods.push_back(Own.back().get());
  }
  EngineConfig C;
  C.Threads = std::max(1u, std::thread::hardware_concurrency());
  ValidationEngine E(C);
  SuiteRun SR = E.runSuite(Mods, getPaperPipeline());
  std::vector<std::string> Out;
  size_t Next = 0;
  for (const auto &M : Own) {
    std::string D;
    if (M)
      for (const FunctionReportEntry &F : SR.Report.Modules[Next++].Functions)
        D += stripProvenance(functionEntryToJSON(F)) + "\n";
    Out.push_back(M ? D : "<load error>");
  }
  return Out;
}

void runFleetOpen(const Options &O, RunResult &R, Tracer *T) {
  const unsigned N = std::max(1u, static_cast<unsigned>(JobRate * O.Seconds));

  // The schedule: fresh pool texts in pool order, and every fifth job a
  // repeat. The fresh jobs and their arrival times are the same for every
  // seed, so a job that holds a worker for a whole fixpoint budget always
  // lands at the same point in the schedule.
  std::vector<Slot> Slots(N);
  Rng Rg(hashCombine(O.Seed, 0xf1ee7));
  unsigned Fresh = 0, Repeats = 0;
  for (unsigned K = 0; K < N; ++K) {
    Slot &S = Slots[K];
    S.DueAt = K;
    if (K % ResubmitEvery != ResubmitEvery - 1)
      S.Pool = Fresh++;
    else if (++Repeats % DuplicateEvery == 0) {
      S.Pool = Slots[K - 1].Pool;
      S.DueAt = K - 1;
    } else if (K >= ResubmitLag + ResubmitWindow)
      S.Pool = Slots[K - ResubmitLag - Rg.below(ResubmitWindow)].Pool;
    else
      S.Pool = Fresh++;
  }

  double SetupS = 0;
  std::string Error;
  std::unique_ptr<FleetState> F = medianSetup(O.SetupRepeats, SetupS, [&] {
    return buildFleet(O, Fresh, &Error);
  });
  if (!F) {
    R.Attempted = N;
    R.fail("fleet set-up failed: " + Error);
    return;
  }

  // One sender (this thread) and one receiver share a single multiplexed
  // connection, so no job ever waits for a connection; the scraper has its
  // own.
  Receiver Recv(Slots, *F);
  std::thread Reader([&] { Recv.run(F->Sender.fd(), N); });
  std::atomic<bool> Sending{true};
  std::vector<double> ScrapeMs;
  unsigned ScrapeFailures = 0;
  std::thread Scraper([&] {
    while (Sending) {
      Clock::time_point A = Clock::now();
      std::string Text;
      if (F->Scraper.metrics(&Text) && !Text.empty())
        ScrapeMs.push_back(msBetween(A, Clock::now()));
      else
        ++ScrapeFailures;
      std::this_thread::sleep_until(
          A + std::chrono::milliseconds(ScrapeIntervalMs));
    }
  });

  unsigned WriteFailures = 0;
  Clock::time_point T0 = Clock::now() + std::chrono::milliseconds(20);
  for (unsigned K = 0; K < N; ++K) {
    Slot &S = Slots[K];
    S.Due = T0 + std::chrono::microseconds(
                     static_cast<int64_t>(S.DueAt * 1e6 / JobRate));
    std::this_thread::sleep_until(S.Due);
    S.Sent = Clock::now();
    Recv.expect(K);
    WriteFailures +=
        !writeFrame(F->Sender.fd(), FrameType::Submit, F->Frames[S.Pool]);
    S.SendMs = msBetween(S.Sent, Clock::now());
  }
  Reader.join();
  Sending = false;
  Scraper.join();

  Clock::time_point Last = T0;
  for (const Slot &S : Slots)
    if (S.Ok)
      Last = std::max(Last, S.Done);
  double Wall = msBetween(T0, Last) / 1000;
  FleetCounters Counters = F->Router->counters();
  F->Sender.close();
  F->Scraper.close();
  F->Router->stop();
  double Rss = peakRssMb(/*Children=*/true);

  std::vector<std::string> Ref = referenceDigests(F->Pool);
  std::vector<double> Lat, Late, Blocked;
  uint64_t Pairs = 0, Distinct = 0, Validated = 0;
  std::vector<bool> Counted(F->Pool.size());
  for (const Slot &S : Slots) {
    ++R.Attempted;
    Late.push_back(msBetween(S.Due, S.Sent));
    Blocked.push_back(S.SendMs);
    Lat.push_back(S.Ok ? msBetween(S.Due, S.Done) : FailedJobMs);
    if (!S.Ok) {
      R.fail(F->Pool[S.Pool].Name + ": " + S.Error);
      continue;
    }
    Pairs += S.Transformed;
    // validated_pct counts each pool text once, whatever the seed resubmits.
    if (!Counted[S.Pool]) {
      Counted[S.Pool] = true;
      Distinct += S.Transformed;
      Validated += S.Validated;
    }
    if (S.Digest != Ref[S.Pool])
      R.fail(F->Pool[S.Pool].Name + ": fleet verdicts differ from engine.run");
  }
  if (WriteFailures)
    R.fail(std::to_string(WriteFailures) + " submissions could not be sent");
  if (ScrapeFailures)
    R.fail(std::to_string(ScrapeFailures) + " /metrics scrapes failed");

  double DedupPct = 100.0 * Counters.JobsDeduplicated / N;
  if (T) {
    for (size_t K = 0; K < N; ++K)
      if (Slots[K].Ok)
        T->add("fleet.job", "fleet", Slots[K].Due, Slots[K].Done,
               FleetTraceBase + K);
    R.add("fleet.dedup_pct", "%", DedupPct);
    R.add("fleet.scrape_ms_p50", "ms", percentile(ScrapeMs, 50));
    R.add("client.late_ms_p99", "ms", percentile(Late, 99));
    R.add("client.conn_wait_ms_p99", "ms", percentile(Blocked, 99));
    return;
  }
  addEndToEnd(R, SetupS, Pairs / Wall, percentile(Lat, 50),
              percentile(Lat, 99), Lat.size(), Validated, Distinct, Rss);
  R.info("jobs", "count", N);
  R.info("jobs_per_s", "1/s", N / Wall);
  R.info("job_rate", "1/s", JobRate);
  R.info("fleet.dedup_pct", "%", DedupPct);
  R.info("scrape_ms_p50", "ms", percentile(ScrapeMs, 50));
  R.info("scrape_ms_p99", "ms", percentile(ScrapeMs, 99));
  R.info("scrape_samples", "count", ScrapeMs.size());
  R.info("client.late_ms_p99", "ms", percentile(Late, 99));
  R.info("client.conn_wait_ms_p99", "ms", percentile(Blocked, 99));
}

} // namespace perfbench
