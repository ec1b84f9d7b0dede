//===- Layers.cpp - The traced run: per-layer metrics from outside --------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Repeats the three workloads' inputs with a span around every call into a
// layer, all from this file: the generator, each optimizer pass, the
// dominator tree and loop info, gating, value-graph construction, one
// normalizeGraph call per round (validatePair taken apart with its own
// merge and stop rule), the engine and its verdict store, the mini-IR
// parser, one in-process ValidationServer and the fleet. Self times come
// from subtraction: gating minus the dominator tree and loop info it
// builds, construction minus the gating it runs. The end-to-end metrics
// never come from this run; its own overhead is reported instead.
//
//===----------------------------------------------------------------------===//

#include "Fleet.h"
#include "Tracer.h"
#include "Warm.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "driver/Report.h"
#include "driver/ValidationEngine.h"
#include "driver/VerdictStore.h"
#include "fleet/FleetRouter.h"
#include "gated/GatedSSA.h"
#include "ir/Cloning.h"
#include "ir/Function.h"
#include "ir/Parser.h"
#include "normalize/Normalizer.h"
#include "opt/Pass.h"
#include "server/ValidationServer.h"
#include "support/Hashing.h"
#include "vg/GraphBuilder.h"

#include <cstdio>

using namespace llvmmd;

namespace perfbench {

namespace {

constexpr unsigned BugsPerModule = 2;
/// Served jobs sent one at a time to the engine, a server and a fleet.
constexpr unsigned HopJobs = 48;
constexpr uint64_t WarmTraceBase = 1000000;
constexpr uint64_t HopTraceBase = 3000000;

double us(double Seconds) { return Seconds * 1e6; }

/// Optimizes the suite one pass call at a time; reports opt.<pass>_ms.
void tracedOptimize(Tracer &T, Suite &S, RunResult &R) {
  PassManager PM;
  PM.parsePipeline(getPaperPipeline());
  std::vector<double> PassS(PM.size());
  unsigned Changes = 0;
  uint64_t Id = 0;
  for (unsigned M = 0; M < S.Orig.size(); ++M) {
    S.Opt.push_back(cloneModule(*S.Orig[M]));
    for (Function *F : S.Opt[M]->definedFunctions()) {
      ++Id;
      for (size_t P = 0; P < PM.size(); ++P) {
        Tracer::Scope Sc(T, PM.passes()[P]->getName(), "opt", Id);
        Changes += PM.passes()[P]->run(*F);
        PassS[P] += Sc.seconds();
      }
    }
    collectPairs(S, M);
  }
  for (size_t P = 0; P < PM.size(); ++P)
    R.add(std::string("opt.") + PM.passes()[P]->getName() + "_ms", "ms",
          PassS[P] * 1e3);
  R.add("opt.changes", "count", Changes);
}

struct ColdTotals {
  double DomS = 0, LoopS = 0, GatedSelfS = 0, VgSelfS = 0;
  double Blocks = 0, Fns = 0, Pairs = 0, Nodes = 0, EqualOnConstruction = 0;
  double NormS = 0, BudgetNormS = 0;
  std::vector<double> RoundUs;
  uint64_t Rounds = 0, RoundsMax = 0, Rewrites = 0, Merges = 0;
  uint64_t BudgetPairs = 0, NoProgress = 0;
  double UntracedS = 0, TracedS = 0;
};

/// Computes every gate buildValueGraph may ask \p GA for: each edge into a
/// block with several predecessors (a latch gate for a loop's back edges)
/// and each loop's primary-exit stay condition. GatingAnalysis builds them
/// lazily, so without this its construction alone is nearly free.
void forceGates(GatingAnalysis &GA) {
  const DominatorTree &DT = GA.getDomTree();
  const LoopInfo &LI = GA.getLoopInfo();
  for (const BasicBlock *BB : DT.getRPO()) {
    std::vector<BasicBlock *> Preds = BB->predecessors();
    if (Preds.size() < 2)
      continue;
    const Loop *L = LI.isLoopHeader(BB) ? LI.getLoopFor(BB) : nullptr;
    for (const BasicBlock *P : Preds)
      if (DT.isReachable(P))
        (void)(L && L->contains(P) ? GA.getLatchGate(P, BB)
                                   : GA.getEdgeGate(P, BB));
  }
  for (const Loop *L : LI.getLoopsInnermostFirst()) {
    auto [Exiting, Exit] = GA.getPrimaryExitEdge(*L);
    if (Exiting)
      (void)GA.getStayCondition(*L, Exiting, Exit);
  }
}

/// Builds the analyses of \p F one at a time; returns the gating time
/// (construction plus every gate). One untimed GatingAnalysis first warms
/// the caches, so the subtraction compares like with like.
double probeAnalyses(Tracer &T, const Function &F, uint64_t Id,
                     ColdTotals &C) {
  if (F.isDeclaration())
    return 0;
  {
    GatingAnalysis WarmUp(F);
    if (WarmUp.isSupported())
      forceGates(WarmUp);
  }
  Tracer::Scope D(T, "DominatorTree", "analysis", Id);
  DominatorTree DT(F);
  double Dom = D.seconds();
  Tracer::Scope L(T, "LoopInfo", "analysis", Id);
  LoopInfo LI(F, DT);
  double Loop = L.seconds();
  Tracer::Scope G(T, "GatingAnalysis", "gated", Id);
  GatingAnalysis GA(F);
  if (GA.isSupported())
    forceGates(GA);
  double Gating = G.seconds();
  C.DomS += Dom;
  C.LoopS += Loop;
  C.GatedSelfS += Gating - Dom - Loop;
  C.Blocks += DT.getRPO().size();
  C.Fns += 1;
  return Gating;
}

/// validatePair taken apart: two buildValueGraph calls, then one
/// normalizeGraph call per round under validatePair's merge and stop rule.
ValidationResult decomposedPair(Tracer &T, const Pair &P,
                                const RuleConfig &RC, uint64_t Id,
                                double GatingS, ColdTotals &C) {
  ValidationResult D;
  if (P.Orig->getFunctionType() != P.Opt->getFunctionType()) {
    D.Unsupported = true;
    return D;
  }
  ValueGraph G;
  Tracer::Scope BA(T, "buildValueGraph", "vg", Id);
  BuildResult A = buildValueGraph(G, *P.Orig);
  double BuildS = BA.seconds();
  if (!A.Supported) {
    D.Unsupported = true;
    C.VgSelfS += BuildS - GatingS;
    return D;
  }
  Tracer::Scope BB(T, "buildValueGraph", "vg", Id);
  BuildResult B = buildValueGraph(G, *P.Opt);
  BuildS += BB.seconds();
  C.VgSelfS += BuildS - GatingS;
  if (!B.Supported) {
    D.Unsupported = true;
    return D;
  }
  D.GraphNodes = G.size();
  C.Nodes += G.size();
  if (G.find(A.Ret) == G.find(B.Ret)) {
    D.Validated = D.EqualOnConstruction = true;
    C.EqualOnConstruction += 1;
    return D;
  }
  std::vector<NodeId> Roots{A.Ret, B.Ret};
  double PairNormS = 0;
  for (unsigned Round = 0; Round < RC.MaxIterations; ++Round) {
    size_t Nodes0 = G.size(), Live0 = G.countRoots();
    NodeId RA = G.find(A.Ret), RB = G.find(B.Ret);
    Tracer::Scope N(T, "normalizeGraph", "normalize", Id);
    NormalizeStats S = normalizeGraph(G, Roots, RC);
    double Sec = N.seconds();
    PairNormS += Sec;
    C.RoundUs.push_back(us(Sec));
    ++D.Iterations;
    D.Rewrites += S.Rewrites;
    D.SharingMerges += S.SharingMerges;
    if (G.size() == Nodes0 && G.countRoots() == Live0 &&
        G.find(A.Ret) == RA && G.find(B.Ret) == RB)
      ++C.NoProgress;
    if (G.find(A.Ret) == G.find(B.Ret)) {
      D.Validated = true;
      break;
    }
    if (S.Rewrites == 0 && S.SharingMerges == 0)
      break;
  }
  C.NormS += PairNormS;
  if (!D.Validated && D.Iterations == RC.MaxIterations) {
    ++C.BudgetPairs;
    C.BudgetNormS += PairNormS;
  }
  C.Rounds += D.Iterations;
  C.RoundsMax = std::max<uint64_t>(C.RoundsMax, D.Iterations);
  C.Rewrites += D.Rewrites;
  C.Merges += D.SharingMerges;
  return D;
}

void tracedColdPairs(Tracer &T, const Suite &S, RunResult &R) {
  ColdTotals C;
  for (size_t I = 0; I < S.Pairs.size(); ++I) {
    const Pair &P = S.Pairs[I];
    const uint64_t Id = I + 1;
    RuleConfig RC;
    RC.M = S.Orig[P.Module].get();
    Tracer::Scope PairScope(T, "pair", "validator", Id);
    double GatingS = probeAnalyses(T, *P.Orig, Id, C) +
                     probeAnalyses(T, *P.Opt, Id, C);
    // The untraced call and the traced decomposition alternate which goes
    // first, so neither always meets the warmer caches.
    ValidationResult V, D;
    for (unsigned Step = 0; Step < 2; ++Step) {
      Clock::time_point A = Clock::now();
      if ((Step + I) % 2 == 0) {
        V = validatePair(*P.Orig, *P.Opt, RC);
        C.UntracedS += secondsSince(A);
      } else {
        D = decomposedPair(T, P, RC, Id, GatingS, C);
        C.TracedS += secondsSince(A);
      }
    }
    C.Pairs += 1;
    if (D.Validated != V.Validated || D.Unsupported != V.Unsupported ||
        D.Iterations != V.Iterations || D.Rewrites != V.Rewrites ||
        D.SharingMerges != V.SharingMerges || D.GraphNodes != V.GraphNodes ||
        D.EqualOnConstruction != V.EqualOnConstruction)
      R.fail("decomposed path differs from validatePair on " +
             P.Orig->getName());
    if (P.Bug && V.Validated)
      R.fail("planted bug validated: " + P.Opt->getName());
    ++R.Attempted;
  }
  double Fns = std::max(1.0, C.Fns), Pairs = std::max(1.0, C.Pairs);
  R.add("analysis.domtree_us_per_fn", "us", us(C.DomS) / Fns);
  R.add("analysis.loopinfo_us_per_fn", "us", us(C.LoopS) / Fns);
  R.add("analysis.blocks_per_fn", "count", C.Blocks / Fns);
  R.add("gated.self_us_per_fn", "us", us(C.GatedSelfS) / Fns);
  R.add("vg.self_us_per_pair", "us", us(C.VgSelfS) / Pairs);
  R.add("vg.nodes_per_pair", "count", C.Nodes / Pairs);
  R.add("vg.equal_on_construction_pct", "%",
        100.0 * C.EqualOnConstruction / Pairs);
  R.add("normalize.ms_per_pair", "ms", C.NormS * 1e3 / Pairs);
  R.add("normalize.round_us_p50", "us", percentile(C.RoundUs, 50));
  R.add("normalize.rounds_total", "count", C.Rounds);
  R.add("normalize.rounds_max", "count", C.RoundsMax);
  R.add("normalize.rewrites_total", "count", C.Rewrites);
  R.add("normalize.merges_total", "count", C.Merges);
  R.add("normalize.budget_pairs", "count", C.BudgetPairs);
  R.add("normalize.budget_time_pct", "%",
        C.NormS > 0 ? 100.0 * C.BudgetNormS / C.NormS : 0);
  R.add("normalize.noprogress_rounds", "count", C.NoProgress);
  R.add("trace.overhead_pct", "%",
        100.0 * (C.TracedS - C.UntracedS) / C.UntracedS);
}

/// One warm job per module, each call into the engine and store spanned.
void tracedWarm(Tracer &T, const Options &O, RunResult &R) {
  Options WO = O;
  WO.SetupRepeats = 1;
  std::unique_ptr<WarmState> W = buildWarmState(WO);
  VerdictStore::HeaderInfo H = VerdictStore::peekHeader(W->Store);
  std::vector<double> InitMs, ReportMs, SaveMs;
  double FpS = 0, Fns = 0, WarmHits = 0, Transformed = 0;
  const std::string SavePath = O.WorkDir + "/jobsave.vstore";
  const uint64_t Digest = verdictStoreConfigDigest(RuleConfig());
  for (unsigned M = 0; M < W->S.Orig.size(); ++M) {
    const uint64_t Id = WarmTraceBase + M;
    Tracer::Scope Job(T, "warm.job", "driver", Id);
    std::unique_ptr<ValidationEngine> E;
    {
      Tracer::Scope Sc(T, "ValidationEngine", "driver", Id);
      E = std::make_unique<ValidationEngine>(warmJobConfig(W->Store));
      InitMs.push_back(Sc.seconds() * 1e3);
    }
    EngineRun Run;
    {
      Tracer::Scope Sc(T, "ValidationEngine::run", "driver", Id);
      Run = E->run(*W->S.Orig[M], getPaperPipeline());
    }
    WarmHits += E->cacheStats().WarmHits;
    Transformed += Run.Report.transformed();
    if (E->cacheStats().Misses != 0 ||
        reportDigest(Run.Report) != W->Reference[M])
      R.fail("traced warm job on " + Run.Report.ModuleName + " was not warm");
    ++R.Attempted;
    {
      Tracer::Scope Sc(T, "reportToJSON", "driver", Id);
      std::string Json = reportToJSON(Run.Report);
      ReportMs.push_back(Sc.seconds() * 1e3);
    }
    for (const Function *F : W->S.Orig[M]->definedFunctions()) {
      Tracer::Scope Sc(T, "fingerprintFunction", "driver", Id);
      (void)fingerprintFunction(*F);
      FpS += Sc.seconds();
      Fns += 1;
    }
    // A job-sized save: this module's verdicts alone, written fresh.
    VerdictMap Verdicts;
    for (const FunctionReportEntry &F : Run.Report.Functions)
      Verdicts.emplace(VerdictKey{F.FingerprintOrig, F.FingerprintOpt, Digest},
                       F.Result);
    Tracer::Scope Sc(T, "VerdictStore::save", "driver", Id);
    VerdictStore::save(SavePath, Digest, Verdicts, nullptr,
                       /*MergeExisting=*/false);
    SaveMs.push_back(Sc.seconds() * 1e3);
  }
  std::remove(SavePath.c_str());
  R.add("driver.engine_init_ms", "ms", median(InitMs));
  R.add("driver.store_mb", "MB", fileBytes(W->Store) / 1048576.0);
  R.add("driver.store_entries", "count", H.VerdictEntries);
  R.add("driver.warm_hit_pct", "%",
        Transformed > 0 ? 100.0 * WarmHits / Transformed : 0);
  R.add("driver.fingerprint_us_per_fn", "us", us(FpS) / std::max(1.0, Fns));
  R.add("driver.report_ms", "ms", median(ReportMs));
  R.add("driver.store_save_ms", "ms", median(SaveMs));
  std::remove(W->Store.c_str());
}

/// The same fresh job texts, one at a time, through the parser, an
/// engine configured like the server's, one in-process ValidationServer
/// and a 2-worker fleet. The four are interleaved job by job, so each
/// difference compares runs made moments apart.
void tracedHops(Tracer &T, const Options &O, RunResult &R) {
  std::vector<JobText> Jobs = buildJobPool(O.SuiteSeed, HopJobs);
  std::vector<std::string> Ref = referenceDigests(Jobs);

  ServerConfig SC;
  SC.UnixPath = O.WorkDir + "/server.sock";
  SC.Pipeline = getPaperPipeline();
  SC.Engine.Threads = 1;
  ValidationServer Srv(SC);
  FleetConfig FC;
  FC.UnixPath = O.WorkDir + "/hop.sock";
  FC.WorkerSocketPrefix = O.WorkDir + "/hw";
  FC.WorkerBinary = O.WorkerBinary;
  FC.WorkerThreads = 1;
  FleetRouter Router(FC);
  ServerClient ToServer, ToFleet;
  std::string Error;
  if (!Srv.start(&Error) || !attach(ToServer, SC.UnixPath, &Error) ||
      !Router.start(&Error) || !attach(ToFleet, FC.UnixPath, &Error)) {
    R.fail("server or fleet set-up failed: " + Error);
    return;
  }
  pinWorkers(Router);
  ValidationEngine Direct(SC.Engine);

  std::vector<double> ParseMs, AcceptMs, Overhead, Hop, ServerMs;
  double Bytes = 0, ParseS = 0;
  for (size_t K = 0; K < Jobs.size(); ++K) {
    const uint64_t Id = HopTraceBase + K;
    Context Ctx;
    ParseResult P;
    {
      Tracer::Scope Sc(T, "parseModule", "ir", Id);
      P = parseModule(Ctx, Jobs[K].Text, Jobs[K].Name);
      ParseS += Sc.seconds();
      ParseMs.push_back(Sc.seconds() * 1e3);
    }
    Bytes += Jobs[K].Text.size();
    R.Attempted += 3;
    if (!P) {
      R.fail("parse error in " + Jobs[K].Name + ": " + P.Error);
      continue;
    }
    double EngineMs;
    {
      Tracer::Scope Sc(T, "ValidationEngine::run", "driver", Id);
      Direct.run(*P.M, getPaperPipeline());
      EngineMs = Sc.seconds() * 1e3;
    }
    double ViaMs[2] = {0, 0};
    ServerClient *Via[2] = {&ToServer, &ToFleet};
    const char *Name[2] = {"server.job", "fleet.job"};
    for (unsigned V = 0; V < 2; ++V) {
      Clock::time_point S = Clock::now();
      JobOutcome Out = runJob(*Via[V], submission(Jobs[K]));
      if (!Out.Ok || Out.Digest != Ref[K]) {
        R.fail(std::string(Name[V]) + " " + Jobs[K].Name +
               " failed or differs from engine.run: " + Out.Error);
        continue;
      }
      T.add(Name[V], V ? "fleet" : "server", S, Out.Done, Id);
      ViaMs[V] = msBetween(S, Out.Done);
      if (V == 0)
        AcceptMs.push_back(msBetween(S, Out.Accepted));
    }
    if (ViaMs[0] > 0) {
      ServerMs.push_back(ViaMs[0]);
      Overhead.push_back(ViaMs[0] - EngineMs);
      if (ViaMs[1] > 0)
        Hop.push_back(ViaMs[1] - ViaMs[0]);
    }
  }
  ToServer.close();
  ToFleet.close();
  Srv.stop();
  Router.stop();
  R.add("ir.parse_ms_p50", "ms", median(ParseMs));
  R.add("ir.parse_mb_per_s", "MB/s",
        ParseS > 0 ? Bytes / 1048576.0 / ParseS : 0);
  R.add("server.job_ms_p50", "ms", median(ServerMs));
  R.add("server.overhead_ms_p50", "ms", median(Overhead));
  R.add("server.accept_ms_p50", "ms", median(AcceptMs));
  R.add("fleet.hop_ms_p50", "ms", median(Hop));
}

} // namespace

void runLayers(const Options &O, RunResult &R) {
  Tracer T;
  Suite S;
  {
    Tracer::Scope Sc(T, "generateBenchmark", "workload", 0);
    generateSuite(S, O.SuiteSeed);
    R.add("workload.generate_s", "s", Sc.seconds());
  }
  tracedOptimize(T, S, R);
  plantBugs(S, O.Seed, BugsPerModule);
  tracedColdPairs(T, S, R);
  tracedWarm(T, O, R);

  Options FO = O;
  FO.SetupRepeats = 1;
  FO.Seconds = std::min(O.Seconds, 5.0);
  runFleetOpen(FO, R, &T);
  tracedHops(T, O, R);

  R.info("trace.spans", "count", T.size());
  if (!T.write(O.TraceOut))
    R.fail("cannot write " + O.TraceOut);
}

} // namespace perfbench
