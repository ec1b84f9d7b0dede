//===- scaling.cpp - §2/§4.1 claims: O(1) best case, work ∝ rewrites ---------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// google-benchmark microbenchmarks backing the paper's efficiency claims:
//  * validating an *unchanged* function is (amortized) constant-time after
//    graph construction, because hash-consing makes the comparison O(1);
//  * the number of rewrites the validator performs tracks the number of
//    transformations the optimizer made, not the function size;
//  * batch validation through the ValidationEngine scales with the thread
//    count (BM_EngineBatch/threads:N).
//
// Per-layer cases time one layer over the whole 12-profile paper suite:
// the optimizer pipeline (BM_PaperPipeline, which also reports the
// dominator trees and loop infos its passes built), on the optimized
// functions, the dominator tree, loop info and gating analysis, and, on
// the value graphs of the suite's pairs, the normalizer (BM_Normalize) and
// one sharing pass (BM_MaximizeSharing); BM_ValidateSuite runs validatePair
// over every transformed suite pair. BM_ParseModule reads the printed
// suite modules back through the module reader. The warm path has one
// case per layer: BM_CloneModule (which also times freeing the clones),
// BM_OptimizePass/<pass> for each paper pass, and BM_Fingerprint, plus
// BM_WarmJob for a whole warm job. BM_EraseDuplicatePhis times GVN
// erasing 2,000 φs from the middle of one 40,000-instruction block.
//
// The warm-path and validator-layer cases also report heap allocations as
// allocs_per_op (per iteration, i.e. per pass over the suite; per job for
// BM_WarmJob),
// counted by a replacement operator new that only counts while a case
// asks it to. The figures are the same on every machine.
//
// After the microbenchmarks run, a whole-suite engine pass is emitted as
// BENCH_scaling.json through the engine's JSON reporter (with timing).
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "analysis/Dominators.h"
#include "analysis/FunctionAnalyses.h"
#include "analysis/LoopInfo.h"
#include "driver/VerdictStore.h"
#include "gated/GatedSSA.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "normalize/Normalizer.h"
#include "support/Hashing.h"
#include "vg/GraphBuilder.h"

#include <benchmark/benchmark.h>

#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <new>

using namespace llvmmd;

namespace {

/// Heap allocations made by any thread while counting is on. Process-wide
/// rather than per thread: an engine job runs on its pool's thread, not
/// the benchmark's. Off, the hook costs one relaxed load per allocation.
std::atomic<bool> CountingAllocs{false};
std::atomic<uint64_t> NumAllocs{0};

/// Counts allocations from construction until count() is read; only one
/// may be live at a time.
class AllocCounter {
public:
  AllocCounter() : Start(NumAllocs.load()) { CountingAllocs = true; }
  ~AllocCounter() { CountingAllocs = false; }
  uint64_t count() const { return NumAllocs.load() - Start; }

private:
  uint64_t Start;
};

/// Reports \p Allocs, summed over all iterations, per iteration.
void reportAllocs(benchmark::State &State, uint64_t Allocs) {
  State.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(Allocs), benchmark::Counter::kAvgIterations);
}

} // namespace

void *operator new(std::size_t Size) {
  if (CountingAllocs.load(std::memory_order_relaxed))
    NumAllocs.fetch_add(1, std::memory_order_relaxed);
  while (true) {
    if (void *P = std::malloc(Size ? Size : 1))
      return P;
    std::new_handler Handler = std::get_new_handler();
    if (!Handler)
      throw std::bad_alloc();
    Handler();
  }
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

BenchmarkProfile scaledProfile(unsigned Segments) {
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = 1;
  P.MinSegments = Segments;
  P.MaxSegments = Segments;
  return P;
}

/// Best case: identical function pair; the state pointers are already the
/// same node when construction finishes.
void BM_ValidateIdentical(benchmark::State &State) {
  unsigned Segments = State.range(0);
  Context Ctx;
  auto M = generateBenchmark(Ctx, scaledProfile(Segments));
  const Function *F = M->definedFunctions().front();
  RuleConfig Rules;
  uint64_t Insts = F->getInstructionCount();
  bool Immediate = true;
  for (auto _ : State) {
    ValidationResult R = validatePair(*F, *F, Rules);
    benchmark::DoNotOptimize(R.Validated);
    assert(R.Validated && "identical pair!");
    // Acyclic functions are equal the moment construction finishes; loops
    // additionally need one sharing pass (μ nodes are unique).
    Immediate &= R.EqualOnConstruction;
  }
  State.counters["instructions"] = static_cast<double>(Insts);
  State.counters["o1_equal"] = Immediate ? 1 : 0;
}
BENCHMARK(BM_ValidateIdentical)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Optimized pair: rewrites scale with the optimizer's work.
void BM_ValidateOptimized(benchmark::State &State) {
  unsigned Segments = State.range(0);
  Context Ctx;
  auto M = generateBenchmark(Ctx, scaledProfile(Segments));
  auto Opt = cloneModule(*M);
  PassManager PM;
  PM.parsePipeline(getPaperPipeline());
  Function *FO = Opt->definedFunctions().front();
  PM.run(*FO);
  const Function *FI = M->definedFunctions().front();
  RuleConfig Rules;
  Rules.Mask = RS_All;
  Rules.M = M.get();
  uint64_t Rewrites = 0;
  for (auto _ : State) {
    ValidationResult R = validatePair(*FI, *FO, Rules);
    benchmark::DoNotOptimize(R.Validated);
    Rewrites = R.Rewrites;
  }
  State.counters["rewrites"] = static_cast<double>(Rewrites);
  State.counters["instructions"] =
      static_cast<double>(FI->getInstructionCount());
}
BENCHMARK(BM_ValidateOptimized)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Graph construction alone, for scale context.
void BM_BuildGraph(benchmark::State &State) {
  unsigned Segments = State.range(0);
  Context Ctx;
  auto M = generateBenchmark(Ctx, scaledProfile(Segments));
  const Function *F = M->definedFunctions().front();
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    ValueGraph G;
    auto R = buildValueGraph(G, *F);
    benchmark::DoNotOptimize(R.Ret);
    Allocs += Count.count();
  }
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_BuildGraph)->Arg(2)->Arg(8)->Arg(32);

/// The 12 paper-suite modules, generated once, and every defined function
/// of their copies after the paper pipeline.
struct PaperSuite {
  PaperSuite() {
    for (const BenchmarkProfile &P : getPaperSuite()) {
      Orig.push_back(generateBenchmark(Ctx, P));
      Opt.push_back(cloneModule(*Orig.back()));
      PassManager PM;
      PM.parsePipeline(getPaperPipeline());
      PM.run(*Opt.back());
      for (const Function *F : Opt.back()->definedFunctions())
        OptFunctions.push_back(F);
    }
  }
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Orig, Opt;
  std::vector<const Function *> OptFunctions;
};

const PaperSuite &paperSuite() {
  static const PaperSuite S;
  return S;
}

/// The paper pipeline over fresh clones of the 12 suite modules (cloning
/// is untimed). The analysis-build counters are the same on every machine.
void BM_PaperPipeline(benchmark::State &State) {
  const auto &Modules = paperSuite().Orig;
  PassManager::AnalysisBuilds Builds;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<std::unique_ptr<Module>> Clones;
    for (const auto &M : Modules)
      Clones.push_back(cloneModule(*M));
    State.ResumeTiming();
    Builds = {};
    {
      AllocCounter Count;
      for (auto &M : Clones) {
        PassManager PM;
        PM.parsePipeline(getPaperPipeline());
        PM.run(*M);
        Builds.DomTrees += PM.getAnalysisBuilds().DomTrees;
        Builds.LoopInfos += PM.getAnalysisBuilds().LoopInfos;
      }
      Allocs += Count.count();
    }
    State.PauseTiming();
    Clones.clear();
    State.ResumeTiming();
  }
  State.counters["dom_trees"] = Builds.DomTrees;
  State.counters["loop_infos"] = Builds.LoopInfos;
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_PaperPipeline)->Unit(benchmark::kMillisecond);

/// One paper pass (pipeline position \p Pass) over every suite function as
/// the passes before it left it. Each function keeps one FunctionAnalyses
/// across its passes, as in PassManager::run. Only the pass is timed.
void BM_OptimizePass(benchmark::State &State, size_t Pass) {
  PassManager PM;
  PM.parsePipeline(getPaperPipeline());
  const auto &Passes = PM.passes();
  uint64_t Allocs = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<std::unique_ptr<Module>> Clones;
    std::vector<Function *> Functions;
    for (const auto &M : paperSuite().Orig) {
      Clones.push_back(cloneModule(*M));
      for (Function *F : Clones.back()->definedFunctions())
        Functions.push_back(F);
    }
    std::vector<FunctionAnalyses> Analyses(Functions.size());
    for (size_t I = 0; I != Functions.size(); ++I)
      for (size_t P = 0; P != Pass; ++P)
        Passes[P]->run(*Functions[I], Analyses[I]);
    State.ResumeTiming();
    {
      AllocCounter Count;
      for (size_t I = 0; I != Functions.size(); ++I)
        Passes[Pass]->run(*Functions[I], Analyses[I]);
      Allocs += Count.count();
    }
    State.PauseTiming();
    Analyses.clear();
    Clones.clear();
    State.ResumeTiming();
  }
  reportAllocs(State, Allocs);
}

/// Registers BM_OptimizePass/<pass> for each paper pass. The set-up of an
/// iteration (clone, earlier passes) dwarfs a late pass, so the iteration
/// count is fixed rather than grown to a minimum timed duration.
const bool OptimizePassBenchmarks = [] {
  PassManager PM;
  PM.parsePipeline(getPaperPipeline());
  for (size_t P = 0; P != PM.size(); ++P)
    benchmark::RegisterBenchmark(
        (std::string("BM_OptimizePass/") + PM.passes()[P]->getName()).c_str(),
        BM_OptimizePass, P)
        ->Unit(benchmark::kMillisecond)
        ->Iterations(20);
  return true;
}();

/// cloneModule over the 12 suite modules. Freeing the clones is untimed,
/// but reported as teardown_ms (mean per iteration).
void BM_CloneModule(benchmark::State &State) {
  size_t Instructions = 0;
  uint64_t Allocs = 0;
  double TeardownMs = 0;
  for (auto _ : State) {
    std::vector<std::unique_ptr<Module>> Clones;
    {
      AllocCounter Count;
      for (const auto &M : paperSuite().Orig)
        Clones.push_back(cloneModule(*M));
      Allocs += Count.count();
    }
    State.PauseTiming();
    Instructions = 0;
    for (const auto &M : Clones)
      for (const Function *F : M->definedFunctions())
        Instructions += F->getInstructionCount();
    auto T0 = std::chrono::steady_clock::now();
    Clones.clear();
    TeardownMs += std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
    State.ResumeTiming();
  }
  State.counters["instructions"] = static_cast<double>(Instructions);
  State.counters["teardown_ms"] =
      benchmark::Counter(TeardownMs, benchmark::Counter::kAvgIterations);
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_CloneModule)->Unit(benchmark::kMillisecond);

/// fingerprintFunction over every optimized suite function.
void BM_Fingerprint(benchmark::State &State) {
  const auto &Functions = paperSuite().OptFunctions;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    for (const Function *F : Functions)
      benchmark::DoNotOptimize(fingerprintFunction(*F));
    Allocs += Count.count();
  }
  State.counters["functions"] = static_cast<double>(Functions.size());
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_Fingerprint)->Unit(benchmark::kMicrosecond);

/// One warm job per suite module, as perfbench's warm-replay workload runs
/// them: a fresh single-threaded engine loads a store that already holds
/// every verdict and replays the module (clone, the paper pipeline,
/// fingerprints, store reads). Unlike perfbench, the store holds only the
/// suite's own verdicts. An iteration is the 12 jobs; allocs_per_op is
/// per job.
void BM_WarmJob(benchmark::State &State) {
  const PaperSuite &S = paperSuite();
  const std::string Store = "BENCH_warmjob.vstore";
  std::remove(Store.c_str());
  EngineConfig C;
  C.Threads = 1;
  C.CachePath = Store;
  {
    std::vector<const Module *> Mods;
    for (const auto &M : S.Orig)
      Mods.push_back(M.get());
    ValidationEngine Prove(C);
    Prove.runSuite(Mods, getPaperPipeline());
  }
  C.CacheSave = false;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    for (const auto &M : S.Orig) {
      ValidationEngine Warm(C);
      EngineRun Run = Warm.run(*M, getPaperPipeline());
      benchmark::DoNotOptimize(Run.Report);
      if (Warm.cacheStats().Misses != 0) {
        State.SkipWithError("warm job validated from scratch; store broken?");
        break;
      }
    }
    Allocs += Count.count();
  }
  State.counters["allocs_per_op"] = benchmark::Counter(
      static_cast<double>(Allocs) / S.Orig.size(),
      benchmark::Counter::kAvgIterations);
  std::remove(Store.c_str());
  std::remove((Store + ".lock").c_str());
}
BENCHMARK(BM_WarmJob)->Unit(benchmark::kMillisecond)->UseRealTime();

/// GVN over one block of 20,000 φs in which every tenth φ repeats the one
/// before it, each φ feeding one add of a chain: GVN erases the 2,000
/// copies from the middle of the 40,000-instruction block. Building the
/// function is untimed.
void BM_EraseDuplicatePhis(benchmark::State &State) {
  const unsigned NumPhis = 20000;
  auto GVN = createPass("gvn");
  Context Ctx;
  std::unique_ptr<Module> M;
  size_t Left = 0;
  for (auto _ : State) {
    State.PauseTiming();
    M = std::make_unique<Module>(Ctx);
    Type *I32 = Ctx.getInt32Ty();
    Function *F = M->createFunction(
        Ctx.getFunctionTy(I32, {Ctx.getInt1Ty(), I32}), "f");
    BasicBlock *Entry = F->createBlock("entry");
    BasicBlock *L = F->createBlock("l");
    BasicBlock *R = F->createBlock("r");
    BasicBlock *J = F->createBlock("j");
    IRBuilder B(Ctx);
    B.setInsertPoint(Entry);
    B.createCondBr(F->getArg(0), L, R);
    B.setInsertPoint(L);
    B.createBr(J);
    B.setInsertPoint(R);
    B.createBr(J);
    B.setInsertPoint(J);
    std::vector<PhiNode *> Phis;
    for (unsigned K = 0; K != NumPhis; ++K) {
      unsigned Key = K % 10 == 9 ? K - 1 : K;
      auto *P = F->bodyArena().create<PhiNode>(I32);
      J->append(P);
      P->addIncoming(Ctx.getInt32(Key), L);
      P->addIncoming(Ctx.getInt32(Key + 1), R);
      Phis.push_back(P);
    }
    Value *Acc = F->getArg(1);
    for (PhiNode *P : Phis)
      Acc = B.createAdd(Acc, P);
    B.createRet(Acc);
    State.ResumeTiming();
    GVN->run(*F);
    State.PauseTiming();
    Left = J->phis().size();
    M.reset();
    State.ResumeTiming();
  }
  State.counters["phis_erased"] = static_cast<double>(NumPhis - Left);
}
BENCHMARK(BM_EraseDuplicatePhis)->Unit(benchmark::kMillisecond);

/// parseModule over the printed text of the 12 suite modules; reports
/// bytes read per second and the functions read.
void BM_ParseModule(benchmark::State &State) {
  std::vector<std::string> Texts;
  size_t Bytes = 0;
  for (const auto &M : paperSuite().Orig) {
    Texts.push_back(printModule(*M));
    Bytes += Texts.back().size();
  }
  size_t Functions = 0;
  for (auto _ : State) {
    Context Ctx;
    Functions = 0;
    for (const std::string &T : Texts) {
      ParseResult R = parseModule(Ctx, T);
      if (!R) {
        State.SkipWithError(R.Error.c_str());
        return;
      }
      Functions += R.M->definedFunctions().size();
      benchmark::DoNotOptimize(R.M.get());
    }
  }
  State.SetBytesProcessed(static_cast<int64_t>(State.iterations() * Bytes));
  State.counters["functions"] = static_cast<double>(Functions);
}
BENCHMARK(BM_ParseModule)->Unit(benchmark::kMillisecond);

/// Dominator trees of every optimized suite function.
void BM_DomTree(benchmark::State &State) {
  const auto &Functions = paperSuite().OptFunctions;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    for (const Function *F : Functions) {
      DominatorTree DT(*F);
      benchmark::DoNotOptimize(DT.getRPO().data());
    }
    Allocs += Count.count();
  }
  State.counters["functions"] = static_cast<double>(Functions.size());
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_DomTree)->Unit(benchmark::kMicrosecond);

/// Loop infos of every optimized suite function, from prebuilt dominator
/// trees.
void BM_LoopInfo(benchmark::State &State) {
  const auto &Functions = paperSuite().OptFunctions;
  std::vector<std::unique_ptr<DominatorTree>> DTs;
  for (const Function *F : Functions)
    DTs.push_back(std::make_unique<DominatorTree>(*F));
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    for (size_t I = 0; I < Functions.size(); ++I) {
      LoopInfo LI(*Functions[I], *DTs[I]);
      benchmark::DoNotOptimize(LI.getTopLevelLoops().data());
    }
    Allocs += Count.count();
  }
  State.counters["functions"] = static_cast<double>(Functions.size());
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_LoopInfo)->Unit(benchmark::kMicrosecond);

/// Gating analyses of every optimized suite function, with every gate the
/// graph builder may ask for: each forward edge into a merge block, each
/// latch edge, and each loop's primary-exit stay condition. Gates are
/// built lazily, so construction alone would measure almost nothing.
void BM_Gating(benchmark::State &State) {
  const auto &Functions = paperSuite().OptFunctions;
  unsigned Supported = 0;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    Supported = 0;
    for (const Function *F : Functions) {
      GatingAnalysis GA(*F);
      if (!GA.isSupported())
        continue;
      const DominatorTree &DT = GA.getDomTree();
      const LoopInfo &LI = GA.getLoopInfo();
      for (const BasicBlock *BB : DT.getRPO()) {
        const auto &Preds = DT.predecessors(BB);
        if (Preds.size() < 2)
          continue;
        const Loop *L = LI.isLoopHeader(BB) ? LI.getLoopFor(BB) : nullptr;
        for (const BasicBlock *P : Preds)
          if (GA.isSupported())
            benchmark::DoNotOptimize(L && L->contains(P)
                                         ? GA.getLatchGate(P, BB)
                                         : GA.getEdgeGate(P, BB));
      }
      for (const Loop *L : LI.getLoopsInnermostFirst()) {
        auto [Exiting, Exit] = GA.getPrimaryExitEdge(*L);
        if (Exiting)
          benchmark::DoNotOptimize(GA.getStayCondition(*L, Exiting, Exit));
      }
      Supported += GA.isSupported();
    }
    Allocs += Count.count();
  }
  State.counters["functions"] = static_cast<double>(Functions.size());
  State.counters["supported"] = Supported;
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_Gating)->Unit(benchmark::kMicrosecond);

/// One suite pair's value graph as the normalizer receives it: the
/// original function and its paper-pipeline copy built into one table,
/// with their state-pointer roots still apart.
struct PairGraph {
  std::unique_ptr<ValueGraph> G;
  std::vector<NodeId> Roots;
  const Module *Original;
};

/// The graphs of every suite pair that construction alone does not prove
/// equal (validatePair's path into normalizeToFixpoint).
std::vector<PairGraph> buildSuitePairGraphs() {
  const PaperSuite &S = paperSuite();
  std::vector<PairGraph> Out;
  for (size_t I = 0; I < S.Orig.size(); ++I)
    for (const Function *F : S.Orig[I]->definedFunctions()) {
      const Function *O = S.Opt[I]->getFunction(F->getName());
      if (!O || O->getFunctionType() != F->getFunctionType())
        continue;
      PairGraph P{std::make_unique<ValueGraph>(), {}, S.Orig[I].get()};
      BuildResult A = buildValueGraph(*P.G, *F);
      if (!A.Supported)
        continue;
      BuildResult B = buildValueGraph(*P.G, *O);
      if (!B.Supported || P.G->find(A.Ret) == P.G->find(B.Ret))
        continue;
      P.Roots = {A.Ret, B.Ret};
      Out.push_back(std::move(P));
    }
  return Out;
}

/// normalizeToFixpoint over every suite pair that needs it, with the
/// default rules; graph construction and teardown are untimed. The round,
/// rewrite and merge counters are the same on every machine.
void BM_Normalize(benchmark::State &State) {
  NormalizeStats Total;
  size_t Pairs = 0;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<PairGraph> Graphs = buildSuitePairGraphs();
    State.ResumeTiming();
    Total = {};
    AllocCounter Count;
    for (PairGraph &P : Graphs) {
      RuleConfig Rules;
      Rules.M = P.Original;
      Total += normalizeToFixpoint(*P.G, P.Roots, Rules);
    }
    Allocs += Count.count();
    benchmark::DoNotOptimize(Total);
    State.PauseTiming();
    Pairs = Graphs.size();
    Graphs.clear();
    State.ResumeTiming();
  }
  State.counters["pairs"] = static_cast<double>(Pairs);
  State.counters["rounds"] = Total.Iterations;
  State.counters["rewrites"] = Total.Rewrites;
  State.counters["merges"] = Total.SharingMerges;
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_Normalize)->Unit(benchmark::kMillisecond);

/// One sharing pass over each of the same freshly built pair graphs.
void BM_MaximizeSharing(benchmark::State &State) {
  unsigned Merges = 0;
  size_t Nodes = 0;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<PairGraph> Graphs = buildSuitePairGraphs();
    State.ResumeTiming();
    Merges = 0;
    AllocCounter Count;
    for (PairGraph &P : Graphs)
      Merges += P.G->maximizeSharing();
    Allocs += Count.count();
    benchmark::DoNotOptimize(Merges);
    State.PauseTiming();
    Nodes = 0;
    for (const PairGraph &P : Graphs)
      Nodes += P.G->size();
    Graphs.clear();
    State.ResumeTiming();
  }
  State.counters["nodes"] = static_cast<double>(Nodes);
  State.counters["merges"] = Merges;
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_MaximizeSharing)->Unit(benchmark::kMillisecond);

/// validatePair once over every suite pair the paper pipeline transformed,
/// at the default rules: the validator core end to end (gating, graph
/// construction, normalization), as perfbench's cold-pairs loop runs it.
/// allocs_per_op is per pass over the suite; the pairs counter divides it.
void BM_ValidateSuite(benchmark::State &State) {
  const PaperSuite &S = paperSuite();
  struct Pair {
    const Function *Orig, *Opt;
    const Module *M;
  };
  std::vector<Pair> Pairs;
  for (size_t I = 0; I < S.Orig.size(); ++I)
    for (const Function *F : S.Orig[I]->definedFunctions()) {
      const Function *O = S.Opt[I]->getFunction(F->getName());
      if (O && fingerprintFunction(*F) != fingerprintFunction(*O))
        Pairs.push_back({F, O, S.Orig[I].get()});
    }
  unsigned Validated = 0;
  uint64_t Allocs = 0;
  for (auto _ : State) {
    AllocCounter Count;
    Validated = 0;
    for (const Pair &P : Pairs) {
      RuleConfig Rules;
      Rules.M = P.M;
      Validated += validatePair(*P.Orig, *P.Opt, Rules).Validated;
    }
    Allocs += Count.count();
  }
  State.counters["pairs"] = static_cast<double>(Pairs.size());
  State.counters["validated"] = Validated;
  reportAllocs(State, Allocs);
}
BENCHMARK(BM_ValidateSuite)->Unit(benchmark::kMillisecond);

/// Whole-module batch validation through the engine at 1..N threads: the
/// throughput path the driver subsystem owns. The verdict cache is disabled
/// so every iteration measures real validations, not replays.
void BM_EngineBatch(benchmark::State &State) {
  unsigned Threads = State.range(0);
  Context Ctx;
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = 24;
  auto M = generateBenchmark(Ctx, P);
  EngineConfig C;
  C.Threads = Threads;
  C.UseCache = false;
  ValidationEngine Engine(C);
  unsigned Validated = 0;
  for (auto _ : State) {
    EngineRun Run = Engine.run(*M, getPaperPipeline());
    Validated = Run.Report.validated();
    benchmark::DoNotOptimize(Validated);
  }
  State.counters["validated"] = static_cast<double>(Validated);
}
BENCHMARK(BM_EngineBatch)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/// The CI warm-cache path: a fresh engine loads the persistent verdict
/// store and revalidates the whole module by replay — construction (store
/// load included) plus a full run, without proving a single pair from
/// scratch. Compare against BM_EngineBatch for the cold cost the store
/// amortizes away.
void BM_EngineWarmStoreReplay(benchmark::State &State) {
  Context Ctx;
  BenchmarkProfile P = getProfile("hmmer");
  P.FunctionCount = 24;
  auto M = generateBenchmark(Ctx, P);
  const char *Store = "BENCH_warm.vstore";
  EngineConfig C;
  C.Threads = 1;
  C.CachePath = Store;
  {
    ValidationEngine Cold(C);
    Cold.run(*M, getPaperPipeline());
  }
  uint64_t Replayed = 0;
  for (auto _ : State) {
    ValidationEngine Warm(C);
    EngineRun Run = Warm.run(*M, getPaperPipeline());
    benchmark::DoNotOptimize(Run.Report);
    // Must hold in Release too (CI benches with NDEBUG): a cold validation
    // here would mean the numbers below are not warm-replay numbers at all.
    if (Warm.cacheStats().Misses != 0) {
      State.SkipWithError("warm run validated from scratch; store broken?");
      break;
    }
    Replayed = Warm.cacheStats().Hits;
  }
  State.counters["replayed"] = static_cast<double>(Replayed);
  std::remove(Store);
  std::remove((std::string(Store) + ".lock").c_str());
}
BENCHMARK(BM_EngineWarmStoreReplay)->UseRealTime();

/// Arena teardown: destroying a whole generated module is one arena free
/// per function body plus the module arena — no per-instruction deletes.
/// Generation is excluded from the timed region.
void BM_ModuleTeardown(benchmark::State &State) {
  Context Ctx;
  BenchmarkProfile P = getProfile("sjeng");
  P.FunctionCount = State.range(0);
  uint64_t Insts = 0;
  for (auto _ : State) {
    State.PauseTiming();
    auto M = generateBenchmark(Ctx, P);
    Insts = 0;
    for (const Function *F : M->definedFunctions())
      Insts += F->getInstructionCount();
    State.ResumeTiming();
    M.reset();
  }
  State.counters["instructions"] = static_cast<double>(Insts);
}
BENCHMARK(BM_ModuleTeardown)->Arg(4)->Arg(16);

/// The engine's snapshot/revert cycle: drop a function body (its arena is
/// reset, slab kept warm) and re-clone it from the pristine copy. After the
/// first cycle the body arena never allocates from the OS again, so this is
/// the steady-state cost of rewinding a candidate function.
void BM_SnapshotReclone(benchmark::State &State) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, scaledProfile(State.range(0)));
  auto Pristine = cloneModule(*M);
  Function *F = M->definedFunctions().front();
  const Function *Src = Pristine->definedFunctions().front();
  for (auto _ : State) {
    replaceFunctionBody(*Src, *F);
    benchmark::DoNotOptimize(F);
  }
  State.counters["instructions"] =
      static_cast<double>(F->getInstructionCount());
}
BENCHMARK(BM_SnapshotReclone)->Arg(4)->Arg(16);

/// Builds a many-module verdict store on disk for the reader-probe bench.
/// Distinct Config values model distinct modules (the per-module globals
/// digest folds into Config), so the entries spread across shards.
std::string writeProbeStore(uint64_t Digest, unsigned Modules,
                            unsigned PerModule, VerdictKey &ProbeKey) {
  VerdictMap Map;
  for (unsigned Mod = 0; Mod < Modules; ++Mod) {
    uint64_t Config = 0xbe9c000 + Mod * 0x9e3779b9ULL;
    for (unsigned I = 0; I < PerModule; ++I) {
      VerdictKey K{0x1000 + I, 0x2000 + I, Config};
      ValidationResult R;
      R.Validated = true;
      R.Rewrites = I;
      Map.emplace(K, R);
      if (Mod == Modules / 2 && I == 0)
        ProbeKey = K;
    }
  }
  std::string Path = "BENCH_probe.vstore";
  VerdictStore::save(Path, Digest, Map, /*Error=*/nullptr,
                     /*MergeExisting=*/false);
  return Path;
}

/// Probing one module's verdicts through VerdictStoreReader, the engine's
/// read path: open the store, look up a single key, report how many shards
/// had to be read. Contrast with BM_StoreFullLoad, which reads, verifies
/// and parses every shard up front.
void BM_StoreReaderProbe(benchmark::State &State) {
  const uint64_t Digest = 0xd19e57;
  VerdictKey Probe;
  std::string Path = writeProbeStore(Digest, 32, 64, Probe);
  unsigned Shards = 0, Materialized = 0;
  for (auto _ : State) {
    auto Reader = VerdictStoreReader::open(Path, Digest);
    const ValidationResult *R = Reader->lookup(Probe);
    benchmark::DoNotOptimize(R);
    if (!R) {
      State.SkipWithError("probe key missing; store broken?");
      break;
    }
    Shards = Reader->numShards();
    Materialized = Reader->shardsMaterialized();
  }
  State.counters["shards"] = static_cast<double>(Shards);
  State.counters["shards_touched"] = static_cast<double>(Materialized);
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}
BENCHMARK(BM_StoreReaderProbe);

/// VerdictStore::load(), the strict fold over the same reader that
/// merge-on-save and offline merges use: checksum-verify and parse the
/// entire store into an in-memory map.
void BM_StoreFullLoad(benchmark::State &State) {
  const uint64_t Digest = 0xd19e57;
  VerdictKey Probe;
  std::string Path = writeProbeStore(Digest, 32, 64, Probe);
  uint64_t Merged = 0;
  for (auto _ : State) {
    VerdictMap Map;
    VerdictStore::LoadResult R = VerdictStore::load(Path, Digest, Map);
    benchmark::DoNotOptimize(Map);
    if (!R.loaded()) {
      State.SkipWithError("store failed to load");
      break;
    }
    Merged = R.EntriesMerged;
  }
  State.counters["entries"] = static_cast<double>(Merged);
  std::remove(Path.c_str());
  std::remove((Path + ".lock").c_str());
}
BENCHMARK(BM_StoreFullLoad);

/// One engine pass over a mid-size profile, emitted through the engine's
/// JSON reporter (timing included) as BENCH_scaling.json.
void writeEngineReport(const char *Path) {
  Context Ctx;
  auto M = generateBenchmark(Ctx, getProfile("sjeng"));
  ValidationEngine Engine;
  EngineRun Run = Engine.run(*M, getPaperPipeline());
  std::ofstream Out(Path);
  Out << reportToJSON(Run.Report, /*IncludeTiming=*/true);
  std::printf("wrote %s (%u functions, %u validated, %.2f ms wall on %u "
              "threads)\n",
              Path, Run.Report.total(), Run.Report.validated(),
              Run.Report.WallMicroseconds / 1000.0, Engine.getThreadCount());
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  writeEngineReport("BENCH_scaling.json");
  return 0;
}
