//===- AllocationTest.cpp - Heap allocations of the validator core -----------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// The validator's fixed costs per pair are largely heap allocations, and
// their count is the same on every machine, so it is gated here exactly:
//
//  * a second sharing pass over an unchanged suite pair graph allocates
//    nothing (its working storage is kept in the graph);
//  * interning a node of at most four operands into a reserved graph
//    allocates nothing, whether the node is new or found;
//  * validatePair makes at most 250 heap allocations per pair on average
//    over the suite's transformed pairs (665 before the graph kept its
//    operands in its arena and the dominator tree became flat).
//
// A replacement operator new counts the allocations made while a Counter
// is alive.
//
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"
#include "ir/Module.h"
#include "opt/Pass.h"
#include "support/Hashing.h"
#include "validator/Validator.h"
#include "vg/GraphBuilder.h"
#include "workload/Generator.h"
#include "workload/Profiles.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <new>

using namespace llvmmd;

namespace {

bool CountingAllocs = false;
uint64_t NumAllocs = 0;

/// Counts the heap allocations made from construction until count().
class Counter {
public:
  Counter() : Start(NumAllocs) { CountingAllocs = true; }
  ~Counter() { CountingAllocs = false; }
  uint64_t count() const { return NumAllocs - Start; }

private:
  uint64_t Start;
};

} // namespace

void *operator new(std::size_t Size) {
  if (CountingAllocs)
    ++NumAllocs;
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
void operator delete(void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }

namespace {

/// The 12 paper-suite modules, their paper-pipeline copies, and every
/// pair the pipeline transformed.
struct Suite {
  Suite() {
    PassManager PM;
    PM.parsePipeline(getPaperPipeline());
    for (const BenchmarkProfile &P : getPaperSuite()) {
      Orig.push_back(generateBenchmark(Ctx, P));
      Opt.push_back(cloneModule(*Orig.back()));
      PM.run(*Opt.back());
      for (const Function *F : Orig.back()->definedFunctions()) {
        const Function *O = Opt.back()->getFunction(F->getName());
        if (O && fingerprintFunction(*F) != fingerprintFunction(*O))
          Pairs.push_back({F, O, Orig.back().get()});
      }
    }
  }
  struct Pair {
    const Function *Orig, *Opt;
    const Module *M;
  };
  Context Ctx;
  std::vector<std::unique_ptr<Module>> Orig, Opt;
  std::vector<Pair> Pairs;
};

const Suite &suite() {
  static const Suite S;
  return S;
}

} // namespace

TEST(AllocationTest, CounterSeesAllocations) {
  Counter C;
  auto P = std::make_unique<int>(1);
  EXPECT_EQ(C.count(), 1u);
}

TEST(AllocationTest, SecondSharingPassAllocatesNothing) {
  const Suite &S = suite();
  ASSERT_GT(S.Pairs.size(), 400u);
  unsigned Graphs = 0;
  for (const Suite::Pair &P : S.Pairs) {
    ValueGraph G;
    if (!buildValueGraph(G, *P.Orig).Supported ||
        !buildValueGraph(G, *P.Opt).Supported)
      continue;
    ++Graphs;
    G.maximizeSharing();
    Counter C;
    unsigned Merges = G.maximizeSharing();
    uint64_t Allocs = C.count();
    EXPECT_EQ(Merges, 0u) << P.Orig->getName();
    EXPECT_EQ(Allocs, 0u) << P.Orig->getName();
  }
  EXPECT_GT(Graphs, 400u);
}

TEST(AllocationTest, InterningSmallNodesIntoReservedGraphAllocatesNothing) {
  Context Ctx;
  Type *I1 = Ctx.getInt1Ty(), *I32 = Ctx.getInt32Ty(), *Ptr = Ctx.getPtrTy();
  ValueGraph G;
  G.reserve(1024);
  Counter C;
  NodeId A = G.getParam(0, I32), B = G.getParam(1, I32);
  NodeId P = G.getParam(2, Ptr), Mem = G.getInitialMem();
  NodeId K = G.getConstInt(I32, 42);
  NodeId Glob = G.getGlobal("a_global_name_longer_than_sso", false, Ptr);
  NodeId Sum = G.getOp(Opcode::Add, I32, {A, B});
  EXPECT_EQ(G.getOp(Opcode::Add, I32, {B, A}), Sum) << "found, not made";
  NodeId Cmp = G.getOp(Opcode::ICmp, I1, {Sum, K},
                       static_cast<uint8_t>(ICmpPred::SLT));
  NodeId NotCmp = G.getOp(Opcode::Xor, I1, {Cmp, G.getConstBool(I1, true)});
  NodeId Sel = G.getGamma(I32, {{Cmp, Sum}, {NotCmp, K}});
  NodeId St = G.getStore(Sel, P, Mem);
  NodeId Ld = G.getLoad(I32, Glob, St);
  NodeId Call = G.getCall("callee_with_a_long_name", MemoryEffect::ReadWrite,
                          I32, {Ld, P, Glob, St});
  NodeId Mu = G.makeMu(I32);
  G.setMuOperands(Mu, K, G.getOp(Opcode::Add, I32, {Mu, Call}));
  NodeId Ret = G.getRet(G.getEta(I32, Cmp, Mu), G.getCallMem(Call));
  EXPECT_NE(Ret, InvalidNode);
  EXPECT_EQ(C.count(), 0u);
}

TEST(AllocationTest, ValidatePairStaysUnderBudget) {
  const Suite &S = suite();
  uint64_t Allocs = 0;
  unsigned Validated = 0;
  for (const Suite::Pair &P : S.Pairs) {
    RuleConfig Rules;
    Rules.M = P.M;
    Counter C;
    ValidationResult R = validatePair(*P.Orig, *P.Opt, Rules);
    Allocs += C.count();
    Validated += R.Validated;
  }
  double PerPair = static_cast<double>(Allocs) / S.Pairs.size();
  RecordProperty("allocs_per_pair", std::to_string(PerPair));
  EXPECT_LE(PerPair, 250.0) << Allocs << " allocations over "
                            << S.Pairs.size() << " pairs";
  EXPECT_GT(Validated, S.Pairs.size() / 2) << "the suite validates mostly";
}
