//===- Reducer.cpp - Delta reduction of failing pairs -------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "triage/Reducer.h"

#include "ir/Cloning.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "opt/Local.h"
#include "support/Hashing.h"
#include "validator/Validator.h"

#include <set>
#include <unordered_map>

using namespace llvmmd;

namespace {

/// Probe corpus size for witness-preservation / anti-witness checks during
/// reduction (the recorded witness input is replayed first, so the probe
/// only pays off when a cut re-routes the divergence).
constexpr unsigned ReduceProbeInputs = 12;

/// Interpreter fuel for reduction probes. Cuts routinely delete the
/// loop-bound masking of generated workloads, turning probe runs into
/// step-budget exhaustion — at the triage default of 2^20 steps that is
/// ~50ms *per attempt*, which dominated reduction wall time. Probe runs
/// that exhaust this small budget are skipped, which is sound (a skipped
/// run is never a witness), merely conservative.
constexpr uint64_t ReduceStepBudget = 1u << 14;

/// Normalize/share round cap while reducing. Soundness is one-sided: a
/// pair the full-budget validator rejects is by definition still unmerged
/// at any smaller budget, so the baseline and every genuinely-failing cut
/// stay failing under the cap — only a cut whose pair would merge late can
/// be misclassified as failing, which the final full-budget re-validation
/// in reducePair catches. The cap is what makes reduction affordable:
/// badly mismatched cut pairs otherwise churn thousands of rewrites
/// through all 32 rounds on every attempt.
constexpr unsigned ReduceMaxIterations = 8;

/// One candidate cut, addressed structurally so it can be re-located in a
/// clone of the pair.
struct Cut {
  uint8_t Side;   ///< 0 = original, 1 = optimized
  uint32_t Block; ///< block index in Function::blocks() order
  uint32_t Index; ///< instruction position within the block (Kind 2)
  uint8_t Kind;   ///< 0/1: commit conditional branch to successor 0/1;
                  ///< 2: erase the instruction, uses become undef
};

void enumerateCuts(const Function &F, uint8_t Side, std::vector<Cut> &Out) {
  // Instruction cuts first, branch cuts after: the sweep iterates the list
  // from the back, so whole-segment (branch) cuts are tried before
  // instruction nibbling and the pair shrinks fast while validations are
  // still expensive.
  uint32_t Bi = 0;
  for (const auto &BB : F.blocks()) {
    uint32_t Ii = 0;
    for (const Instruction *I : *BB) {
      if (!I->isTerminator())
        Out.push_back({Side, Bi, Ii, 2});
      ++Ii;
    }
    ++Bi;
  }
  Bi = 0;
  for (const auto &BB : F.blocks()) {
    if (auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator()))
      if (Br->isConditional()) {
        Out.push_back({Side, Bi, 0, 0});
        Out.push_back({Side, Bi, 0, 1});
      }
    ++Bi;
  }
}

/// Applies \p C to \p F (a private clone). Returns false when the cut does
/// not apply (degenerate branch, index drift); the caller just skips it.
bool applyCut(Function &F, const Cut &C) {
  if (C.Block >= F.getNumBlocks())
    return false;
  BasicBlock *BB = F.blocks()[C.Block];
  if (C.Kind == 2) {
    if (C.Index >= BB->size())
      return false;
    auto It = BB->begin();
    std::advance(It, C.Index);
    Instruction *I = *It;
    if (I->isTerminator())
      return false;
    if (!I->getType()->isVoid() && !I->use_empty())
      I->replaceAllUsesWith(
          F.getParent()->getContext().getUndef(I->getType()));
    BB->erase(I);
    return true;
  }
  auto *Br = dyn_cast_or_null<BranchInst>(BB->getTerminator());
  if (!Br || !Br->isConditional())
    return false;
  BasicBlock *Target = Br->getSuccessor(C.Kind);
  BasicBlock *Other = Br->getSuccessor(1 - C.Kind);
  if (Target == Other)
    return false;
  Br->makeUnconditional(Target);
  removePhiEntriesFor(Other, BB);
  removeUnreachableBlocks(F);
  foldSingleEntryPhis(F);
  return true;
}

/// The interestingness predicate: the trial pair must verify, keep its
/// alarm class under differential testing, and still fail validation with
/// the baseline Unsupported status. Checks are ordered cheap-first — the
/// interpreter probe costs ~1ms while validatePair on a full-size pair can
/// cost hundreds — and validation verdicts are memoized by fingerprint
/// pair, so sweep restarts never re-validate an already-seen state. Only
/// memo misses count against the reduction budget.
struct Predicate {
  const RuleConfig &Rules;
  bool BaselineUnsupported;
  const AbstractInput *Witness;
  uint64_t StepBudget;
  unsigned *Validations;
  /// (fpA, fpB) -> the pair still fails with the baseline alarm class.
  std::unordered_map<uint64_t, bool> Memo;

  bool holds(Module &MA, Function &A, Module &MB, Function &B) {
    std::vector<std::string> Errors;
    if (!verifyFunction(A, Errors) || !verifyFunction(B, Errors))
      return false;
    // A memoized "validates / wrong class" verdict sinks the cut no matter
    // what the differential says — check it before paying for the probes,
    // which sweep restarts would otherwise re-run per already-seen state.
    uint64_t Key = hashCombine(fingerprintFunction(A), fingerprintFunction(B));
    auto It = Memo.find(Key);
    if (It != Memo.end() && !It->second)
      return false;
    DifferentialTester DT(MA, MB, StepBudget);
    if (Witness) {
      // A witnessed pair must stay a miscompile: the recorded input is
      // replayed first, a short probe hunts for a re-routed divergence.
      if (DT.compareOnce(A, B, *Witness) != 1 &&
          !DT.test(A, B, ReduceProbeInputs).HasWitness)
        return false;
    } else {
      // A suspected false alarm must not become a real divergence.
      if (DT.test(A, B, ReduceProbeInputs).HasWitness)
        return false;
    }
    if (It != Memo.end())
      return It->second;
    RuleConfig C = Rules;
    C.M = &MA;
    ++*Validations;
    ValidationResult R = validatePair(A, B, C);
    bool StillFails = !R.Validated && R.Unsupported == BaselineUnsupported;
    Memo.emplace(Key, StillFails);
    return StillFails;
  }
};

} // namespace

std::unique_ptr<Module> llvmmd::extractFunctionModule(const Module &Src,
                                                      const Function &F) {
  auto M = std::make_unique<Module>(Src.getContext(),
                                    Src.getName() + "." + F.getName());
  for (const auto &G : Src.globals())
    M->createGlobal(G->getValueType(), G->getName(), G->getInitializer(),
                    G->isConstantGlobal());
  for (const auto &Fn : Src.functions()) {
    Function *D = M->createFunction(Fn->getFunctionType(), Fn->getName());
    D->setMemoryEffect(Fn->getMemoryEffect());
  }
  // Clone the root's body plus every defined function it transitively
  // calls (the interpreter executes callees); everything else stays a
  // declaration.
  std::vector<const Function *> Work{&F};
  std::set<const Function *> Cloned;
  while (!Work.empty()) {
    const Function *Cur = Work.back();
    Work.pop_back();
    if (Cur->isDeclaration() || !Cloned.insert(Cur).second)
      continue;
    replaceFunctionBody(*Cur, *M->getFunction(Cur->getName()));
    for (const BasicBlock *BB : Cur->blocks())
      for (const Instruction *I : *BB)
        if (const auto *Call = dyn_cast<CallInst>(I))
          Work.push_back(Call->getCallee());
  }
  return M;
}

ReducedPair llvmmd::reducePair(const TriagePair &Pair, const RuleConfig &Rules,
                               unsigned Budget, uint64_t StepBudget,
                               const AbstractInput *Witness,
                               unsigned CertifyInputs) {
  ReducedPair Out;
  Out.MA = extractFunctionModule(*Pair.OrigModule, *Pair.Orig);
  Out.MB = extractFunctionModule(*Pair.OptModule, *Pair.Opt);
  Out.A = Out.MA->getFunction(Pair.Orig->getName());
  Out.B = Out.MB->getFunction(Pair.Opt->getName());
  if (Budget == 0)
    return Out;

  // Baseline: the extracted pair must reproduce the rejection; its
  // Unsupported status becomes part of the predicate so reduction cannot
  // drift into a different alarm class. The predicate runs with a capped
  // fixpoint budget (see ReduceMaxIterations).
  RuleConfig Capped = Rules;
  Capped.MaxIterations = std::min(Rules.MaxIterations, ReduceMaxIterations);
  RuleConfig C = Capped;
  C.M = Out.MA.get();
  ++Out.Validations;
  ValidationResult Base = validatePair(*Out.A, *Out.B, C);
  if (Base.Validated)
    return Out;
  uint64_t ProbeBudget = std::min(StepBudget, ReduceStepBudget);
  if (Witness) {
    // The witness must be reproducible at the probe budget, or every cut
    // would be rejected and the untouched pair misreported as 1-minimal.
    // Bail honestly instead: the pair is not reducible at this budget.
    DifferentialTester DT(*Out.MA, *Out.MB, ProbeBudget);
    if (DT.compareOnce(*Out.A, *Out.B, *Witness) != 1 &&
        !DT.test(*Out.A, *Out.B, ReduceProbeInputs).HasWitness)
      return Out;
  }
  Predicate P{Capped, Base.Unsupported, Witness, ProbeBudget,
              &Out.Validations, {}};
  Out.Ran = true;

  // First-improvement sweeps to a fixpoint: cuts are enumerated in
  // deterministic structural order and tried from the back (users before
  // their definitions, later segments first); an accepted cut restarts the
  // sweep because it invalidates structural indices.
  bool Progress = true;
  bool SweepComplete = false;
  bool AnyCutAccepted = false;
  while (Progress && Out.Validations < Budget) {
    Progress = false;
    SweepComplete = true;
    std::vector<Cut> Cuts;
    enumerateCuts(*Out.A, 0, Cuts);
    enumerateCuts(*Out.B, 1, Cuts);
    for (auto It = Cuts.rbegin(); It != Cuts.rend(); ++It) {
      if (Out.Validations >= Budget) {
        SweepComplete = false;
        break;
      }
      // Clone only the side being cut; the other side is read-only.
      std::unique_ptr<Module> Trial =
          cloneModule(It->Side ? *Out.MB : *Out.MA);
      Function *TF = Trial->getFunction(It->Side ? Out.B->getName()
                                                : Out.A->getName());
      if (!applyCut(*TF, *It))
        continue;
      Module &TMA = It->Side ? *Out.MA : *Trial;
      Module &TMB = It->Side ? *Trial : *Out.MB;
      Function &TA = It->Side ? *Out.A : *TF;
      Function &TB = It->Side ? *TF : *Out.B;
      if (!P.holds(TMA, TA, TMB, TB))
        continue;
      (It->Side ? Out.MB : Out.MA) = std::move(Trial);
      (It->Side ? Out.B : Out.A) = TF;
      Progress = true;
      AnyCutAccepted = true;
      // An accepted instruction cut leaves every not-yet-tried (lower)
      // index valid — the reverse iteration keeps sweeping in place. A
      // branch cut restructures the CFG (blocks deleted, phis folded), so
      // the sweep restarts with fresh indices; the memo keeps re-tried
      // states from re-validating.
      if (It->Kind != 2)
        break;
    }
  }
  // 1-minimal iff a full sweep ran to completion accepting nothing — a
  // sweep aborted by the budget says nothing about the untried cuts.
  Out.Minimal = !Progress && SweepComplete;

  // The capped predicate can err in two ways: keep a cut whose pair
  // merges late (capped fixpoint rounds), or keep a cut whose divergence
  // is only visible past the probe corpus/step budget. Certify the end
  // state at the *full* budget on both axes — validation verdict and
  // alarm class — and fall back to the unreduced extraction if either
  // slipped through. Gated on accepted cuts, not instruction counts: a
  // branch commit can be accepted without changing the count.
  if (AnyCutAccepted) {
    RuleConfig Full = Rules;
    Full.M = Out.MA.get();
    ++Out.Validations;
    bool Certified = !validatePair(*Out.A, *Out.B, Full).Validated;
    if (Certified) {
      DifferentialTester DT(*Out.MA, *Out.MB, StepBudget);
      bool Diverges = (Witness && DT.compareOnce(*Out.A, *Out.B,
                                                 *Witness) == 1) ||
                      DT.test(*Out.A, *Out.B, CertifyInputs).HasWitness;
      Certified = Witness ? Diverges : !Diverges;
    }
    if (!Certified) {
      Out.MA = extractFunctionModule(*Pair.OrigModule, *Pair.Orig);
      Out.MB = extractFunctionModule(*Pair.OptModule, *Pair.Opt);
      Out.A = Out.MA->getFunction(Pair.Orig->getName());
      Out.B = Out.MB->getFunction(Pair.Opt->getName());
      Out.Minimal = false;
    }
  }
  return Out;
}
