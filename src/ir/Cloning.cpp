//===- Cloning.cpp - Function, block and module cloning --------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/Cloning.h"

#include "ir/Module.h"
#include "support/Arena.h"
#include "support/SmallVector.h"

using namespace llvmmd;

namespace {

/// Copies \p I into \p A with every operand passed through \p Map and every
/// block reference (phi incoming blocks, branch successors) through
/// \p MapBlock.
template <typename MapFn, typename BlockFn>
Instruction *copyInstruction(const Instruction *I, Arena &A, MapFn &&Map,
                             BlockFn &&MapBlock) {
  switch (I->getOpcode()) {
  case Opcode::ICmp: {
    const auto *C = cast<ICmpInst>(I);
    return A.create<ICmpInst>(C->getPred(), Map(C->getLHS()),
                              Map(C->getRHS()), C->getType());
  }
  case Opcode::FCmp: {
    const auto *C = cast<FCmpInst>(I);
    return A.create<FCmpInst>(C->getPred(), Map(C->getLHS()),
                              Map(C->getRHS()), C->getType());
  }
  case Opcode::Trunc:
  case Opcode::ZExt:
  case Opcode::SExt: {
    const auto *C = cast<CastInst>(I);
    return A.create<CastInst>(C->getOpcode(), Map(C->getSrc()), C->getType());
  }
  case Opcode::Select: {
    const auto *S = cast<SelectInst>(I);
    return A.create<SelectInst>(Map(S->getCondition()), Map(S->getTrueValue()),
                                Map(S->getFalseValue()));
  }
  case Opcode::Alloca: {
    const auto *AI = cast<AllocaInst>(I);
    return A.create<AllocaInst>(AI->getAllocatedType(), Map(AI->getCount()),
                                AI->getType());
  }
  case Opcode::Load: {
    const auto *L = cast<LoadInst>(I);
    return A.create<LoadInst>(L->getType(), Map(L->getPointer()));
  }
  case Opcode::Store: {
    const auto *S = cast<StoreInst>(I);
    return A.create<StoreInst>(Map(S->getStoredValue()), Map(S->getPointer()),
                               S->getType());
  }
  case Opcode::GEP: {
    const auto *G = cast<GEPInst>(I);
    return A.create<GEPInst>(G->getElementType(), Map(G->getBase()),
                             Map(G->getIndex()), G->getType());
  }
  case Opcode::Call: {
    const auto *C = cast<CallInst>(I);
    OperandList Args;
    for (unsigned K = 0, E = C->getNumArgs(); K != E; ++K)
      Args.push_back(Map(C->getArg(K)));
    return A.create<CallInst>(cast<Function>(Map(C->getCallee())),
                              Args.begin(), Args.size(), C->getType());
  }
  case Opcode::Phi: {
    const auto *P = cast<PhiNode>(I);
    auto *NP = A.create<PhiNode>(P->getType());
    for (unsigned K = 0, E = P->getNumIncoming(); K != E; ++K)
      NP->addIncoming(Map(P->getIncomingValue(K)),
                      MapBlock(P->getIncomingBlock(K)));
    return NP;
  }
  case Opcode::Br: {
    const auto *B = cast<BranchInst>(I);
    if (B->isConditional())
      return A.create<BranchInst>(Map(B->getCondition()),
                                  MapBlock(B->getSuccessor(0)),
                                  MapBlock(B->getSuccessor(1)), B->getType());
    return A.create<BranchInst>(MapBlock(B->getSuccessor(0)), B->getType());
  }
  case Opcode::Ret: {
    const auto *R = cast<ReturnInst>(I);
    return A.create<ReturnInst>(Map(R->getReturnValue()), R->getType());
  }
  case Opcode::Unreachable:
    return A.create<UnreachableInst>(I->getType());
  default:
    assert(I->isBinaryOp() && "unhandled opcode in cloneInstruction");
    return A.create<BinaryOperator>(I->getOpcode(), Map(I->getOperand(0)),
                                    Map(I->getOperand(1)));
  }
}

/// Clones blocks of one source function, building each copy from operands
/// that are already mapped. A use of a cloned instruction that has no copy
/// yet (a phi's back-edge value, or a use above its definition in block
/// order) is built against an undef placeholder and patched by finish()
/// once every copy exists, so the source function is only ever read.
class BodyCloner {
public:
  /// With \p DstModule set, globals and functions the map does not know yet
  /// are looked up there by name and memoized.
  BodyCloner(const Function &Src, ValueMap &VMap, Module *DstModule = nullptr)
      : Src(Src), VMap(VMap), DstModule(DstModule),
        BlockMap(Src.getMaxBlockNumber(), nullptr) {}

  void addBlock(const BasicBlock *BB, BasicBlock *NewBB) {
    BlockMap[BB->getNumber()] = NewBB;
  }

  /// Appends copies of \p BB's instructions to its mapped block, each named
  /// after its source plus \p Suffix.
  void cloneInstructions(const BasicBlock *BB, const std::string &Suffix) {
    BasicBlock *NewBB = BlockMap[BB->getNumber()];
    Arena &A = NewBB->getParent()->bodyArena();
    auto Map = [this](Value *V) { return map(V); };
    auto MapBlock = [this](BasicBlock *B) { return mapBlock(B); };
    for (const Instruction *I : *BB) {
      Instruction *NI = copyInstruction(I, A, Map, MapBlock);
      if (Pending) {
        for (unsigned K = 0, E = I->getNumOperands(); K != E; ++K)
          if (isPending(I->getOperand(K)))
            Fixups.push_back({NI, K, I->getOperand(K)});
        Pending = 0;
      }
      if (I->hasName())
        NI->setName(I->getName() + Suffix);
      NewBB->append(NI);
      VMap.set(flatKey(I), NI);
    }
  }

  /// Replaces every placeholder with the copy it stands for.
  void finish() {
    for (const Fixup &F : Fixups) {
      Value *const *New = VMap.find(flatKey(F.Src));
      assert(New && "forward reference to a value that was never cloned");
      F.User->setOperand(F.OpIdx, *New);
    }
  }

private:
  struct Fixup {
    Instruction *User;
    unsigned OpIdx;
    const Value *Src;
  };

  BasicBlock *mappedBlock(const BasicBlock *BB) const {
    if (BB->getParent() != &Src || BB->getNumber() >= BlockMap.size())
      return nullptr;
    return BlockMap[BB->getNumber()];
  }

  BasicBlock *mapBlock(BasicBlock *BB) const {
    BasicBlock *New = mappedBlock(BB);
    return New ? New : BB;
  }

  /// True if \p V is an instruction of a block being cloned whose copy
  /// does not exist yet.
  bool isPending(const Value *V) const {
    const auto *I = dyn_cast_or_null<Instruction>(V);
    return I && I->getParent() && mappedBlock(I->getParent()) &&
           !VMap.contains(flatKey(I));
  }

  Value *map(Value *V) {
    if (!V)
      return V;
    if (Value *const *New = VMap.find(flatKey(V)))
      return *New;
    if (DstModule && (isa<GlobalVariable>(V) || isa<Function>(V)))
      return mapByName(V);
    if (!isPending(V))
      return V;
    ++Pending;
    return Src.getParent()->getContext().getUndef(V->getType());
  }

  /// \p V's same-named entity in DstModule.
  Value *mapByName(Value *V) {
    Value *New;
    if (isa<Function>(V))
      New = DstModule->getFunction(V->getName());
    else
      New = DstModule->getGlobal(V->getName());
    assert(New && "global or callee missing from destination module");
    VMap.set(flatKey(V), New);
    return New;
  }

  const Function &Src;
  ValueMap &VMap;
  Module *DstModule;
  /// Copy of each source block, indexed by block number.
  std::vector<BasicBlock *> BlockMap;
  /// Few bodies have more forward references than this.
  SmallVector<Fixup, 16> Fixups;
  /// Placeholders handed out for the instruction being copied.
  unsigned Pending = 0;
};

/// cloneFunctionBody into a caller-sized \p VMap, mapping globals and
/// callees into \p DstModule when it is set.
void cloneBody(const Function &Src, Function &Dst, ValueMap &VMap,
               Module *DstModule = nullptr) {
  assert(Dst.getNumBlocks() == 0 && "destination already has a body");
  for (unsigned I = 0, E = Src.getNumArgs(); I != E; ++I) {
    VMap.set(flatKey(Src.getArg(I)), Dst.getArg(I));
    Dst.getArg(I)->setName(Src.getArg(I)->getName());
  }
  // The copy takes about as much room as its source: one slab and one
  // block list, sized up front.
  Dst.bodyArena().reserve(Src.bodyArena().bytesAllocated());
  Dst.reserveBlocks(Src.getNumBlocks());
  BodyCloner C(Src, VMap, DstModule);
  for (const BasicBlock *BB : Src.blocks())
    C.addBlock(BB, Dst.createBlock(BB->getName()));
  for (const BasicBlock *BB : Src.blocks())
    C.cloneInstructions(BB, "");
  C.finish();
}

} // namespace

Instruction *llvmmd::cloneInstruction(const Instruction *I, Arena &A) {
  return copyInstruction(
      I, A, [](Value *V) { return V; }, [](BasicBlock *BB) { return BB; });
}

void llvmmd::cloneFunctionBody(const Function &Src, Function &Dst) {
  ValueMap VMap;
  VMap.reserve(Src.getNumArgs() + Src.getInstructionCount());
  cloneBody(Src, Dst, VMap);
}

void llvmmd::replaceFunctionBody(const Function &Src, Function &Dst) {
  Dst.dropBody();
  ValueMap VMap;
  VMap.reserve(Src.getNumArgs() + Src.getInstructionCount());
  cloneBody(Src, Dst, VMap, Dst.getParent());
}

std::vector<BasicBlock *>
llvmmd::cloneBlocks(Function &F, const std::vector<BasicBlock *> &Blocks,
                    ValueMap &VMap, const std::string &Suffix) {
  BodyCloner C(F, VMap);
  std::vector<BasicBlock *> NewBlocks;
  NewBlocks.reserve(Blocks.size());
  for (BasicBlock *BB : Blocks) {
    NewBlocks.push_back(F.createBlock(BB->getName() + Suffix));
    C.addBlock(BB, NewBlocks.back());
  }
  for (BasicBlock *BB : Blocks)
    C.cloneInstructions(BB, Suffix);
  C.finish();
  return NewBlocks;
}

std::unique_ptr<Module> llvmmd::cloneModule(const Module &M) {
  auto New = std::make_unique<Module>(M.getContext(), M.getName());
  // One map holds globals, functions and every body's values, so an
  // operand is remapped by one lookup whatever it refers to.
  size_t NumValues = M.globals().size() + M.functions().size();
  for (const Function *F : M.functions())
    NumValues += F->getNumArgs() + F->getInstructionCount();
  ValueMap VMap;
  VMap.reserve(NumValues);

  for (const GlobalVariable *G : M.globals())
    VMap.set(flatKey(G),
             New->createGlobal(G->getValueType(), G->getName(),
                               G->getInitializer(), G->isConstantGlobal()));
  for (const Function *F : M.functions()) {
    Function *NF = New->createFunction(F->getFunctionType(), F->getName());
    NF->setMemoryEffect(F->getMemoryEffect());
    VMap.set(flatKey(F), NF);
  }
  const std::vector<Function *> &NewFunctions = New->functions();
  for (size_t I = 0, E = NewFunctions.size(); I != E; ++I)
    if (!M.functions()[I]->isDeclaration())
      cloneBody(*M.functions()[I], *NewFunctions[I], VMap);
  return New;
}
