//===- Hashing.cpp - Function structural fingerprint -------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "support/Hashing.h"

#include "ir/Function.h"
#include "ir/Instruction.h"
#include "ir/Module.h"
#include "support/FlatMap.h"

#include <cstring>
#include <vector>

using namespace llvmmd;

uint64_t llvmmd::hashTypeShape(const Type *Ty) {
  if (!Ty)
    return 0;
  uint64_t H = hashCombine(1, static_cast<uint64_t>(Ty->getKind()));
  if (Ty->isInteger())
    H = hashCombine(H, Ty->getBitWidth());
  return H;
}

namespace {

uint64_t hashType(const Type *Ty) { return hashTypeShape(Ty); }

/// Mixes one operand reference into \p H. Instructions and arguments use
/// their dense per-function number; constants hash by value, globals and
/// functions by name.
uint64_t hashOperand(uint64_t H, const Value *V, const FlatMap<uint64_t> &Num) {
  if (const uint64_t *N = Num.find(flatKey(V)))
    return hashCombine(hashCombine(H, 0x01), *N);
  switch (V->getKind()) {
  case ValueKind::ConstantInt:
    H = hashCombine(H, 0x02);
    H = hashCombine(H, hashType(V->getType()));
    return hashCombine(H,
                       static_cast<uint64_t>(cast<ConstantInt>(V)->getSExtValue()));
  case ValueKind::ConstantFP: {
    double D = cast<ConstantFP>(V)->getValue();
    uint64_t Bits;
    std::memcpy(&Bits, &D, sizeof(Bits));
    return hashCombine(hashCombine(H, 0x03), Bits);
  }
  case ValueKind::ConstantPointerNull:
    return hashCombine(H, 0x04);
  case ValueKind::UndefValue:
    return hashCombine(hashCombine(H, 0x05), hashType(V->getType()));
  case ValueKind::GlobalVariable:
  case ValueKind::Function:
    return hashCombine(hashCombine(H, 0x06), hashString(V->getName()));
  default:
    // An operand outside the numbering (e.g. an instruction from another
    // function, which well-formed IR does not have). Hash its address-free
    // kind only; the Verifier rejects such IR anyway.
    return hashCombine(hashCombine(H, 0x07),
                       static_cast<uint64_t>(V->getKind()));
  }
}

} // namespace

uint64_t llvmmd::fingerprintFunction(const Function &F) {
  // Signature (the function's *name* is deliberately excluded so snapshots
  // and clones fingerprint identically to their source).
  uint64_t H = hashCombine(0x6c6c766d6d64ULL, F.getNumArgs());
  H = hashCombine(H, hashType(F.getReturnType()));
  for (unsigned I = 0, E = F.getNumArgs(); I != E; ++I)
    H = hashCombine(H, hashType(F.getArg(I)->getType()));
  H = hashCombine(H, static_cast<uint64_t>(F.getMemoryEffect()));
  if (F.isDeclaration())
    return H;

  // Pass 1: dense numbering of blocks, arguments and instructions, so
  // forward references (phis) hash consistently. Blocks are looked up by
  // block number; a block outside the body numbers 0.
  FlatMap<uint64_t> Num;
  Num.reserve(F.getNumArgs() + F.getInstructionCount());
  std::vector<uint64_t> BlockNums(F.getMaxBlockNumber(), 0);
  auto BlockNum = [&](const BasicBlock *BB) -> uint64_t {
    return BB->getParent() == &F ? BlockNums[BB->getNumber()] : 0;
  };
  uint64_t NextNum = 1;
  for (unsigned I = 0, E = F.getNumArgs(); I != E; ++I)
    Num.set(flatKey(F.getArg(I)), NextNum++);
  for (const auto &BB : F.blocks()) {
    BlockNums[BB->getNumber()] = NextNum++;
    for (const Instruction *I : *BB)
      Num.set(flatKey(I), NextNum++);
  }

  // Pass 2: hash every instruction in block order.
  for (const auto &BB : F.blocks()) {
    H = hashCombine(H, BlockNum(BB));
    for (const Instruction *I : *BB) {
      H = hashCombine(H, static_cast<uint64_t>(I->getOpcode()));
      H = hashCombine(H, hashType(I->getType()));
      for (const Value *Op : I->operands())
        H = hashOperand(H, Op, Num);
      // Opcode-specific payloads not covered by the operand list.
      if (const auto *Cmp = dyn_cast<ICmpInst>(I))
        H = hashCombine(H, static_cast<uint64_t>(Cmp->getPred()));
      else if (const auto *FCmp = dyn_cast<FCmpInst>(I))
        H = hashCombine(H, static_cast<uint64_t>(FCmp->getPred()));
      else if (const auto *AI = dyn_cast<AllocaInst>(I))
        H = hashCombine(H, hashType(AI->getAllocatedType()));
      else if (const auto *GEP = dyn_cast<GEPInst>(I))
        H = hashCombine(H, hashType(GEP->getElementType()));
      else if (const auto *Call = dyn_cast<CallInst>(I)) {
        H = hashCombine(H, hashString(Call->getCallee()->getName()));
        H = hashCombine(
            H, static_cast<uint64_t>(Call->getCallee()->getMemoryEffect()));
      } else if (const auto *Phi = dyn_cast<PhiNode>(I)) {
        for (unsigned PI = 0, PE = Phi->getNumIncoming(); PI != PE; ++PI)
          H = hashCombine(H, BlockNum(Phi->getIncomingBlock(PI)));
      } else if (const auto *Br = dyn_cast<BranchInst>(I)) {
        for (unsigned SI = 0, SE = Br->getNumSuccessors(); SI != SE; ++SI)
          H = hashCombine(H, BlockNum(Br->getSuccessor(SI)));
      }
    }
  }
  return H;
}
