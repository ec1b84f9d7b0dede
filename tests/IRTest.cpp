//===- IRTest.cpp - Core IR data structure tests ------------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace llvmmd;

TEST(Types, Interning) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32Ty(), Ctx.getIntTy(32));
  EXPECT_NE(Ctx.getInt32Ty(), Ctx.getInt64Ty());
  EXPECT_EQ(Ctx.getPtrTy(), Ctx.getPtrTy());
  EXPECT_TRUE(Ctx.getInt1Ty()->isBool());
  EXPECT_EQ(Ctx.getInt32Ty()->getName(), "i32");
  EXPECT_EQ(Ctx.getInt32Ty()->getStoreSize(), 4u);
  EXPECT_EQ(Ctx.getInt1Ty()->getStoreSize(), 1u);
  EXPECT_EQ(Ctx.getFloatTy()->getStoreSize(), 8u);
}

TEST(Types, FunctionTypeInterning) {
  Context Ctx;
  FunctionType *A = Ctx.getFunctionTy(Ctx.getInt32Ty(), {Ctx.getInt32Ty()});
  FunctionType *B = Ctx.getFunctionTy(Ctx.getInt32Ty(), {Ctx.getInt32Ty()});
  FunctionType *C = Ctx.getFunctionTy(Ctx.getInt32Ty(), {Ctx.getInt64Ty()});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
}

TEST(Constants, IntInterningAndCanonicalization) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt32(7), Ctx.getInt32(7));
  EXPECT_NE(Ctx.getInt32(7), Ctx.getInt64(7));
  // Values canonicalize by sign extension from the width.
  ConstantInt *A = Ctx.getInt(Ctx.getInt8Ty(), 0xFF);
  EXPECT_EQ(A->getSExtValue(), -1);
  EXPECT_EQ(A->getZExtValue(), 0xFFu);
  EXPECT_EQ(A, Ctx.getInt(Ctx.getInt8Ty(), -1));
}

TEST(Constants, Predicates) {
  Context Ctx;
  EXPECT_TRUE(Ctx.getInt32(0)->isZero());
  EXPECT_TRUE(Ctx.getInt32(1)->isOne());
  EXPECT_TRUE(Ctx.getTrue()->isTrue());
  EXPECT_TRUE(Ctx.getFalse()->isFalse());
  EXPECT_TRUE(Ctx.getInt32(64)->isPowerOf2());
  EXPECT_FALSE(Ctx.getInt32(65)->isPowerOf2());
  EXPECT_FALSE(Ctx.getInt32(0)->isPowerOf2());
}

TEST(Constants, FloatAndSpecials) {
  Context Ctx;
  EXPECT_EQ(Ctx.getFloat(2.5), Ctx.getFloat(2.5));
  EXPECT_NE(Ctx.getFloat(2.5), Ctx.getFloat(2.25));
  EXPECT_EQ(Ctx.getNullPtr(), Ctx.getNullPtr());
  EXPECT_EQ(Ctx.getUndef(Ctx.getInt32Ty()), Ctx.getUndef(Ctx.getInt32Ty()));
  EXPECT_NE(Ctx.getUndef(Ctx.getInt32Ty()), Ctx.getUndef(Ctx.getInt64Ty()));
}

namespace {

/// Builds `f(a, b) { x = a + b; y = x * a; ret y }` for use-list tests.
struct SimpleFunc {
  Context Ctx;
  std::unique_ptr<Module> M;
  Function *F;
  Value *X, *Y;

  SimpleFunc() {
    M = std::make_unique<Module>(Ctx);
    Type *I32 = Ctx.getInt32Ty();
    F = M->createFunction(Ctx.getFunctionTy(I32, {I32, I32}), "f");
    IRBuilder B(Ctx);
    B.setInsertPoint(F->createBlock("entry"));
    X = B.createAdd(F->getArg(0), F->getArg(1), "x");
    Y = B.createMul(X, F->getArg(0), "y");
    B.createRet(Y);
  }
};

} // namespace

TEST(UseLists, TrackUses) {
  SimpleFunc S;
  EXPECT_EQ(S.X->getNumUses(), 1u);
  EXPECT_TRUE(S.X->hasOneUse());
  // arg0 is used by both the add and the mul.
  EXPECT_EQ(S.F->getArg(0)->getNumUses(), 2u);
  EXPECT_EQ(S.Y->getNumUses(), 1u); // the return
}

TEST(UseLists, ReplaceAllUsesWith) {
  SimpleFunc S;
  Value *C = S.Ctx.getInt32(5);
  S.X->replaceAllUsesWith(C);
  EXPECT_TRUE(S.X->use_empty());
  auto *Mul = cast<Instruction>(S.Y);
  EXPECT_EQ(Mul->getOperand(0), C);
}

TEST(UseLists, SetOperandMaintainsLists) {
  SimpleFunc S;
  auto *Mul = cast<Instruction>(S.Y);
  size_t ArgUses = S.F->getArg(0)->getNumUses();
  Mul->setOperand(1, S.F->getArg(1));
  EXPECT_EQ(S.F->getArg(0)->getNumUses(), ArgUses - 1);
}

TEST(Instructions, OpcodeClassification) {
  EXPECT_TRUE(isIntBinaryOp(Opcode::Add));
  EXPECT_TRUE(isFloatBinaryOp(Opcode::FMul));
  EXPECT_FALSE(isIntBinaryOp(Opcode::FMul));
  EXPECT_TRUE(isCommutativeOp(Opcode::Mul));
  EXPECT_FALSE(isCommutativeOp(Opcode::Sub));
  EXPECT_TRUE(isTerminatorOp(Opcode::Ret));
  EXPECT_TRUE(isCastOp(Opcode::SExt));
}

TEST(Instructions, PredHelpers) {
  EXPECT_EQ(swapPred(ICmpPred::SLT), ICmpPred::SGT);
  EXPECT_EQ(swapPred(ICmpPred::EQ), ICmpPred::EQ);
  EXPECT_EQ(invertPred(ICmpPred::SLT), ICmpPred::SGE);
  EXPECT_EQ(invertPred(ICmpPred::NE), ICmpPred::EQ);
  for (auto P : {ICmpPred::EQ, ICmpPred::NE, ICmpPred::SLT, ICmpPred::SLE,
                 ICmpPred::SGT, ICmpPred::SGE, ICmpPred::ULT, ICmpPred::ULE,
                 ICmpPred::UGT, ICmpPred::UGE}) {
    EXPECT_EQ(swapPred(swapPred(P)), P);
    EXPECT_EQ(invertPred(invertPred(P)), P);
  }
}

TEST(Instructions, SideEffectQueries) {
  SimpleFunc S;
  IRBuilder B(S.Ctx);
  Function *F2 = S.M->createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getVoidTy(), {S.Ctx.getPtrTy()}), "w");
  B.setInsertPoint(S.F->getEntryBlock());
  // Build detached checks through fresh instructions in a scratch block.
  Function *RO = S.M->createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getInt32Ty(), {}), "ro");
  RO->setMemoryEffect(MemoryEffect::ReadOnly);
  Function *RN = S.M->createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getInt32Ty(), {}), "rn");
  RN->setMemoryEffect(MemoryEffect::ReadNone);
  BasicBlock *BB = S.F->createBlock("scratch");
  B.setInsertPoint(BB);
  Value *P = B.createAlloca(S.Ctx.getInt32Ty());
  Instruction *St = B.createStore(S.Ctx.getInt32(1), P);
  Value *Ld = B.createLoad(S.Ctx.getInt32Ty(), P);
  Value *CW = B.createCall(F2, {P});
  Value *CR = B.createCall(RO, {}, "cr");
  Value *CN = B.createCall(RN, {}, "cn");
  EXPECT_TRUE(St->hasSideEffects());
  EXPECT_TRUE(cast<Instruction>(Ld)->mayReadMemory());
  EXPECT_FALSE(cast<Instruction>(Ld)->mayWriteMemory());
  EXPECT_TRUE(cast<Instruction>(CW)->hasSideEffects());
  EXPECT_FALSE(cast<Instruction>(CR)->mayWriteMemory());
  EXPECT_TRUE(cast<Instruction>(CR)->mayReadMemory());
  EXPECT_FALSE(cast<Instruction>(CN)->mayReadMemory());
}

TEST(BasicBlocks, SuccessorsAndPredecessors) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(
      Ctx.getFunctionTy(I32, {Ctx.getInt1Ty()}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *T = F->createBlock("t");
  BasicBlock *E = F->createBlock("e");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createCondBr(F->getArg(0), T, E);
  B.setInsertPoint(T);
  B.createRet(Ctx.getInt32(1));
  B.setInsertPoint(E);
  B.createRet(Ctx.getInt32(2));

  std::vector<BasicBlock *> Succs(Entry->successors().begin(),
                                  Entry->successors().end());
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0], T);
  EXPECT_EQ(Succs[1], E);
  auto Preds = T->predecessors();
  ASSERT_EQ(Preds.size(), 1u);
  EXPECT_EQ(Preds[0], Entry);
  EXPECT_TRUE(E->predecessors().size() == 1);
  EXPECT_EQ(Entry->getTerminator()->getOpcode(), Opcode::Br);
}

TEST(BasicBlocks, PhiHelpers) {
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {}), "f");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *BJ = F->createBlock("j");
  IRBuilder B(Ctx);
  B.setInsertPoint(BJ);
  PhiNode *P = B.createPhi(I32, "p");
  P->addIncoming(Ctx.getInt32(1), A);
  EXPECT_EQ(P->getNumIncoming(), 1u);
  EXPECT_EQ(P->getIncomingValueForBlock(A), Ctx.getInt32(1));
  EXPECT_EQ(P->getBlockIndex(A), 0);
  P->removeIncoming(0);
  EXPECT_EQ(P->getNumIncoming(), 0u);
  // Phis group at the head; getFirstNonPhi skips them.
  PhiNode *P2 = B.createPhi(I32, "p2");
  B.createRet(P2);
  EXPECT_EQ(*BJ->getFirstNonPhi(), BJ->getTerminator());
  EXPECT_EQ(BJ->phis().size(), 2u);
}

TEST(BasicBlocks, ManyPhisKeepCreationOrder) {
  // 20,000 φs in one block: creation appends (no walk over the φs already
  // there), keeps creation order, and the block still verifies. A φ made
  // after the terminator still lands before it.
  Context Ctx;
  Module M(Ctx);
  Type *I32 = Ctx.getInt32Ty();
  Function *F = M.createFunction(Ctx.getFunctionTy(I32, {I32}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Join = F->createBlock("join");
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry);
  B.createBr(Join);
  B.setInsertPoint(Join);
  constexpr unsigned NumPhis = 20000;
  std::vector<PhiNode *> Made;
  for (unsigned I = 0; I < NumPhis; ++I) {
    PhiNode *P = B.createPhi(I32);
    P->addIncoming(I % 2 ? static_cast<Value *>(F->getArg(0))
                         : Ctx.getInt32(I),
                   Entry);
    Made.push_back(P);
  }
  B.createRet(Made.front());
  PhiNode *Late = B.createPhi(I32, "late");
  Late->addIncoming(Ctx.getInt32(7), Entry);
  Made.push_back(Late);

  std::vector<PhiNode *> InBlock;
  for (PhiNode *P : Join->phis())
    InBlock.push_back(P);
  EXPECT_EQ(InBlock, Made);
  EXPECT_EQ(Join->size(), NumPhis + 2);
  EXPECT_EQ(*Join->getFirstNonPhi(), Join->getTerminator());
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyFunction(*F, Errors))
      << (Errors.empty() ? "" : Errors.front());
}

namespace {

/// A function `f(i32, i32, i1)` with one empty block, for building
/// instructions that the tests link, unlink and rewire by hand.
struct Scratch {
  Context Ctx;
  Module M{Ctx};
  Function *F;
  BasicBlock *BB;
  Value *A, *B;

  Scratch() {
    Type *I32 = Ctx.getInt32Ty();
    F = M.createFunction(
        Ctx.getFunctionTy(I32, {I32, I32, Ctx.getInt1Ty()}), "f");
    BB = F->createBlock("bb");
    A = F->getArg(0);
    B = F->getArg(1);
  }

  /// A detached `Op L, R`.
  Instruction *binary(Opcode Op, Value *L, Value *R) {
    return F->bodyArena().create<BinaryOperator>(Op, L, R);
  }
  PhiNode *phi() { return F->bodyArena().create<PhiNode>(Ctx.getInt32Ty()); }
  Instruction *ret(Value *V) {
    return F->bodyArena().create<ReturnInst>(V, Ctx.getVoidTy());
  }
};

std::vector<User *> usersOf(const Value *V) {
  return {V->users().begin(), V->users().end()};
}

/// Checks \p BB's list against \p Want walking forward and backward, and
/// every cached property of the list.
void expectBlock(const BasicBlock *BB, const std::vector<Instruction *> &Want) {
  std::vector<Instruction *> Fwd(BB->begin(), BB->end());
  EXPECT_EQ(Fwd, Want);
  std::vector<Instruction *> Bwd;
  for (auto It = BB->end(); It != BB->begin();)
    Bwd.push_back(*--It);
  EXPECT_EQ(std::vector<Instruction *>(Bwd.rbegin(), Bwd.rend()), Want);
  EXPECT_EQ(BB->size(), Want.size());
  EXPECT_EQ(BB->empty(), Want.empty());
  EXPECT_EQ(BB->front(), Want.empty() ? nullptr : Want.front());
  EXPECT_EQ(BB->back(), Want.empty() ? nullptr : Want.back());
  for (Instruction *I : Want)
    EXPECT_EQ(I->getParent(), BB);
}

} // namespace

TEST(BasicBlocks, InsertRemoveEraseAtHeadMiddleTail) {
  Scratch S;
  BasicBlock *BB = S.BB;
  Instruction *X = S.binary(Opcode::Add, S.A, S.B);
  Instruction *Y = S.binary(Opcode::Sub, S.A, S.B);
  Instruction *Z = S.binary(Opcode::Mul, S.A, S.B);
  Instruction *W = S.binary(Opcode::Xor, S.A, S.B);
  Instruction *R = S.ret(S.Ctx.getInt32(0));
  expectBlock(BB, {});
  EXPECT_EQ(BB->getTerminator(), nullptr);
  EXPECT_TRUE(BB->getFirstNonPhi() == BB->end());

  BB->append(X);                  // into an empty block
  BB->insert(BB->begin(), Y);     // head
  BB->insert(BB->end(), Z);       // tail
  auto It = BB->insert(BB->iteratorTo(X), W); // middle
  EXPECT_EQ(*It, W);
  expectBlock(BB, {Y, W, X, Z});
  EXPECT_EQ(BB->getTerminator(), nullptr);
  BB->append(R);
  expectBlock(BB, {Y, W, X, Z, R});
  EXPECT_EQ(BB->getTerminator(), R);
  EXPECT_EQ(*BB->getFirstNonPhi(), Y);

  // Unlinking keeps the instruction (and its uses) for reinsertion.
  BB->remove(W); // middle
  EXPECT_EQ(W->getParent(), nullptr);
  expectBlock(BB, {Y, X, Z, R});
  BB->remove(Y); // head
  expectBlock(BB, {X, Z, R});
  BB->remove(R); // tail
  expectBlock(BB, {X, Z});
  EXPECT_EQ(BB->getTerminator(), nullptr);
  BB->insert(std::next(BB->begin()), Y);
  BB->insert(BB->begin(), W);
  BB->append(R);
  expectBlock(BB, {W, X, Y, Z, R});
  EXPECT_EQ(BB->getTerminator(), R);
  EXPECT_EQ(S.A->getNumUses(), 4u);

  // Erasing also releases the operand uses.
  BB->erase(Y); // middle
  expectBlock(BB, {W, X, Z, R});
  EXPECT_EQ(S.A->getNumUses(), 3u);
  EXPECT_EQ(Y->getNumOperands(), 0u);
  BB->erase(W); // head
  expectBlock(BB, {X, Z, R});
  BB->erase(R); // tail
  expectBlock(BB, {X, Z});
  EXPECT_EQ(BB->getTerminator(), nullptr);
  BB->erase(Z);
  BB->erase(X);
  expectBlock(BB, {});
  EXPECT_TRUE(S.A->use_empty());
  EXPECT_TRUE(S.B->use_empty());
}

TEST(BasicBlocks, FirstNonPhiAndPhiRangeFollowTheList) {
  Scratch S;
  BasicBlock *BB = S.BB;
  PhiNode *P1 = S.phi(), *P2 = S.phi();
  Instruction *X = S.binary(Opcode::Add, S.A, S.B);
  Instruction *R = S.ret(X);
  BB->append(X);
  BB->append(R);
  BB->insert(BB->begin(), P2);
  BB->insert(BB->begin(), P1);
  expectBlock(BB, {P1, P2, X, R});
  EXPECT_EQ(*BB->getFirstNonPhi(), X);
  std::vector<PhiNode *> Phis(BB->phis().begin(), BB->phis().end());
  EXPECT_EQ(Phis, (std::vector<PhiNode *>{P1, P2}));
  EXPECT_EQ(BB->phis().size(), 2u);

  BB->erase(P1);
  EXPECT_EQ(*BB->getFirstNonPhi(), X);
  EXPECT_EQ(BB->phis().size(), 1u);
  EXPECT_EQ(*BB->phis().begin(), P2);
  BB->remove(P2);
  EXPECT_TRUE(BB->getFirstNonPhi() == BB->begin());
  EXPECT_TRUE(BB->phis().empty());
  // A φ linked after a non-φ is not part of the head group.
  BB->insert(BB->iteratorTo(R), P2);
  EXPECT_TRUE(BB->phis().empty());
  expectBlock(BB, {X, P2, R});
}

// The use list is a sequence: appends at the tail, and dropping a use
// erases the first entry for that user wherever the dropped slot sits.
// Optimizer output depends on this order through replaceAllUsesWith.
TEST(UseLists, OrderAfterEveryMutation) {
  Scratch S;
  BasicBlock *BB = S.BB;
  IRBuilder B(S.Ctx);
  B.setInsertPoint(BB);
  Value *V = B.createAdd(S.A, S.B, "v");
  Value *Wv = B.createSub(S.A, S.B, "w");
  auto *U = cast<Instruction>(B.createAdd(V, Wv, "u"));
  auto *X = cast<Instruction>(B.createSub(V, Wv, "x"));
  EXPECT_EQ(usersOf(V), (std::vector<User *>{U, X}));

  // setOperand: [U, X] -> [U, X, U]; then dropping U's *second* slot
  // erases the first entry: [X, U], not [U, X].
  U->setOperand(1, V);
  EXPECT_EQ(usersOf(V), (std::vector<User *>{U, X, U}));
  EXPECT_EQ(usersOf(Wv), (std::vector<User *>{X}));
  U->setOperand(1, Wv);
  EXPECT_EQ(usersOf(V), (std::vector<User *>{X, U}));
  EXPECT_EQ(usersOf(Wv), (std::vector<User *>{X, U}));

  // replaceAllUsesWith walks the list from the back, moving each user's
  // slots in operand order.
  auto *T = cast<Instruction>(B.createMul(S.A, S.B, "t"));
  auto *N = cast<Instruction>(B.createMul(S.B, S.A, "n"));
  auto *B1 = cast<Instruction>(B.createAdd(N, S.A, "b1"));
  auto *A1 = cast<Instruction>(B.createMul(T, S.B, "a1"));
  auto *A2 = cast<Instruction>(B.createSub(T, T, "a2"));
  EXPECT_EQ(usersOf(T), (std::vector<User *>{A1, A2, A2}));
  T->replaceAllUsesWith(N);
  EXPECT_TRUE(T->use_empty());
  EXPECT_EQ(usersOf(N), (std::vector<User *>{B1, A2, A2, A1}));

  // PhiNode::removeIncoming: [P, Q, P] minus P's last slot is [Q, P].
  BasicBlock *P0 = S.F->createBlock("p0"), *P1 = S.F->createBlock("p1"),
             *P2 = S.F->createBlock("p2");
  auto *G = cast<Instruction>(B.createXor(S.A, S.B, "g"));
  PhiNode *P = S.phi();
  BB->insert(BB->begin(), P);
  P->addIncoming(G, P0);
  auto *Q = cast<Instruction>(B.createAdd(G, S.A, "q"));
  P->addIncoming(S.A, P1);
  P->addIncoming(G, P2);
  EXPECT_EQ(usersOf(G), (std::vector<User *>{P, Q, P}));
  P->removeIncoming(2);
  EXPECT_EQ(usersOf(G), (std::vector<User *>{Q, P}));
  EXPECT_EQ(P->getNumIncoming(), 2u);
  EXPECT_EQ(P->getIncomingBlock(0), P0);
  EXPECT_EQ(P->getIncomingBlock(1), P1);
  P->removeIncoming(0);
  EXPECT_EQ(usersOf(G), (std::vector<User *>{Q}));
  EXPECT_EQ(P->getIncomingValue(0), S.A);
  EXPECT_EQ(P->getIncomingBlock(0), P1);

  // BranchInst::makeUnconditional drops the condition's use.
  auto *C = cast<Instruction>(B.createICmp(ICmpPred::EQ, S.A, S.B, "c"));
  auto *S1 = cast<Instruction>(B.createSelect(C, S.A, S.B, "s1"));
  auto *Br = cast<BranchInst>(B.createCondBr(C, P0, P1));
  auto *S2 = cast<Instruction>(B.createSelect(C, S.B, S.A, "s2"));
  EXPECT_EQ(usersOf(C), (std::vector<User *>{S1, Br, S2}));
  Br->makeUnconditional(P2);
  EXPECT_EQ(usersOf(C), (std::vector<User *>{S1, S2}));
  EXPECT_FALSE(Br->isConditional());
  EXPECT_EQ(Br->getSuccessor(0), P2);

  // dropAllReferences drops every slot of the user.
  auto *D = cast<Instruction>(B.createAdd(C, C, "d"));
  auto *E = cast<Instruction>(B.createSub(C, S1, "e"));
  EXPECT_EQ(usersOf(C), (std::vector<User *>{S1, S2, D, D, E}));
  D->dropAllReferences();
  EXPECT_EQ(usersOf(C), (std::vector<User *>{S1, S2, E}));
  EXPECT_EQ(D->getNumOperands(), 0u);
}

TEST(UseLists, OperandsAndUsersSpillPastInlineCapacity) {
  Scratch S;
  IRBuilder B(S.Ctx);
  B.setInsertPoint(S.BB);
  auto *V = cast<Instruction>(B.createAdd(S.A, S.B, "v"));
  std::vector<BasicBlock *> Preds;
  std::vector<Value *> Values;
  PhiNode *P = S.phi();
  S.BB->insert(S.BB->begin(), P);
  std::vector<User *> WantUsers;
  for (unsigned I = 0; I != 9; ++I) {
    Preds.push_back(S.F->createBlock("p" + std::to_string(I)));
    Value *In = I % 2 ? static_cast<Value *>(V) : S.Ctx.getInt32(I);
    Values.push_back(In);
    P->addIncoming(In, Preds.back());
    if (I % 2)
      WantUsers.push_back(P);
    WantUsers.push_back(cast<Instruction>(
        B.createMul(V, S.Ctx.getInt32(I), "m" + std::to_string(I))));
  }
  ASSERT_EQ(P->getNumIncoming(), 9u);
  for (unsigned I = 0; I != 9; ++I) {
    EXPECT_EQ(P->getIncomingValue(I), Values[I]);
    EXPECT_EQ(P->getIncomingBlock(I), Preds[I]);
    EXPECT_EQ(P->getBlockIndex(Preds[I]), static_cast<int>(I));
  }
  EXPECT_EQ(usersOf(V), WantUsers);
  EXPECT_EQ(V->getNumUses(), 13u);

  // Removing entries from the spilled lists keeps both lists parallel and
  // the use list in order.
  P->removeIncoming(3); // V's second φ slot; the first φ entry goes
  Values.erase(Values.begin() + 3);
  Preds.erase(Preds.begin() + 3);
  WantUsers.erase(std::find(WantUsers.begin(), WantUsers.end(), P));
  ASSERT_EQ(P->getNumIncoming(), 8u);
  for (unsigned I = 0; I != 8; ++I) {
    EXPECT_EQ(P->getIncomingValue(I), Values[I]);
    EXPECT_EQ(P->getIncomingBlock(I), Preds[I]);
  }
  EXPECT_EQ(usersOf(V), WantUsers);

  // A call with more arguments than the inline operand room.
  std::vector<Type *> Params(6, S.Ctx.getInt32Ty());
  Function *Callee = S.M.createFunction(
      S.Ctx.getFunctionTy(S.Ctx.getInt32Ty(), Params), "six");
  std::vector<Value *> Args = {V, S.A, V, S.B, V, S.Ctx.getInt32(6)};
  auto *Call = cast<CallInst>(B.createCall(Callee, Args, "call"));
  ASSERT_EQ(Call->getNumArgs(), 6u);
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(Call->getArg(I), Args[I]);
  for (int K = 0; K != 3; ++K)
    WantUsers.push_back(Call);
  EXPECT_EQ(usersOf(V), WantUsers);

  V->replaceAllUsesWith(S.A);
  EXPECT_TRUE(V->use_empty());
  for (unsigned I = 0; I != 8; ++I)
    EXPECT_EQ(P->getIncomingValue(I), Values[I] == V ? S.A : Values[I]);
  for (unsigned I = 0; I != 6; ++I)
    EXPECT_EQ(Call->getArg(I), Args[I] == V ? S.A : Args[I]);
  P->dropAllReferences();
  EXPECT_EQ(P->getNumOperands(), 0u);
}

TEST(Module, LookupAndGlobals) {
  Context Ctx;
  Module M(Ctx, "m");
  Function *F = M.createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}),
                                 "foo");
  EXPECT_EQ(M.getFunction("foo"), F);
  EXPECT_EQ(M.getFunction("bar"), nullptr);
  GlobalVariable *G = M.createGlobal(Ctx.getInt32Ty(), "g", Ctx.getInt32(3),
                                     true);
  EXPECT_EQ(M.getGlobal("g"), G);
  EXPECT_TRUE(G->isConstantGlobal());
  EXPECT_EQ(cast<ConstantInt>(G->getInitializer())->getSExtValue(), 3);
  EXPECT_TRUE(F->isDeclaration());
  EXPECT_EQ(M.definedFunctions().size(), 0u);
}
