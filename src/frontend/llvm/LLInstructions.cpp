//===- LLInstructions.cpp - Instruction translator ------------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
// Pass 2 of the .ll importer: translates one function body's token range
// into native IR instructions. Forward references become undef
// placeholders plus a fixup list resolved in post-processing, and `switch`
// lowers to an icmp-eq/condbr chain, recording the edge remap the phi
// post-process pass needs.
//
//===----------------------------------------------------------------------===//

#include "frontend/llvm/LLImporter.h"

#include "ir/Constant.h"

#include <algorithm>
#include <cctype>

using namespace llvmmd;

namespace {

/// Instruction-level flag words we drop: wrap/exactness flags, fast-math
/// flags, and `inbounds`-style gep decorations. None of these words can
/// start a type or an operand, so skipping them greedily is safe.
bool isInstFlagWord(std::string_view W) {
  static const char *Words[] = {
      "nuw",  "nsw",   "exact", "disjoint", "nneg",     "samesign",
      "fast", "nnan",  "ninf",  "nsz",      "arcp",     "contract",
      "afn",  "reassoc", "inbounds", "nusw", "volatile"};
  for (const char *K : Words)
    if (W == K)
      return true;
  return false;
}

/// Calling-convention words that may precede a call's return type.
bool isCallConvWord(std::string_view W) {
  if (W.size() > 2 && W.substr(W.size() - 2) == "cc")
    return true; // ccc, fastcc, coldcc, tailcc, swiftcc, webkit_jscc, ...
  return W == "cc"; // `cc 10` numbered conventions
}

struct IntOpEntry {
  const char *Word;
  Opcode Op;
};

const IntOpEntry IntOps[] = {
    {"add", Opcode::Add},   {"sub", Opcode::Sub},   {"mul", Opcode::Mul},
    {"sdiv", Opcode::SDiv}, {"udiv", Opcode::UDiv}, {"srem", Opcode::SRem},
    {"urem", Opcode::URem}, {"shl", Opcode::Shl},   {"lshr", Opcode::LShr},
    {"ashr", Opcode::AShr}, {"and", Opcode::And},   {"or", Opcode::Or},
    {"xor", Opcode::Xor},
};

const IntOpEntry FloatOps[] = {
    {"fadd", Opcode::FAdd},
    {"fsub", Opcode::FSub},
    {"fmul", Opcode::FMul},
    {"fdiv", Opcode::FDiv},
};

bool lookupOp(const IntOpEntry (&Table)[13], std::string_view W,
              Opcode &Out) {
  for (const auto &E : Table)
    if (W == E.Word) {
      Out = E.Op;
      return true;
    }
  return false;
}

bool lookupFloatOp(std::string_view W, Opcode &Out) {
  for (const auto &E : FloatOps)
    if (W == E.Word) {
      Out = E.Op;
      return true;
    }
  return false;
}

/// Opcodes that exist in LLVM but are beyond the modeled subset. Named so
/// the reject detail can quote them rather than claiming a syntax error.
bool isKnownUnsupportedOpcode(std::string_view W) {
  static const char *Words[] = {
      "frem",       "fptosi",    "fptoui",     "sitofp",      "uitofp",
      "ptrtoint",   "inttoptr",  "addrspacecast", "freeze",   "va_arg",
      "invoke",     "callbr",    "indirectbr", "resume",      "landingpad",
      "catchswitch", "catchpad", "cleanuppad", "catchret",    "cleanupret",
      "atomicrmw",  "cmpxchg",   "fence",      "extractvalue", "insertvalue",
      "extractelement", "insertelement", "shufflevector"};
  for (const char *K : Words)
    if (W == K)
      return true;
  return false;
}

} // namespace

//===----------------------------------------------------------------------===//
// Body-local helpers
//===----------------------------------------------------------------------===//

std::string LLImporter::uniqueBlockName(Body &B, std::string Base,
                                        std::string_view OrigName) {
  return uniqueName(std::move(Base), OrigName, B.RenamedBlocks,
                    [&](const std::string &N) {
                      auto It = B.Blocks.find(N);
                      return It != B.Blocks.end() &&
                             It->second->getName() == N;
                    });
}

std::string LLImporter::uniqueValueName(Body &B, std::string Base,
                                        std::string_view OrigName,
                                        const Value *Self) {
  return uniqueName(std::move(Base), OrigName, B.RenamedValues,
                    [&](const std::string &N) {
                      auto It = B.Locals.find(N);
                      if (It == B.Locals.end() || It->second == Self)
                        return false;
                      const Value *V = It->second; // may alias a global
                      return (isa<Instruction>(V) || isa<Argument>(V)) &&
                             V->getName() == N;
                    });
}

BasicBlock *LLImporter::getOrCreateBlock(Body &B, std::string_view Name) {
  auto It = B.Blocks.find(Name);
  if (It != B.Blocks.end())
    return It->second;
  std::string S = sanitizeName(Name);
  // Printed block labels must start with a letter or '_' to survive a
  // reimport (leading digits lex as numbers, leading '.' as a word-start
  // edge case).
  if (S.empty() || !(std::isalpha(static_cast<unsigned char>(S[0])) ||
                     S[0] == '_'))
    S = "bb" + S;
  BasicBlock *BB =
      B.PF->F->createBlock(uniqueBlockName(B, std::move(S), Name));
  B.Blocks.emplace(Name, BB);
  return BB;
}

void LLImporter::defineLocal(Body &B, std::string_view Name, Value *V,
                             bool Rename) {
  if (!B.Locals.emplace(Name, V).second)
    reject(llreject::SyntaxError,
           "redefinition of '%" + std::string(Name) + "'");
  if (!Rename)
    return; // alias of an already-named value; renaming would corrupt it
  std::string S = sanitizeName(Name);
  if (S.empty())
    S = "v";
  V->setName(uniqueValueName(B, std::move(S), Name, V));
}

Value *LLImporter::parseValueRef(Body &B, Type *Ty, DeferList *Defer,
                                 unsigned OpIdx) {
  if (tok().Kind == LLTok::LocalId) {
    std::string_view Name = tok().Text;
    auto It = B.Locals.find(Name);
    if (It != B.Locals.end()) {
      if (It->second->getType() != Ty)
        reject(llreject::SyntaxError,
               "type mismatch for '%" + std::string(Name) + "'");
      advance();
      return It->second;
    }
    if (!Defer)
      reject(llreject::SyntaxError, "forward reference '%" +
                                        std::string(Name) +
                                        "' in an unsupported position");
    advance();
    Defer->push_back({OpIdx, Name});
    return Ctx.getUndef(Ty);
  }
  if (tok().Kind == LLTok::GlobalId) {
    std::string_view Name = tok().Text;
    auto GIt = GlobalByName.find(Name);
    if (Ty->isPointer() && GIt != GlobalByName.end()) {
      advance();
      return GIt->second;
    }
    const std::string At = "'@" + std::string(Name) + "'";
    if (!Ty->isPointer())
      reject(llreject::UnsupportedConstant,
             "global " + At + " used at non-pointer type");
    if (UnsupportedGlobals.count(Name))
      reject(llreject::UnsupportedConstant, "use of unsupported global " + At);
    if (FnByName.count(Name) || BadCallees.count(Name))
      reject(llreject::UnsupportedConstant, "function address " + At);
    reject(llreject::UnsupportedConstant, "unknown global " + At);
  }
  return parseConstantLiteral(Ty);
}

Value *LLImporter::parseTypedValue(Body &B, DeferList *Defer, unsigned OpIdx) {
  Type *Ty = parseType();
  return parseValueRef(B, Ty, Defer, OpIdx);
}

void LLImporter::recordFixups(Body &B, Instruction *I, const DeferList &Defer,
                              unsigned Line) {
  for (const auto &D : Defer)
    B.Fixups.push_back(
        {I, D.first, D.second, I->getOperand(D.first)->getType(), Line});
}

//===----------------------------------------------------------------------===//
// Body driver
//===----------------------------------------------------------------------===//

void LLImporter::translateBody(PendingFn &PF) {
  Body B;
  B.PF = &PF;
  Function *F = PF.F;

  // Arguments: the header recorded the .ll names (possibly empty for
  // clang's unnamed %0/%1/... which number sequentially from 0).
  unsigned AutoNum = 0;
  for (unsigned I = 0; I < F->getNumArgs(); ++I) {
    std::string_view Orig = PF.ArgNames[I];
    if (Orig.empty())
      Orig = B.AutoArgNames.emplace_back(std::to_string(AutoNum++));
    defineLocal(B, Orig, F->getArg(I));
  }

  IRBuilder Builder(Ctx);
  Cur = PF.BodyBegin;
  while (Cur < PF.BodyEnd) {
    // Block label: `name:` where name lexes as a word, number or string.
    if ((tok().Kind == LLTok::Word || tok().Kind == LLTok::Int ||
         tok().Kind == LLTok::Str) &&
        tok(1).Kind == LLTok::Colon) {
      std::string_view Label = tok().Text;
      advance();
      advance();
      BasicBlock *BB = getOrCreateBlock(B, Label);
      B.Defined.resize(F->getMaxBlockNumber());
      if (B.Defined[BB->getNumber()])
        reject(llreject::SyntaxError,
               "label '" + std::string(Label) + "' defined twice");
      B.Defined[BB->getNumber()] = true;
      B.Order.push_back(BB);
      Builder.setInsertPoint(BB);
      continue;
    }
    if (!Builder.getInsertBlock()) {
      // Unlabeled entry block (clang numbers it; nothing may branch to it,
      // so it needs no Blocks-map entry).
      BasicBlock *BB = F->createBlock(uniqueBlockName(B, "entry", {}));
      B.Order.push_back(BB);
      Builder.setInsertPoint(BB);
    }
    translateInstruction(B, Builder);
  }
  postProcessFunction(B);
}

void LLImporter::translateInstruction(Body &B, IRBuilder &Builder) {
  unsigned StartLine = tok().Line;
  std::string_view ResultName;
  bool HasResult = false;
  if (tok().Kind == LLTok::LocalId) {
    ResultName = tok().Text;
    HasResult = true;
    advance();
    expectTok(LLTok::Equals, "'='");
  }
  // Call markers precede the opcode.
  while (isWord("tail") || isWord("musttail") || isWord("notail"))
    advance();
  if (tok().Kind != LLTok::Word)
    fatal("expected opcode");
  std::string_view Op = tok().Text;
  unsigned OpLine = tok().Line;
  advance();

  DeferList Defer;
  Value *Alias = nullptr;
  Instruction *I = translateOpcode(B, Builder, Op, Defer, &Alias);

  if (Alias) {
    if (!HasResult)
      reject(llreject::SyntaxError,
             "'" + std::string(Op) + "' without a result name");
    defineLocal(B, ResultName, Alias, /*Rename=*/false);
  } else if (HasResult) {
    if (!I || I->getType()->isVoid())
      reject(llreject::SyntaxError,
             "void instruction '" + std::string(Op) + "' with a result name");
    defineLocal(B, ResultName, I);
  }
  if (I)
    recordFixups(B, I, Defer, StartLine);

  // Drop the `, align 4`, `, !tbaa !8`, `#2`, `!dbg !10` line trailer.
  unsigned EndLine = Cur ? Toks[Cur - 1].Line : OpLine;
  skipLineTail(EndLine, B.PF->BodyEnd);
}

//===----------------------------------------------------------------------===//
// Opcode dispatch
//===----------------------------------------------------------------------===//

Instruction *LLImporter::translateOpcode(Body &B, IRBuilder &Builder,
                                         std::string_view Op,
                                         DeferList &Defer,
                                         Value **AliasResult) {
  auto skipFlags = [&] {
    while (tok().Kind == LLTok::Word && isInstFlagWord(tok().Text))
      advance();
  };

  Opcode BinOp;
  if (lookupOp(IntOps, Op, BinOp)) {
    skipFlags();
    Type *Ty = parseType();
    if (!Ty->isInteger())
      reject(llreject::SyntaxError,
             "'" + std::string(Op) + "' on non-integer type");
    Value *L = parseValueRef(B, Ty, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    Value *R = parseValueRef(B, Ty, &Defer, 1);
    return static_cast<Instruction *>(Builder.createBinary(BinOp, L, R));
  }

  if (lookupFloatOp(Op, BinOp)) {
    skipFlags();
    Type *Ty = parseType();
    if (!Ty->isFloat())
      reject(llreject::SyntaxError,
             "'" + std::string(Op) + "' on non-float type");
    Value *L = parseValueRef(B, Ty, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    Value *R = parseValueRef(B, Ty, &Defer, 1);
    return static_cast<Instruction *>(Builder.createBinary(BinOp, L, R));
  }

  if (Op == "fneg") {
    // fneg x == fsub -0.0, x in the mini-IR (no fneg opcode).
    skipFlags();
    Type *Ty = parseType();
    if (!Ty->isFloat())
      reject(llreject::SyntaxError, "'fneg' on non-float type");
    Value *X = parseValueRef(B, Ty, &Defer, 1);
    return static_cast<Instruction *>(
        Builder.createBinary(Opcode::FSub, Ctx.getFloat(-0.0), X));
  }

  if (Op == "icmp") {
    skipFlags(); // samesign
    if (tok().Kind != LLTok::Word)
      fatal("expected icmp predicate");
    std::string_view P = tok().Text;
    ICmpPred Pred;
    if (P == "eq")
      Pred = ICmpPred::EQ;
    else if (P == "ne")
      Pred = ICmpPred::NE;
    else if (P == "slt")
      Pred = ICmpPred::SLT;
    else if (P == "sle")
      Pred = ICmpPred::SLE;
    else if (P == "sgt")
      Pred = ICmpPred::SGT;
    else if (P == "sge")
      Pred = ICmpPred::SGE;
    else if (P == "ult")
      Pred = ICmpPred::ULT;
    else if (P == "ule")
      Pred = ICmpPred::ULE;
    else if (P == "ugt")
      Pred = ICmpPred::UGT;
    else if (P == "uge")
      Pred = ICmpPred::UGE;
    else
      reject(llreject::UnsupportedPredicate,
             "icmp predicate '" + std::string(P) + "'");
    advance();
    Type *Ty = parseType();
    if (!Ty->isInteger() && !Ty->isPointer())
      reject(llreject::SyntaxError, "'icmp' on non-integer type");
    Value *L = parseValueRef(B, Ty, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    Value *R = parseValueRef(B, Ty, &Defer, 1);
    return static_cast<Instruction *>(Builder.createICmp(Pred, L, R));
  }

  if (Op == "fcmp") {
    skipFlags(); // fast-math flags
    if (tok().Kind != LLTok::Word)
      fatal("expected fcmp predicate");
    std::string_view P = tok().Text;
    FCmpPred Pred;
    if (P == "oeq")
      Pred = FCmpPred::OEQ;
    else if (P == "one")
      Pred = FCmpPred::ONE;
    else if (P == "olt")
      Pred = FCmpPred::OLT;
    else if (P == "ole")
      Pred = FCmpPred::OLE;
    else if (P == "ogt")
      Pred = FCmpPred::OGT;
    else if (P == "oge")
      Pred = FCmpPred::OGE;
    else
      // ord/uno and the unordered u* family have no mini-IR counterpart.
      reject(llreject::UnsupportedPredicate,
             "fcmp predicate '" + std::string(P) + "'");
    advance();
    Type *Ty = parseType();
    if (!Ty->isFloat())
      reject(llreject::SyntaxError, "'fcmp' on non-float type");
    Value *L = parseValueRef(B, Ty, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    Value *R = parseValueRef(B, Ty, &Defer, 1);
    return static_cast<Instruction *>(Builder.createFCmp(Pred, L, R));
  }

  if (Op == "trunc" || Op == "zext" || Op == "sext") {
    skipFlags(); // nuw/nsw on trunc, nneg on zext
    Type *SrcTy = parseType();
    Value *Src = parseValueRef(B, SrcTy, &Defer, 0);
    if (!eatWord("to"))
      fatal("expected 'to' in cast");
    Type *DstTy = parseType();
    if (!SrcTy->isInteger() || !DstTy->isInteger())
      reject(llreject::SyntaxError,
             "'" + std::string(Op) + "' on non-integer type");
    Opcode CastOp = Op == "trunc"  ? Opcode::Trunc
                    : Op == "zext" ? Opcode::ZExt
                                   : Opcode::SExt;
    return static_cast<Instruction *>(Builder.createCast(CastOp, Src, DstTy));
  }

  if (Op == "fpext" || Op == "fptrunc" || Op == "bitcast") {
    // float and double are one mini-IR type, so fpext/fptrunc — and a
    // bitcast whose translated source and destination types coincide —
    // are representation no-ops: the result aliases the operand.
    Type *SrcTy = parseType();
    size_t DeferBefore = Defer.size();
    Value *Src = parseValueRef(B, SrcTy, &Defer, 0);
    if (!eatWord("to"))
      fatal("expected 'to' in cast");
    Type *DstTy = parseType();
    if (Op != "bitcast" && (!SrcTy->isFloat() || !DstTy->isFloat()))
      reject(llreject::SyntaxError,
             "'" + std::string(Op) + "' on non-float type");
    if (SrcTy != DstTy)
      reject(llreject::UnsupportedInstruction,
             "bitcast between differently-represented types");
    if (Defer.size() != DeferBefore)
      // An alias has no instruction to fix up later.
      reject(llreject::SyntaxError,
             "forward reference through a no-op cast");
    *AliasResult = Src;
    return nullptr;
  }

  if (Op == "select") {
    skipFlags();
    Type *CondTy = parseType();
    if (!CondTy->isInteger() || CondTy->getBitWidth() != 1)
      reject(llreject::SyntaxError, "'select' condition is not i1");
    Value *C = parseValueRef(B, CondTy, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    Type *TTy = parseType();
    Value *T = parseValueRef(B, TTy, &Defer, 1);
    expectTok(LLTok::Comma, "','");
    Type *FTy = parseType();
    if (FTy != TTy)
      reject(llreject::SyntaxError, "'select' arm type mismatch");
    Value *F = parseValueRef(B, FTy, &Defer, 2);
    return static_cast<Instruction *>(Builder.createSelect(C, T, F));
  }

  if (Op == "alloca") {
    skipFlags(); // inalloca is a param attr, but tolerate flags anyway
    LLType TA = parseTypeOrArray();
    if (TA.Ty->isVoid())
      reject(llreject::SyntaxError, "'alloca' of void");
    Value *Count = nullptr;
    Type *CountTy = nullptr;
    if (tok().Kind == LLTok::Comma && tok(1).Kind == LLTok::Word &&
        tok(1).Text != "align" && tok(1).Text != "addrspace") {
      advance();
      CountTy = parseType();
      if (!CountTy->isInteger())
        reject(llreject::SyntaxError, "'alloca' count is not an integer");
      Count = parseValueRef(B, CountTy, nullptr, 0);
    }
    if (TA.IsArray) {
      // Flatten [N x T] to N consecutive T slots.
      if (!Count) {
        Count = Ctx.getInt64(static_cast<int64_t>(TA.Count));
      } else if (auto *CI = dyn_cast<ConstantInt>(Count)) {
        Count = Ctx.getInt(CountTy,
                           CI->getSExtValue() *
                               static_cast<int64_t>(TA.Count));
      } else {
        Count = Builder.createMul(
            Count, Ctx.getInt(CountTy, static_cast<int64_t>(TA.Count)));
      }
    }
    return static_cast<Instruction *>(Builder.createAlloca(TA.Ty, Count));
  }

  if (Op == "load") {
    skipFlags(); // volatile
    if (isWord("atomic"))
      reject(llreject::UnsupportedInstruction, "atomic load");
    Type *Ty = parseType();
    if (Ty->isVoid())
      reject(llreject::SyntaxError, "'load' of void");
    expectTok(LLTok::Comma, "','");
    Type *PtrTy = parseType();
    if (!PtrTy->isPointer())
      reject(llreject::SyntaxError, "'load' address is not a pointer");
    Value *Ptr = parseValueRef(B, PtrTy, &Defer, 0);
    return static_cast<Instruction *>(Builder.createLoad(Ty, Ptr));
  }

  if (Op == "store") {
    skipFlags(); // volatile
    if (isWord("atomic"))
      reject(llreject::UnsupportedInstruction, "atomic store");
    Type *ValTy = parseType();
    Value *V = parseValueRef(B, ValTy, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    Type *PtrTy = parseType();
    if (!PtrTy->isPointer())
      reject(llreject::SyntaxError, "'store' address is not a pointer");
    Value *Ptr = parseValueRef(B, PtrTy, &Defer, 1);
    return Builder.createStore(V, Ptr);
  }

  if (Op == "getelementptr")
    return translateGEP(B, Builder, Defer);

  if (Op == "call")
    return translateCall(B, Builder, Defer);

  if (Op == "phi") {
    skipFlags(); // fast-math flags on fp phis
    Type *Ty = parseType();
    if (Ty->isVoid())
      reject(llreject::SyntaxError, "'phi' of void");
    PhiNode *P = Builder.createPhi(Ty);
    unsigned Idx = 0;
    while (true) {
      expectTok(LLTok::LBracket, "'['");
      Value *V = parseValueRef(B, Ty, &Defer, Idx);
      expectTok(LLTok::Comma, "','");
      if (tok().Kind != LLTok::LocalId)
        fatal("expected block label in phi");
      BasicBlock *BB = getOrCreateBlock(B, tok().Text);
      advance();
      expectTok(LLTok::RBracket, "']'");
      P->addIncoming(V, BB);
      ++Idx;
      if (tok().Kind != LLTok::Comma || tok(1).Kind != LLTok::LBracket)
        break;
      advance();
    }
    return P;
  }

  if (Op == "br") {
    if (isWord("label")) {
      advance();
      if (tok().Kind != LLTok::LocalId)
        fatal("expected branch target");
      BasicBlock *T = getOrCreateBlock(B, tok().Text);
      advance();
      return Builder.createBr(T);
    }
    Type *CondTy = parseType();
    if (!CondTy->isInteger() || CondTy->getBitWidth() != 1)
      reject(llreject::SyntaxError, "'br' condition is not i1");
    Value *C = parseValueRef(B, CondTy, &Defer, 0);
    expectTok(LLTok::Comma, "','");
    if (!eatWord("label"))
      fatal("expected 'label'");
    if (tok().Kind != LLTok::LocalId)
      fatal("expected branch target");
    BasicBlock *T = getOrCreateBlock(B, tok().Text);
    advance();
    expectTok(LLTok::Comma, "','");
    if (!eatWord("label"))
      fatal("expected 'label'");
    if (tok().Kind != LLTok::LocalId)
      fatal("expected branch target");
    BasicBlock *F = getOrCreateBlock(B, tok().Text);
    advance();
    return Builder.createCondBr(C, T, F);
  }

  if (Op == "switch")
    return translateSwitch(B, Builder, Defer);

  if (Op == "ret") {
    if (isWord("void")) {
      advance();
      return Builder.createRet();
    }
    Type *Ty = parseType();
    Value *V = parseValueRef(B, Ty, &Defer, 0);
    return Builder.createRet(V);
  }

  if (Op == "unreachable")
    return Builder.createUnreachable();

  if (isKnownUnsupportedOpcode(Op))
    reject(llreject::UnsupportedInstruction, "'" + std::string(Op) + "'");
  reject(llreject::SyntaxError, "unknown opcode '" + std::string(Op) + "'");
}

//===----------------------------------------------------------------------===//
// getelementptr
//===----------------------------------------------------------------------===//

Instruction *LLImporter::translateGEP(Body &B, IRBuilder &Builder,
                                      DeferList &Defer) {
  while (tok().Kind == LLTok::Word && isInstFlagWord(tok().Text))
    advance();
  LLType TA = parseTypeOrArray();
  if (TA.Ty->isVoid())
    reject(llreject::SyntaxError, "'getelementptr' of void");
  expectTok(LLTok::Comma, "','");
  Type *BaseTy = parseType();
  if (!BaseTy->isPointer())
    reject(llreject::SyntaxError, "'getelementptr' base is not a pointer");
  Value *Base = parseValueRef(B, BaseTy, &Defer, 0);
  expectTok(LLTok::Comma, "','");

  auto moreIndices = [&] {
    return tok().Kind == LLTok::Comma &&
           (tok(1).Kind == LLTok::Word || tok(1).Kind == LLTok::LBracket ||
            tok(1).Kind == LLTok::Less || tok(1).Kind == LLTok::LBrace ||
            tok(1).Kind == LLTok::LocalId) &&
           !(tok(1).Kind == LLTok::Word && tok(1).Text == "align");
  };

  if (!TA.IsArray) {
    // `gep T, ptr %p, <ity> i` — maps 1:1 onto the mini single-index gep.
    Type *IdxTy = parseType();
    if (!IdxTy->isInteger())
      reject(llreject::UnsupportedType, "'getelementptr' index type");
    Value *Idx = parseValueRef(B, IdxTy, &Defer, 1);
    if (moreIndices())
      reject(llreject::MultiIndexGEP,
             "multiple indices into scalar type");
    return static_cast<Instruction *>(
        Builder.createGEP(TA.Ty, Base, Idx));
  }

  // `[N x T]` base: one index scales by N; the common `i64 0, <ity> i`
  // pair drops the leading zero; two general same-typed indices combine
  // as i0*N + i1. Forward references are refused here because the gep's
  // final index operand may be a derived mul/add, which fixups cannot
  // target.
  Type *I0Ty = parseType();
  if (!I0Ty->isInteger())
    reject(llreject::UnsupportedType, "'getelementptr' index type");
  Value *I0 = parseValueRef(B, I0Ty, nullptr, 0);
  if (!moreIndices()) {
    Value *Scaled = I0;
    if (TA.Count != 1) {
      if (auto *CI = dyn_cast<ConstantInt>(I0))
        Scaled = Ctx.getInt(I0Ty, CI->getSExtValue() *
                                      static_cast<int64_t>(TA.Count));
      else
        Scaled = Builder.createMul(
            I0, Ctx.getInt(I0Ty, static_cast<int64_t>(TA.Count)));
    }
    return static_cast<Instruction *>(
        Builder.createGEP(TA.Ty, Base, Scaled));
  }
  advance(); // ','
  Type *I1Ty = parseType();
  if (!I1Ty->isInteger())
    reject(llreject::UnsupportedType, "'getelementptr' index type");
  Value *I1 = parseValueRef(B, I1Ty, nullptr, 0);
  if (moreIndices())
    reject(llreject::MultiIndexGEP, "more than two indices");

  auto *C0 = dyn_cast<ConstantInt>(I0);
  if (C0 && C0->getSExtValue() == 0)
    return static_cast<Instruction *>(Builder.createGEP(TA.Ty, Base, I1));
  if (I0Ty != I1Ty)
    reject(llreject::MultiIndexGEP, "mixed index types");
  Value *Scaled;
  if (C0)
    Scaled = Ctx.getInt(I0Ty, C0->getSExtValue() *
                                  static_cast<int64_t>(TA.Count));
  else
    Scaled = Builder.createMul(
        I0, Ctx.getInt(I0Ty, static_cast<int64_t>(TA.Count)));
  Value *Off = Builder.createAdd(Scaled, I1);
  return static_cast<Instruction *>(Builder.createGEP(TA.Ty, Base, Off));
}

//===----------------------------------------------------------------------===//
// call
//===----------------------------------------------------------------------===//

Instruction *LLImporter::translateCall(Body &B, IRBuilder &Builder,
                                       DeferList &Defer) {
  while (tok().Kind == LLTok::Word &&
         (isInstFlagWord(tok().Text) || isCallConvWord(tok().Text)))
    advance();
  if (tok().Kind == LLTok::Int)
    advance(); // `cc 10` numbered convention
  skipParamAttrs(); // return-value attributes
  if (isWord("addrspace")) {
    advance();
    if (tok().Kind == LLTok::LParen) {
      advance();
      while (tok().Kind != LLTok::RParen && tok().Kind != LLTok::Eof)
        advance();
      expectTok(LLTok::RParen, "')'");
    }
  }

  Type *RetTy = parseType();
  if (tok().Kind == LLTok::LParen) {
    // Explicit function-type spelling `call i32 (ptr, ...) @printf(...)`:
    // scan the parameter list for an ellipsis to name the reason well.
    unsigned Depth = 1;
    bool SawEllipsis = false;
    advance();
    while (Depth && tok().Kind != LLTok::Eof) {
      if (tok().Kind == LLTok::LParen)
        ++Depth;
      else if (tok().Kind == LLTok::RParen)
        --Depth;
      else if (tok().Kind == LLTok::Ellipsis)
        SawEllipsis = true;
      advance();
    }
    if (SawEllipsis)
      reject(llreject::VarargsCall, "call through a varargs function type");
    reject(llreject::UnsupportedCallee, "function-typed call");
  }

  if (tok().Kind == LLTok::LocalId)
    reject(llreject::IndirectCall,
           "indirect call through '%" + std::string(tok().Text) + "'");
  if (tok().Kind != LLTok::GlobalId)
    reject(llreject::UnsupportedCallee, "callee is not a function symbol");
  std::string_view Name = tok().Text;
  advance();

  auto BadIt = BadCallees.find(Name);
  if (BadIt != BadCallees.end())
    reject(BadIt->second, "call to unsupported '@" + std::string(Name) + "'");
  auto FIt = FnByName.find(Name);
  if (FIt == FnByName.end())
    reject(llreject::UnsupportedCallee,
           "undeclared function '@" + std::string(Name) + "'");
  Function *Callee = FIt->second;

  expectTok(LLTok::LParen, "'('");
  std::vector<Value *> Args;
  if (tok().Kind != LLTok::RParen) {
    while (true) {
      Type *ATy = parseType();
      skipParamAttrs();
      Value *A =
          parseValueRef(B, ATy, &Defer, static_cast<unsigned>(Args.size()));
      Args.push_back(A);
      if (tok().Kind != LLTok::Comma)
        break;
      advance();
    }
  }
  expectTok(LLTok::RParen, "')'");

  FunctionType *FTy = Callee->getFunctionType();
  bool Mismatch = RetTy != Callee->getReturnType() ||
                  Args.size() != FTy->getNumParams();
  if (!Mismatch)
    for (size_t I = 0; I < Args.size(); ++I)
      if (Args[I]->getType() != FTy->getParamType(static_cast<unsigned>(I)))
        Mismatch = true;
  if (Mismatch)
    reject(llreject::UnsupportedCallee,
           "signature mismatch calling '@" + std::string(Name) + "'");

  return static_cast<Instruction *>(
      Builder.createCall(Callee, Args));
}

//===----------------------------------------------------------------------===//
// switch (lowered to an icmp-eq/condbr chain)
//===----------------------------------------------------------------------===//

Instruction *LLImporter::translateSwitch(Body &B, IRBuilder &Builder,
                                         DeferList &Defer) {
  Type *Ty = parseType();
  if (!Ty->isInteger())
    reject(llreject::SyntaxError, "'switch' on non-integer type");
  DeferList CondDefer;
  Value *Cond = parseValueRef(B, Ty, &CondDefer, 0);
  expectTok(LLTok::Comma, "','");
  if (!eatWord("label"))
    fatal("expected 'label'");
  if (tok().Kind != LLTok::LocalId)
    fatal("expected switch default target");
  BasicBlock *Default = getOrCreateBlock(B, tok().Text);
  advance();
  expectTok(LLTok::LBracket, "'['");

  std::vector<std::pair<Constant *, BasicBlock *>> Cases;
  while (tok().Kind != LLTok::RBracket) {
    Type *CTy = parseType();
    if (CTy != Ty)
      reject(llreject::SyntaxError, "'switch' case type mismatch");
    Constant *C = parseConstantLiteral(CTy);
    expectTok(LLTok::Comma, "','");
    if (!eatWord("label"))
      fatal("expected 'label'");
    if (tok().Kind != LLTok::LocalId)
      fatal("expected switch case target");
    Cases.emplace_back(C, getOrCreateBlock(B, tok().Text));
    advance();
  }
  advance(); // ']'

  Function *F = B.PF->F;
  BasicBlock *Orig = Builder.getInsertBlock();
  if (Cases.empty()) {
    // Degenerate switch: just the default edge; no remap needed.
    Builder.createBr(Default);
    return nullptr;
  }

  Body::SwitchLower SL;
  SL.Orig = Orig;
  BasicBlock *CurBB = Orig;
  for (size_t I = 0; I < Cases.size(); ++I) {
    Builder.setInsertPoint(CurBB);
    Value *Cmp = Builder.createICmp(
        ICmpPred::EQ, Cond, Cases[I].first,
        uniqueValueName(B, "sw.cmp", {}, nullptr));
    for (const auto &D : CondDefer)
      B.Fixups.push_back({static_cast<Instruction *>(Cmp), 0, D.second, Ty,
                          Toks[Cur ? Cur - 1 : 0].Line});
    BasicBlock *Next;
    if (I + 1 < Cases.size()) {
      Next = F->createBlock(uniqueBlockName(B, "sw.next", {}));
      B.Order.push_back(Next);
    } else {
      Next = Default;
    }
    Builder.createCondBr(Cmp, Cases[I].second, Next);
    SL.Edges.emplace_back(Cases[I].second, CurBB);
    if (I + 1 == Cases.size())
      SL.Edges.emplace_back(Default, CurBB);
    CurBB = Next;
  }
  B.Switches.push_back(std::move(SL));
  (void)Defer;
  return nullptr; // terminators are chained; fixups were recorded above
}
