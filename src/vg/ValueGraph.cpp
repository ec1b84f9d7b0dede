//===- ValueGraph.cpp - Shared, hash-consed value graph ----------------------===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//

#include "vg/ValueGraph.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <set>
#include <sstream>
#include <tuple>

using namespace llvmmd;

const char *llvmmd::getNodeKindName(NodeKind K) {
  switch (K) {
  case NodeKind::ConstInt:
    return "const";
  case NodeKind::ConstFloat:
    return "fconst";
  case NodeKind::ConstNull:
    return "null";
  case NodeKind::Undef:
    return "undef";
  case NodeKind::Global:
    return "global";
  case NodeKind::Param:
    return "param";
  case NodeKind::InitialMem:
    return "mem0";
  case NodeKind::Op:
    return "op";
  case NodeKind::Gamma:
    return "gamma";
  case NodeKind::Mu:
    return "mu";
  case NodeKind::Eta:
    return "eta";
  case NodeKind::Alloc:
    return "alloc";
  case NodeKind::AllocMem:
    return "allocmem";
  case NodeKind::Load:
    return "load";
  case NodeKind::Store:
    return "store";
  case NodeKind::Call:
    return "call";
  case NodeKind::CallMem:
    return "callmem";
  case NodeKind::Ret:
    return "ret";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Union-find
//===----------------------------------------------------------------------===//

NodeId ValueGraph::find(NodeId Id) const {
  assert(Id < Parent.size() && "node id out of range");
  NodeId Root = Id;
  while (Parent[Root] != Root)
    Root = Parent[Root];
  // Path compression.
  while (Parent[Id] != Root) {
    NodeId Next = Parent[Id];
    Parent[Id] = Root;
    Id = Next;
  }
  return Root;
}

void ValueGraph::mergeInto(NodeId From, NodeId Into) {
  NodeId A = find(From), B = find(Into);
  if (A == B)
    return;
  Parent[A] = B;
  ++MergeCount;
  // Splice A's use list onto B's.
  UseList &Src = Users[A], &Dst = Users[B];
  if (Src.Head == NoUse)
    return;
  if (Dst.Head == NoUse)
    Dst.Head = Src.Head;
  else
    UseEntries[Dst.Tail].Next = Src.Head;
  Dst.Tail = Src.Tail;
  Src = UseList();
}

void ValueGraph::addUse(NodeId Used, NodeId User) {
  const uint32_t E = static_cast<uint32_t>(UseEntries.size());
  UseEntries.push_back({User, NoUse});
  UseList &L = Users[find(Used)];
  if (L.Head == NoUse)
    L.Head = E;
  else
    UseEntries[L.Tail].Next = E;
  L.Tail = E;
}

size_t ValueGraph::countRoots() const {
  size_t N = 0;
  for (NodeId I = 0; I < Nodes.size(); ++I)
    if (find(I) == I)
      ++N;
  return N;
}

//===----------------------------------------------------------------------===//
// Hash-consing
//===----------------------------------------------------------------------===//

namespace {

/// Equality of every node field except the operand list. Floats compare by
/// bit pattern (the hash-cons identity), so -0.0 and NaN payloads behave
/// exactly like the former serialized-string key.
bool scalarFieldsEqual(const Node &A, const Node &B) {
  uint64_t ABits, BBits;
  std::memcpy(&ABits, &A.FloatVal, sizeof(ABits));
  std::memcpy(&BBits, &B.FloatVal, sizeof(BBits));
  return A.Kind == B.Kind && A.Op == B.Op && A.Pred == B.Pred &&
         A.Ty == B.Ty && A.IntVal == B.IntVal && ABits == BBits &&
         A.Str == B.Str;
}

} // namespace

uint64_t ValueGraph::hashNodeHead(const Node &N) const {
  uint64_t FloatBits;
  std::memcpy(&FloatBits, &N.FloatVal, sizeof(FloatBits));
  uint64_t H = hashCombine(static_cast<uint64_t>(N.Kind),
                           static_cast<uint64_t>(N.Op));
  H = hashCombine(H, N.Pred);
  // Types are interned in the Context, so their shape identifies them.
  H = hashCombine(H, hashTypeShape(N.Ty));
  H = hashCombine(H, static_cast<uint64_t>(N.IntVal));
  H = hashCombine(H, FloatBits);
  H = hashCombine(H, hashString(N.Str));
  H = hashCombine(H, N.Ops.size());
  return H;
}

bool ValueGraph::nodeEquals(const Node &A, const Node &B) {
  return scalarFieldsEqual(A, B) && A.Ops == B.Ops;
}

void ValueGraph::reserve(size_t NumNodes) {
  Nodes.reserve(NumNodes);
  Parent.reserve(NumNodes);
  InternHash.reserve(NumNodes);
  HeadHash.reserve(NumNodes);
  Users.reserve(NumNodes);
  // Nodes average under two operands; a γ or call spills past that.
  UseEntries.reserve(2 * NumNodes);
  NodeArena.reserve(NumNodes * (sizeof(Node) + 2 * sizeof(NodeId)));
  KeyOps.reserve(8);
  KeyBranches.reserve(4);
  // An empty hash-cons table can take its final size at once; a filled
  // one keeps doubling (the table's size never changes what it finds).
  size_t Slots = 64;
  while (Slots < 2 * NumNodes)
    Slots *= 2;
  if (HashConsCount == 0 && Slots > HashCons.size())
    HashCons.assign(Slots, InvalidNode);
}

NodeId ValueGraph::addNode(const Node &N, uint64_t Key, uint64_t Head) {
  NodeId Id = static_cast<NodeId>(Nodes.size());
  Parent.push_back(Id);
  InternHash.push_back(Key);
  HeadHash.push_back(Head);
  Users.emplace_back();
  for (NodeId Op : N.Ops)
    if (Op != InvalidNode)
      addUse(Op, Id);
  // The node, then its operands, in one bump; then the name's characters.
  void *Mem = NodeArena.allocate(sizeof(Node) + N.Ops.size() * sizeof(NodeId),
                                 alignof(Node));
  Node *Copy = ::new (Mem) Node(N);
  auto *OpMem = reinterpret_cast<NodeId *>(Copy + 1);
  std::copy(N.Ops.begin(), N.Ops.end(), OpMem);
  Copy->Ops = ArrayRef<NodeId>(OpMem, N.Ops.size());
  if (!N.Str.empty()) {
    char *Text = static_cast<char *>(NodeArena.allocate(N.Str.size(), 1));
    std::memcpy(Text, N.Str.data(), N.Str.size());
    Copy->Str = std::string_view(Text, N.Str.size());
  }
  Nodes.push_back(Copy);
  return Id;
}

void ValueGraph::growHashCons() {
  HashCons.assign(std::max<size_t>(64, 2 * HashCons.size()), InvalidNode);
  const size_t Mask = HashCons.size() - 1;
  for (NodeId Id = 0; Id < Nodes.size(); ++Id) {
    if (Nodes[Id]->Kind == NodeKind::Mu)
      continue;
    size_t Slot = InternHash[Id] & Mask;
    while (HashCons[Slot] != InvalidNode)
      Slot = (Slot + 1) & Mask;
    HashCons[Slot] = Id;
  }
}

NodeId ValueGraph::intern(Node N, ArrayRef<NodeId> Ops) {
  N.Ops = Ops;
  const uint64_t Head = hashNodeHead(N);
  uint64_t Key = Head;
  for (NodeId Op : Ops)
    Key = hashCombine(Key, Op);
  if (2 * (HashConsCount + 1) > HashCons.size())
    growHashCons();
  const size_t Mask = HashCons.size() - 1;
  size_t Slot = Key & Mask;
  for (; HashCons[Slot] != InvalidNode; Slot = (Slot + 1) & Mask) {
    NodeId Candidate = HashCons[Slot];
    if (InternHash[Candidate] == Key && nodeEquals(*Nodes[Candidate], N))
      return find(Candidate);
  }
  NodeId Id = addNode(N, Key, Head);
  HashCons[Slot] = Id;
  ++HashConsCount;
  return Id;
}

NodeId ValueGraph::getConstInt(Type *Ty, int64_t V) {
  Node N;
  N.Kind = NodeKind::ConstInt;
  N.Ty = Ty;
  N.IntVal = signExtend(V, Ty->getBitWidth());
  return intern(N, {});
}

NodeId ValueGraph::getConstFloat(Type *Ty, double V) {
  Node N;
  N.Kind = NodeKind::ConstFloat;
  N.Ty = Ty;
  N.FloatVal = V;
  return intern(N, {});
}

NodeId ValueGraph::getNull(Type *PtrTy) {
  Node N;
  N.Kind = NodeKind::ConstNull;
  N.Ty = PtrTy;
  return intern(N, {});
}

NodeId ValueGraph::getUndef(Type *Ty) {
  Node N;
  N.Kind = NodeKind::Undef;
  N.Ty = Ty;
  return intern(N, {});
}

NodeId ValueGraph::getGlobal(std::string_view Name, bool IsConstant,
                             Type *PtrTy) {
  Node N;
  N.Kind = NodeKind::Global;
  N.Ty = PtrTy;
  N.Str = Name;
  N.IntVal = IsConstant ? 1 : 0;
  return intern(N, {});
}

NodeId ValueGraph::getParam(unsigned Index, Type *Ty) {
  Node N;
  N.Kind = NodeKind::Param;
  N.Ty = Ty;
  N.IntVal = Index;
  return intern(N, {});
}

NodeId ValueGraph::getInitialMem() {
  Node N;
  N.Kind = NodeKind::InitialMem;
  return intern(N, {});
}

NodeId ValueGraph::getOp(Opcode Op, Type *Ty, ArrayRef<NodeId> Operands,
                         uint8_t Pred, int64_t Extra) {
  Node N;
  N.Kind = NodeKind::Op;
  N.Op = Op;
  N.Pred = Pred;
  N.Ty = Ty;
  N.IntVal = Extra;
  KeyOps.clear();
  for (NodeId Operand : Operands)
    KeyOps.push_back(find(Operand));
  if (isCommutativeOp(Op) && KeyOps.size() == 2 && KeyOps[1] < KeyOps[0])
    std::swap(KeyOps[0], KeyOps[1]);
  return intern(N, KeyOps);
}

NodeId ValueGraph::getGamma(Type *Ty, ArrayRef<GammaBranch> Branches) {
  assert(!Branches.empty() && "gamma with no branches");
  KeyBranches.clear();
  for (auto [C, V] : Branches)
    KeyBranches.emplace_back(find(C), find(V));
  std::sort(KeyBranches.begin(), KeyBranches.end());
  KeyOps.clear();
  for (auto [C, V] : KeyBranches) {
    KeyOps.push_back(C);
    KeyOps.push_back(V);
  }
  Node N;
  N.Kind = NodeKind::Gamma;
  N.Ty = Ty;
  return intern(N, KeyOps);
}

NodeId ValueGraph::getEta(Type *Ty, NodeId StayCond, NodeId Value) {
  Node N;
  N.Kind = NodeKind::Eta;
  N.Ty = Ty;
  const NodeId Ops[] = {find(StayCond), find(Value)};
  return intern(N, {Ops, 2});
}

NodeId ValueGraph::makeMu(Type *Ty) {
  Node N;
  N.Kind = NodeKind::Mu;
  N.Ty = Ty;
  const NodeId Ops[] = {InvalidNode, InvalidNode};
  N.Ops = {Ops, 2};
  return addNode(N, 0, hashNodeHead(N)); // deliberately not hash-consed
}

void ValueGraph::setMuOperands(NodeId Mu, NodeId Init, NodeId Next) {
  Node &N = *Nodes[find(Mu)];
  assert(N.Kind == NodeKind::Mu && "not a mu node");
  assert(N.Ops[0] == InvalidNode && "mu operands set twice");
  NodeId *Ops = mutableOps(N);
  Ops[0] = find(Init);
  Ops[1] = find(Next);
  addUse(Ops[0], find(Mu));
  addUse(Ops[1], find(Mu));
}

NodeId ValueGraph::getAlloc(NodeId Count, NodeId MemIn, unsigned ElemSize) {
  Node N;
  N.Kind = NodeKind::Alloc;
  N.IntVal = ElemSize;
  const NodeId Ops[] = {find(Count), find(MemIn)};
  return intern(N, {Ops, 2});
}

NodeId ValueGraph::getAllocMem(NodeId Alloc) {
  Node N;
  N.Kind = NodeKind::AllocMem;
  const NodeId Ops[] = {find(Alloc)};
  return intern(N, {Ops, 1});
}

NodeId ValueGraph::getLoad(Type *Ty, NodeId Ptr, NodeId Mem) {
  Node N;
  N.Kind = NodeKind::Load;
  N.Ty = Ty;
  const NodeId Ops[] = {find(Ptr), find(Mem)};
  return intern(N, {Ops, 2});
}

NodeId ValueGraph::getStore(NodeId Value, NodeId Ptr, NodeId Mem) {
  Node N;
  N.Kind = NodeKind::Store;
  const NodeId Ops[] = {find(Value), find(Ptr), find(Mem)};
  return intern(N, {Ops, 3});
}

NodeId ValueGraph::getCall(std::string_view Callee, MemoryEffect Effect,
                           Type *RetTy, ArrayRef<NodeId> ArgsAndMem) {
  Node N;
  N.Kind = NodeKind::Call;
  N.Ty = RetTy;
  N.Str = Callee;
  N.IntVal = static_cast<int64_t>(Effect);
  KeyOps.clear();
  for (NodeId Operand : ArgsAndMem)
    KeyOps.push_back(find(Operand));
  return intern(N, KeyOps);
}

NodeId ValueGraph::getCallMem(NodeId Call) {
  Node N;
  N.Kind = NodeKind::CallMem;
  const NodeId Ops[] = {find(Call)};
  return intern(N, {Ops, 1});
}

NodeId ValueGraph::getRet(NodeId ValueOrInvalid, NodeId Mem) {
  Node N;
  N.Kind = NodeKind::Ret;
  if (ValueOrInvalid == InvalidNode) {
    const NodeId Ops[] = {find(Mem)};
    return intern(N, {Ops, 1});
  }
  const NodeId Ops[] = {find(ValueOrInvalid), find(Mem)};
  return intern(N, {Ops, 2});
}

//===----------------------------------------------------------------------===//
// Sharing maximization
//===----------------------------------------------------------------------===//

void ValueGraph::canonicalizeOrders() {
  std::vector<GammaBranch> &Branches = Share.NodeBranches;
  for (NodeId I = 0; I < Nodes.size(); ++I) {
    if (find(I) != I)
      continue;
    const Node &N = *Nodes[I];
    NodeId *Ops = mutableOps(N);
    if (N.Kind == NodeKind::Gamma) {
      Branches.clear();
      for (unsigned K = 0; K + 1 < N.Ops.size(); K += 2)
        Branches.emplace_back(find(Ops[K]), find(Ops[K + 1]));
      std::sort(Branches.begin(), Branches.end());
      for (unsigned K = 0; K < Branches.size(); ++K)
        std::tie(Ops[2 * K], Ops[2 * K + 1]) = Branches[K];
      continue;
    }
    if (N.Kind == NodeKind::Op && isCommutativeOp(N.Op) && N.Ops.size() == 2) {
      NodeId A = find(Ops[0]), B = find(Ops[1]);
      if (B < A)
        std::swap(A, B);
      Ops[0] = A;
      Ops[1] = B;
    }
  }
}

unsigned ValueGraph::maximizeSharing(unsigned *Examined) {
  SharingScratch &Scratch = Share;
  std::vector<NodeId> &Roots = Scratch.Roots;
  Roots.clear();
  for (NodeId I = 0; I < Nodes.size(); ++I)
    if (find(I) == I)
      Roots.push_back(I);
  if (Examined)
    *Examined = static_cast<unsigned>(Roots.size());

  // Initial partition of the roots: head payload (kind, op, pred, type,
  // scalars, arity). One pass over the roots in id order through an
  // open-addressing table of class representatives keyed by the head hash
  // addNode recorded: a root joins the class of the representative with
  // its head (collisions resolve by field equality) or founds a new class
  // under the next number. So a class's number is the rank of its least
  // id, and its representative is that id.
  std::vector<unsigned> &Class = Scratch.Class;
  Class.assign(Nodes.size(), 0);
  unsigned NumClasses = 0;
  {
    size_t Slots = 16;
    while (Slots < 2 * Roots.size())
      Slots *= 2;
    std::vector<NodeId> &Reps = Scratch.HeadTable;
    Reps.assign(Slots, InvalidNode);
    const size_t Mask = Slots - 1;
    for (NodeId I : Roots) {
      const Node &N = *Nodes[I];
      const uint64_t H = HeadHash[I];
      for (size_t Slot = H & Mask;; Slot = (Slot + 1) & Mask) {
        NodeId R = Reps[Slot];
        if (R == InvalidNode) {
          Reps[Slot] = I;
          Class[I] = NumClasses++;
          break;
        }
        if (HeadHash[R] == H && scalarFieldsEqual(*Nodes[R], N) &&
            Nodes[R]->Ops.size() == N.Ops.size()) {
          Class[I] = Class[R];
          break;
        }
      }
    }
  }

  // Each class is the range [Begin, End) of Elems. Refinement ends with
  // at most one class per root; sizing the class tables (and the worklist,
  // which holds a class at most once) for that up front means a later
  // pass over a graph that did not grow never reallocates them.
  std::vector<unsigned> &Begin = Scratch.Begin, &End = Scratch.End;
  Begin.reserve(Roots.size() + 1);
  End.reserve(Roots.size());
  Scratch.Queued.reserve(Roots.size());
  Scratch.Work.reserve(Roots.size());
  Begin.assign(NumClasses + 1, 0);
  for (NodeId I : Roots)
    ++Begin[Class[I] + 1];
  std::partial_sum(Begin.begin(), Begin.end(), Begin.begin());
  End.assign(Begin.begin() + 1, Begin.end());
  Begin.pop_back();
  std::vector<NodeId> &Elems = Scratch.Elems;
  Elems.resize(Roots.size());
  Scratch.Fill.assign(Begin.begin(), Begin.end());
  for (NodeId I : Roots)
    Elems[Scratch.Fill[Class[I]]++] = I;

  // Refine to the coarsest stable partition. A class off the worklist is
  // stable: its members' operand classes agree. Splitting a class changes
  // the operand classes of exactly the users of the members that moved,
  // so only their classes go back on the worklist.
  std::vector<unsigned> &Work = Scratch.Work;
  std::vector<char> &Queued = Scratch.Queued;
  Work.clear();
  Queued.assign(NumClasses, 0);
  auto Push = [&](unsigned C) {
    if (!Queued[C] && End[C] - Begin[C] > 1) {
      Queued[C] = 1;
      Work.push_back(C);
    }
  };
  for (unsigned C = 0; C < NumClasses; ++C)
    Push(C);
  std::vector<unsigned> &Sigs = Scratch.Sigs, &Order = Scratch.Order;
  std::vector<std::pair<unsigned, unsigned>> &Branches = Scratch.Branches,
                                             &Runs = Scratch.Runs;
  std::vector<NodeId> &Sorted = Scratch.Sorted;
  while (!Work.empty()) {
    unsigned C = Work.back();
    Work.pop_back();
    Queued[C] = 0;
    const unsigned B = Begin[C], Size = End[C] - B;
    const Node &Head = *Nodes[Elems[B]];
    const size_t Arity = Head.Ops.size();
    if (Arity == 0)
      continue;
    // Signature: the operand classes. Operand order is canonical by node
    // id, not by class: congruent add(a,b) and add(b',a') must get one
    // signature, so commutative operands and γ's (cond, value) pairs are
    // sorted by class.
    Sigs.resize(Size * Arity);
    for (unsigned K = 0; K < Size; ++K) {
      unsigned *Sig = &Sigs[K * Arity];
      const Node &N = *Nodes[Elems[B + K]];
      for (size_t J = 0; J < Arity; ++J)
        Sig[J] = N.Ops[J] == InvalidNode ? ~0u : Class[find(N.Ops[J])];
      if (Head.Kind == NodeKind::Op && isCommutativeOp(Head.Op) &&
          Arity == 2) {
        if (Sig[1] < Sig[0])
          std::swap(Sig[0], Sig[1]);
      } else if (Head.Kind == NodeKind::Gamma) {
        Branches.clear();
        for (size_t J = 0; J + 1 < Arity; J += 2)
          Branches.emplace_back(Sig[J], Sig[J + 1]);
        std::sort(Branches.begin(), Branches.end());
        for (size_t J = 0; J < Branches.size(); ++J)
          std::tie(Sig[2 * J], Sig[2 * J + 1]) = Branches[J];
      }
    }
    auto SigOf = [&](unsigned K) { return &Sigs[K * Arity]; };
    bool Stable = true;
    for (unsigned K = 1; K < Size && Stable; ++K)
      Stable = std::equal(SigOf(0), SigOf(0) + Arity, SigOf(K));
    if (Stable)
      continue;
    // Group the members by signature.
    auto SigLess = [&](unsigned X, unsigned Y) {
      return std::lexicographical_compare(SigOf(X), SigOf(X) + Arity,
                                          SigOf(Y), SigOf(Y) + Arity);
    };
    Order.resize(Size);
    std::iota(Order.begin(), Order.end(), 0u);
    std::sort(Order.begin(), Order.end(), SigLess);
    Sorted.resize(Size);
    for (unsigned K = 0; K < Size; ++K)
      Sorted[K] = Elems[B + Order[K]];
    std::copy(Sorted.begin(), Sorted.end(), Elems.begin() + B);
    // Runs of equal signature; the largest keeps C, the others get new ids.
    Runs.clear();
    Runs.reserve(Size);
    for (unsigned S = 0, E; S < Size; S = E) {
      for (E = S + 1; E < Size && !SigLess(Order[S], Order[E]); ++E)
        ;
      Runs.emplace_back(B + S, B + E);
    }
    auto Largest = std::max_element(
        Runs.begin(), Runs.end(), [](const auto &X, const auto &Y) {
          return X.second - X.first < Y.second - Y.first;
        });
    std::tie(Begin[C], End[C]) = *Largest;
    for (auto It = Runs.begin(); It != Runs.end(); ++It) {
      if (It == Largest)
        continue;
      unsigned New = static_cast<unsigned>(Begin.size());
      Begin.push_back(It->first);
      End.push_back(It->second);
      Queued.push_back(0);
      for (unsigned K = It->first; K < It->second; ++K)
        Class[Elems[K]] = New;
    }
    // The re-queue: only now are the moved members' new classes visible.
    for (auto It = Runs.begin(); It != Runs.end(); ++It)
      if (It != Largest)
        for (unsigned K = It->first; K < It->second; ++K)
          forEachUser(Elems[K], [&](NodeId U) { Push(Class[U]); });
  }

  // Merge each class into its smallest id, for determinism.
  unsigned Merges = 0;
  for (unsigned C = 0; C < Begin.size(); ++C) {
    if (End[C] - Begin[C] < 2)
      continue;
    auto First = Elems.begin() + Begin[C], Last = Elems.begin() + End[C];
    NodeId Leader = *std::min_element(First, Last);
    for (auto It = First; It != Last; ++It)
      if (*It != Leader) {
        mergeInto(*It, Leader);
        ++Merges;
      }
  }
  canonicalizeOrders();
  return Merges;
}

//===----------------------------------------------------------------------===//
// Cone queries
//===----------------------------------------------------------------------===//

bool ValueGraph::coneContainsMu(NodeId Id) const {
  Visited.clear();
  std::vector<NodeId> &Work = WalkStack;
  Work.assign(1, find(Id));
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Visited.insert(N))
      continue;
    const Node &Nd = *Nodes[N];
    if (Nd.Kind == NodeKind::Mu)
      return true;
    for (NodeId Op : Nd.Ops)
      if (Op != InvalidNode)
        Work.push_back(find(Op));
  }
  return false;
}

bool ValueGraph::isNonEscapingAlloc(NodeId Alloc) const {
  // Pointers *derived* from the allocation (GEPs, and γ/μ/η selections that
  // may yield it) are tracked transitively; the allocation escapes when any
  // derived pointer is stored as a value, passed to a call, or returned.
  Visited.clear();
  std::vector<NodeId> &Work = WalkStack;
  Work.assign(1, find(Alloc));
  Visited.insert(Work.back());
  auto Derive = [&](NodeId N) {
    if (Visited.insert(N))
      Work.push_back(N);
  };
  // False if user I's operand slot K holding the pointer lets it escape.
  // A user met twice re-derives nothing, so repeats are harmless.
  auto UseKeepsPrivate = [&](NodeId I, unsigned K) {
    const Node &N = *Nodes[I];
    switch (N.Kind) {
    case NodeKind::Load:
      return K == 0; // used as a memory state?! treat as escape
    case NodeKind::Store:
      return K == 1; // stored as a value: escapes
    case NodeKind::AllocMem:
      return true;
    case NodeKind::Op:
      if (N.Op == Opcode::GEP && K == 0) {
        Derive(I);
        return true;
      }
      return N.Op == Opcode::ICmp; // address comparisons do not publish it
    case NodeKind::Gamma:
      // The γ result may be this pointer; track it. Condition slots
      // (even indices) cannot hold a pointer.
      if (K % 2 == 1)
        Derive(I);
      return true;
    case NodeKind::Mu:
      Derive(I);
      return true;
    case NodeKind::Eta:
      if (K == 1)
        Derive(I);
      return true;
    default:
      return false; // calls, returns, anything else: escape
    }
  };
  bool Private = true;
  while (Private && !Work.empty()) {
    NodeId Target = Work.back();
    Work.pop_back();
    forEachUser(Target, [&](NodeId I) {
      ArrayRef<NodeId> Ops = Nodes[I]->Ops;
      for (unsigned K = 0, E = Ops.size(); K != E && Private; ++K)
        if (Ops[K] != InvalidNode && find(Ops[K]) == Target)
          Private = UseKeepsPrivate(I, K);
    });
  }
  return Private;
}

std::string ValueGraph::dumpDot(const std::vector<NodeId> &Roots) const {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work;
  for (NodeId R : Roots)
    Work.push_back(find(R));
  std::ostringstream OS;
  OS << "digraph valuegraph {\n  node [shape=box, fontname=\"monospace\"];\n";
  std::vector<std::pair<NodeId, unsigned>> Edges; // (from, operand index)
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    const Node &Nd = *Nodes[N];
    std::string Label;
    switch (Nd.Kind) {
    case NodeKind::ConstInt:
      Label = std::to_string(Nd.IntVal);
      break;
    case NodeKind::ConstFloat: {
      std::ostringstream FS;
      FS << Nd.FloatVal;
      Label = FS.str();
      break;
    }
    case NodeKind::Param:
      Label = "param" + std::to_string(Nd.IntVal);
      break;
    case NodeKind::Global:
      Label = "@" + std::string(Nd.Str);
      break;
    case NodeKind::Op:
      Label = llvmmd::getOpcodeName(Nd.Op);
      if (Nd.Op == Opcode::ICmp)
        Label += std::string(".") + getPredName(static_cast<ICmpPred>(Nd.Pred));
      break;
    case NodeKind::Gamma:
      Label = "\xce\xb3"; // γ
      break;
    case NodeKind::Mu:
      Label = "\xce\xbc"; // μ
      break;
    case NodeKind::Eta:
      Label = "\xce\xb7"; // η
      break;
    case NodeKind::Call:
      Label = "call " + std::string(Nd.Str);
      break;
    default:
      Label = getNodeKindName(Nd.Kind);
      break;
    }
    OS << "  n" << N << " [label=\"n" << N << ": " << Label << "\"";
    if (Nd.Kind == NodeKind::Mu || Nd.Kind == NodeKind::Eta ||
        Nd.Kind == NodeKind::Gamma)
      OS << ", style=rounded";
    OS << "];\n";
    for (unsigned K = 0; K < Nd.Ops.size(); ++K) {
      if (Nd.Ops[K] == InvalidNode)
        continue;
      NodeId Op = find(Nd.Ops[K]);
      // Dashed edges for memory-typed operands (null type), matching the
      // paper's figure style for state edges.
      bool Mem = Nodes[Op]->Ty == nullptr;
      OS << "  n" << N << " -> n" << Op;
      if (Mem)
        OS << " [style=dashed]";
      else if (Nd.Kind == NodeKind::Mu)
        OS << " [label=\"" << (K == 0 ? "i" : "next") << "\"]";
      OS << ";\n";
      Work.push_back(Op);
    }
  }
  OS << "}\n";
  return OS.str();
}

namespace {

/// Decomposes a pointer node into (base root, constant byte offset) through
/// GEP chains; Known=false when an index is not a constant.
struct VGDecomposed {
  NodeId Base;
  int64_t Offset;
  bool Known;
};

VGDecomposed decomposeVG(const ValueGraph &G, NodeId P) {
  VGDecomposed D{G.find(P), 0, true};
  while (true) {
    const Node &N = G.node(D.Base);
    if (N.Kind == NodeKind::Op && N.Op == Opcode::GEP) {
      NodeId Idx = G.find(N.Ops[1]);
      const Node &NI = G.node(Idx);
      if (NI.Kind == NodeKind::ConstInt)
        D.Offset += NI.IntVal * N.IntVal; // IntVal of GEP = elem size
      else
        D.Known = false;
      D.Base = G.find(N.Ops[0]);
      continue;
    }
    return D;
  }
}

bool isIdentifiedVG(const Node &N) {
  return N.Kind == NodeKind::Alloc || N.Kind == NodeKind::Global;
}

/// All bases a pointer may resolve to, following GEPs and the selecting
/// structure (γ branches, μ streams, η values), into \p Out (sorted,
/// unique). Returns false when the set is unbounded or contains something
/// unanalyzable.
bool possibleBases(const ValueGraph &G, NodeId P, std::vector<NodeId> &Out,
                   NodeSet &Seen, std::vector<NodeId> &Work) {
  Out.clear();
  Seen.clear();
  unsigned NumSeen = 0;
  Work.assign(1, G.find(P));
  while (!Work.empty()) {
    NodeId N = G.find(Work.back());
    Work.pop_back();
    if (!Seen.insert(N))
      continue;
    if (++NumSeen > 64)
      return false;
    const Node &Nd = G.node(N);
    switch (Nd.Kind) {
    case NodeKind::Op:
      if (Nd.Op == Opcode::GEP) {
        Work.push_back(Nd.Ops[0]);
        break;
      }
      Out.push_back(N);
      break;
    case NodeKind::Gamma:
      for (unsigned K = 1; K < Nd.Ops.size(); K += 2)
        Work.push_back(Nd.Ops[K]);
      break;
    case NodeKind::Mu:
      if (Nd.Ops[0] == InvalidNode)
        return false;
      Work.push_back(Nd.Ops[0]);
      Work.push_back(Nd.Ops[1]);
      break;
    case NodeKind::Eta:
      Work.push_back(Nd.Ops[1]);
      break;
    default:
      Out.push_back(N);
      break;
    }
  }
  // Seen admits each root once, so Out holds no duplicates.
  std::sort(Out.begin(), Out.end());
  return true;
}

} // namespace

std::string ValueGraph::dump(const std::vector<NodeId> &Roots) const {
  std::set<NodeId> Seen;
  std::vector<NodeId> Work;
  for (NodeId R : Roots)
    Work.push_back(find(R));
  std::ostringstream OS;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    if (!Seen.insert(N).second)
      continue;
    const Node &Nd = *Nodes[N];
    OS << 'n' << N << " = " << getNodeKindName(Nd.Kind);
    if (Nd.Kind == NodeKind::Op) {
      OS << '.' << getOpcodeName(Nd.Op);
      if (Nd.Op == Opcode::ICmp)
        OS << '.' << getPredName(static_cast<ICmpPred>(Nd.Pred));
      if (Nd.Op == Opcode::FCmp)
        OS << '.' << getPredName(static_cast<FCmpPred>(Nd.Pred));
    }
    if (Nd.Kind == NodeKind::ConstInt || Nd.Kind == NodeKind::Param)
      OS << ' ' << Nd.IntVal;
    if (Nd.Kind == NodeKind::ConstFloat)
      OS << ' ' << Nd.FloatVal;
    if (!Nd.Str.empty())
      OS << " @" << Nd.Str;
    if (Nd.Ty)
      OS << " : " << Nd.Ty->getName();
    OS << " (";
    for (unsigned K = 0; K < Nd.Ops.size(); ++K) {
      if (K)
        OS << ", ";
      if (Nd.Ops[K] == InvalidNode) {
        OS << "<invalid>";
        continue;
      }
      NodeId Op = find(Nd.Ops[K]);
      OS << 'n' << Op;
      Work.push_back(Op);
    }
    OS << ")\n";
  }
  return OS.str();
}

int ValueGraph::aliasPointers(NodeId P, NodeId Q, unsigned SizeP,
                              unsigned SizeQ) const {
  P = find(P);
  Q = find(Q);
  if (P == Q)
    return 2;
  VGDecomposed A = decomposeVG(*this, P);
  VGDecomposed B = decomposeVG(*this, Q);
  if (A.Base == B.Base) {
    if (!A.Known || !B.Known)
      return 1;
    if (A.Offset == B.Offset)
      return 2;
    if (A.Offset + static_cast<int64_t>(SizeP) <= B.Offset ||
        B.Offset + static_cast<int64_t>(SizeQ) <= A.Offset)
      return 0;
    return 1;
  }
  // Different bases: NoAlias only if every possible base of one side is
  // provably distinct from every possible base of the other. γ/μ/η nodes
  // may *select* an allocation, so the non-escaping rule must look through
  // them rather than treat them as fresh objects.
  if (!possibleBases(*this, A.Base, BasesA, Visited, WalkStack) ||
      !possibleBases(*this, B.Base, BasesB, Visited, WalkStack))
    return 1;
  for (NodeId PA : BasesA) {
    for (NodeId PB : BasesB) {
      if (PA == PB)
        return 1; // may be the same object (offsets unknown here)
      const Node &NA = node(PA);
      const Node &NB = node(PB);
      if (isIdentifiedVG(NA) && isIdentifiedVG(NB))
        continue; // distinct allocations / globals
      if ((NA.Kind == NodeKind::Alloc && isNonEscapingAlloc(PA)) ||
          (NB.Kind == NodeKind::Alloc && isNonEscapingAlloc(PB)))
        continue;
      return 1;
    }
  }
  return 0;
}
