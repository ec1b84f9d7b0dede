//===- ValueGraph.h - Shared, hash-consed value graph -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared value graph of the paper (§2-3): a single arena of
/// hash-consed nodes representing *both* the original and the optimized
/// function, so that equal subcomputations are literally the same node and
/// the best-case equality check is O(1).
///
/// Acyclic nodes are interned on construction. Cycles are broken by μ
/// nodes, which are created unique and merged later by the sharing
/// maximization pass (§5.4): a worklist partition refinement (Hopcroft
/// style) to the coarsest bisimulation, which subsumes both congruence
/// closure and the paper's parallel unification of μ nodes.
///
/// Merging is a union-find over node ids; rewrite rules replace a node by
/// merging it into its replacement.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_VG_VALUEGRAPH_H
#define LLVMMD_VG_VALUEGRAPH_H

#include "ir/Function.h"
#include "ir/Type.h"
#include "support/Arena.h"
#include "support/ArrayRef.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace llvmmd {

using NodeId = uint32_t;
inline constexpr NodeId InvalidNode = ~NodeId(0);

enum class NodeKind : uint8_t {
  ConstInt,   // IntVal
  ConstFloat, // FloatVal
  ConstNull,
  Undef,
  Global,     // Str = name; IntVal = 1 if constant-qualified
  Param,      // IntVal = index (shared between the two functions!)
  InitialMem, // the memory state on function entry (shared)
  Op,         // Op + Pred payloads; pure operators incl. GEP
  Gamma,      // gated φ: operands [c1,v1, c2,v2, ...]
  Mu,         // loop value: operands [init, next]; NOT hash-consed
  Eta,        // loop exit: operands [stayCond, value]
  Alloc,      // operands [count, memIn]; IntVal = element store size
  AllocMem,   // operands [alloc]: memory state after the allocation
  Load,       // operands [ptr, mem]
  Store,      // operands [value, ptr, mem] -> memory
  Call,       // Str = callee; IntVal = MemoryEffect; operands [args..., memIn]
  CallMem,    // operands [call]: memory state after the call
  Ret,        // operands [mem] or [value, mem]: the function's state pointer
};

const char *getNodeKindName(NodeKind K);

/// A set of node ids over a node-indexed stamp vector: insert and lookup
/// are O(1), and clear() is O(1) (it starts a new epoch), so one instance
/// serves every cone walk of a pass without reallocating. A walk that
/// clears it must not run inside another walk over the same instance.
class NodeSet {
public:
  void clear() {
    if (++Epoch == 0) {
      std::fill(Stamp.begin(), Stamp.end(), 0);
      Epoch = 1;
    }
  }
  /// Adds \p N; false if it was already in the set.
  bool insert(NodeId N) {
    if (N >= Stamp.size())
      Stamp.resize(std::max<size_t>(N + 1, 2 * Stamp.size()), 0);
    if (Stamp[N] == Epoch)
      return false;
    Stamp[N] = Epoch;
    return true;
  }
  /// True if \p N was inserted since the last clear().
  bool contains(NodeId N) const {
    return N < Stamp.size() && Stamp[N] == Epoch;
  }

private:
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 1;
};

/// A node of the graph. Nodes live in the graph's arena and hold no heap
/// storage of their own, so making one is a pointer bump and freeing the
/// graph frees them all at once.
struct Node {
  NodeKind Kind;
  Opcode Op = Opcode::Add; // valid when Kind == Op
  uint8_t Pred = 0;        // icmp/fcmp predicate for Kind == Op
  Type *Ty = nullptr;      // result type (null for memory-typed nodes)
  int64_t IntVal = 0;
  double FloatVal = 0;
  /// Global or callee name; the graph keeps its own copy of the text.
  std::string_view Str;
  /// The operands. Their number is fixed when the node is made; they sit
  /// right after the node in the graph's arena. Only the graph rewrites
  /// them, and then only by re-ordering within their classes.
  ArrayRef<NodeId> Ops;
};

/// A γ branch: (condition, value).
using GammaBranch = std::pair<NodeId, NodeId>;

class ValueGraph {
public:
  //===------------------------------------------------------------------===//
  // Node construction (hash-consed unless noted)
  //===------------------------------------------------------------------===//

  NodeId getConstInt(Type *Ty, int64_t V);
  NodeId getConstFloat(Type *Ty, double V);
  NodeId getConstBool(Type *BoolTy, bool B) {
    return getConstInt(BoolTy, B ? 1 : 0);
  }
  NodeId getNull(Type *PtrTy);
  NodeId getUndef(Type *Ty);
  NodeId getGlobal(std::string_view Name, bool IsConstant, Type *PtrTy);
  NodeId getParam(unsigned Index, Type *Ty);
  NodeId getInitialMem();

  /// The node constructors read their operand lists and keep no pointer
  /// into them, so a caller may pass a vector, another node's Ops or a
  /// braced list. Looking up a node that exists allocates nothing.
  NodeId getOp(Opcode Op, Type *Ty, ArrayRef<NodeId> Operands,
               uint8_t Pred = 0, int64_t Extra = 0);
  NodeId getOp(Opcode Op, Type *Ty, std::initializer_list<NodeId> Operands,
               uint8_t Pred = 0, int64_t Extra = 0) {
    return getOp(Op, Ty, ArrayRef<NodeId>(Operands.begin(), Operands.size()),
                 Pred, Extra);
  }

  /// Gamma operands are (cond, value) pairs; they are canonically sorted.
  NodeId getGamma(Type *Ty, ArrayRef<GammaBranch> Branches);
  NodeId getGamma(Type *Ty, std::initializer_list<GammaBranch> Branches) {
    return getGamma(Ty,
                    ArrayRef<GammaBranch>(Branches.begin(), Branches.size()));
  }

  NodeId getEta(Type *Ty, NodeId StayCond, NodeId Value);

  /// μ nodes are unique (cycle breakers); operands set after body
  /// construction via setMuOperands.
  NodeId makeMu(Type *Ty);
  void setMuOperands(NodeId Mu, NodeId Init, NodeId Next);

  NodeId getAlloc(NodeId Count, NodeId MemIn, unsigned ElemSize);
  NodeId getAllocMem(NodeId Alloc);
  NodeId getLoad(Type *Ty, NodeId Ptr, NodeId Mem);
  NodeId getStore(NodeId Value, NodeId Ptr, NodeId Mem);
  NodeId getCall(std::string_view Callee, MemoryEffect Effect, Type *RetTy,
                 ArrayRef<NodeId> ArgsAndMem);
  NodeId getCall(std::string_view Callee, MemoryEffect Effect, Type *RetTy,
                 std::initializer_list<NodeId> ArgsAndMem) {
    return getCall(Callee, Effect, RetTy,
                   ArrayRef<NodeId>(ArgsAndMem.begin(), ArgsAndMem.size()));
  }
  NodeId getCallMem(NodeId Call);
  NodeId getRet(NodeId ValueOrInvalid, NodeId Mem);

  //===------------------------------------------------------------------===//
  // Union-find and access
  //===------------------------------------------------------------------===//

  /// Sizes the node, use and hash-cons tables and the node arena for about
  /// \p NumNodes nodes, so a graph of that size grows without
  /// reallocating.
  void reserve(size_t NumNodes);

  NodeId find(NodeId Id) const;
  /// Merges \p From into \p Into: find(From) == find(Into) == find-of-Into.
  /// Rewrite rules call this with Into = the canonical replacement.
  void mergeInto(NodeId From, NodeId Into);

  const Node &node(NodeId Id) const { return *Nodes[find(Id)]; }
  size_t size() const { return Nodes.size(); }
  /// Number of live (representative) nodes.
  size_t countRoots() const;

  NodeId operand(NodeId Id, unsigned I) const {
    return find(node(Id).Ops[I]);
  }

  /// Calls \p F(User) for every root that holds the class of \p Id in an
  /// operand slot, live or not. A user holding the class in several slots
  /// may come more than once.
  template <typename Fn> void forEachUser(NodeId Id, Fn &&F) const {
    for (uint32_t E = Users[find(Id)].Head; E != NoUse; E = UseEntries[E].Next)
      if (NodeId U = UseEntries[E].User; find(U) == U)
        F(U);
  }

  //===------------------------------------------------------------------===//
  // Sharing maximization
  //===------------------------------------------------------------------===//

  /// Merges every pair of bisimilar live nodes: same head payload and,
  /// recursively, bisimilar operands (commutative operands and γ branches
  /// in any order). One call reaches the fixpoint: a second call returns 0
  /// unless the graph changed in between. Returns the number of merges;
  /// \p Examined, if given, receives the number of roots partitioned.
  unsigned maximizeSharing(unsigned *Examined = nullptr);

  //===------------------------------------------------------------------===//
  // Cone queries used by rewrite rules
  //===------------------------------------------------------------------===//

  /// True if any μ node is reachable from \p Id (over current roots).
  bool coneContainsMu(NodeId Id) const;

  /// True if the Alloc node \p Alloc is non-escaping in this graph: it is
  /// only used as a load/store/GEP address or for its AllocMem projection.
  /// Every root counts as a user, live or not. The walk visits only the
  /// use lists of the allocation and the pointers derived from it.
  bool isNonEscapingAlloc(NodeId Alloc) const;

  /// Structural may-alias on pointer-valued nodes (the validator-side
  /// mirror of AliasAnalysis): NoAlias for distinct Allocs, distinct
  /// Globals, non-escaping Alloc vs anything else, same base with disjoint
  /// constant GEP offsets. Returns 0 = NoAlias, 1 = MayAlias, 2 = Must.
  int aliasPointers(NodeId P, NodeId Q, unsigned SizeP, unsigned SizeQ) const;

  /// Rewrite statistics (incremented by mergeInto when flagged).
  unsigned getMergeCount() const { return MergeCount; }

  /// Renders the live cone of \p Roots as readable text (one node per
  /// line), for debugging and for the graph-dump example.
  std::string dump(const std::vector<NodeId> &Roots) const;

  /// Renders the live cone of \p Roots as a GraphViz digraph, in the style
  /// of the paper's figures: γ/μ/η nodes labeled, memory edges dashed.
  std::string dumpDot(const std::vector<NodeId> &Roots) const;

private:
  /// Looks up the node with \p N's head and operands \p Ops (already
  /// canonical roots); adds it if there is none.
  NodeId intern(Node N, ArrayRef<NodeId> Ops);
  /// Copies \p N and its operands into the arena under hash-cons key
  /// \p Key and head hash \p Head; returns its id.
  NodeId addNode(const Node &N, uint64_t Key, uint64_t Head);
  /// Doubles the hash-cons table, re-inserting the nodes oldest first.
  void growHashCons();

  /// Hash of the head payload only (kind, op, pred, type, scalars, arity) —
  /// the operand *contents* are excluded. HeadHash keeps it by id as the
  /// bucket key of maximizeSharing()'s initial partition.
  uint64_t hashNodeHead(const Node &N) const;
  /// Field-by-field structural equality against an interned node.
  static bool nodeEquals(const Node &A, const Node &B);

  /// The operand storage of \p N, which the graph owns and may re-order.
  static NodeId *mutableOps(const Node &N) {
    return const_cast<NodeId *>(N.Ops.data());
  }

  /// Appends \p User to the use list of \p Used's class.
  void addUse(NodeId Used, NodeId User);

  /// Canonically re-sorts every Gamma's branches (by current roots) and
  /// commutative operators' operands.
  void canonicalizeOrders();

  /// Node storage: each node and its operand array are bump-allocated
  /// together in creation order (normalization walks touch consecutive
  /// memory), and freed with the graph in a handful of slab releases.
  /// Pointer-stable: interning a node never moves an existing one, so the
  /// normalizer's rules may hold `const Node &` to the node being
  /// rewritten while they create its replacement.
  Arena NodeArena{16 * 1024};
  std::vector<Node *> Nodes;
  mutable std::vector<NodeId> Parent;
  /// Visited set and work stack of the const cone walks (coneContainsMu,
  /// the escape query, the alias query's base walks); none of them nests
  /// another.
  mutable NodeSet Visited;
  mutable std::vector<NodeId> WalkStack;
  /// The alias query's base sets (sorted, unique).
  mutable std::vector<NodeId> BasesA, BasesB;
  /// The hash-cons table: node ids under open addressing with linear
  /// probing, at most half full. A node's key is its structural hash,
  /// frozen at intern time in InternHash like its operand list; later
  /// union-find merges can make equal-shaped nodes miss, which
  /// maximizeSharing() cleans up. Entries are never removed, so nodes with
  /// one key lie along its probe sequence oldest first.
  std::vector<NodeId> HashCons;
  size_t HashConsCount = 0;
  /// Key of each node, by id (0 for μ nodes, which are not hash-consed).
  std::vector<uint64_t> InternHash;
  /// hashNodeHead of each node, by id.
  std::vector<uint64_t> HeadHash;
  /// A looked-up node's canonical operands and γ branches; the
  /// constructors fill them, intern reads them, and no constructor runs
  /// inside another.
  std::vector<NodeId> KeyOps;
  std::vector<GammaBranch> KeyBranches;
  /// The use lists: for each root, a singly linked list of the nodes that
  /// took an operand in its class, kept in flat arrays. addNode and
  /// setMuOperands append one entry per operand slot; mergeInto splices
  /// the merged root's list onto its new root's in O(1). Operand lists
  /// only change by re-sorting within their classes, so an entry whose
  /// user is still a root names a real use; forEachUser skips the users
  /// merged away since.
  static constexpr uint32_t NoUse = ~uint32_t(0);
  struct UseList {
    uint32_t Head = NoUse, Tail = NoUse;
  };
  struct UseEntry {
    NodeId User;
    uint32_t Next;
  };
  std::vector<UseList> Users; ///< by node id; meaningful for roots
  std::vector<UseEntry> UseEntries;
  unsigned MergeCount = 0;

  /// maximizeSharing()'s and canonicalizeOrders()'s working storage, kept
  /// between calls so a sharing pass over a graph that did not grow
  /// allocates nothing.
  struct SharingScratch {
    std::vector<NodeId> Roots, Elems, Sorted, HeadTable;
    std::vector<unsigned> Class, Begin, End, Fill, Work, Sigs, Order;
    std::vector<char> Queued;
    std::vector<std::pair<unsigned, unsigned>> Branches, Runs;
    std::vector<GammaBranch> NodeBranches;
  };
  SharingScratch Share;
};

} // namespace llvmmd

#endif // LLVMMD_VG_VALUEGRAPH_H
