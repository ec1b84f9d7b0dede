//===- Arena.h - Bump-pointer allocation with scoped teardown ---*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena in the shady `IrArena` / clang `ASTContext` mold:
/// objects whose lifetimes end together are allocated from one growing
/// chain of slabs, so teardown is a handful of frees instead of one free
/// per IR node, allocation is a pointer bump on the hot path, and objects
/// created together sit next to each other in memory (clone and
/// fingerprint walks touch consecutive cache lines instead of chasing
/// malloc's placement).
///
/// Unlike a raw bump allocator, `create<T>` registers the object's
/// destructor (only when `T` is not trivially destructible) in an
/// intrusive LIFO list that itself lives inside the arena, so arena-owned
/// objects may hold `std::string` / `std::vector` members: `reset()` and
/// the arena destructor run the registered destructors in reverse
/// construction order, then release or recycle the slabs.
///
/// Thread-safety: none. Every arena in this codebase is confined to one
/// mutating thread at a time by a documented ownership rule (see Module /
/// Function / Context); callers that share an arena across threads must
/// bring their own lock, as Context does for its interning arena.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SUPPORT_ARENA_H
#define LLVMMD_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

namespace llvmmd {

class Arena {
public:
  /// \p FirstSlabBytes is the usable capacity of the first slab; subsequent
  /// slabs double up to MaxSlabBytes. Allocation is lazy — an arena that
  /// never allocates costs three pointers.
  explicit Arena(size_t FirstSlabBytes = 4096)
      : NextSlabBytes(FirstSlabBytes < MinSlabBytes ? MinSlabBytes
                                                    : FirstSlabBytes) {}
  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;
  ~Arena();

  /// Returns \p Bytes of storage aligned to \p Align (a power of two).
  /// Never returns null; allocation failure terminates like `new` would.
  void *allocate(size_t Bytes, size_t Align);

  /// Allocates and constructs a \p T. When \p T is not trivially
  /// destructible its destructor is registered and will run (in reverse
  /// construction order) at reset() or arena destruction. The static type
  /// is what gets destroyed, so pass the most-derived type — there is no
  /// virtual dispatch on teardown.
  template <typename T, typename... ArgTys> T *create(ArgTys &&...Args) {
    void *Mem = allocate(sizeof(T), alignof(T));
    T *Obj = ::new (Mem) T(std::forward<ArgTys>(Args)...);
    if constexpr (!std::is_trivially_destructible_v<T>)
      registerDtor(Obj, [](void *P) { static_cast<T *>(P)->~T(); });
    return Obj;
  }

  /// Makes room for \p Bytes more in the current slab, starting a slab of
  /// at least that size if they would not fit. A caller that knows what it
  /// is about to build (a clone sizes itself by its source) gets one
  /// right-sized slab instead of a doubling series.
  void reserve(size_t Bytes) {
    if (!Cur || static_cast<size_t>(BumpEnd - BumpPtr) < Bytes)
      grow(Bytes);
  }

  /// Runs all registered destructors (LIFO), then recycles the slabs: the
  /// largest slab is kept for reuse so a reset-heavy lifecycle (stepwise
  /// snapshot, revert, re-clone) stops hitting malloc entirely once warm.
  void reset();

  /// Bytes handed out to callers since construction/reset (excludes
  /// destructor bookkeeping and slab padding).
  size_t bytesAllocated() const { return BytesAllocated; }
  /// Total usable capacity of all live slabs.
  size_t bytesReserved() const { return BytesReserved; }
  size_t numSlabs() const;

private:
  static constexpr size_t MinSlabBytes = 256;
  static constexpr size_t MaxSlabBytes = 64 * 1024;

  struct Slab {
    Slab *Prev;
    size_t Capacity; ///< usable bytes following this header
  };
  struct DtorNode {
    DtorNode *Prev;
    void (*Destroy)(void *);
    void *Obj;
  };

  void registerDtor(void *Obj, void (*Destroy)(void *)) {
    auto *N = static_cast<DtorNode *>(
        allocate(sizeof(DtorNode), alignof(DtorNode)));
    N->Prev = Dtors;
    N->Destroy = Destroy;
    N->Obj = Obj;
    Dtors = N;
  }

  /// Starts a fresh slab with at least \p MinBytes of usable capacity and
  /// makes it the bump target.
  void grow(size_t MinBytes);

  Slab *Cur = nullptr;     ///< newest slab; Prev chains to older ones
  char *BumpPtr = nullptr; ///< next free byte in Cur
  char *BumpEnd = nullptr; ///< one past Cur's usable range
  DtorNode *Dtors = nullptr;
  size_t NextSlabBytes;
  size_t BytesAllocated = 0;
  size_t BytesReserved = 0;
};

} // namespace llvmmd

#endif // LLVMMD_SUPPORT_ARENA_H
