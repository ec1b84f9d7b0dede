//===- FlatMap.h - Open-addressing map on 64-bit keys -----------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A map from nonzero 64-bit keys (numbers, or pointers cast to integers)
/// to small values, stored as one open-addressing table with linear
/// probing that is at most half full. It allocates once per doubling, not
/// once per entry like a node-based map; reserve() sizes it up front when
/// the entry count is known. Entries are never removed.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SUPPORT_FLATMAP_H
#define LLVMMD_SUPPORT_FLATMAP_H

#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace llvmmd {

/// The FlatMap key of a (non-null) pointer.
inline uint64_t flatKey(const void *P) {
  return reinterpret_cast<uintptr_t>(P);
}

template <typename V> class FlatMap {
public:
  /// Grows the table so that \p Count entries fit without regrowth.
  void reserve(size_t Count) {
    size_t Size = Slots.empty() ? 16 : Slots.size();
    while (Size < 2 * Count)
      Size *= 2;
    if (Size != Slots.size())
      rehash(Size);
  }

  /// The value under \p Key, or null if there is none.
  const V *find(uint64_t Key) const {
    if (Slots.empty())
      return nullptr;
    const Slot &S = Slots[slotOf(Key)];
    return S.Key ? &S.Value : nullptr;
  }

  /// Sets the value under \p Key, inserting it if absent.
  void set(uint64_t Key, V Value) {
    assert(Key && "key 0 marks an empty slot");
    if (2 * (Count + 1) > Slots.size())
      reserve(Count + 1);
    Slot &S = Slots[slotOf(Key)];
    if (!S.Key) {
      S.Key = Key;
      ++Count;
    }
    S.Value = Value;
  }

  /// Inserts \p Key with \p Value unless \p Key is present, in which case
  /// its value is left as it is. Returns whether \p Key was inserted.
  bool insert(uint64_t Key, V Value = V()) {
    assert(Key && "key 0 marks an empty slot");
    if (2 * (Count + 1) > Slots.size())
      reserve(Count + 1);
    Slot &S = Slots[slotOf(Key)];
    if (S.Key)
      return false;
    S.Key = Key;
    S.Value = Value;
    ++Count;
    return true;
  }

  bool contains(uint64_t Key) const { return find(Key) != nullptr; }

private:
  struct Slot {
    uint64_t Key = 0;
    V Value{};
  };

  /// The slot holding \p Key, or the empty slot where it would go.
  size_t slotOf(uint64_t Key) const {
    const size_t Mask = Slots.size() - 1;
    size_t S = hashCombine(0, Key) & Mask;
    while (Slots[S].Key && Slots[S].Key != Key)
      S = (S + 1) & Mask;
    return S;
  }

  void rehash(size_t Size) {
    std::vector<Slot> Old(Size);
    Old.swap(Slots);
    for (const Slot &S : Old)
      if (S.Key)
        Slots[slotOf(S.Key)] = S;
  }

  std::vector<Slot> Slots;
  size_t Count = 0;
};

} // namespace llvmmd

#endif // LLVMMD_SUPPORT_FLATMAP_H
