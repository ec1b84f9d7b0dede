//===- SmallVector.h - Vector with inline storage ---------------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A vector of trivially copyable elements (pointers, in practice) whose
/// first N elements live inside the object itself. Only growth past N
/// allocates, and then by doubling like std::vector. The IR keeps operand,
/// user and φ-block lists in these, sized so that nearly every list of the
/// suite fits inline: an instruction built in a body arena then costs no
/// heap allocation at all.
///
/// Not copyable or movable: its owners (IR values) never move either.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SUPPORT_SMALLVECTOR_H
#define LLVMMD_SUPPORT_SMALLVECTOR_H

#include <cassert>
#include <cstdint>
#include <cstring>
#include <type_traits>

namespace llvmmd {

template <typename T, unsigned N> class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "elements are moved with memcpy");
  static_assert(N > 0, "inline capacity must be positive");

public:
  SmallVector() = default;
  SmallVector(const SmallVector &) = delete;
  SmallVector &operator=(const SmallVector &) = delete;
  ~SmallVector() {
    if (!isInline())
      delete[] Data;
  }

  T *begin() { return Data; }
  T *end() { return Data + Size; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }

  unsigned size() const { return Size; }
  bool empty() const { return Size == 0; }

  T &operator[](unsigned I) {
    assert(I < Size && "index out of range");
    return Data[I];
  }
  const T &operator[](unsigned I) const {
    assert(I < Size && "index out of range");
    return Data[I];
  }
  T &back() {
    assert(Size && "back() of an empty vector");
    return Data[Size - 1];
  }

  void push_back(T V) {
    if (Size == Capacity)
      grow();
    Data[Size++] = V;
  }

  /// Removes the element at \p Pos, shifting the tail down by one.
  void erase(T *Pos) {
    assert(Pos >= begin() && Pos < end() && "erase out of range");
    std::memmove(static_cast<void *>(Pos), Pos + 1,
                 (end() - Pos - 1) * sizeof(T));
    --Size;
  }

  /// Empties the vector; heap storage, if any, is kept for reuse.
  void clear() { Size = 0; }

private:
  bool isInline() const { return Data == Inline; }

  void grow() {
    T *New = new T[2 * Capacity];
    std::memcpy(static_cast<void *>(New), Data, Size * sizeof(T));
    if (!isInline())
      delete[] Data;
    Data = New;
    Capacity *= 2;
  }

  T *Data = Inline;
  uint32_t Size = 0;
  uint32_t Capacity = N;
  T Inline[N];
};

} // namespace llvmmd

#endif // LLVMMD_SUPPORT_SMALLVECTOR_H
