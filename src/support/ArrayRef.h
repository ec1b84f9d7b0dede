//===- ArrayRef.h - Borrowed view of a contiguous array ---------*- C++ -*-===//
//
// Part of the llvm-md project (PLDI 2011 value-graph validation repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A pointer and a length over elements someone else owns, in the mold of
/// llvm::ArrayRef. Functions that only read a list take one, so a caller
/// can pass a std::vector, a slice of an arena or a stack buffer without
/// building a fresh vector for the call. The view never outlives the call
/// it is passed to unless the owner says so (the value graph's node
/// operands live as long as the graph).
///
/// There is deliberately no constructor from std::initializer_list: the
/// list's array dies at the end of the full expression, so functions that
/// accept a braced list take the initializer_list themselves and forward
/// a view of it for the duration of the call.
///
//===----------------------------------------------------------------------===//

#ifndef LLVMMD_SUPPORT_ARRAYREF_H
#define LLVMMD_SUPPORT_ARRAYREF_H

#include <cassert>
#include <cstddef>
#include <vector>

namespace llvmmd {

template <typename T> class ArrayRef {
public:
  ArrayRef() = default;
  ArrayRef(const T *Data, size_t Size) : Data(Data), Size(Size) {}
  ArrayRef(const std::vector<T> &V) : Data(V.data()), Size(V.size()) {}

  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }
  const T *data() const { return Data; }
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }

  const T &operator[](size_t I) const {
    assert(I < Size && "index out of range");
    return Data[I];
  }
  const T &front() const { return (*this)[0]; }
  const T &back() const { return (*this)[Size - 1]; }

  bool operator==(ArrayRef O) const {
    if (Size != O.Size)
      return false;
    for (size_t I = 0; I < Size; ++I)
      if (!(Data[I] == O.Data[I]))
        return false;
    return true;
  }
  bool operator!=(ArrayRef O) const { return !(*this == O); }

private:
  const T *Data = nullptr;
  size_t Size = 0;
};

} // namespace llvmmd

#endif // LLVMMD_SUPPORT_ARRAYREF_H
