// Cache-line-aligned vector storage for the SoA verification rows.
//
// The verifier hot loops stream over per-candidate rows of doubles. Two
// layout properties make those loops vectorizer-friendly:
//   * the base pointer of every buffer is 64-byte aligned (one cache line,
//     and wide enough for any current SIMD register file), and
//   * row strides are padded to a multiple of 8 doubles (64 bytes), so
//     every row starts on its own cache line and rows never share one.
// AlignedVector + PadStride provide exactly that; the accessors of
// SubregionTable / VerificationContext hide the padding from callers.
#ifndef PVERIFY_COMMON_ALIGNED_H_
#define PVERIFY_COMMON_ALIGNED_H_

#include <cstddef>
#include <new>
#include <vector>

namespace pverify {

inline constexpr size_t kCacheLineBytes = 64;

/// Minimal allocator that over-aligns every allocation to `Align` bytes
/// (C++17 aligned operator new). Interoperates with std::vector.
template <typename T, size_t Align = kCacheLineBytes>
class AlignedAllocator {
 public:
  static_assert(Align >= alignof(T), "alignment must not weaken the type's");
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Align>;
  };

  T* allocate(size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Align)));
  }
  void deallocate(T* p, size_t) noexcept {
    ::operator delete(p, std::align_val_t(Align));
  }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
  friend bool operator!=(const AlignedAllocator&, const AlignedAllocator&) {
    return false;
  }
};

template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

/// Rounds a row length up so rows of T start on cache-line boundaries
/// (given a cache-line-aligned base). For doubles this pads to a multiple
/// of 8 elements.
template <typename T>
constexpr size_t PadStride(size_t row_len) {
  constexpr size_t per_line = kCacheLineBytes / sizeof(T);
  static_assert(per_line > 0, "type larger than a cache line");
  return (row_len + per_line - 1) / per_line * per_line;
}

}  // namespace pverify

#endif  // PVERIFY_COMMON_ALIGNED_H_
