// 64-byte-aligned storage for SIMD kernel operands.
//
// Kernels use unaligned loads, so alignment is a performance contract
// rather than a correctness one; the scratch buffers on the hot path
// (packed SOS frames, FFT twiddle tables) still want cache-line alignment
// so vector loads never split a line.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace echoimage::simd {

inline constexpr std::size_t kAlignment = 64;

/// Minimal aligned allocator (C++17 aligned operator new).
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}  // NOLINT(runtime/explicit)

  [[nodiscard]] T* allocate(std::size_t n) {
    return static_cast<T*>(::operator new(
        n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
};

/// std::vector with 64-byte-aligned backing storage.
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

}  // namespace echoimage::simd
