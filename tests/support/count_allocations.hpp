// The counting allocator of the zero-allocation gates: replaces the global
// operator new/delete of the test binary that includes this header and
// counts every allocation in `test::g_allocations`. A gate reads the
// counter before and after its measured window.
//
// Include it in exactly one translation unit of a binary. The standard
// forbids declaring the replacement functions inline, so they are plain
// definitions here, and the header stays out of raptee_test_support, which
// every test binary links.
//
// The counting overrides forward to std::malloc/std::free, which keeps the
// sanitizer jobs honest: ASan still intercepts the underlying malloc, so
// leaks and overflows on the measured paths stay visible.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace raptee::test {

inline std::atomic<std::uint64_t> g_allocations{0};

inline void* counted_alloc(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

inline void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++g_allocations;
  // aligned_alloc requires size to be a multiple of the alignment.
  const auto alignment = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + alignment - 1) / alignment * alignment;
  if (void* p = std::aligned_alloc(alignment, rounded ? rounded : alignment)) return p;
  throw std::bad_alloc();
}

}  // namespace raptee::test

void* operator new(std::size_t size) { return raptee::test::counted_alloc(size); }
void* operator new[](std::size_t size) { return raptee::test::counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return raptee::test::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return raptee::test::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
