// Counting global allocation functions: every operator new in a test binary
// that includes this header (plain, array and over-aligned) bumps
// g_allocations, so a test can assert that a code path allocates nothing.
// The replacements are definitions, so include this header from exactly one
// translation unit per test binary.
#ifndef PVERIFY_TESTS_COUNTING_NEW_TESTUTIL_H_
#define PVERIFY_TESTS_COUNTING_NEW_TESTUTIL_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

namespace {
std::atomic<size_t> g_allocations{0};

void* CountedAlloc(size_t bytes, size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (bytes == 0) bytes = 1;
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(bytes);
  } else if (posix_memalign(&p, align, bytes) != 0) {
    p = nullptr;
  }
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(size_t bytes) { return CountedAlloc(bytes, 0); }
void* operator new[](size_t bytes) { return CountedAlloc(bytes, 0); }
void* operator new(size_t bytes, std::align_val_t align) {
  return CountedAlloc(bytes, static_cast<size_t>(align));
}
void* operator new[](size_t bytes, std::align_val_t align) {
  return CountedAlloc(bytes, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // PVERIFY_TESTS_COUNTING_NEW_TESTUTIL_H_
