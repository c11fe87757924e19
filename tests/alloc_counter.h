// Global allocation counter for the zero-allocation assertions.
//
// Replaces the whole family of replaceable global allocation functions --
// plain, array and nothrow new, and every matching (sized) delete -- with
// malloc/free, so no block can be allocated by one family and released
// through another (undefined behaviour that ASan reports as
// alloc-dealloc-mismatch, e.g. a std::stable_sort buffer from nothrow
// new freed through the replaced delete).  The over-aligned forms are
// left to the runtime, which pairs them among themselves.
//
// The replacements are kept out of line: inlined into a caller, GCC
// would pair the caller's `new` with the `free` inside `delete` and
// report -Wmismatched-new-delete.
//
// Counting is toggled only around the region under test, so gtest's own
// allocations never pollute a measurement; atomics keep the hooks safe
// under TSan.  Include from exactly one translation unit per test binary.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

inline std::atomic<bool> g_count_allocs{false};
inline std::atomic<std::uint64_t> g_alloc_count{0};

namespace alloc_counter_detail {
inline void* counted_malloc(std::size_t size) noexcept {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace alloc_counter_detail

[[gnu::noinline]] void* operator new(std::size_t size) {
  if (void* p = alloc_counter_detail::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  if (void* p = alloc_counter_detail::counted_malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new(std::size_t size,
                                     const std::nothrow_t&) noexcept {
  return alloc_counter_detail::counted_malloc(size);
}
[[gnu::noinline]] void* operator new[](std::size_t size,
                                       const std::nothrow_t&) noexcept {
  return alloc_counter_detail::counted_malloc(size);
}

[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p,
                                         const std::nothrow_t&) noexcept {
  std::free(p);
}
