#pragma once
// Counting global operator new/delete for the zero-allocation gates.
// Include this FIRST (before any other header) in the main TU of a gate
// binary; read `g_allocs` around the region that must not allocate.
//
// The nothrow family must be overridden too (stable_sort's temporary
// buffer uses it): a partial override would mix this file's malloc/free
// with the runtime's operator new — miscounting here and an
// alloc-dealloc-mismatch under ASan.
//
// Deliberately NO align_val_t overloads: the gates have counted only the
// plain forms since the seed, and widening what counts would move the
// goalposts of every recorded gate. The counter is atomic because
// test_parallel_rollout counts the allocations of its pool threads too.

#include <atomic>
#include <cstdlib>
#include <new>

static std::atomic<unsigned long long> g_allocs{0};

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
