//===- support/TableMemory.cpp - Memory for random-access tables ---------===//

#include "support/TableMemory.h"

#include <cstdint>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

using namespace fast;

namespace {

size_t roundUpToHugePage(size_t Bytes) {
  return (Bytes + kHugePageBytes - 1) & ~(kHugePageBytes - 1);
}

} // namespace

void *fast::allocateTableMemory(size_t Bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (Bytes >= kHugePageBytes) {
    // Map one huge page more than needed and unmap the slack on both sides,
    // so the block starts on a huge-page boundary.
    const size_t Len = roundUpToHugePage(Bytes);
    void *Map = mmap(nullptr, Len + kHugePageBytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (Map == MAP_FAILED)
      throw std::bad_alloc();
    const uintptr_t Begin = reinterpret_cast<uintptr_t>(Map);
    const uintptr_t Start = roundUpToHugePage(Begin);
    if (Start != Begin)
      munmap(Map, Start - Begin);
    if (const size_t Tail = Begin + kHugePageBytes - Start)
      munmap(reinterpret_cast<void *>(Start + Len), Tail);
    // Advice only: without transparent huge pages the block keeps 4 KiB
    // pages and works the same.
    madvise(reinterpret_cast<void *>(Start), Len, MADV_HUGEPAGE);
    return reinterpret_cast<void *>(Start);
  }
#endif
  return ::operator new(Bytes);
}

void fast::freeTableMemory(void *P, size_t Bytes) noexcept {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  if (Bytes >= kHugePageBytes) {
    munmap(P, roundUpToHugePage(Bytes));
    return;
  }
#endif
  ::operator delete(P);
}
