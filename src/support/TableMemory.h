//===- support/TableMemory.h - Memory for random-access tables -*- C++ -*-===//
//
// Part of the fast-transducers project (see Hashing.h for provenance).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backing memory for the library's large tables that are probed at random:
/// the tree intern table and node arena, and the VM's memo tables.  A random
/// probe into tens of megabytes of 4 KiB pages misses the TLB almost every
/// time, and under a hypervisor each miss walks two levels of page tables,
/// so the cost of a probe rises and falls with whatever else the host runs.
/// Blocks of at least one huge page are therefore mapped huge-page aligned
/// and advised for transparent huge pages (Linux), which keeps a whole table
/// within the TLB's reach.  Smaller blocks come from operator new.
///
//===----------------------------------------------------------------------===//

#ifndef FAST_SUPPORT_TABLEMEMORY_H
#define FAST_SUPPORT_TABLEMEMORY_H

#include <cstddef>
#include <memory>

namespace fast {

/// Size of a huge page; blocks at least this large are mapped on their own.
inline constexpr size_t kHugePageBytes = size_t(2) << 20;

/// Returns \p Bytes of uninitialized memory, aligned for any object.
/// Throws std::bad_alloc when the memory cannot be had.
void *allocateTableMemory(size_t Bytes);
/// Releases memory from allocateTableMemory(\p Bytes).
void freeTableMemory(void *P, size_t Bytes) noexcept;

/// A std::allocator for containers that hold such tables.
template <typename T> struct TableAllocator {
  using value_type = T;

  TableAllocator() = default;
  template <typename U> TableAllocator(const TableAllocator<U> &) {}

  T *allocate(size_t N) {
    return static_cast<T *>(allocateTableMemory(N * sizeof(T)));
  }
  void deallocate(T *P, size_t N) noexcept {
    freeTableMemory(P, N * sizeof(T));
  }

  friend bool operator==(TableAllocator, TableAllocator) { return true; }
};

/// Frees a block of a size fixed at allocation; see TableBlock.
struct TableMemoryDeleter {
  size_t Bytes = 0;
  void operator()(std::byte *P) const noexcept { freeTableMemory(P, Bytes); }
};

/// An owned, uninitialized block of table memory.
using TableBlock = std::unique_ptr<std::byte[], TableMemoryDeleter>;

inline TableBlock allocateTableBlock(size_t Bytes) {
  return TableBlock(static_cast<std::byte *>(allocateTableMemory(Bytes)),
                    TableMemoryDeleter{Bytes});
}

} // namespace fast

#endif // FAST_SUPPORT_TABLEMEMORY_H
