//===- tests/support/TableMemoryTest.cpp - Memory for large tables --------===//
//
// Table memory must behave like operator new on both sides of the huge-page
// threshold: every byte writable and kept, containers growing across the
// threshold keep their contents, and blocks of a huge page or more start on
// a huge-page boundary (where they are mapped on their own).
//
//===----------------------------------------------------------------------===//

#include "support/TableMemory.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#if defined(__linux__)
#include <sys/mman.h>
#endif

using namespace fast;

namespace {

void fillAndCheck(std::byte *P, size_t Bytes) {
  std::memset(P, 0xA5, Bytes);
  EXPECT_EQ(P[0], std::byte{0xA5});
  EXPECT_EQ(P[Bytes / 2], std::byte{0xA5});
  EXPECT_EQ(P[Bytes - 1], std::byte{0xA5});
}

TEST(TableMemoryTest, BlocksOnBothSidesOfTheThresholdAreUsable) {
  for (size_t Bytes : {size_t(64), kHugePageBytes - 1, kHugePageBytes,
                       kHugePageBytes + 4096, 3 * kHugePageBytes}) {
    TableBlock Block = allocateTableBlock(Bytes);
    ASSERT_NE(Block.get(), nullptr) << Bytes;
    EXPECT_EQ(reinterpret_cast<uintptr_t>(Block.get()) %
                  alignof(std::max_align_t),
              0u)
        << Bytes;
    fillAndCheck(Block.get(), Bytes);
  }
}

#if defined(__linux__) && defined(MADV_HUGEPAGE)
TEST(TableMemoryTest, HugeBlocksStartOnAHugePageBoundary) {
  for (size_t Bytes : {kHugePageBytes, 5 * kHugePageBytes / 2}) {
    void *P = allocateTableMemory(Bytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(P) % kHugePageBytes, 0u) << Bytes;
    fillAndCheck(static_cast<std::byte *>(P), Bytes);
    freeTableMemory(P, Bytes);
  }
}
#endif

TEST(TableMemoryTest, VectorGrowsAcrossTheThreshold) {
  std::vector<uint64_t, TableAllocator<uint64_t>> Table;
  const size_t N = 2 * kHugePageBytes / sizeof(uint64_t);
  for (uint64_t I = 0; I < N; ++I)
    Table.push_back(I * 0x9E3779B97F4A7C15ull);
  ASSERT_EQ(Table.size(), N);
  for (uint64_t I = 0; I < N; I += 4099)
    ASSERT_EQ(Table[I], I * 0x9E3779B97F4A7C15ull) << I;
  EXPECT_EQ(Table.back(), (N - 1) * 0x9E3779B97F4A7C15ull);
  Table.assign(16, 7);
  Table.shrink_to_fit();
  EXPECT_EQ(Table.size(), 16u);
  EXPECT_EQ(Table.front(), 7u);
}

} // namespace
