// Unit tests for the hot-path memory subsystem (src/mem/): SlabPool /
// TypedSlab block recycling, FlatMap open-addressing semantics and
// determinism — plus, under ASan builds, a death test proving that
// use-after-release of slab memory faults (the free lists are poisoned,
// so stale pointers behave like a heap use-after-free instead of silently
// reading recycled state).
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "mem/flat_table.hpp"
#include "mem/slab.hpp"

namespace dyncdn::mem {
namespace {

TEST(SlabPool, RecyclesBlocksLifo) {
  SlabPool pool(32, /*blocks_per_chunk=*/4);
  void* a = pool.allocate();
  void* b = pool.allocate();
  EXPECT_NE(a, b);
  pool.deallocate(b);
  pool.deallocate(a);
  // LIFO free list: the most recently released block comes back first.
  EXPECT_EQ(pool.allocate(), a);
  EXPECT_EQ(pool.allocate(), b);
  pool.deallocate(a);
  pool.deallocate(b);
}

TEST(SlabPool, HandsOutAscendingAddressesWithinAChunk) {
  SlabPool pool(64, /*blocks_per_chunk=*/8);
  void* prev = pool.allocate();
  std::vector<void*> owned{prev};
  for (int i = 1; i < 8; ++i) {
    void* p = pool.allocate();
    EXPECT_LT(prev, p);
    EXPECT_EQ(static_cast<std::byte*>(p) - static_cast<std::byte*>(prev),
              static_cast<std::ptrdiff_t>(pool.block_size()));
    prev = p;
    owned.push_back(p);
  }
  EXPECT_EQ(pool.chunk_count(), 1u);
  void* ninth = pool.allocate();  // forces a second chunk
  owned.push_back(ninth);
  EXPECT_EQ(pool.chunk_count(), 2u);
  for (void* p : owned) {
    EXPECT_TRUE(pool.owns(p));
    pool.deallocate(p);
  }
}

TEST(SlabPool, RoundsBlockSizeUpToMaxAlign) {
  SlabPool pool(1);
  EXPECT_GE(pool.block_size(), alignof(std::max_align_t));
  EXPECT_EQ(pool.block_size() % alignof(std::max_align_t), 0u);
}

TEST(TypedSlab, RunsConstructorAndDestructor) {
  struct Probe {
    explicit Probe(int* counter) : counter_(counter) { ++*counter_; }
    ~Probe() { --*counter_; }
    int* counter_;
  };
  int live = 0;
  TypedSlab<Probe> slab(/*blocks_per_chunk=*/4);
  Probe* a = slab.create(&live);
  Probe* b = slab.create(&live);
  EXPECT_EQ(live, 2);
  slab.destroy(a);
  EXPECT_EQ(live, 1);
  slab.destroy(b);
  EXPECT_EQ(live, 0);
  slab.destroy(nullptr);  // no-op
  // The released blocks are back on the free list for reuse.
  EXPECT_EQ(slab.free_count(), 4u);
}

TEST(FlatMap, InsertFindErase) {
  FlatMap<std::uint64_t, int> map;
  EXPECT_EQ(map.find(7), nullptr);
  auto [v, inserted] = map.try_emplace(7, 70);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 70);
  auto [v2, inserted2] = map.try_emplace(7, 99);
  EXPECT_FALSE(inserted2);
  EXPECT_EQ(*v2, 70);  // existing value untouched
  EXPECT_EQ(map.size(), 1u);
  EXPECT_TRUE(map.erase(7));
  EXPECT_FALSE(map.erase(7));
  EXPECT_EQ(map.find(7), nullptr);
  EXPECT_TRUE(map.empty());
}

TEST(FlatMap, SurvivesRehashAndTombstoneChurn) {
  FlatMap<std::uint64_t, std::uint64_t> map;
  // Insert/erase churn forces both growth rehashes and tombstone reuse.
  for (std::uint64_t i = 0; i < 1000; ++i) {
    map.try_emplace(i, i * 3);
    if (i % 3 == 0) map.erase(i / 2);
  }
  std::size_t expected = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    // Key i was erased iff some j % 3 == 0 with j / 2 == i ran, i.e. one
    // of {2i, 2i+1} is divisible by 3 and lies inside the loop range.
    const bool gone = ((2 * i) % 3 == 0 && 2 * i < 1000) ||
                      ((2 * i + 1) % 3 == 0 && 2 * i + 1 < 1000);
    const std::uint64_t* v = map.find(i);
    if (gone) {
      EXPECT_EQ(v, nullptr) << "key " << i;
    } else {
      ASSERT_NE(v, nullptr) << "key " << i;
      EXPECT_EQ(*v, i * 3);
      ++expected;
    }
  }
  EXPECT_EQ(map.size(), expected);
}

TEST(FlatMap, IdenticalOperationHistoryYieldsIdenticalIteration) {
  // Determinism contract: no per-process salt, so two maps fed the same
  // operations traverse in the same slot order, so runs are reproducible.
  const auto build = [] {
    FlatMap<std::uint64_t, int> m;
    for (std::uint64_t i = 0; i < 200; ++i) m.try_emplace(i * 7919, 1);
    for (std::uint64_t i = 0; i < 200; i += 3) m.erase(i * 7919);
    std::vector<std::uint64_t> order;
    m.for_each([&order](std::uint64_t k, int) { order.push_back(k); });
    return order;
  };
  EXPECT_EQ(build(), build());
}

#if DYNCDN_MEM_ASAN
// Use-after-release must fault, not silently read recycled memory. Death
// tests fork, so the ASan report in the child is the expected "death".
TEST(SlabPoolDeathTest, UseAfterReleaseFaultsUnderAsan) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        SlabPool pool(64);
        auto* p = static_cast<volatile std::uint64_t*>(pool.allocate());
        *p = 42;
        pool.deallocate(const_cast<std::uint64_t*>(p));
        (void)*p;  // poisoned: ASan aborts here
      },
      "use-after-poison");
}
#endif  // DYNCDN_MEM_ASAN

}  // namespace
}  // namespace dyncdn::mem
