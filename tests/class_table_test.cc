// util::ClassTable: the bounded per-class table behind the scorecard and
// the feedback store — fewest-hits eviction, the greatest-key tie-break,
// eviction reporting, and concurrent FindOrCreate at capacity.
#include "util/class_table.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <string>
#include <thread>
#include <vector>

namespace cegraph::util {
namespace {

struct TestEntry {
  explicit TestEntry(std::string k) : key(std::move(k)) {}
  TestEntry(std::string k, std::atomic<uint64_t>* created)
      : key(std::move(k)) {
    created->fetch_add(1, std::memory_order_relaxed);
  }
  std::string key;
  std::atomic<uint64_t> hits{0};
  std::atomic<bool> evicted{false};
};

using Table = ClassTable<TestEntry>;

void Hit(Table& table, std::string_view key, uint64_t times) {
  table.FindOrCreate(key)->hits.fetch_add(times);
}

std::vector<std::string> SortedKeys(const Table& table) {
  std::vector<std::string> keys;
  for (const auto& entry : table.Entries()) keys.push_back(entry->key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ClassTableTest, EvictsFewestHitsFirstAndReportsTheVictim) {
  std::vector<std::string> victims;
  Table table(3, [&victims](TestEntry& e) { victims.push_back(e.key); });
  Hit(table, "a", 5);
  Hit(table, "b", 2);
  Hit(table, "c", 3);
  EXPECT_TRUE(victims.empty());

  // "d" is the 4th key: "b" (fewest hits) makes room and is reported.
  const auto d = table.FindOrCreate("d");
  EXPECT_EQ(victims, (std::vector<std::string>{"b"}));
  EXPECT_EQ(table.Find("b"), nullptr);
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.evictions(), 1u);

  // "e" next: "d" (now the fewest at 1 hit) goes — eviction runs before
  // the insert, so a new key is never its own victim.
  d->hits.fetch_add(1);
  Hit(table, "e", 1);
  EXPECT_EQ(victims, (std::vector<std::string>{"b", "d"}));
  EXPECT_EQ(SortedKeys(table), (std::vector<std::string>{"a", "c", "e"}));
  EXPECT_EQ(table.evictions(), 2u);
}

TEST(ClassTableTest, TiesBreakTowardGreatestKey) {
  std::vector<std::string> victims;
  Table table(3, [&victims](TestEntry& e) { victims.push_back(e.key); });
  Hit(table, "x", 1);
  Hit(table, "y", 1);
  Hit(table, "z", 1);
  Hit(table, "w", 1);  // all tied at 1 hit: "z" goes
  EXPECT_EQ(victims, (std::vector<std::string>{"z"}));
  EXPECT_EQ(SortedKeys(table), (std::vector<std::string>{"w", "x", "y"}));
}

TEST(ClassTableTest, FindOrCreateReturnsTheResidentEntry) {
  std::atomic<uint64_t> created{0};
  Table table(2);
  const auto first = table.FindOrCreate("k", &created);
  const auto again = table.FindOrCreate("k", &created);
  EXPECT_EQ(first, again);
  EXPECT_EQ(created.load(), 1u);
  EXPECT_EQ(table.Find("k"), first);
  EXPECT_EQ(table.Find("missing"), nullptr);

  table.Clear();
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.Find("k"), nullptr);
  // An entry handed out before Clear stays usable by its holder.
  first->hits.fetch_add(1);
  EXPECT_EQ(first->hits.load(), 1u);
}

TEST(ClassTableTest, ConcurrentFindOrCreateAtCapacityStaysBounded) {
  constexpr size_t kCapacity = 8;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  constexpr int kKeys = 64;
  uint64_t reported = 0;
  uint64_t double_evictions = 0;
  // Runs under the table's exclusive lock: plain counters suffice.
  Table table(kCapacity, [&](TestEntry& e) {
    ++reported;
    if (e.evicted.exchange(true)) ++double_evictions;
  });
  std::atomic<uint64_t> created{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string((t * 7919 + i) % kKeys);
        table.FindOrCreate(key, &created)
            ->hits.fetch_add(1, std::memory_order_relaxed);
        if (i % 64 == 0) (void)table.Entries();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(table.size(), kCapacity);
  // Every entry ever built is either resident or was reported evicted
  // exactly once.
  EXPECT_GT(table.evictions(), 0u);
  EXPECT_EQ(reported, table.evictions());
  EXPECT_EQ(double_evictions, 0u);
  EXPECT_EQ(created.load(), table.evictions() + table.size());
  for (const auto& entry : table.Entries()) {
    EXPECT_FALSE(entry->evicted.load()) << entry->key;
  }
}

}  // namespace
}  // namespace cegraph::util
