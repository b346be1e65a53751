// Unit tests for the shared open-addressing table: edge keys (0 and ~0 are
// valid keys, 0 being the empty-cell marker), agreement with a reference map
// under churn across several rehashes, and value semantics.
#include "common/flat_table.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>
#include <utility>

#include "common/rng.h"

namespace caesar {
namespace {

constexpr std::uint64_t kMaxKey = ~0ull;

/// A key drawn from the shapes the simulator uses: small shared keys
/// (including 0), per-client private keys, and the extremes.
std::uint64_t draw_key(Rng& rng, std::uint64_t spread) {
  switch (rng.uniform_int(8)) {
    case 0:
      return 0;
    case 1:
      return kMaxKey - rng.uniform_int(3);
    case 2:
    case 3: {
      const std::uint64_t client = rng.uniform_int(64);
      return (1ull << 40) + (client << 12) + rng.uniform_int(spread / 64 + 1);
    }
    default:
      return rng.uniform_int(spread);
  }
}

/// Every record once, and exactly the reference's.
template <typename V>
void expect_same(const FlatTable<V>& t,
                 const std::unordered_map<std::uint64_t, V>& ref) {
  ASSERT_EQ(t.size(), ref.size());
  std::set<std::uint64_t> seen;
  for (const auto& [key, v] : t) {
    EXPECT_TRUE(seen.insert(key).second) << "key " << key << " visited twice";
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key;
    EXPECT_EQ(v, it->second);
  }
  EXPECT_EQ(seen.size(), ref.size());
  for (const auto& [key, v] : ref) {
    const V* got = t.find(key);
    ASSERT_NE(got, nullptr) << "key " << key;
    EXPECT_EQ(*got, v);
  }
}

TEST(FlatTableTest, ZeroAndMaxAreOrdinaryKeys) {
  FlatTable<int> t;
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.find(kMaxKey), nullptr);
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.begin(), t.end());

  t[0] = 7;
  t[kMaxKey] = 9;
  t[1] = 1;
  EXPECT_EQ(t.size(), 3u);
  ASSERT_NE(t.find(0), nullptr);
  EXPECT_EQ(*t.find(0), 7);
  EXPECT_EQ(*t.find(kMaxKey), 9);
  t[0] += 1;  // existing record, no insert
  EXPECT_EQ(t.size(), 3u);
  std::unordered_map<std::uint64_t, int> ref{{0, 8}, {kMaxKey, 9}, {1, 1}};
  expect_same(t, ref);

  EXPECT_TRUE(t.erase(0));
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_EQ(t.size(), 2u);
  ref.erase(0);
  expect_same(t, ref);
  EXPECT_EQ(t[0], 0);  // re-created default
  EXPECT_EQ(t.size(), 3u);
}

TEST(FlatTableTest, MatchesReferenceMapUnderChurn) {
  // Growth phases push the table through several rehashes; shrink phases
  // erase most of it again, exercising backward shifts over long probe runs
  // and wrap-around. The table must agree with the reference throughout.
  FlatTable<std::uint64_t> t;
  std::unordered_map<std::uint64_t, std::uint64_t> ref;
  Rng rng(7);
  std::uint64_t step = 0;
  for (int round = 0; round < 4; ++round) {
    const std::uint64_t spread = 4096u << round;
    for (int i = 0; i < 6000; ++i, ++step) {
      const std::uint64_t key = draw_key(rng, spread);
      if (rng.bernoulli(0.8)) {
        t[key] = step;
        ref[key] = step;
      } else {
        EXPECT_EQ(t.erase(key), ref.erase(key) != 0);
      }
      ASSERT_EQ(t.size(), ref.size());
      const std::uint64_t* got = t.find(key);
      auto it = ref.find(key);
      ASSERT_EQ(got != nullptr, it != ref.end()) << "key " << key;
      if (got != nullptr) EXPECT_EQ(*got, it->second);
    }
    expect_same(t, ref);
    for (int i = 0; i < 5000; ++i, ++step) {
      const std::uint64_t key = draw_key(rng, spread);
      EXPECT_EQ(t.erase(key), ref.erase(key) != 0);
      ASSERT_EQ(t.size(), ref.size());
    }
    expect_same(t, ref);
  }
}

TEST(FlatTableTest, CopyIsIndependentAndMoveEmptiesTheSource) {
  FlatTable<int> a;
  for (int k = 0; k < 100; ++k) a[static_cast<std::uint64_t>(k)] = k;
  FlatTable<int> b = a;
  b[0] = -1;
  b.erase(5);
  b[1000] = 1000;
  EXPECT_EQ(*a.find(0), 0);
  ASSERT_NE(a.find(5), nullptr);
  EXPECT_EQ(a.find(1000), nullptr);
  EXPECT_EQ(a.size(), 100u);
  EXPECT_EQ(b.size(), 100u);

  FlatTable<int> c = std::move(a);
  EXPECT_EQ(c.size(), 100u);
  EXPECT_EQ(*c.find(0), 0);
  EXPECT_EQ(a.size(), 0u);  // a moved-from table is empty
  EXPECT_EQ(a.find(0), nullptr);
  EXPECT_EQ(a.begin(), a.end());

  c.clear();
  EXPECT_EQ(c.size(), 0u);
  EXPECT_EQ(c.find(0), nullptr);
  EXPECT_EQ(c.begin(), c.end());
  c[0] = 3;
  EXPECT_EQ(*c.find(0), 3);
}

}  // namespace
}  // namespace caesar
