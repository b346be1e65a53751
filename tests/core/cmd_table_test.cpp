// Unit tests for CAESAR's per-command storage: the open-addressing record
// table and the per-origin delivered flags.
#include "core/cmd_table.h"

#include <gtest/gtest.h>

#include <unordered_map>

#include "common/rng.h"

namespace caesar::core {
namespace {

TEST(CaesarCmdTableTest, InsertFindErase) {
  CmdTable<int> t;
  EXPECT_EQ(t.find(make_cmd_id(0, 1)), nullptr);
  EXPECT_FALSE(t.erase(make_cmd_id(0, 1)));
  t[make_cmd_id(0, 1)] = 10;
  t[make_cmd_id(1, 1)] = 11;
  EXPECT_EQ(t.size(), 2u);
  ASSERT_NE(t.find(make_cmd_id(0, 1)), nullptr);
  EXPECT_EQ(*t.find(make_cmd_id(0, 1)), 10);
  EXPECT_EQ(t[make_cmd_id(1, 1)], 11);  // existing record, no insert
  EXPECT_EQ(t.size(), 2u);
  EXPECT_TRUE(t.erase(make_cmd_id(0, 1)));
  EXPECT_EQ(t.find(make_cmd_id(0, 1)), nullptr);
  EXPECT_EQ(t[make_cmd_id(0, 1)], 0);  // re-created default
  EXPECT_EQ(t.size(), 2u);
}

TEST(CaesarCmdTableTest, MatchesReferenceMapUnderChurn) {
  // Random inserts and erases over a small, dense id space force long probe
  // runs, wrap-around and backward shifts; the table must agree with a
  // reference map after every step.
  CmdTable<std::uint64_t> t;
  std::unordered_map<CmdId, std::uint64_t> ref;
  Rng rng(42);
  for (int step = 0; step < 20000; ++step) {
    const CmdId id = make_cmd_id(static_cast<NodeId>(rng.uniform_int(3)),
                                 1 + rng.uniform_int(300));
    if (rng.bernoulli(0.55)) {
      t[id] = static_cast<std::uint64_t>(step);
      ref[id] = static_cast<std::uint64_t>(step);
    } else {
      EXPECT_EQ(t.erase(id), ref.erase(id) != 0);
    }
    ASSERT_EQ(t.size(), ref.size());
  }
  std::size_t walked = 0;
  for (const auto& [id, v] : t) {
    ++walked;
    auto it = ref.find(id);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(v, it->second);
  }
  EXPECT_EQ(walked, ref.size());
  for (const auto& [id, v] : ref) {
    ASSERT_NE(t.find(id), nullptr);
    EXPECT_EQ(*t.find(id), v);
  }
}

TEST(CaesarDeliveredIdsTest, PlainIdsAndHoles) {
  DeliveredIds d;
  EXPECT_TRUE(d.insert(make_cmd_id(2, 1)));
  EXPECT_TRUE(d.insert(make_cmd_id(2, 3)));
  EXPECT_FALSE(d.insert(make_cmd_id(2, 3)));
  EXPECT_TRUE(d.contains(make_cmd_id(2, 1)));
  EXPECT_FALSE(d.contains(make_cmd_id(2, 2)));  // hole
  EXPECT_TRUE(d.contains(make_cmd_id(2, 3)));
  EXPECT_FALSE(d.contains(make_cmd_id(2, 4)));  // past the column's end
  EXPECT_FALSE(d.contains(make_cmd_id(1, 1)));  // same seq, other origin
  EXPECT_TRUE(d.insert(make_cmd_id(2, 2)));     // hole filled late
  EXPECT_TRUE(d.contains(make_cmd_id(2, 2)));
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.overflow_size(), 0u);
}

TEST(CaesarDeliveredIdsTest, BatchCompositesHaveTheirOwnColumn) {
  DeliveredIds d;
  const CmdId b1 = make_batch_cmd_id(1, 1);
  const CmdId b2 = make_batch_cmd_id(1, 2);
  EXPECT_TRUE(d.insert(b2));
  EXPECT_TRUE(d.contains(b2));
  EXPECT_FALSE(d.contains(b1));
  // A batch and a plain id with the same sequence number are distinct.
  EXPECT_FALSE(d.contains(make_cmd_id(1, 2)));
  EXPECT_TRUE(d.insert(make_cmd_id(1, 2)));
  EXPECT_TRUE(d.insert(b1));
  EXPECT_FALSE(d.insert(b1));
  // Member ids carry the batch bit but are not composites: they are kept
  // apart from the composite's flag.
  const CmdId member = batch_member_cmd_id(b1, 0);
  EXPECT_FALSE(d.contains(member));
  EXPECT_TRUE(d.insert(member));
  EXPECT_TRUE(d.contains(member));
  EXPECT_EQ(d.size(), 4u);
  EXPECT_EQ(d.overflow_size(), 1u);
}

TEST(CaesarDeliveredIdsTest, SparseIdFarPastColumnEndOverflows) {
  DeliveredIds d;
  EXPECT_TRUE(d.insert(make_cmd_id(0, 1)));
  const CmdId far = make_cmd_id(0, 1ull << 40);
  EXPECT_TRUE(d.insert(far));
  EXPECT_FALSE(d.insert(far));
  EXPECT_EQ(d.overflow_size(), 1u);
  EXPECT_TRUE(d.contains(far));
  EXPECT_FALSE(d.contains(far - 1));
  EXPECT_FALSE(d.contains(far + 1));
  // Dense ids near the column keep using it.
  EXPECT_TRUE(d.insert(make_cmd_id(0, 2)));
  EXPECT_TRUE(d.contains(make_cmd_id(0, 2)));
  EXPECT_EQ(d.overflow_size(), 1u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(CaesarDeliveredIdsTest, OverflowIdStaysVisibleWhenColumnGrowsPast) {
  // An id parked in the overflow set must stay visible, and must not be
  // flagged or counted twice, once the column grows over it.
  DeliveredIds d;
  const CmdId ahead = make_cmd_id(0, (1ull << 20) + 10);
  EXPECT_TRUE(d.insert(ahead));
  EXPECT_EQ(d.overflow_size(), 1u);
  EXPECT_TRUE(d.insert(make_cmd_id(0, (1ull << 20) - 1)));  // within reach
  EXPECT_TRUE(d.insert(make_cmd_id(0, (1ull << 20) + 20)));  // grows past
  EXPECT_TRUE(d.contains(ahead));
  EXPECT_FALSE(d.insert(ahead));
  EXPECT_FALSE(d.contains(ahead - 1));
  EXPECT_EQ(d.size(), 3u);
}

TEST(CaesarDeliveredIdsTest, OriginNotSeenBefore) {
  DeliveredIds d;
  EXPECT_FALSE(d.contains(make_cmd_id(6, 1)));
  EXPECT_TRUE(d.insert(make_cmd_id(0, 1)));
  EXPECT_FALSE(d.contains(make_cmd_id(6, 1)));
  EXPECT_TRUE(d.insert(make_cmd_id(6, 1)));
  EXPECT_TRUE(d.contains(make_cmd_id(6, 1)));
  EXPECT_TRUE(d.contains(make_cmd_id(0, 1)));
  // An origin beyond any cluster size still works, through the overflow.
  const CmdId odd = make_cmd_id(60000, 1);
  EXPECT_FALSE(d.contains(odd));
  EXPECT_TRUE(d.insert(odd));
  EXPECT_TRUE(d.contains(odd));
  EXPECT_EQ(d.overflow_size(), 1u);
  EXPECT_EQ(d.size(), 3u);
}

}  // namespace
}  // namespace caesar::core
