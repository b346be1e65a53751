#include "rsm/delivery_log.h"

#include <gtest/gtest.h>

namespace caesar::rsm {
namespace {

Command cmd(CmdId id, std::initializer_list<Key> keys) {
  Command c;
  c.id = id;
  std::uint64_t i = 0;
  for (Key k : keys) c.ops.push_back(Op{k, ++i, 0});
  c.finalize();
  return c;
}

TEST(DeliveryLogTest, RecordsSequenceAndPerKey) {
  DeliveryLog log;
  log.record(cmd(1, {10}));
  log.record(cmd(2, {11}));
  log.record(cmd(3, {10}));
  EXPECT_EQ(log.sequence(), (std::vector<CmdId>{1, 2, 3}));
  EXPECT_EQ(log.key_sequence(10), (std::vector<CmdId>{1, 3}));
  EXPECT_EQ(log.key_sequence(11), (std::vector<CmdId>{2}));
  EXPECT_TRUE(log.key_sequence(99).empty());
}

TEST(DeliveryLogTest, IdenticalLogsAreConsistent) {
  DeliveryLog a, b;
  for (CmdId id : {1, 2, 3}) {
    a.record(cmd(id, {7}));
    b.record(cmd(id, {7}));
  }
  EXPECT_TRUE(consistent_key_orders(a, b));
}

TEST(DeliveryLogTest, PermutedNonConflictingIsConsistent) {
  // Generalized consensus: nodes may permute commands on different keys.
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(2, {11}));
  b.record(cmd(2, {11}));
  b.record(cmd(1, {10}));
  EXPECT_TRUE(consistent_key_orders(a, b));
  EXPECT_TRUE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, SwappedConflictingIsInconsistent) {
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(2, {10}));
  b.record(cmd(2, {10}));
  b.record(cmd(1, {10}));
  EXPECT_FALSE(consistent_key_orders(a, b));
  EXPECT_FALSE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, PrefixesAreConsistent) {
  // One node being behind (shorter per-key prefix) is fine.
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(2, {10}));
  a.record(cmd(3, {10}));
  b.record(cmd(1, {10}));
  b.record(cmd(2, {10}));
  EXPECT_TRUE(consistent_key_orders(a, b));
  EXPECT_TRUE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, CompositeCommandsIndexEveryKey) {
  DeliveryLog a;
  a.record(cmd(1, {10, 11}));
  EXPECT_EQ(a.key_sequence(10), (std::vector<CmdId>{1}));
  EXPECT_EQ(a.key_sequence(11), (std::vector<CmdId>{1}));
}

TEST(DeliveryLogTest, DivergenceHiddenByGapsStillDetected) {
  // b skipped command 2 entirely but delivered 1 and 3 in the opposite
  // relative order.
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(3, {10}));
  b.record(cmd(3, {10}));
  b.record(cmd(1, {10}));
  EXPECT_FALSE(consistent_key_orders(a, b));
}

TEST(DeliveryLogTest, GapAgainstSwapFallsBackAndIsRejected) {
  // Neither sequence is a prefix of the other, so the prefix fast path
  // declines and the full comparison decides: a skipped 2, b swapped 3 and
  // 4, and the common elements {1, 3, 4} disagree on order.
  DeliveryLog a, b;
  for (CmdId id : {1, 3, 4}) a.record(cmd(id, {10}));
  for (CmdId id : {1, 2, 4, 3}) b.record(cmd(id, {10}));
  EXPECT_FALSE(consistent_key_orders(a, b));
  EXPECT_FALSE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, PrefixWithRepeatedIdInTailFallsBack) {
  // b extends a but re-delivers 1 after 2: the common elements are ordered
  // 1 2 on a and 1 2 1 on b, which the full comparison rejects.
  DeliveryLog a, b;
  for (CmdId id : {1, 2}) a.record(cmd(id, {10}));
  for (CmdId id : {1, 2, 1}) b.record(cmd(id, {10}));
  EXPECT_FALSE(consistent_key_orders(a, b));
  EXPECT_FALSE(consistent_key_orders(b, a));
}

}  // namespace
}  // namespace caesar::rsm
