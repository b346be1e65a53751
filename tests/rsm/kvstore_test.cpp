#include "rsm/kvstore.h"

#include <gtest/gtest.h>

#include <set>
#include <unordered_map>

#include "common/rng.h"

namespace caesar::rsm {
namespace {

TEST(KvStoreTest, GetMissingReturnsNullopt) {
  KvStore kv;
  EXPECT_FALSE(kv.get(1).has_value());
}

TEST(KvStoreTest, ApplyWritesValue) {
  KvStore kv;
  Command c;
  c.id = make_cmd_id(0, 1);
  c.ops = {Op{10, 1, 99}};
  kv.apply(c);
  const auto e = kv.get(10);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->value, 99u);
  EXPECT_EQ(e->version, 1u);
}

TEST(KvStoreTest, VersionsCountWritesPerKey) {
  KvStore kv;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    Command c;
    c.id = make_cmd_id(0, i);
    c.ops = {Op{7, i, i * 10}};
    kv.apply(c);
  }
  const auto e = kv.get(7);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->version, 5u);
  EXPECT_EQ(e->value, 50u);  // last writer wins
}

TEST(KvStoreTest, CompositeCommandAppliesAllOps) {
  KvStore kv;
  Command c;
  c.id = make_cmd_id(0, 1);
  c.ops = {Op{1, 1, 11}, Op{2, 2, 22}, Op{3, 3, 33}};
  kv.apply(c);
  EXPECT_EQ(kv.get(1)->value, 11u);
  EXPECT_EQ(kv.get(2)->value, 22u);
  EXPECT_EQ(kv.get(3)->value, 33u);
  EXPECT_EQ(kv.applied_commands(), 1u);
  EXPECT_EQ(kv.key_count(), 3u);
}

using RefStore = std::unordered_map<Key, KvStore::Entry>;

/// The digest's definition, computed from the reference independently of
/// the store's table.
std::uint64_t ref_digest(const RefStore& ref) {
  std::uint64_t d = 0;
  for (const auto& [key, e] : ref) {
    constexpr std::uint64_t kPrime = 1099511628211ull;
    std::uint64_t h = 1469598103934665603ull;
    h = (h ^ key) * kPrime;
    h = (h ^ e.value) * kPrime;
    h = (h ^ e.version) * kPrime;
    d += h;
  }
  return d;
}

void expect_matches(const KvStore& kv, const RefStore& ref) {
  ASSERT_EQ(kv.key_count(), ref.size());
  EXPECT_EQ(kv.digest(), ref_digest(ref));
  std::set<Key> seen;
  for (const auto& [key, e] : kv.contents()) {
    EXPECT_TRUE(seen.insert(key).second) << "key " << key << " visited twice";
    auto it = ref.find(key);
    ASSERT_NE(it, ref.end()) << "key " << key;
    EXPECT_EQ(e.value, it->second.value) << "key " << key;
    EXPECT_EQ(e.version, it->second.version) << "key " << key;
  }
  EXPECT_EQ(seen.size(), ref.size());
  for (const auto& [key, e] : ref) {
    const auto got = kv.get(key);
    ASSERT_TRUE(got.has_value()) << "key " << key;
    EXPECT_EQ(got->value, e.value);
    EXPECT_EQ(got->version, e.version);
  }
}

TEST(KvStoreTest, MatchesReferenceMapUnderChurn) {
  // Shared keys (0 included), per-client private keys shaped like the
  // workload's ((1 << 40) + (client << 12) + k) and the top of the key
  // space; enough distinct keys to rehash the table several times.
  Rng rng(11);
  auto draw_key = [&rng]() -> Key {
    switch (rng.uniform_int(6)) {
      case 0:
        return rng.uniform_int(4);  // 0..3
      case 1:
        return ~0ull - rng.uniform_int(2);
      case 2:
      case 3:
        return (1ull << 40) + (rng.uniform_int(32) << 12) +
               rng.uniform_int(256);
      default:
        return rng.uniform_int(4096);
    }
  };
  KvStore kv;
  RefStore ref;
  std::uint64_t applied = 0;
  for (int step = 0; step < 30000; ++step) {
    const std::uint64_t roll = rng.uniform_int(100);
    if (roll < 80) {
      Command c;
      c.id = make_cmd_id(0, static_cast<std::uint64_t>(step) + 1);
      const std::uint64_t ops = 1 + rng.uniform_int(3);
      for (std::uint64_t i = 0; i < ops; ++i) {
        c.ops.push_back(Op{draw_key(), 0, rng.next_u64()});
      }
      c.finalize();
      kv.apply(c);
      for (const Op& op : c.ops) {
        KvStore::Entry& e = ref[op.key];
        e.value = op.value;
        ++e.version;
      }
      ++applied;
    } else if (roll < 99) {
      const Key k = draw_key();
      const std::uint64_t value = rng.next_u64();
      const std::uint64_t version = rng.uniform_int(1000);
      kv.install(k, value, version);
      ref[k] = KvStore::Entry{value, version};
    } else {
      kv.clear();
      ref.clear();
      applied = 0;
    }
    const Key probe = draw_key();
    auto it = ref.find(probe);
    const auto got = kv.get(probe);
    ASSERT_EQ(got.has_value(), it != ref.end()) << "key " << probe;
    if (got.has_value()) EXPECT_EQ(got->value, it->second.value);
    ASSERT_EQ(kv.key_count(), ref.size());
    if (step % 3000 == 0) expect_matches(kv, ref);
  }
  EXPECT_EQ(kv.applied_commands(), applied);
  expect_matches(kv, ref);
}

TEST(KvStoreTest, CopyIsIndependent) {
  KvStore a;
  for (Key k = 0; k < 200; ++k) a.install(k, k * 10, 1);
  KvStore b = a;
  EXPECT_EQ(b.digest(), a.digest());
  Command c;
  c.id = make_cmd_id(0, 1);
  c.ops = {Op{0, 1, 5}, Op{500, 2, 6}};
  b.apply(c);
  EXPECT_EQ(a.get(0)->value, 0u);
  EXPECT_EQ(a.get(0)->version, 1u);
  EXPECT_FALSE(a.get(500).has_value());
  EXPECT_EQ(a.key_count(), 200u);
  EXPECT_EQ(b.key_count(), 201u);
  EXPECT_EQ(b.get(0)->version, 2u);
  EXPECT_NE(b.digest(), a.digest());
  a = b;  // assignment replaces, as a snapshot install does
  EXPECT_EQ(a.digest(), b.digest());
  b.clear();
  EXPECT_EQ(b.key_count(), 0u);
  EXPECT_EQ(a.key_count(), 201u);
}

}  // namespace
}  // namespace caesar::rsm
