// Durability facade: WAL + snapshot round trips, group-commit loss windows,
// compaction, and restart-from-disk replay — all driven directly, without a
// cluster, so each on-disk transition is observable in isolation.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "rsm/command.h"
#include "rsm/kvstore.h"
#include "storage/durability.h"

namespace caesar::storage {
namespace {

namespace fs = std::filesystem;

std::string fresh_dir(const std::string& name) {
  const std::string dir = "caesar-test-data/durability/" + name;
  fs::remove_all(dir);
  return dir;
}

rsm::Command make_cmd(std::uint64_t seq, Key key, std::uint64_t value) {
  rsm::Command c;
  c.id = make_cmd_id(/*origin=*/1, seq);
  c.origin = 1;
  c.ops.push_back(rsm::Op{key, make_req_id(1, seq), value});
  c.finalize();
  return c;
}

TEST(DurabilityTest, ReplayRebuildsFlushedState) {
  const std::string dir = fresh_dir("replay");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kAlways;
  cfg.snapshot_every = 0;
  rsm::KvStore model;
  {
    Durability d(dir, cfg);
    d.record_bound(100);
    for (std::uint64_t i = 0; i < 6; ++i) {
      const rsm::Command cmd = make_cmd(i, i % 3, 10 + i);
      d.record_deliver(i, i + 1, cmd);
      model.apply(cmd);
    }
    d.record_accept(6, make_cmd(6, 9, 99));  // accepted, not yet delivered
    d.on_crash();
  }
  Durability d2(dir, cfg);
  const RecoveredState st = d2.replay();
  EXPECT_EQ(st.frontier, 6u);
  EXPECT_EQ(st.bound, 100u);
  EXPECT_EQ(st.delivered_count, 6u);
  EXPECT_FALSE(st.trimmed);
  EXPECT_EQ(st.store.digest(), model.digest());
  ASSERT_EQ(st.accepts.size(), 1u);
  EXPECT_EQ(st.accepts[0].first, 6u);
  EXPECT_EQ(st.accepts[0].second.ops[0].value, 99u);
  EXPECT_EQ(st.log.size(), 6u);
  // The facade's mirror resets to the recovered state too.
  EXPECT_EQ(d2.frontier(), 6u);
  EXPECT_EQ(d2.mirror_store().digest(), model.digest());
}

// The group-commit window: in batched mode, records acked after the last
// flush die with a power loss. Replay comes back to the flushed prefix, not
// the acked tail.
TEST(DurabilityTest, BatchedModeLosesUnflushedTailOnPowerLoss) {
  const std::string dir = fresh_dir("group-commit-window");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kBatched;
  cfg.sync_bytes = 1 << 20;  // no size-trigger; no scheduler = no timer
  cfg.snapshot_every = 0;
  {
    Durability d(dir, cfg);
    for (std::uint64_t i = 0; i < 4; ++i) {
      d.record_deliver(i, i + 1, make_cmd(i, i, i));
    }
    EXPECT_EQ(d.durable_delivered_count(), 0u);
    d.flush();
    EXPECT_EQ(d.durable_delivered_count(), 4u);
    for (std::uint64_t i = 4; i < 7; ++i) {
      d.record_deliver(i, i + 1, make_cmd(i, i, i));
    }
    EXPECT_EQ(d.delivered_count(), 7u);
    // What a replay would recover right now, before the crash.
    EXPECT_EQ(d.durable_delivered_count(), 4u);
    d.on_crash();  // the 3-deliver tail was never flushed
  }
  Durability d2(dir, cfg);
  const RecoveredState st = d2.replay();
  EXPECT_EQ(st.frontier, 4u);
  EXPECT_EQ(st.delivered_count, 4u);
  EXPECT_EQ(st.log.size(), 4u);
  EXPECT_EQ(d2.durable_delivered_count(), 4u);
}

// The index-reuse fence is force-flushed even in sync-mode none: a restarted
// node must never re-originate an index it may have proposed before.
TEST(DurabilityTest, BoundIsDurableEvenInSyncModeNone) {
  const std::string dir = fresh_dir("bound");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kNone;
  cfg.snapshot_every = 0;
  {
    Durability d(dir, cfg);
    d.record_accept(7, make_cmd(7, 1, 1));  // not flushed in kNone
    d.record_bound(320);                    // force-flushed (with the accept)
    d.record_accept(8, make_cmd(8, 2, 2));  // after the flush: lost
    d.on_crash();
  }
  Durability d2(dir, cfg);
  const RecoveredState st = d2.replay();
  EXPECT_EQ(st.bound, 320u);
  ASSERT_EQ(st.accepts.size(), 1u);  // the pre-bound accept rode the flush
  EXPECT_EQ(st.accepts[0].first, 7u);
}

TEST(DurabilityTest, SnapshotCompactsSegmentsAndReplayStartsFromIt) {
  const std::string dir = fresh_dir("snapshot-compact");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kAlways;
  cfg.snapshot_every = 4;
  cfg.snapshot_write_delay_us = 0;  // no scheduler: writes are synchronous
  rsm::KvStore model;
  std::uint64_t compacted_through = 0;
  {
    Durability d(dir, cfg);
    d.set_snapshot_hook(
        [&](std::uint64_t frontier) { compacted_through = frontier; });
    for (std::uint64_t i = 0; i < 10; ++i) {
      const rsm::Command cmd = make_cmd(i, i % 5, 100 + i);
      d.record_deliver(i, i + 1, cmd);
      model.apply(cmd);
    }
    EXPECT_EQ(d.snapshots_written(), 2u);       // at 4 and 8 delivers
    EXPECT_GT(d.segments_truncated(), 0u);      // covered segments deleted
    EXPECT_EQ(compacted_through, 8u);           // hook saw the last snapshot
    EXPECT_EQ(d.wal_segment_count(), 1u);       // only the active segment
    d.on_crash();
  }
  Durability d2(dir, cfg);
  const RecoveredState st = d2.replay();
  EXPECT_EQ(st.frontier, 10u);
  EXPECT_EQ(st.delivered_count, 10u);
  EXPECT_EQ(st.store.digest(), model.digest());
  // The snapshot covers [0, 8); only the WAL suffix is retained as entries.
  EXPECT_EQ(st.log.base_index(), 8u);
  EXPECT_EQ(st.log.size(), 2u);
  EXPECT_FALSE(st.trimmed);
}

// A catch-up snapshot install persists synchronously and marks the state
// trimmed: this node's own disk can no longer reconstruct the prefix.
TEST(DurabilityTest, InstallSnapshotPersistsTrimmedState) {
  const std::string dir = fresh_dir("install");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kBatched;
  cfg.snapshot_every = 0;
  rsm::KvStore donor;
  for (std::uint64_t i = 0; i < 5; ++i) donor.apply(make_cmd(i, i, 7 * i));
  {
    Durability d(dir, cfg);
    d.install_snapshot(donor, /*frontier=*/40, /*prefix_hash=*/0xABCD,
                       /*delivered_count=*/40);
    // Deliberately no flush, no crash hook: install must already be durable.
  }
  Durability d2(dir, cfg);
  const RecoveredState st = d2.replay();
  EXPECT_TRUE(st.trimmed);
  EXPECT_EQ(st.frontier, 40u);
  EXPECT_EQ(st.delivered_count, 40u);
  EXPECT_EQ(st.store.digest(), donor.digest());
  EXPECT_EQ(st.log.base_index(), 40u);
  EXPECT_TRUE(st.log.empty());
}

// A half-written (corrupt) snapshot file must not poison recovery: replay
// falls back to the WAL and never crashes or installs a wrong store.
TEST(DurabilityTest, CorruptSnapshotFallsBackToWal) {
  const std::string dir = fresh_dir("corrupt-snap");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kAlways;
  cfg.snapshot_every = 4;
  cfg.snapshot_write_delay_us = 0;
  {
    Durability d(dir, cfg);
    for (std::uint64_t i = 0; i < 6; ++i) {
      d.record_deliver(i, i + 1, make_cmd(i, i, i));
    }
    ASSERT_EQ(d.snapshots_written(), 1u);
    d.on_crash();
  }
  // Truncate the snapshot mid-payload, as a crash during the write would.
  fs::path snap;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") snap = entry.path();
  }
  ASSERT_FALSE(snap.empty());
  fs::resize_file(snap, fs::file_size(snap) / 2);

  Durability d2(dir, cfg);
  const RecoveredState st = d2.replay();
  // The checkpoint re-logged the frontier into the active segment, so the
  // frontier survives even though the compacted deliveries are gone.
  EXPECT_EQ(st.frontier, 6u);
  EXPECT_FALSE(st.trimmed);
  // Only the post-checkpoint suffix of deliveries is reconstructible.
  EXPECT_EQ(st.log.size(), 2u);
}

// Golden round-trip pinning on-disk format version 1 for snapshots: header
// (magic "CSNP", version, payload len, payload crc32) then the payload
// (frontier, prefix hash, delivered count, trimmed flag, store digest,
// entry count, key/value/version triples). Any layout change must bump
// kStorageFormatVersion and keep this test honest.
TEST(DurabilityTest, SnapshotFileFormatGolden) {
  ASSERT_EQ(kStorageFormatVersion, 1u);
  const std::string dir = fresh_dir("snap-golden");
  StorageConfig cfg;
  cfg.sync_mode = SyncMode::kAlways;
  cfg.snapshot_every = 2;
  cfg.snapshot_write_delay_us = 0;
  rsm::KvStore model;
  {
    Durability d(dir, cfg);
    for (std::uint64_t i = 0; i < 2; ++i) {
      const rsm::Command cmd = make_cmd(i, 5 + i, 1000 + i);
      d.record_deliver(i, i + 1, cmd);
      model.apply(cmd);
    }
    ASSERT_EQ(d.snapshots_written(), 1u);
  }
  fs::path snap;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".snap") snap = entry.path();
  }
  ASSERT_FALSE(snap.empty());
  EXPECT_EQ(snap.filename().string(), "snap-0000000001.snap");

  std::ifstream in(snap, std::ios::binary);
  std::vector<char> bytes{std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()};
  ASSERT_GE(bytes.size(), 16u);
  const unsigned char* b = reinterpret_cast<const unsigned char*>(bytes.data());
  auto u32 = [&](std::size_t off) {
    return static_cast<std::uint32_t>(b[off]) |
           static_cast<std::uint32_t>(b[off + 1]) << 8 |
           static_cast<std::uint32_t>(b[off + 2]) << 16 |
           static_cast<std::uint32_t>(b[off + 3]) << 24;
  };
  auto u64 = [&](std::size_t off) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) {
      v = v << 8 | b[off + static_cast<std::size_t>(i)];
    }
    return v;
  };
  EXPECT_EQ(u32(0), kSnapMagic);
  EXPECT_EQ(u32(0), 0x504E5343u);
  EXPECT_EQ(u32(4), 1u);  // kStorageFormatVersion, literally
  const std::uint32_t len = u32(8);
  ASSERT_EQ(bytes.size(), 16u + len);
  EXPECT_EQ(crc32(reinterpret_cast<const std::byte*>(bytes.data()) + 16, len),
            u32(12));
  // Payload prefix: three fixed u64s and the trimmed flag byte.
  EXPECT_EQ(u64(16), 2u);   // frontier
  EXPECT_EQ(u64(32), 2u);   // delivered count
  EXPECT_EQ(b[40], 0u);     // trimmed = false
  EXPECT_EQ(u64(41), model.digest());
}

}  // namespace
}  // namespace caesar::storage
