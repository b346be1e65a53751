// Per-node durability facade: the bridge between a consensus protocol's
// accept/commit paths and the WAL + snapshot files on disk.
//
// The protocols stay storage-agnostic: they call record_accept /
// record_deliver / record_bound at the natural points of their hot paths
// (no-ops when the node runs without a data dir), and Durability turns those
// into framed WAL records, group-commits them per the configured SyncMode,
// and maintains an in-memory mirror (store + delivery frontier + rolling
// prefix hash) from which it cuts versioned snapshot files.
//
// Snapshot + compaction flow (checkpoint style):
//   1. every `snapshot_every` delivers, roll the WAL to a fresh segment and
//      re-log the live state (undelivered accepts, the index bound) into it,
//      so snapshot + active segment alone reconstruct the node;
//   2. write the snapshot file asynchronously off a copy of the mirror
//      (modeled as a deferred timer), with KvStore::digest() as integrity
//      check;
//   3. once the snapshot is durable, delete the closed segments it covers
//      and tell the protocol to compact its in-memory CommandLog.
//
// Restart: replay() reads the newest valid snapshot, replays the WAL suffix
// on top of it, and returns a RecoveredState the protocol's on_restore()
// rebuilds itself from; the PR-5 catch-up path then fetches anything newer
// from live peers.
//
// WAL record schema (payload type byte, then an Encoder body):
//   kDeliver  varint index, varint frontier_after, Command
//   kAccept   varint index, Command
//   kFrontier varint frontier          (skip-advance with no delivery)
//   kBound    varint bound             (index-reuse fence, force-flushed)
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "rsm/kvstore.h"
#include "rsm/log_snapshot.h"
#include "stats/protocol_stats.h"
#include "storage/wal.h"

namespace caesar::storage {

/// Everything replay() can rebuild from disk; consumed by
/// Protocol::on_restore.
struct RecoveredState {
  rsm::KvStore store;
  /// Delivered commands by order index, base set when a snapshot compacted
  /// the prefix away.
  rsm::CommandLog log;
  /// Delivery frontier at the last durable point (protocol-specific index
  /// semantics: next slot / next log index / packed stamp + 1).
  std::uint64_t frontier = 0;
  /// Index-reuse fence: the node had promised never to originate a proposal
  /// below this index (see record_bound).
  std::uint64_t bound = 0;
  /// Accepted-but-undelivered entries, in index order.
  std::vector<std::pair<std::uint64_t, rsm::Command>> accepts;
  /// Total commands this node had durably delivered (the harness rewinds
  /// its view of the node's history back to this count on restart).
  std::uint64_t delivered_count = 0;
  /// True when the state derives from an installed snapshot whose history
  /// predates this node's WAL: the delivery-log mirror cannot replay the
  /// full history and must switch to trimmed (suffix) semantics.
  bool trimmed = false;
};

class Durability {
 public:
  /// Schedules `fn` after `delay` simulated microseconds; provided by the
  /// owning node (epoch-fenced, so a crash voids outstanding flush timers).
  using Scheduler = std::function<void(Time delay, std::function<void()>)>;
  /// Notifies the protocol that a snapshot at `frontier` became durable and
  /// its CommandLog prefix below it can be compacted.
  using SnapshotHook = std::function<void(std::uint64_t frontier)>;

  Durability(std::string node_dir, StorageConfig cfg);
  ~Durability();

  Durability(const Durability&) = delete;
  Durability& operator=(const Durability&) = delete;

  // --- wiring (set by the node / the protocol instance) --------------------
  void set_scheduler(Scheduler s) { schedule_ = std::move(s); }
  void set_stats(stats::ProtocolStats* s) { stats_ = s; }
  void set_cpu_charge(std::function<void(Time)> f) { charge_ = std::move(f); }
  void set_snapshot_hook(SnapshotHook h) { on_snapshot_ = std::move(h); }

  // --- hot path ------------------------------------------------------------
  void record_accept(std::uint64_t index, const rsm::Command& cmd);
  void record_deliver(std::uint64_t index, std::uint64_t frontier_after,
                      const rsm::Command& cmd);
  void record_frontier(std::uint64_t frontier);
  /// Durable index-reuse fence; always force-flushed regardless of sync
  /// mode — a node must never re-originate an index it may already have
  /// proposed before a crash.
  void record_bound(std::uint64_t bound);

  /// Group-commit point: makes everything buffered durable now.
  void flush();

  /// Crash / power loss: drops buffered WAL records and any snapshot write
  /// still in flight. Disk state stays as of the last flush.
  void on_crash();

  // --- restart -------------------------------------------------------------
  /// Rebuilds state from disk (newest valid snapshot + WAL suffix) and
  /// resets the in-memory mirror to match. Call before on_restore().
  RecoveredState replay();

  /// Installs a store snapshot received through catch-up (the node was
  /// behind a peer's compaction horizon): replaces the mirror, rolls the
  /// WAL, persists the snapshot durably, and truncates covered segments.
  void install_snapshot(const rsm::KvStore& store, std::uint64_t frontier,
                        std::uint64_t prefix_hash,
                        std::uint64_t delivered_count);

  // --- introspection -------------------------------------------------------
  const rsm::KvStore& mirror_store() const { return mirror_; }
  std::uint64_t frontier() const { return frontier_; }
  std::uint64_t delivered_count() const { return delivered_count_; }
  /// Deliveries already on disk: the delivered_count a replay() right now
  /// would recover (buffered WAL records do not survive a crash).
  std::uint64_t durable_delivered_count() const {
    return wal_.pending_bytes() == 0 ? delivered_count_ : synced_delivered_;
  }
  std::uint64_t prefix_hash() const { return hash_; }
  std::size_t wal_segment_count() const { return wal_.segment_files().size(); }
  std::uint64_t segments_truncated() const { return segments_truncated_; }
  std::uint64_t snapshots_written() const { return snapshots_written_; }
  const StorageConfig& config() const { return cfg_; }

  // WAL record types (on-disk; part of the pinned format).
  static constexpr std::uint8_t kDeliver = 1;
  static constexpr std::uint8_t kAccept = 2;
  static constexpr std::uint8_t kFrontier = 3;
  static constexpr std::uint8_t kBound = 4;

 private:
  void appended(std::size_t bytes);
  void flush_now(bool charge_cpu);
  void arm_flush_timer();
  void maybe_snapshot();
  /// Rolls the WAL and re-logs live state into the fresh segment so
  /// snapshot + active segment reconstruct the node alone.
  void checkpoint_wal();
  void write_snapshot_file(const rsm::KvStore& store, std::uint64_t frontier,
                           std::uint64_t hash, std::uint64_t delivered_count,
                           bool trimmed);
  void finish_snapshot(std::uint64_t frontier);

  std::string dir_;
  StorageConfig cfg_;
  Wal wal_;
  Scheduler schedule_;
  stats::ProtocolStats* stats_ = nullptr;
  std::function<void(Time)> charge_;
  SnapshotHook on_snapshot_;

  // In-memory mirror of the durable state, the snapshot source.
  rsm::KvStore mirror_;
  std::uint64_t frontier_ = 0;
  std::uint64_t hash_;  // rolling prefix hash over delivered (index, id)
  std::uint64_t bound_ = 0;
  std::uint64_t delivered_count_ = 0;
  /// delivered_count_ as of the last time the WAL buffer was written out.
  std::uint64_t synced_delivered_ = 0;
  bool trimmed_ = false;
  /// Accepted-but-undelivered entries, re-logged at checkpoints.
  std::map<std::uint64_t, rsm::Command> accepts_;

  bool flush_timer_armed_ = false;
  std::uint64_t delivers_since_snapshot_ = 0;
  /// Generation fence for the deferred snapshot write; bumped by on_crash.
  std::uint64_t snapshot_gen_ = 0;
  std::uint64_t snapshot_seq_ = 0;  // next snapshot file sequence number
  std::uint64_t segments_truncated_ = 0;
  std::uint64_t snapshots_written_ = 0;
};

}  // namespace caesar::storage
