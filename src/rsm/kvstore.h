// Versioned in-memory key-value store: the replicated state machine the
// consensus protocols feed. apply() is the DECIDE(c) end of the Generalized
// Consensus interface.
//
// Entries live inline in an open-addressing table (common/flat_table.h):
// every replica, every harness mirror and every durable mirror applies each
// delivered command, so the per-op probe is one of the simulator's hottest
// paths. Iteration order (contents(), and so the entry order of snapshot
// payloads) is unspecified; digest() does not depend on it.
#pragma once

#include <cstdint>
#include <optional>

#include "common/flat_table.h"
#include "rsm/command.h"

namespace caesar::rsm {

class KvStore {
 public:
  struct Entry {
    std::uint64_t value = 0;
    std::uint64_t version = 0;  // number of writes applied to this key
  };
  using Table = FlatTable<Entry>;

  /// Applies every op of `cmd` (last-writer-wins per op order).
  void apply(const Command& cmd) {
    for (const Op& op : cmd.ops) {
      Entry& e = map_[op.key];
      e.value = op.value;
      ++e.version;
    }
    ++applied_commands_;
  }

  /// Writes one entry verbatim (value and version), bypassing apply()'s
  /// version bump. Snapshot installation: rebuilds a store from serialized
  /// (key, value, version) triples so the digest matches the source store.
  void install(Key k, std::uint64_t value, std::uint64_t version) {
    map_[k] = Entry{value, version};
  }

  /// Resets to an empty store; pair with install() + set_applied_commands()
  /// when replacing contents wholesale from a snapshot.
  void clear() {
    map_.clear();
    applied_commands_ = 0;
  }

  void set_applied_commands(std::uint64_t n) { applied_commands_ = n; }

  std::optional<Entry> get(Key k) const {
    const Entry* e = map_.find(k);
    if (e == nullptr) return std::nullopt;
    return *e;
  }

  std::uint64_t applied_commands() const { return applied_commands_; }
  std::size_t key_count() const { return map_.size(); }

  /// Order-independent digest of the full (key -> value, version) contents:
  /// two stores digest equal iff they hold the same entries, regardless of
  /// the order the keys were first written. Used by the consistency oracle;
  /// a snapshot-compaction scheme (ROADMAP) would also carry it on the wire
  /// as the integrity check of a transferred store snapshot.
  std::uint64_t digest() const {
    std::uint64_t d = 0;
    for (const auto& [key, e] : map_) {
      // FNV-1a per entry, combined by addition so iteration order (which
      // differs across tables with different insertion histories) cannot
      // matter.
      constexpr std::uint64_t kPrime = 1099511628211ull;
      std::uint64_t h = 1469598103934665603ull;
      h = (h ^ key) * kPrime;
      h = (h ^ e.value) * kPrime;
      h = (h ^ e.version) * kPrime;
      d += h;
    }
    return d;
  }

  /// Every (key, entry) pair once, in unspecified order.
  const Table& contents() const { return map_; }

 private:
  Table map_;
  std::uint64_t applied_commands_ = 0;
};

}  // namespace caesar::rsm
