// Per-command storage for the CAESAR acceptor: the history table and the
// delivered-id flags.
//
// CmdTable keeps one record per live command inline in the shared
// open-addressing table (common/flat_table.h). Ids are dense per origin, so
// its multiplicative hash spreads them evenly. An insert may rehash and an
// erase may shift other records, so a reference into the table is only
// valid until the next insert or erase.
//
// DeliveredIds remembers every id ever delivered, long after its record is
// pruned, so it must stay small per id. Ids are minted densely per origin
// (common/types.h), so a delivered flag is one bit in a per-origin column:
// plain ids index it by sequence number, batch composites index a second
// column by batch sequence. A hole (an id absorbed into a batch, or lost in
// a crash) costs one bit. An id far past its column's end, or of a shape
// no column indexes, goes to a small overflow set instead, so the columns
// never allocate in proportion to an id's value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"

namespace caesar::core {

/// CAESAR's history: one record per live command, keyed by its id.
template <typename V>
using CmdTable = FlatTable<V>;

class DeliveredIds {
 public:
  bool contains(CmdId id) const {
    const Spot s = locate(id);
    const Column* col = column(id, s);
    if (col != nullptr && s.bit < col->size() && (*col)[s.bit]) return true;
    // An overflow id keeps living there even once its column grows past it.
    return !overflow_.empty() && overflow_.count(id) != 0;
  }

  /// Flags `id` delivered; returns false if it already was.
  bool insert(CmdId id) {
    if (contains(id)) return false;
    const Spot s = locate(id);
    const NodeId o = cmd_origin(id);
    if (s.dense && o < kMaxOrigins && o >= origins_.size()) {
      origins_.resize(o + 1);
    }
    Column* col = column(id, s);
    if (col != nullptr && s.bit >= col->size() &&
        s.bit - col->size() < kMaxGrowthBits) {
      col->resize(s.bit + 1);
    }
    if (col != nullptr && s.bit < col->size()) {
      (*col)[s.bit] = true;
    } else {
      overflow_.insert(id);
    }
    ++size_;
    return true;
  }

  /// Number of ids flagged so far.
  std::size_t size() const { return size_; }
  /// Ids held outside the columns (tests).
  std::size_t overflow_size() const { return overflow_.size(); }

 private:
  /// Origins past this go to the overflow set (clusters are far smaller).
  static constexpr NodeId kMaxOrigins = 1024;
  /// Most bits one insert may append to a column; farther ids overflow.
  static constexpr std::uint64_t kMaxGrowthBits = 1ull << 20;

  using Column = std::vector<bool>;
  struct Columns {
    Column plain;  // by cmd_seq
    Column batch;  // by batch sequence
  };
  /// Where an id's flag lives: which column of its origin, and which bit.
  /// Batch member ids (and anything else carrying the batch bit that is not
  /// a composite) have no column.
  struct Spot {
    bool dense = false;
    bool batch = false;
    std::uint64_t bit = 0;
  };

  static Spot locate(CmdId id) {
    const std::uint64_t seq = cmd_seq(id);
    if ((seq & kBatchSeqBit) == 0) return {true, false, seq};
    if (is_batch_cmd_id(id)) {
      return {true, true, (seq & ~kBatchSeqBit) >> kBatchMemberBits};
    }
    return {};
  }

  Column* column(CmdId id, const Spot& s) {
    if (!s.dense || cmd_origin(id) >= origins_.size()) return nullptr;
    Columns& c = origins_[cmd_origin(id)];
    return s.batch ? &c.batch : &c.plain;
  }
  const Column* column(CmdId id, const Spot& s) const {
    return const_cast<DeliveredIds*>(this)->column(id, s);
  }

  std::vector<Columns> origins_;
  std::unordered_set<CmdId> overflow_;
  std::size_t size_ = 0;
};

}  // namespace caesar::core
