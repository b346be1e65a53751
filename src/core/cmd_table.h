// Per-command storage for the CAESAR acceptor: the history table and the
// delivered-id flags.
//
// CmdTable keeps one record per live command inline in an open-addressing
// table (linear probing, Fibonacci hashing, backward-shift erase). Ids are
// dense per origin, so the multiplicative hash spreads them evenly and a
// lookup is one probe into one contiguous array, with no per-record heap
// node. An insert may rehash and an erase may shift other records, so a
// reference into the table is only valid until the next insert or erase.
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
#include <utility>
#include <vector>

#include "common/types.h"

namespace caesar::core {

template <typename V>
class CmdTable {
 public:
  /// One table cell; `id == kNoCmd` marks an empty cell.
  struct Slot {
    CmdId id = kNoCmd;
    V value{};
  };

  /// Walks the occupied cells in table order (unspecified, like a hash map).
  class const_iterator {
   public:
    const_iterator(const Slot* pos, const Slot* end) : pos_(pos), end_(end) {
      skip_empty();
    }
    const Slot& operator*() const { return *pos_; }
    const_iterator& operator++() {
      ++pos_;
      skip_empty();
      return *this;
    }
    bool operator==(const const_iterator& o) const { return pos_ == o.pos_; }

   private:
    void skip_empty() {
      while (pos_ != end_ && pos_->id == kNoCmd) ++pos_;
    }
    const Slot* pos_;
    const Slot* end_;
  };

  V* find(CmdId id) {
    const std::size_t i = slot_of(id);
    return i == slots_.size() ? nullptr : &slots_[i].value;
  }
  const V* find(CmdId id) const {
    const std::size_t i = slot_of(id);
    return i == slots_.size() ? nullptr : &slots_[i].value;
  }

  /// The record for `id`, default-constructed if absent. May rehash.
  V& operator[](CmdId id) {
    if ((size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = home(id);
    for (; slots_[i].id != kNoCmd; i = next(i)) {
      if (slots_[i].id == id) return slots_[i].value;
    }
    slots_[i].id = id;
    ++size_;
    return slots_[i].value;
  }

  /// Removes `id`'s record; later records of its probe run shift back into
  /// the gap. Returns false if absent.
  bool erase(CmdId id) {
    std::size_t hole = slot_of(id);
    if (hole == slots_.size()) return false;
    for (std::size_t j = next(hole); slots_[j].id != kNoCmd; j = next(j)) {
      // The record at j may fill the hole unless its home lies cyclically
      // in (hole, j]: moving it before its home would hide it from find.
      const std::size_t h = home(slots_[j].id);
      const bool stays = hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
      if (stays) continue;
      slots_[hole] = std::move(slots_[j]);
      hole = j;
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }

  const_iterator begin() const {
    return {slots_.data(), slots_.data() + slots_.size()};
  }
  const_iterator end() const {
    return {slots_.data() + slots_.size(), slots_.data() + slots_.size()};
  }

 private:
  static constexpr std::size_t kMinSlots = 16;

  std::size_t home(CmdId id) const {
    return static_cast<std::size_t>((id * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  /// Index of `id`'s cell, or slots_.size() when absent.
  std::size_t slot_of(CmdId id) const {
    if (slots_.empty()) return 0;
    for (std::size_t i = home(id);; i = next(i)) {
      if (slots_[i].id == id) return i;
      if (slots_[i].id == kNoCmd) return slots_.size();
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? kMinSlots : old.size() * 2;
    slots_ = std::vector<Slot>(cap);
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    for (Slot& s : old) {
      if (s.id == kNoCmd) continue;
      std::size_t i = home(s.id);
      while (slots_[i].id != kNoCmd) i = next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;  // power-of-two size, at most 3/4 full
  std::size_t size_ = 0;
  unsigned shift_ = 64;      // 64 - log2(slots_.size())
};

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
