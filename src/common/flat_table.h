// FlatTable: the open-addressing hash table behind the simulator's hot
// per-id and per-key maps (CAESAR's command history, the replica key-value
// store, the order checker's key index).
//
// Records are stored inline in one power-of-two array kept at most 3/4 full:
// linear probing, Fibonacci hashing, backward-shift erase (no tombstones).
// Keys here are dense ids or small integers, so the multiplicative hash
// spreads them evenly and a lookup is one probe run in one contiguous array,
// with no per-record heap node.
//
// Key 0 marks an empty cell of the probed array. A record whose key is 0
// lives in one extra cell past the probed array instead, so every uint64_t
// is a valid key.
//
// Iteration order is unspecified (table order, changed by a rehash). An
// insert may rehash and an erase may shift other records, so a pointer or
// reference into the table is only valid until the next insert or erase.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace caesar {

template <typename V>
class FlatTable {
 public:
  /// One table cell: a key and its record.
  struct Slot {
    std::uint64_t key = 0;
    V value{};
  };

  /// Walks the records in table order, the key-0 record last.
  class const_iterator {
   public:
    const_iterator(const Slot* pos, const Slot* end, const Slot* zero)
        : pos_(pos), end_(end), zero_(zero) {
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
      while (pos_ != end_ && pos_->key == kEmpty && pos_ != zero_) ++pos_;
    }
    const Slot* pos_;
    const Slot* end_;
    const Slot* zero_;  // the key-0 cell when it holds a record
  };

  FlatTable() = default;
  FlatTable(const FlatTable&) = default;
  FlatTable& operator=(const FlatTable&) = default;
  FlatTable(FlatTable&& o) noexcept { swap(o); }
  FlatTable& operator=(FlatTable&& o) noexcept {
    FlatTable(std::move(o)).swap(*this);
    return *this;
  }

  V* find(std::uint64_t key) {
    const std::size_t i = index_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }
  const V* find(std::uint64_t key) const {
    const std::size_t i = index_of(key);
    return i == kAbsent ? nullptr : &slots_[i].value;
  }

  /// The record for `key`, default-constructed if absent. May rehash.
  V& operator[](std::uint64_t key) {
    if ((size_ + 1) * 4 > capacity() * 3) grow();
    if (key == kEmpty) {
      if (!has_zero_) {
        has_zero_ = true;
        ++size_;
      }
      return slots_[capacity()].value;
    }
    std::size_t i = home(key);
    for (; slots_[i].key != kEmpty; i = next(i)) {
      if (slots_[i].key == key) return slots_[i].value;
    }
    slots_[i].key = key;
    ++size_;
    return slots_[i].value;
  }

  /// Removes `key`'s record; later records of its probe run shift back into
  /// the gap. Returns false if absent.
  bool erase(std::uint64_t key) {
    std::size_t hole = index_of(key);
    if (hole == kAbsent) return false;
    if (key == kEmpty) {
      has_zero_ = false;
    } else {
      for (std::size_t j = next(hole); slots_[j].key != kEmpty; j = next(j)) {
        // The record at j may fill the hole unless its home lies cyclically
        // in (hole, j]: moving it before its home would hide it from find.
        const std::size_t h = home(slots_[j].key);
        const bool stays =
            hole < j ? (hole < h && h <= j) : (hole < h || h <= j);
        if (stays) continue;
        slots_[hole] = std::move(slots_[j]);
        hole = j;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  /// Drops every record and releases the array.
  void clear() { FlatTable().swap(*this); }

  std::size_t size() const { return size_; }

  const_iterator begin() const {
    const Slot* end = slots_.data() + slots_.size();
    return {slots_.data(), end,
            has_zero_ ? slots_.data() + capacity() : nullptr};
  }
  const_iterator end() const {
    const Slot* end = slots_.data() + slots_.size();
    return {end, end, nullptr};
  }

 private:
  static constexpr std::uint64_t kEmpty = 0;
  static constexpr std::size_t kMinSlots = 16;
  static constexpr std::size_t kAbsent = ~std::size_t{0};

  void swap(FlatTable& o) noexcept {
    slots_.swap(o.slots_);
    std::swap(size_, o.size_);
    std::swap(mask_, o.mask_);
    std::swap(shift_, o.shift_);
    std::swap(has_zero_, o.has_zero_);
  }

  /// Cells in the probed array (slots_ holds one more: the key-0 cell).
  std::size_t capacity() const { return slots_.empty() ? 0 : mask_ + 1; }
  std::size_t home(std::uint64_t key) const {
    return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask_; }

  /// Index of `key`'s cell, or kAbsent.
  std::size_t index_of(std::uint64_t key) const {
    if (key == kEmpty) return has_zero_ ? capacity() : kAbsent;
    if (slots_.empty()) return kAbsent;
    for (std::size_t i = home(key);; i = next(i)) {
      if (slots_[i].key == key) return i;
      if (slots_[i].key == kEmpty) return kAbsent;
    }
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t old_cap = old.empty() ? 0 : old.size() - 1;
    const std::size_t cap = old_cap == 0 ? kMinSlots : old_cap * 2;
    slots_ = std::vector<Slot>(cap + 1);
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    if (has_zero_) slots_[cap] = std::move(old[old_cap]);
    for (std::size_t k = 0; k < old_cap; ++k) {
      Slot& s = old[k];
      if (s.key == kEmpty) continue;
      std::size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = next(i);
      slots_[i] = std::move(s);
    }
  }

  std::vector<Slot> slots_;  // power-of-two probed array, then the key-0 cell
  std::size_t size_ = 0;
  std::size_t mask_ = 0;     // capacity() - 1
  unsigned shift_ = 64;      // 64 - log2(capacity())
  bool has_zero_ = false;
};

}  // namespace caesar
