// Records the order in which a node delivered (decided) commands.
//
// A full per-node history, for protocol unit tests and instrumented drivers
// that check the Generalized Consensus consistency property themselves:
// for every key, all nodes must deliver the commands touching that key in
// the same relative order (non-conflicting commands may be permuted). Run
// drivers check it online instead (harness/order_checker.h), and the
// oracle replays these logs through that checker when a report carries
// them.
#pragma once

#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "rsm/command.h"

namespace caesar::rsm {

class DeliveryLog {
 public:
  void record(const Command& cmd) {
    sequence_.push_back(cmd.id);
    for (const Op& op : cmd.ops) per_key_[op.key].push_back(cmd.id);
  }

  /// Drops every record after the first `n` deliveries. Models a restart
  /// from disk: the node's observable history shrinks back to the durable
  /// prefix, and re-deliveries after replay re-record from there.
  void truncate(std::size_t n) {
    if (n >= sequence_.size()) return;
    std::unordered_set<CmdId> dropped(sequence_.begin() +
                                          static_cast<std::ptrdiff_t>(n),
                                      sequence_.end());
    sequence_.resize(n);
    for (auto it = per_key_.begin(); it != per_key_.end();) {
      auto& v = it->second;
      while (!v.empty() && dropped.count(v.back()) != 0) v.pop_back();
      it = v.empty() ? per_key_.erase(it) : std::next(it);
    }
  }

  /// Clears the log and marks it trimmed: this node installed a store
  /// snapshot, so its recorded history starts mid-stream. The consistency
  /// oracle switches from prefix to suffix semantics for trimmed logs.
  void reset_trimmed() {
    sequence_.clear();
    per_key_.clear();
    trimmed_ = true;
  }

  bool trimmed() const { return trimmed_; }

  /// Full delivery order on this node.
  const std::vector<CmdId>& sequence() const { return sequence_; }

  /// Delivery order restricted to commands touching `k`.
  const std::vector<CmdId>& key_sequence(Key k) const {
    static const std::vector<CmdId> kEmpty;
    auto it = per_key_.find(k);
    return it == per_key_.end() ? kEmpty : it->second;
  }

  const std::unordered_map<Key, std::vector<CmdId>>& per_key() const {
    return per_key_;
  }

  std::size_t size() const { return sequence_.size(); }

 private:
  std::vector<CmdId> sequence_;
  std::unordered_map<Key, std::vector<CmdId>> per_key_;
  bool trimmed_ = false;
};

/// Returns true if `a` is order-consistent with `b` for every key: the common
/// elements of the two per-key sequences appear in the same relative order.
/// (Nodes may have delivered different prefixes when a run is cut off.)
bool consistent_key_orders(const DeliveryLog& a, const DeliveryLog& b);

}  // namespace caesar::rsm
