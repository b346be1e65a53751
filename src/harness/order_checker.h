// OrderChecker: the online Generalized Consensus checker.
//
// The property every protocol here must keep is per-key order: for every
// key, all replicas deliver the commands touching it in one order. Instead
// of mirroring each replica's full delivery history and comparing the
// mirrors pairwise after the run, the checker keeps, per key, one
// cluster-wide canonical sequence and one cursor per node. Each delivery is
// compared against the canonical entry at that node's cursor (or appended,
// when the node is the first to reach that position), so a divergence is
// caught the moment it happens, with its sim time, node, key, position and
// both command ids. A canonical entry is released once every node's cursor
// has durably passed it, which bounds memory by how far the slowest node
// trails the fastest instead of by the run length.
//
// The whole delivery sequence is tracked the same way, as one more
// sequence, so total-order protocols can also be held to identical
// sequences (ConsistencyOptions::require_equal_sequences).
//
// Durability events keep the cursors honest:
//   * restart-from-disk rewinds a node's cursors to its durable prefix (a
//     per-node journal of the deliveries not yet on disk makes this exact);
//     canonical entries no node's history reaches any more are dropped, as
//     are violations the rewound node's lost deliveries had caused;
//   * a store-snapshot install rebases the node: its history now starts
//     mid-stream, so on each key its first delivery anchors its cursor to
//     that command's canonical position (suffix semantics), and at the end
//     of the run it must have reached the same position as every live node
//     with a full history, on every key it delivered since.
//
// Run drivers feed the checker from the delivery funnel; offline callers
// holding full per-node logs (hand-built reports, instrumented drivers)
// replay them through replay(), so both paths share one algorithm.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/flat_table.h"
#include "common/types.h"
#include "rsm/command.h"
#include "rsm/delivery_log.h"

namespace caesar::harness {

struct ConsistencyVerdict {
  bool ok = true;
  /// First violation found, human-readable (names the nodes and key).
  std::string detail;
  explicit operator bool() const { return ok; }
};

/// A delivery that disagreed with the cluster's order.
struct OrderViolation {
  /// Sim time of the offending delivery (0 for offline replays).
  Time at = 0;
  NodeId node = 0;
  Key key = 0;
  /// Per-key position, counted from the key's first delivery in the run.
  std::uint64_t position = 0;
  /// The canonical entry at that position, and what `node` delivered there.
  CmdId expected = kNoCmd;
  CmdId got = kNoCmd;

  std::string describe() const;
};

class OrderChecker {
 public:
  /// `durable`: nodes may restart from disk, so each node keeps a journal of
  /// its deliveries back to its durable prefix (see end_instance).
  OrderChecker(std::size_t nodes, bool durable);

  // --- online feed -----------------------------------------------------------

  /// One client command delivered by `node` at sim time `now` (batch
  /// composites arrive unbundled).
  void deliver(NodeId node, const rsm::Command& cmd, Time now);

  /// Closes one protocol-level delivery of `node` (a command or a whole batch
  /// composite). `durable_count` is how many of the node's protocol-level
  /// deliveries are on disk; journal entries up to it are dropped.
  void end_instance(NodeId node, std::uint64_t durable_count);

  /// Restart-from-disk: `node`'s history shrinks back to its first
  /// `durable_count` protocol-level deliveries. `trimmed` is the recovered
  /// state's flag (set when it derives from an installed snapshot).
  void restart(NodeId node, std::uint64_t durable_count, bool trimmed);

  /// Store-snapshot install: `node`'s history restarts mid-stream after its
  /// first `delivered_count` protocol-level deliveries (suffix semantics).
  void rebase(NodeId node, std::uint64_t delivered_count);

  // --- offline replay ------------------------------------------------------

  /// Feeds finished per-node logs through a fresh checker. Nodes marked
  /// `crashed` are left out, as the verdict would exclude them anyway;
  /// trimmed logs are replayed as rebased nodes.
  static OrderChecker replay(const std::vector<rsm::DeliveryLog>& logs,
                             const std::vector<bool>& crashed);

  // --- verdict -------------------------------------------------------------

  /// The order verdict over the nodes not marked `crashed` (empty = all
  /// live): no violation by a live node, every live rebased node as far
  /// along as every live full node on the keys it delivered since its
  /// rebase, and with `require_equal_sequences`, identical whole delivery
  /// sequences across the live full nodes.
  ConsistencyVerdict verdict(const std::vector<bool>& crashed,
                             bool require_equal_sequences) const;

  // --- introspection -------------------------------------------------------

  std::size_t nodes() const { return n_; }
  /// Commands in `node`'s current history (since its rebase, if any).
  std::uint64_t delivered(NodeId node) const { return nodes_[node].delivered; }
  /// True once `node` installed a store snapshot.
  bool trimmed(NodeId node) const { return nodes_[node].trimmed; }
  /// Per-key order violations recorded so far, in time order.
  const std::vector<OrderViolation>& violations() const { return violations_; }
  /// Canonical entries currently held, over all keys.
  std::size_t retained() const;
  /// Per-key deliveries checked so far.
  std::uint64_t checked() const { return checked_; }

 private:
  /// One canonical sequence: a key's, or (slot 0) the whole delivery order.
  struct Sequence {
    Key key = 0;
    /// Absolute position of order[head].
    std::uint64_t base = 0;
    std::size_t head = 0;
    std::vector<CmdId> order;

    std::uint64_t end() const { return base + (order.size() - head); }
  };

  struct NodeState {
    std::uint64_t delivered = 0;
    bool trimmed = false;
    /// Earliest mismatch against the whole delivery order, if any.
    bool seq_mismatch = false;
    OrderViolation first_seq_mismatch;
    /// Violations past the recording cap (the verdict fails regardless).
    std::uint64_t violations_dropped = 0;
    // Journal (durable mode): the sequence slots each delivery touched
    // (slot 0 once per command, then one per op), for the protocol-level
    // deliveries after the durable prefix.
    std::vector<std::uint32_t> journal;
    std::size_t journal_head = 0;
    /// journal.size() after each journaled protocol-level delivery.
    std::vector<std::size_t> instance_ends;
    std::size_t instance_head = 0;
    /// Protocol-level deliveries so far, and how many left the journal.
    std::uint64_t instances = 0;
    std::uint64_t floor = 0;
  };

  static constexpr std::uint8_t kUnanchored = 1;  // rebased, key not yet seen
  static constexpr std::uint8_t kTouched = 2;     // delivered since rebase

  std::uint32_t slot_for(Key key);
  void check(NodeId node, std::uint32_t slot, CmdId id, Time now);
  std::uint64_t& cursor(std::uint32_t slot, NodeId node) {
    return pos_[slot * stride_ + node];
  }
  std::uint64_t cursor(std::uint32_t slot, NodeId node) const {
    return pos_[slot * stride_ + node];
  }
  /// Lowest position `node` may still rewind to on `slot`.
  std::uint64_t& hold(std::uint32_t slot, NodeId node) {
    return pos_[slot * stride_ + (durable_ ? n_ : 0) + node];
  }
  std::uint8_t& flags(std::uint32_t slot, NodeId node) {
    return flags_[slot * n_ + node];
  }
  /// Whether `node` takes part in `slot` (rebased nodes leave slot 0).
  bool tracks(std::uint32_t slot, NodeId node) const {
    return slot != 0 || !nodes_[node].trimmed;
  }
  void release(std::uint32_t slot);
  void trim_journal(NodeId node, std::uint64_t upto);

  std::size_t n_;
  bool durable_;
  /// Per slot: n cursors, then (durable mode) n holds.
  std::size_t stride_;
  std::vector<Sequence> seqs_;
  std::vector<std::uint64_t> pos_;
  /// Per slot: one kUnanchored/kTouched byte per node.
  std::vector<std::uint8_t> flags_;
  /// Key -> slot in seqs_. Slot 0 is the whole sequence, so a record
  /// reading 0 is one slot_for has just created.
  FlatTable<std::uint32_t> slots_;
  std::vector<NodeState> nodes_;
  std::vector<OrderViolation> violations_;
  /// Set when a restart contradicts the durable counts fed before it.
  std::string internal_error_;
  std::uint64_t checked_ = 0;
};

}  // namespace caesar::harness
