#include "harness/order_checker.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace caesar::harness {

namespace {

/// Violations recorded per checker; past it they are only counted (and the
/// verdict fails for the nodes that had them).
constexpr std::size_t kViolationCap = 4096;

ConsistencyVerdict fail(std::string detail) {
  return ConsistencyVerdict{false, std::move(detail)};
}

std::string where(Time at) {
  return at > 0 ? " (t=" + std::to_string(at) + "us)" : "";
}

}  // namespace

std::string OrderViolation::describe() const {
  return "node " + std::to_string(node) + " diverges on key " +
         std::to_string(key) + " at position " + std::to_string(position) +
         where(at) + ": delivered " + cmd_id_str(got) +
         " where the cluster order has " + cmd_id_str(expected);
}

OrderChecker::OrderChecker(std::size_t nodes, bool durable)
    : n_(nodes),
      durable_(durable),
      stride_(durable ? 2 * nodes : nodes),
      nodes_(nodes) {
  seqs_.emplace_back();  // slot 0: the whole delivery sequence
  pos_.assign(stride_, 0);
  flags_.assign(n_, 0);
}

std::uint32_t OrderChecker::slot_for(Key key) {
  std::uint32_t& slot = slots_[key];
  if (slot == 0) {
    slot = static_cast<std::uint32_t>(seqs_.size());
    seqs_.emplace_back().key = key;
    pos_.resize(pos_.size() + stride_, 0);
    flags_.resize(flags_.size() + n_, 0);
  }
  return slot;
}

void OrderChecker::deliver(NodeId node, const rsm::Command& cmd, Time now) {
  NodeState& ns = nodes_[node];
  ++ns.delivered;
  if (tracks(0, node)) check(node, 0, cmd.id, now);
  if (durable_) ns.journal.push_back(0);
  for (const rsm::Op& op : cmd.ops) {
    const std::uint32_t slot = slot_for(op.key);
    check(node, slot, cmd.id, now);
    if (durable_) ns.journal.push_back(slot);
  }
}

void OrderChecker::check(NodeId node, std::uint32_t slot, CmdId id,
                         Time now) {
  Sequence& q = seqs_[slot];
  std::uint64_t& cur = cursor(slot, node);
  const std::uint64_t held = durable_ ? hold(slot, node) : cur;
  if (slot != 0 && nodes_[node].trimmed) {
    std::uint8_t& f = flags(slot, node);
    if ((f & kUnanchored) != 0) {
      // First delivery on this key since the rebase: the node's history on
      // it starts wherever this command sits in the cluster order (or at the
      // end, when the node is the first to deliver it).
      std::uint64_t at = q.end();
      for (std::size_t i = q.head; i < q.order.size(); ++i) {
        if (q.order[i] == id) {
          at = q.base + (i - q.head);
          break;
        }
      }
      cur = at;
      if (durable_) hold(slot, node) = at;
    }
    f = kTouched;
  }

  const std::uint64_t c = cur;
  if (c < q.end()) {
    const CmdId want = c >= q.base ? q.order[q.head + (c - q.base)] : kNoCmd;
    if (want != id) {
      const OrderViolation v{now, node, q.key, c, want, id};
      NodeState& ns = nodes_[node];
      if (slot == 0) {
        if (!ns.seq_mismatch) {
          ns.seq_mismatch = true;
          ns.first_seq_mismatch = v;
        }
      } else if (violations_.size() < kViolationCap) {
        violations_.push_back(v);
      } else {
        ++ns.violations_dropped;
      }
    }
  } else {
    q.order.push_back(id);
  }
  cur = c + 1;
  if (slot != 0) ++checked_;
  const std::uint64_t now_held = durable_ ? hold(slot, node) : cur;
  if (held == q.base && now_held > held) release(slot);
}

void OrderChecker::release(std::uint32_t slot) {
  Sequence& q = seqs_[slot];
  std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
  for (NodeId x = 0; x < n_; ++x) {
    if (tracks(slot, x)) lo = std::min(lo, hold(slot, x));
  }
  lo = std::min(lo, q.end());
  if (lo <= q.base) return;
  q.head += lo - q.base;
  q.base = lo;
  if (q.head == q.order.size()) {
    q.order.clear();
    q.head = 0;
  } else if (q.head >= 64 && 2 * q.head >= q.order.size()) {
    q.order.erase(q.order.begin(),
                  q.order.begin() + static_cast<std::ptrdiff_t>(q.head));
    q.head = 0;
  }
}

void OrderChecker::end_instance(NodeId node, std::uint64_t durable_count) {
  if (!durable_) return;
  NodeState& ns = nodes_[node];
  ns.instance_ends.push_back(ns.journal.size());
  ++ns.instances;
  trim_journal(node, std::min(durable_count, ns.instances));
}

void OrderChecker::trim_journal(NodeId node, std::uint64_t upto) {
  NodeState& ns = nodes_[node];
  while (ns.floor < upto && ns.instance_head < ns.instance_ends.size()) {
    const std::size_t end = ns.instance_ends[ns.instance_head++];
    for (; ns.journal_head < end; ++ns.journal_head) {
      const std::uint32_t slot = ns.journal[ns.journal_head];
      if (!tracks(slot, node)) continue;
      std::uint64_t& h = hold(slot, node);
      const bool was_lowest = h == seqs_[slot].base;
      ++h;
      if (was_lowest) release(slot);
    }
    ++ns.floor;
  }
  // Compact once the drained front dominates.
  if (ns.journal_head >= 256 && 2 * ns.journal_head >= ns.journal.size()) {
    ns.journal.erase(ns.journal.begin(),
                     ns.journal.begin() +
                         static_cast<std::ptrdiff_t>(ns.journal_head));
    ns.instance_ends.erase(
        ns.instance_ends.begin(),
        ns.instance_ends.begin() +
            static_cast<std::ptrdiff_t>(ns.instance_head));
    for (std::size_t& e : ns.instance_ends) e -= ns.journal_head;
    ns.journal_head = 0;
    ns.instance_head = 0;
  }
}

void OrderChecker::restart(NodeId node, std::uint64_t durable_count,
                           bool trimmed) {
  if (!durable_) {
    throw std::logic_error("OrderChecker::restart needs a durable checker");
  }
  NodeState& ns = nodes_[node];
  if (durable_count < ns.floor) {
    internal_error_ = "node " + std::to_string(node) + " restarted with " +
                      std::to_string(durable_count) +
                      " durable deliveries, fewer than the " +
                      std::to_string(ns.floor) +
                      " its disk had reported before the crash";
    durable_count = ns.floor;
  }
  const std::uint64_t keep =
      std::min(durable_count, ns.instances) - ns.floor;
  const std::size_t cut =
      keep == 0 ? ns.journal_head
                : ns.instance_ends[ns.instance_head + keep - 1];

  // Walk the lost deliveries back, newest first.
  std::vector<std::uint32_t> rewound;
  for (std::size_t j = ns.journal.size(); j-- > cut;) {
    const std::uint32_t slot = ns.journal[j];
    if (slot == 0) --ns.delivered;
    if (!tracks(slot, node)) continue;
    --cursor(slot, node);
    rewound.push_back(slot);
  }
  ns.journal.resize(cut);
  ns.instance_ends.resize(ns.instance_head + keep);
  ns.instances = ns.floor + keep;

  // Canonical entries past every node's history are gone from the cluster.
  std::sort(rewound.begin(), rewound.end());
  rewound.erase(std::unique(rewound.begin(), rewound.end()), rewound.end());
  for (const std::uint32_t slot : rewound) {
    std::uint64_t hi = 0;
    for (NodeId x = 0; x < n_; ++x) {
      if (tracks(slot, x)) hi = std::max(hi, cursor(slot, x));
    }
    Sequence& q = seqs_[slot];
    if (hi < q.end()) q.order.resize(q.head + (hi - q.base));
  }
  // So are the violations the lost deliveries had caused.
  violations_.erase(
      std::remove_if(violations_.begin(), violations_.end(),
                     [&](const OrderViolation& v) {
                       return v.node == node &&
                              v.position >= cursor(*slots_.find(v.key), node);
                     }),
      violations_.end());
  if (ns.seq_mismatch && !ns.trimmed &&
      ns.first_seq_mismatch.position >= cursor(0, node)) {
    ns.seq_mismatch = false;
  }

  if (trimmed && !ns.trimmed) rebase(node, ns.instances);
}

void OrderChecker::rebase(NodeId node, std::uint64_t delivered_count) {
  NodeState& ns = nodes_[node];
  ns.trimmed = true;
  ns.delivered = 0;
  ns.seq_mismatch = false;
  ns.journal.clear();
  ns.journal_head = 0;
  ns.instance_ends.clear();
  ns.instance_head = 0;
  ns.instances = delivered_count;
  ns.floor = delivered_count;
  violations_.erase(std::remove_if(violations_.begin(), violations_.end(),
                                   [node](const OrderViolation& v) {
                                     return v.node == node;
                                   }),
                    violations_.end());
  for (std::uint32_t slot = 1; slot < seqs_.size(); ++slot) {
    flags(slot, node) = kUnanchored;
    if (durable_) {
      // The install is on disk: the node can no longer rewind into the
      // history it replaces.
      std::uint64_t& h = hold(slot, node);
      const bool was_lowest = h == seqs_[slot].base;
      h = cursor(slot, node);
      if (was_lowest) release(slot);
    }
  }
  release(0);  // the node left the whole-sequence comparison
}

OrderChecker OrderChecker::replay(const std::vector<rsm::DeliveryLog>& logs,
                                  const std::vector<bool>& crashed) {
  const std::size_t n = logs.size();
  OrderChecker c(n, /*durable=*/false);
  auto feed = [&c, &logs](NodeId x) {
    const rsm::DeliveryLog& log = logs[x];
    if (log.trimmed()) c.rebase(x, 0);
    std::vector<Key> keys;
    keys.reserve(log.per_key().size());
    for (const auto& entry : log.per_key()) keys.push_back(entry.first);
    std::sort(keys.begin(), keys.end());
    for (const Key k : keys) {
      const std::uint32_t slot = c.slot_for(k);
      for (const CmdId id : log.key_sequence(k)) c.check(x, slot, id, 0);
    }
    if (!log.trimmed()) {
      for (const CmdId id : log.sequence()) c.check(x, 0, id, 0);
    }
    c.nodes_[x].delivered = log.size();
  };
  auto live = [&crashed, n](NodeId x) {
    return crashed.size() != n || !crashed[x];
  };
  // Full histories first, so rebased ones find the order to anchor into.
  for (NodeId x = 0; x < n; ++x) {
    if (live(x) && !logs[x].trimmed()) feed(x);
  }
  for (NodeId x = 0; x < n; ++x) {
    if (live(x) && logs[x].trimmed()) feed(x);
  }
  return c;
}

ConsistencyVerdict OrderChecker::verdict(const std::vector<bool>& crashed,
                                         bool require_equal_sequences) const {
  auto live = [&](NodeId x) { return crashed.size() != n_ || !crashed[x]; };
  if (!internal_error_.empty()) return fail(internal_error_);
  for (const OrderViolation& v : violations_) {
    if (live(v.node)) return fail(v.describe());
  }
  for (NodeId x = 0; x < n_; ++x) {
    if (live(x) && nodes_[x].violations_dropped > 0) {
      return fail("node " + std::to_string(x) + " diverged more than " +
                  std::to_string(kViolationCap) + " times");
    }
  }

  // A rebased node joined mid-stream, so its history on a key only has to
  // be a suffix of the cluster's — but one that reaches as far as every full
  // history does.
  for (NodeId t = 0; t < n_; ++t) {
    if (!live(t) || !nodes_[t].trimmed) continue;
    for (std::uint32_t slot = 1; slot < seqs_.size(); ++slot) {
      if ((flags_[slot * n_ + t] & kTouched) == 0) continue;
      for (NodeId f = 0; f < n_; ++f) {
        if (!live(f) || nodes_[f].trimmed) continue;
        if (cursor(slot, f) != cursor(slot, t)) {
          return fail("node " + std::to_string(t) +
                      " (joined by snapshot) and node " + std::to_string(f) +
                      " stopped at different positions of key " +
                      std::to_string(seqs_[slot].key) + ": " +
                      std::to_string(cursor(slot, t)) + " vs " +
                      std::to_string(cursor(slot, f)));
        }
      }
    }
  }

  if (require_equal_sequences) {
    NodeId first = kNoNode;
    for (NodeId x = 0; x < n_; ++x) {
      if (!live(x) || nodes_[x].trimmed) continue;
      const NodeState& ns = nodes_[x];
      if (ns.seq_mismatch) {
        const OrderViolation& v = ns.first_seq_mismatch;
        return fail("node " + std::to_string(x) +
                    " delivered a different sequence: position " +
                    std::to_string(v.position) + where(v.at) + " holds " +
                    cmd_id_str(v.got) + " where the cluster order has " +
                    cmd_id_str(v.expected));
      }
      if (first == kNoNode) {
        first = x;
      } else if (cursor(0, x) != cursor(0, first)) {
        return fail("nodes " + std::to_string(first) + " and " +
                    std::to_string(x) + " delivered different sequences (" +
                    std::to_string(cursor(0, first)) + " vs " +
                    std::to_string(cursor(0, x)) + " commands)");
      }
    }
  }
  return {};
}

std::size_t OrderChecker::retained() const {
  std::size_t total = 0;
  for (const Sequence& q : seqs_) total += q.order.size() - q.head;
  return total;
}

}  // namespace caesar::harness
