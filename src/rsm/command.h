// Replicated-state-machine commands and the conflict relation.
//
// The paper's benchmark issues single-key updates against a replicated
// key-value store; two commands conflict iff they touch the same key (§VI).
// A Command normally carries one Op per client request. The runtime's
// accumulate-while-busy batcher (rt::Node) merges the client commands that
// piled up while the proposer was busy into one composite Command whose key
// set is the union of the members' and whose id carries the batch marker
// (common/types.h kBatchSeqBit). Composites go through consensus as a single
// command; at delivery time every replica unbundles them back into the
// member commands below, so delivery logs and client completions always see
// individual client requests.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/types.h"
#include "net/serialization.h"

namespace caesar::rsm {

/// One key-value update issued by a client. `req` identifies the client
/// request so the origin site can complete it at delivery time.
struct Op {
  Key key = 0;
  ReqId req = 0;
  std::uint64_t value = 0;

  friend bool operator==(const Op&, const Op&) = default;
};

struct Command {
  CmdId id = kNoCmd;
  NodeId origin = kNoNode;
  /// Ops sorted by key (maintained by finalize()); usually exactly one.
  std::vector<Op> ops;

  /// Sorts ops by key; must be called after constructing a composite.
  void finalize() {
    std::sort(ops.begin(), ops.end(),
              [](const Op& a, const Op& b) { return a.key < b.key; });
  }

  bool valid() const { return id != kNoCmd && !ops.empty(); }

  /// Conflict relation ~ from the paper: key sets intersect.
  /// Ops are key-sorted, so this is a linear merge-scan.
  bool conflicts_with(const Command& other) const {
    auto a = ops.begin();
    auto b = other.ops.begin();
    while (a != ops.end() && b != other.ops.end()) {
      if (a->key == b->key) return true;
      if (a->key < b->key) {
        ++a;
      } else {
        ++b;
      }
    }
    return false;
  }

  bool touches(Key k) const {
    auto it = std::lower_bound(ops.begin(), ops.end(), k,
                               [](const Op& op, Key key) { return op.key < key; });
    return it != ops.end() && it->key == k;
  }

  void encode(net::Encoder& e) const;
  static Command decode(net::Decoder& d);

  friend bool operator==(const Command&, const Command&) = default;
};

/// True when `cmd` is a runtime-built batch composite whose ops must be
/// replayed as individual member commands at delivery time.
inline bool is_batch_command(const Command& cmd) {
  return is_batch_cmd_id(cmd.id);
}

/// Member `k` of a batch composite as a standalone single-op command. The
/// composite's ops array is built once at the origin and shipped verbatim,
/// so every replica derives byte-identical members from the composite alone.
inline Command batch_member(const Command& batch, std::size_t k) {
  Command m;
  m.id = batch_member_cmd_id(batch.id, k);
  m.origin = batch.origin;
  m.ops = {batch.ops[k]};
  return m;
}

/// Calls `fn` with each member of a batch composite in op order, or once
/// with `cmd` itself when it is not a composite. The members are rewritten
/// in place into one Command on this call's stack (one allocation per
/// composite, not one per member): while `fn` runs, its argument equals
/// batch_member(cmd, k), and `fn` copies whatever it keeps.
template <typename Fn>
void for_each_member(const Command& cmd, Fn&& fn) {
  if (!is_batch_command(cmd)) {
    fn(cmd);
    return;
  }
  Command m;
  m.origin = cmd.origin;
  m.ops.resize(1);
  for (std::size_t k = 0; k < cmd.ops.size(); ++k) {
    m.id = batch_member_cmd_id(cmd.id, k);
    m.ops[0] = cmd.ops[k];
    fn(std::as_const(m));
  }
}

}  // namespace caesar::rsm
