#include "runtime/recovery_driver.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"
#include "runtime/protocol.h"
#include "stats/protocol_stats.h"
#include "storage/durability.h"

namespace caesar::rt {

namespace {

/// The store-snapshot frame (kCatchupSnapshotType): frontier, prefix hash,
/// delivered count, store digest, then the (key, value, version) triples.
/// install_log_snapshot decodes it and checks the digest before installing.
void send_snapshot_frame(Env& env, NodeId to, const rsm::KvStore& store,
                         std::uint64_t frontier, std::uint64_t prefix_hash,
                         std::uint64_t delivered_count) {
  net::Encoder e = env.encoder();
  e.put_u64(frontier);
  e.put_u64(prefix_hash);
  e.put_u64(delivered_count);
  e.put_u64(store.digest());
  e.put_varint(store.key_count());
  for (const auto& [key, entry] : store.contents()) {
    e.put_u64(key);
    e.put_u64(entry.value);
    e.put_varint(entry.version);
  }
  env.send(to, kCatchupSnapshotType, std::move(e));
}

}  // namespace

bool RecoveryDriver::request_catchup(
    const std::function<void(NodeId peer)>& send) {
  // Rotate over peers this node believes alive, so a crashed or lagging
  // responder only costs one watchdog period.
  catchup_news_ = 0;
  ++catchup_round_;
  for (std::size_t step = 0; step < n_; ++step) {
    rotor_ = static_cast<NodeId>((rotor_ + 1) % n_);
    if (rotor_ == self_) continue;
    if (is_suspected(rotor_)) continue;
    send(rotor_);
    return true;
  }
  return false;
}

bool RecoveryDriver::watchdog_tick(std::uint64_t frontier, bool backlog) {
  const bool stalled = frontier == last_mark_;
  last_mark_ = frontier;
  if (catchup_needed_ || (stalled && backlog)) {
    catchup_needed_ = true;
    return true;
  }
  return false;
}

NodeId RecoveryDriver::designated_revoker() const {
  for (NodeId q = 0; q < n_; ++q) {
    if (!is_suspected(q)) return q;
  }
  return self_;
}

RecoveryDriver::Round& RecoveryDriver::open_round(NodeId dead,
                                                  std::uint64_t anchor,
                                                  Time now) {
  Round round;
  round.anchor = anchor;
  round.last_query = now;
  for (NodeId q = 0; q < n_; ++q) {
    if (q != dead && !is_suspected(q)) round.want_mask |= 1ull << q;
  }
  round.got_mask = 1ull << self_;
  return rounds_.insert_or_assign(dead, std::move(round)).first->second;
}

RecoveryDriver::Round* RecoveryDriver::record_report(
    NodeId dead, std::uint64_t anchor, NodeId from,
    std::map<std::uint64_t, rsm::Command> reported) {
  auto it = rounds_.find(dead);
  if (it == rounds_.end() || it->second.anchor != anchor) return nullptr;
  Round& round = it->second;
  round.got_mask |= 1ull << from;
  for (auto& [index, cmd] : reported) {
    round.values.emplace(index, std::move(cmd));
  }
  return &round;
}

bool RecoveryDriver::round_complete(NodeId dead) const {
  auto it = rounds_.find(dead);
  if (it == rounds_.end()) return false;
  const Round& round = it->second;
  if ((round.got_mask & round.want_mask) != round.want_mask) return false;
  return static_cast<std::size_t>(std::popcount(round.got_mask)) >= cq_;
}

RecoveryDriver::Round RecoveryDriver::close_round(NodeId dead) {
  auto it = rounds_.find(dead);
  Round round = std::move(it->second);
  rounds_.erase(it);
  return round;
}

void RecoveryDriver::tick_rounds(
    Protocol& self, Time period, std::uint16_t query_type,
    const std::function<void(NodeId dead)>& try_decide) {
  const Time now = self.env_.now();
  // Snapshot the keys: try_decide may close (erase) the round it decides.
  std::vector<NodeId> deads;
  deads.reserve(rounds_.size());
  for (const auto& [dead, round] : rounds_) deads.push_back(dead);
  for (NodeId dead : deads) {
    auto it = rounds_.find(dead);
    if (it == rounds_.end()) continue;
    if (now - it->second.last_query < period) continue;
    // Recompute who must answer — a responder may have crashed since — and
    // re-check the gate before asking again.
    std::uint64_t want = 0;
    for (NodeId q = 0; q < n_; ++q) {
      if (q != dead && !is_suspected(q)) want |= 1ull << q;
    }
    it->second.want_mask = want;
    try_decide(dead);
    it = rounds_.find(dead);
    if (it == rounds_.end()) continue;  // decided and closed
    it->second.last_query = now;
    send_revoke_query(self, query_type, dead, it->second.anchor);
  }
}

void RecoveryDriver::note_revoked_range(NodeId owner, std::uint64_t from,
                                        std::uint64_t upto) {
  if (upto <= from) return;
  if (ranges_.size() < n_) ranges_.resize(n_);
  std::vector<Range>& rs = ranges_[owner];
  rs.push_back(Range{from, upto});
  std::sort(rs.begin(), rs.end(),
            [](const Range& a, const Range& b) { return a.from < b.from; });
  // Merge overlapping/adjacent ranges so lookups stay a short linear scan.
  std::vector<Range> merged;
  for (const Range& r : rs) {
    if (!merged.empty() && r.from <= merged.back().upto) {
      merged.back().upto = std::max(merged.back().upto, r.upto);
    } else {
      merged.push_back(r);
    }
  }
  rs = std::move(merged);
}

bool RecoveryDriver::in_revoked_range(NodeId owner, std::uint64_t index) const {
  if (owner >= ranges_.size()) return false;
  for (const Range& r : ranges_[owner]) {
    if (index >= r.from && index < r.upto) return true;
  }
  return false;
}

std::uint64_t RecoveryDriver::revoked_through(NodeId owner,
                                              std::uint64_t index) const {
  if (owner >= ranges_.size()) return index;
  std::uint64_t at = index;
  // Ranges are disjoint and ascending; chase across adjacency just in case
  // a future merge policy leaves touching ranges unmerged.
  for (const Range& r : ranges_[owner]) {
    if (at >= r.from && at < r.upto) at = r.upto;
  }
  return at;
}

const std::vector<RecoveryDriver::Range>& RecoveryDriver::revoked_ranges(
    NodeId owner) const {
  static const std::vector<Range> kEmpty;
  if (owner >= ranges_.size()) return kEmpty;
  return ranges_[owner];
}

void RecoveryDriver::send_log_request(Protocol& self, NodeId peer,
                                      std::uint64_t frontier,
                                      const rsm::CommandLog& log,
                                      stats::ProtocolStats* stats) {
  if (stats != nullptr) ++stats->catchup_requests;
  net::Encoder e = self.env_.encoder();
  e.put_varint(frontier);
  e.put_u64(log.rolling_hash());
  self.env_.send(peer, kCatchupRequestType, std::move(e));
}

void RecoveryDriver::request_log_catchup(Protocol& self,
                                         std::uint64_t frontier,
                                         const rsm::CommandLog& log,
                                         stats::ProtocolStats* stats) {
  catchup_needed_ = true;
  request_catchup([&](NodeId peer) {
    send_log_request(self, peer, frontier, log, stats);
  });
}

void RecoveryDriver::serve_log_catchup(
    Protocol& self, const rsm::CommandLog& log, storage::Durability* dur,
    NodeId from, net::Decoder& request, std::uint64_t resolved_through,
    const std::function<void(
        std::uint64_t, std::vector<std::pair<std::uint64_t, rsm::Command>>&)>&
        append_extras,
    stats::ProtocolStats* stats, const char* who) {
  const std::uint64_t frontier = request.get_varint();
  const std::uint64_t their_hash = request.get_u64();
  Env& env = self.env_;
  if (dur != nullptr && frontier < log.base_index()) {
    // The requester is behind this node's compaction horizon: the entries
    // it needs were truncated with the covering snapshot. Serve the store
    // snapshot at the *current* frontier instead (the durability mirror is
    // exactly the delivered state); the requester installs it, then re-asks
    // for the suffix above it through the normal chunked path.
    send_snapshot_frame(env, from, dur->mirror_store(), resolved_through,
                        log.rolling_hash(), dur->delivered_count());
    return;
  }
  // The prefix hash is only meaningful when this node has resolved at least
  // as far as the requester: a lagging responder's log is simply shorter,
  // not divergent. 0 marks "no comparison possible" for the requester.
  const std::uint64_t prefix_hash =
      frontier <= resolved_through ? log.hash_below(frontier) : 0;
  if (frontier <= resolved_through && prefix_hash != their_hash) {
    log::error(who, ": node ", from, " requests catch-up from index ",
               frontier,
               " but our delivered prefixes disagree — replicas have "
               "diverged");
  }
  std::uint64_t pos = frontier;
  // Per-chunk hash: LogSnapshot::prefix_hash covers the entries below *this
  // chunk's* from — for chunk 2+ the requester's rolling hash has already
  // absorbed the previous chunks' replay, so stamping the original request
  // hash would trip the divergence check spuriously. Carried incrementally
  // (each chunk's own entries fold into the next chunk's hash) so a long
  // reply stays O(log) instead of O(chunks x log).
  std::uint64_t running_hash = prefix_hash;
  while (true) {
    rsm::LogSnapshot chunk =
        log.suffix(pos, resolved_through, rsm::kCatchupChunkEntries);
    chunk.prefix_hash = running_hash;
    if (running_hash != 0) {
      for (const auto& [idx, c] : chunk.entries) {
        running_hash = rsm::CommandLog::mix(running_hash, idx, c.id);
      }
    }
    if (chunk.done) append_extras(frontier, chunk.entries);
    net::Encoder e = env.encoder();
    chunk.encode(e);
    env.send(from, kCatchupReplyType, std::move(e));
    if (stats != nullptr) ++stats->catchup_chunks;
    if (chunk.done) break;
    pos = chunk.through;
  }
}

rsm::LogSnapshot RecoveryDriver::read_log_reply(net::Decoder& d,
                                                std::uint64_t frontier,
                                                const rsm::CommandLog& log,
                                                const char* who) {
  rsm::LogSnapshot chunk = rsm::LogSnapshot::decode(d);
  if (chunk.from == frontier && chunk.prefix_hash != 0 &&
      chunk.prefix_hash != log.rolling_hash()) {
    log::error(who, ": catch-up prefix hash mismatch at index ", frontier,
               " — replicas have diverged");
  }
  return chunk;
}

bool RecoveryDriver::install_log_snapshot(
    Protocol& self, NodeId from, net::Decoder& d, std::uint64_t frontier,
    rsm::CommandLog& log, storage::Durability* dur,
    stats::ProtocolStats* stats, const char* who,
    const std::function<void(std::uint64_t)>& rebase) {
  const std::uint64_t snap_frontier = d.get_u64();
  const std::uint64_t prefix_hash = d.get_u64();
  const std::uint64_t delivered_count = d.get_u64();
  const std::uint64_t digest = d.get_u64();
  rsm::KvStore store;
  for (std::uint64_t i = 0, n = d.get_varint(); i < n; ++i) {
    const Key key = d.get_u64();
    const std::uint64_t value = d.get_u64();
    store.install(key, value, d.get_varint());
  }
  store.set_applied_commands(delivered_count);
  if (store.digest() != digest) {
    log::error(who, ": catch-up snapshot from node ", from,
               " failed its digest check — dropping");
    return false;
  }
  if (snap_frontier <= frontier) return false;  // raced a chunked catch-up
  if (dur != nullptr) {
    dur->install_snapshot(store, snap_frontier, prefix_hash, delivered_count);
  }
  // The delivered prefix below the snapshot frontier is now represented
  // only by its hash.
  log.set_base(snap_frontier, prefix_hash);
  rebase(snap_frontier);
  self.env_.notify_snapshot_install(store, delivered_count);
  // Everything newer than the snapshot still has to come the normal way.
  request_log_catchup(self, snap_frontier, log, stats);
  return true;
}

void RecoveryDriver::request_instance_catchup(
    Protocol& self, const std::function<void(net::Encoder&)>& write_body,
    stats::ProtocolStats* stats) {
  catchup_needed_ = true;
  request_catchup([&](NodeId peer) {
    if (stats != nullptr) ++stats->catchup_requests;
    net::Encoder e = self.env_.encoder();
    e.put_varint(catchup_round_);
    write_body(e);
    self.env_.send(peer, kCatchupRequestType, std::move(e));
  });
}

void RecoveryDriver::serve_instance_catchup(
    Protocol& self, NodeId from, net::Decoder& request,
    const std::function<std::vector<std::uint64_t>(net::Decoder&)>& choose,
    const std::function<void(net::Encoder&, std::uint64_t)>& write_item,
    stats::ProtocolStats* stats) {
  const std::uint64_t round = request.get_varint();
  const std::vector<std::uint64_t> ship = choose(request);
  Env& env = self.env_;
  std::size_t pos = 0;
  do {
    const std::size_t count =
        std::min(ship.size() - pos, rsm::kCatchupChunkEntries);
    net::Encoder e = env.encoder();
    e.put_varint(round);
    e.put_varint(count);
    for (std::size_t k = 0; k < count; ++k) write_item(e, ship[pos + k]);
    pos += count;
    e.put_u8(pos == ship.size() ? 1 : 0);
    env.send(from, kCatchupReplyType, std::move(e));
    if (stats != nullptr) ++stats->catchup_chunks;
  } while (pos < ship.size());
}

void RecoveryDriver::read_instance_reply(
    net::Decoder& d, const std::function<bool(net::Decoder&)>& apply_item,
    stats::ProtocolStats* stats) {
  const std::uint64_t round = d.get_varint();
  const std::uint64_t count = d.get_varint();
  for (std::uint64_t i = 0; i < count; ++i) {
    if (apply_item(d)) {
      note_catchup_news();
      if (stats != nullptr) ++stats->catchup_commands;
    }
  }
  if (d.get_u8() != 0 && round == catchup_round_) finish_catchup_round();
}

void RecoveryDriver::send_revoke_query(Protocol& self,
                                       std::uint16_t query_type, NodeId dead,
                                       std::uint64_t anchor) {
  net::Encoder e = self.env_.encoder();
  e.put_u32(dead);
  e.put_varint(anchor);
  self.env_.broadcast(query_type, std::move(e), /*include_self=*/false);
}

void RecoveryDriver::answer_revoke_query(
    Protocol& self, std::uint16_t info_type, NodeId from, net::Decoder& d,
    const std::function<void(NodeId, std::uint64_t,
                             std::map<std::uint64_t, rsm::Command>&)>&
        collect) {
  const NodeId dead = d.get_u32();
  const std::uint64_t anchor = d.get_varint();
  std::map<std::uint64_t, rsm::Command> known;
  collect(dead, anchor, known);
  net::Encoder e = self.env_.encoder();
  e.put_u32(dead);
  e.put_varint(anchor);
  e.put_varint(known.size());
  for (const auto& [index, cmd] : known) {
    e.put_varint(index);
    cmd.encode(e);
  }
  self.env_.send(from, info_type, std::move(e));
}

NodeId RecoveryDriver::read_revoke_info(NodeId from, net::Decoder& d) {
  const NodeId dead = d.get_u32();
  const std::uint64_t anchor = d.get_varint();
  const std::uint64_t count = d.get_varint();
  // Decode fully even when the round is gone: the decoder owns the buffer.
  std::map<std::uint64_t, rsm::Command> reported;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint64_t index = d.get_varint();
    reported.emplace(index, rsm::Command::decode(d));
  }
  // The anchor rejects replies to an *earlier* round for the same target
  // (a partition can delay them across its recover/re-crash).
  return record_report(dead, anchor, from, std::move(reported)) != nullptr
             ? dead
             : kNoNode;
}

}  // namespace caesar::rt
