// Shared recovery driver: the crash/rejoin machinery every protocol needs,
// written once and driven with each protocol's own state and hooks.
//
// Every protocol with state transfer (all but M2Paxos) shares:
//   * catch-up rotor — a rejoining (or stalled) node requests the state it
//     missed from rotating live peers, so one crashed responder costs one
//     watchdog period instead of stranding the rejoin;
//   * progress watchdog — detects a stalled delivery frontier with evidence
//     of a backlog and re-arms the catch-up request.
// The log protocols (Mencius, Multi-Paxos, Clock-RSM) share the log
// catch-up wire path (request, chunked suffix reply with its prefix-hash
// check, snapshot-then-suffix install); CAESAR and EPaxos share the
// instance catch-up wire path (round-stamped request, chunked reply,
// news-free-round latch). Mencius and Clock-RSM share:
//   * designated-revoker rounds and their query/answer exchange — one
//     designated node (lowest non-suspected id, so concurrent revokers
//     cannot reach conflicting verdicts) gathers every live peer's
//     knowledge of a dead node's in-flight consensus indices and decides
//     commit-or-skip for a bounded index range;
// and Mencius alone records
//   * revoked index ranges — the quorum-backed verdicts those rounds
//     produce, recorded permanently per owner.
//
// The ranges are the fix for a divergence the triplicated code carried
// (the Mencius seed-277 fuzz repro): verdicts used to be *unbounded*
// ("skip everything the dead owner proposed at or above its frontier") and
// were cleared unilaterally when each node's failure detector retracted the
// suspicion. A rejoined owner could then assemble an ack quorum from nodes
// whose verdicts had already cleared and commit an index that other nodes —
// whose frontier crossed it while their verdict still stood — had
// irreversibly skipped. Bounding every verdict to an explicit [from, upto)
// range and keeping it *forever* restores quorum intersection: at least a
// classic quorum applied the decision and permanently refuses to ack inside
// the range, so no index in it can ever be committed behind the skippers'
// backs, while indices above the bound are never skipped by the verdict at
// all. Liveness past the bound comes from opening a fresh round (the owner
// is still dead) or from the owner itself (it rejoined and proposes above
// the bound once a bounce teaches it the range).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "common/types.h"
#include "rsm/command.h"
#include "rsm/log_snapshot.h"

namespace caesar::stats {
struct ProtocolStats;
}
namespace caesar::storage {
class Durability;
}

namespace caesar::rt {

class Protocol;

class RecoveryDriver {
 public:
  RecoveryDriver(NodeId self, std::size_t n, std::size_t cq)
      : self_(self), n_(n), cq_(cq) {}

  // --- failure-detector view --------------------------------------------
  void note_suspected(NodeId peer) { suspected_mask_ |= 1ull << peer; }
  /// Clears the suspicion and voids any round still collecting against the
  /// peer: it is provably back with its state intact, so its own floors and
  /// re-proposals resolve its future indices again. Standing revoked ranges
  /// are quorum-backed facts about *past* indices and survive.
  void note_recovered(NodeId peer) {
    suspected_mask_ &= ~(1ull << peer);
    rounds_.erase(peer);
  }
  void reset_suspicions() { suspected_mask_ = 0; }
  bool is_suspected(NodeId q) const { return ((suspected_mask_ >> q) & 1) != 0; }
  std::uint64_t suspected_mask() const { return suspected_mask_; }

  // --- catch-up rotor + progress watchdog --------------------------------
  bool catchup_needed() const { return catchup_needed_; }
  void set_catchup_needed(bool b) { catchup_needed_ = b; }

  /// Rotates to the next live peer and invokes `send` on it. Returns false
  /// (without sending) when no live peer exists; the watchdog retries next
  /// tick.
  bool request_catchup(const std::function<void(NodeId peer)>& send);

  /// Stall detection, called once per watchdog tick with the current
  /// delivery frontier (any monotone progress marker) and whether a backlog
  /// is queued above it. Returns true — and latches catchup_needed — when a
  /// catch-up request should go out: either one is already outstanding, or
  /// the frontier has not moved since the last tick despite the backlog
  /// (evidence this node is behind, so an idle cluster stays quiet).
  bool watchdog_tick(std::uint64_t frontier, bool backlog);

  /// Convergence policy for instance-space catch-up, which has no prefix
  /// hash to prove the requester caught up: a reply can race commits that
  /// were in flight to the responder when it served, and a wholly-unknown
  /// instance leaves no local backlog evidence to re-latch the watchdog. So
  /// the latch clears only after a *news-free* round: read_instance_reply()
  /// calls note_catchup_news() for every instance a reply actually taught
  /// the protocol, and finish_catchup_round() on the done frame — which
  /// keeps the latch (and thus rotates to the next peer on the next tick)
  /// until a full round returns nothing new. request_catchup() resets the
  /// tally and bumps catchup_round(); the request carries the round id and
  /// the responder echoes it, so a late done frame from a superseded round
  /// cannot clear the latch out from under the round in flight.
  void note_catchup_news() { ++catchup_news_; }
  void finish_catchup_round() {
    if (catchup_news_ == 0) catchup_needed_ = false;
  }
  std::uint64_t catchup_round() const { return catchup_round_; }

  // --- designated-revoker rounds -----------------------------------------
  /// One open round this node drives as the designated revoker. Responses
  /// are required from every peer the revoker believes alive, and at least
  /// a classic quorum overall, before deciding.
  struct Round {
    std::uint64_t anchor = 0;     // resolve the dead owner's indices >= this
    std::uint64_t want_mask = 0;  // responders required (self included)
    std::uint64_t got_mask = 0;
    /// Values some responder knows were (or might have been) chosen for the
    /// dead owner's indices >= anchor.
    std::map<std::uint64_t, rsm::Command> values;
    Time last_query = 0;
  };

  /// Lowest non-suspected node; falls back to self when everyone else is
  /// suspected.
  NodeId designated_revoker() const;

  bool round_open(NodeId dead) const { return rounds_.count(dead) != 0; }
  Round* round(NodeId dead) {
    auto it = rounds_.find(dead);
    return it == rounds_.end() ? nullptr : &it->second;
  }

  /// Opens a round anchored at `anchor`: want = every non-dead, non-suspected
  /// node; got = self.
  Round& open_round(NodeId dead, std::uint64_t anchor, Time now);

  /// Records a peer's report. Returns the round when it matches (same dead,
  /// same anchor — a stale reply for a previous round is dropped), else null.
  Round* record_report(NodeId dead, std::uint64_t anchor, NodeId from,
                       std::map<std::uint64_t, rsm::Command> reported);

  /// Decide gate: every wanted responder answered, and a classic quorum
  /// overall (so a minority partition cannot revoke).
  bool round_complete(NodeId dead) const;

  /// Removes and returns the round for the protocol to decide from.
  Round close_round(NodeId dead);
  void clear_rounds() { rounds_.clear(); }

  /// Per-tick round maintenance: for every open round at least `period` old,
  /// recompute who must answer (a responder may have crashed since), give
  /// the protocol a chance to decide (`try_decide` typically calls
  /// round_complete/close_round), and — when the round survived — re-issue
  /// its query (send_revoke_query).
  void tick_rounds(Protocol& self, Time period, std::uint16_t query_type,
                   const std::function<void(NodeId dead)>& try_decide);

  // --- permanently revoked index ranges ----------------------------------
  /// Records the quorum-backed verdict "owner's indices in [from, upto) are
  /// resolved commit-or-skip". Overlapping/adjacent ranges merge. Never
  /// cleared — see the file comment for why permanence is what makes the
  /// verdict safe.
  void note_revoked_range(NodeId owner, std::uint64_t from, std::uint64_t upto);
  bool in_revoked_range(NodeId owner, std::uint64_t index) const;
  /// End of the range containing `index`, or `index` itself when uncovered
  /// (i.e. the first index at/above `index` NOT resolved by a verdict).
  std::uint64_t revoked_through(NodeId owner, std::uint64_t index) const;
  struct Range {
    std::uint64_t from = 0;
    std::uint64_t upto = 0;  // exclusive
  };
  /// All ranges recorded against `owner`, ascending and disjoint.
  const std::vector<Range>& revoked_ranges(NodeId owner) const;

  // --- log-protocol catch-up ----------------------------------------------
  // The index-ordered log protocols share one wire path: the request carries
  // the requester's delivery frontier and the rolling hash of its delivered
  // log; replies are chunked rsm::LogSnapshot frames, or a store snapshot
  // when the requester is behind the responder's compaction horizon. Each
  // call takes the protocol's own log state.

  /// Sends the request frame to `peer` and counts it in `stats`.
  static void send_log_request(Protocol& self, NodeId peer,
                               std::uint64_t frontier,
                               const rsm::CommandLog& log,
                               stats::ProtocolStats* stats);
  /// Latches catchup_needed and sends the request to the next live peer on
  /// the rotor.
  void request_log_catchup(Protocol& self, std::uint64_t frontier,
                           const rsm::CommandLog& log,
                           stats::ProtocolStats* stats);

  /// The responder: decodes the request and checks the requester's prefix
  /// hash; serves the store snapshot when the requester is behind the
  /// compaction horizon, else streams the committed suffix as chunks, each
  /// stamped with the hash below its own start. `append_extras(frontier,
  /// entries)` adds committed-but-undelivered entries at or above the
  /// requested frontier to the final chunk (their commit broadcasts predate
  /// the requester's return and were lost). `who` labels errors.
  static void serve_log_catchup(
      Protocol& self, const rsm::CommandLog& log, storage::Durability* dur,
      NodeId from, net::Decoder& request, std::uint64_t resolved_through,
      const std::function<void(
          std::uint64_t frontier,
          std::vector<std::pair<std::uint64_t, rsm::Command>>&)>& append_extras,
      stats::ProtocolStats* stats, const char* who);

  /// Decodes one reply chunk; logs a divergence when a chunk starting at our
  /// `frontier` carries a prefix hash other than ours.
  static rsm::LogSnapshot read_log_reply(net::Decoder& d,
                                         std::uint64_t frontier,
                                         const rsm::CommandLog& log,
                                         const char* who);

  /// Decodes a store-snapshot frame and, when its digest checks and it lies
  /// above `frontier`, installs it: durable store, log base,
  /// `rebase(new_frontier)` for the protocol's own state, the harness
  /// notify, then a request for the suffix. Returns whether it installed.
  bool install_log_snapshot(
      Protocol& self, NodeId from, net::Decoder& d, std::uint64_t frontier,
      rsm::CommandLog& log, storage::Durability* dur,
      stats::ProtocolStats* stats, const char* who,
      const std::function<void(std::uint64_t new_frontier)>& rebase);

  // --- instance-space catch-up -------------------------------------------
  // The request is the round id, then the protocol's body; each reply frame
  // is the round, an item count, the items, and a done flag.

  /// Latches catchup_needed and sends the next live peer on the rotor the
  /// new round id followed by `write_body`'s bytes.
  void request_instance_catchup(
      Protocol& self, const std::function<void(net::Encoder&)>& write_body,
      stats::ProtocolStats* stats);

  /// The responder: reads the round, takes `choose(request)` — the ids to
  /// ship, in frame order — and streams them kCatchupChunkEntries to a
  /// frame, each item written by `write_item`. An empty list still sends
  /// one done frame so the requester's latch can clear.
  static void serve_instance_catchup(
      Protocol& self, NodeId from, net::Decoder& request,
      const std::function<std::vector<std::uint64_t>(net::Decoder&)>& choose,
      const std::function<void(net::Encoder&, std::uint64_t id)>& write_item,
      stats::ProtocolStats* stats);

  /// Reads one reply frame: `apply_item(reply)` decodes and applies one item
  /// and returns whether it was news to this node. The done frame of the
  /// round in flight ends the round (finish_catchup_round).
  void read_instance_reply(net::Decoder& d,
                           const std::function<bool(net::Decoder&)>& apply_item,
                           stats::ProtocolStats* stats);

  // --- revocation exchange (the protocol's own query/info tags) -----------
  /// Broadcasts a round's query: the dead node and the round anchor.
  static void send_revoke_query(Protocol& self, std::uint16_t query_type,
                                NodeId dead, std::uint64_t anchor);
  /// Decodes a query and sends back what `collect(dead, anchor, out)` knows.
  static void answer_revoke_query(
      Protocol& self, std::uint16_t info_type, NodeId from, net::Decoder& d,
      const std::function<void(NodeId dead, std::uint64_t anchor,
                               std::map<std::uint64_t, rsm::Command>&)>&
          collect);
  /// Decodes an answer and records it (record_report). Returns the dead
  /// node whose round took it, or kNoNode.
  NodeId read_revoke_info(NodeId from, net::Decoder& d);

 private:
  NodeId self_;
  std::size_t n_;
  std::size_t cq_;

  std::uint64_t suspected_mask_ = 0;

  /// A catch-up request is outstanding (set on rejoin and on detected
  /// frontier stalls; cleared by the protocol on the final reply chunk).
  bool catchup_needed_ = false;
  NodeId rotor_ = 0;
  std::uint64_t last_mark_ = 0;  // frontier at the last watchdog tick
  /// Instances the current instance-space catch-up round taught this node,
  /// and the round id stamped into requests to fence stale done frames.
  std::uint64_t catchup_news_ = 0;
  std::uint64_t catchup_round_ = 0;

  std::map<NodeId, Round> rounds_;
  std::vector<std::vector<Range>> ranges_;  // lazily sized to n_
};

}  // namespace caesar::rt
