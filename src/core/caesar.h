// CAESAR: multi-leader Generalized Consensus via timestamp confirmation
// (Arun et al., DSN 2017). This is the paper's primary contribution.
//
// Every node can lead commands. A leader assigns its command a logical
// timestamp and asks a fast quorum (⌈3N/4⌉) to confirm it. Acceptors confirm
// unless a conflicting command with a *greater* timestamp has already been
// accepted/stabilized without listing this command as a predecessor — and,
// crucially, an acceptor that cannot yet tell (the greater-timestamped rival
// is still in flight) *waits* instead of rejecting (§IV-A). Quorum replies
// may carry different predecessor sets without spoiling the fast path; the
// leader simply unions them (§IV, the key difference from EPaxos).
//
// Decision paths implemented here (paper Fig 4):
//   fast:             FastPropose --FQ all-OK--> Stable          (2 delays)
//   slow via retry:   FastPropose --any NACK--> Retry -> Stable  (4 delays)
//   slow via timeout: FastPropose --timeout,CQ OK--> SlowPropose
//                        --all OK--> Stable | --NACK--> Retry -> Stable
//
// Failure handling (paper Fig 5): ballot-protected recovery reconstructs the
// fate of a crashed leader's commands from a classic quorum, including the
// whitelist reconstruction needed to preserve a possibly-taken fast decision.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/caesar_messages.h"
#include "core/cmd_table.h"
#include "core/key_index.h"
#include "core/timestamp.h"
#include "runtime/protocol.h"
#include "runtime/recovery_driver.h"
#include "stats/protocol_stats.h"

namespace caesar::core {

struct CaesarConfig {
  /// Ablation knob: when false, a proposal that would wait NACKs immediately
  /// (the behaviour of EPaxos-style protocols the paper §IV-A argues against).
  bool wait_enabled = true;
  /// 0 = use ⌈3N/4⌉ (paper §III); tests/ablations may override.
  std::size_t fast_quorum_override = 0;
  /// How long the leader waits for a fast quorum before settling for a
  /// classic quorum + slow proposal phase (paper §V-D).
  Time fast_timeout_us = 400 * kMs;
  /// Random stagger before starting recovery of a suspected leader's command
  /// (avoids duelling recoveries).
  Time recovery_stagger_us = 50 * kMs;
  /// Re-run a recovery that made no progress after this long.
  Time recovery_retry_us = 2 * kSec;
  /// Delivered-id gossip period driving garbage collection; 0 disables GC
  /// (tests that inspect full histories disable it).
  Time gossip_interval_us = 0;
  /// Progress-watchdog period: a stalled delivered count with undelivered
  /// backlog (blocked stables, in-flight entries that never resolve)
  /// triggers instance catch-up from a rotating live peer. 0 (the default,
  /// which no registered scenario overrides) disables the watchdog, leaving
  /// a rejoin the single request on_recover sends; the fault fuzz and
  /// state-transfer tests set it.
  Time catchup_interval_us = 0;
};

class Caesar final : public rt::Protocol {
 public:
  Caesar(rt::Env& env, DeliverFn deliver, CaesarConfig cfg,
         stats::ProtocolStats* stats);

  void start() override;
  void on_recover() override;
  void propose(rsm::Command cmd) override;
  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override;
  void on_node_suspected(NodeId peer) override;
  void on_node_recovered(NodeId peer) override;
  void on_catchup_request(NodeId from, net::Decoder& d) override;
  void on_catchup_reply(NodeId from, net::Decoder& d) override;
  std::string_view name() const override { return "Caesar"; }

  // --- introspection (tests / benches) ------------------------------------
  std::size_t fast_quorum() const { return fq_; }
  std::size_t classic_quorum() const { return cq_; }
  /// Status of a command in this node's history (kNone if unknown).
  Status status_of(CmdId id) const;
  /// Current predecessor set of a command in the history.
  IdSet pred_of(CmdId id) const;
  Timestamp ts_of(CmdId id) const;
  /// Commands in the history (records holding only a joined ballot, gossip
  /// acks or waiters do not count).
  std::size_t history_size() const;
  bool is_delivered(CmdId id) const { return delivered_.contains(id); }
  std::size_t parked_count() const { return parked_.size(); }
  /// Gossiped ids queued for catch-up as decisions this node missed.
  std::size_t catchup_hint_count() const { return catchup_hints_.size(); }

 private:
  // ---- history ------------------------------------------------------------
  /// Everything this node keeps about one command id. A record can exist
  /// before the command itself is known here (cmd.id == kNoCmd, status
  /// kNone): a recovery ballot joined for it, gossip acks, or stable
  /// commands waiting on its delivery. Such records are not part of the
  /// history H: status_of reports kNone and history walks skip them.
  struct CmdInfo {
    rsm::Command cmd;
    Timestamp ts;
    IdSet pred;
    Status status = Status::kNone;
    bool forced = false;  // predecessors forced by a recovery whitelist
    Ballot ballot = 0;    // ballot under which this tuple was written
    Ballot joined = 0;    // highest ballot joined for this id (TLA bal)
    std::uint32_t acks = 0;  // delivered-id gossip acks, own included
    /// Stable commands whose delivery waits on this id's.
    std::vector<CmdId> delivery_waiters;
    /// Tickets of proposals for this id parked by the wait condition
    /// (released as moot once its status advances past the proposal stage).
    std::vector<std::uint64_t> parked_tickets;
  };

  // ---- leader-side coordination --------------------------------------------
  enum class Phase : std::uint8_t { kFastProposal, kSlowProposal, kRetry, kDone };
  struct Coordinator {
    rsm::Command cmd;
    Ballot ballot = 0;
    Timestamp ts;
    IdSet pred;             // accumulated union of reply predecessor sets
    Phase phase = Phase::kFastProposal;
    std::unordered_set<NodeId> responded;
    std::uint32_t oks = 0;
    std::uint32_t nacks = 0;
    Timestamp max_ts;       // max timestamp over all replies (retry input)
    sim::EventId timeout = sim::kNoEvent;
    bool timeout_fired = false;
    bool fast = false;  // decided on the fast path
    // Instrumentation (paper Fig 11a).
    Time propose_start = 0;
    Time retry_start = 0;
    Time stable_sent = 0;
    bool propose_recorded = false;
  };

  // ---- recovery-side coordination ------------------------------------------
  struct RecoveryCoordinator {
    Ballot ballot = 0;
    std::vector<RecoveryReplyMsg> replies;
    std::unordered_set<NodeId> responded;
    sim::EventId retry_timer = sim::kNoEvent;
  };

  /// A proposal parked by the wait condition (§IV-A).
  struct Parked {
    CmdId cmd = kNoCmd;
    NodeId leader = kNoNode;
    Ballot ballot = 0;
    Timestamp ts;
    bool slow = false;  // true when parked by a SlowPropose
    IdSet msg_pred;     // pred carried by a SlowPropose
    Time parked_at = 0;
    /// Bumped on every (re-)registration in the waiter index; wake entries
    /// carrying an older epoch are stale and skipped.
    std::uint64_t wait_epoch = 0;
  };

  // ---- message handlers -----------------------------------------------------
  void handle_fast_propose(NodeId from, net::Decoder& d);
  void handle_slow_propose(NodeId from, net::Decoder& d);
  void handle_propose_reply(NodeId from, net::Decoder& d, bool slow);
  void handle_retry(NodeId from, net::Decoder& d);
  void handle_retry_reply(NodeId from, net::Decoder& d);
  void handle_stable(net::Decoder& d);
  void handle_recovery(NodeId from, net::Decoder& d);
  void handle_recovery_reply(NodeId from, net::Decoder& d);
  void handle_gossip(NodeId from, net::Decoder& d);

  // ---- leader phases (paper Fig 4, left column) ------------------------------
  void fast_proposal_phase(rsm::Command cmd, Ballot ballot, Timestamp ts,
                           std::optional<IdSet> whitelist);
  void slow_proposal_phase(CmdId id);
  void retry_phase(CmdId id);
  void stable_phase(CmdId id);
  void evaluate_fast_replies(CmdId id);
  void on_fast_timeout(CmdId id);

  // ---- acceptor helpers -------------------------------------------------------
  /// COMPUTEPREDECESSORS (paper Fig 3 lines 1-3).
  IdSet compute_predecessors(const rsm::Command& cmd, const Timestamp& ts,
                             const std::optional<IdSet>& whitelist);
  /// All conflicting commands with timestamp < ts (TLA CmdsWithLowerT).
  IdSet cmds_with_lower_ts(const rsm::Command& cmd, const Timestamp& ts);
  /// One pass over the conflict index: does anything block (pending rival
  /// with greater ts, us not among its predecessors) or force a NACK
  /// (accepted/stable such rival)? Implements WAIT of paper Fig 3.
  /// With `blockers`, every blocking rival is collected (no early exit) so a
  /// parked proposal can register for exactly the wakeups that matter to it.
  struct ConflictScan {
    bool blocked = false;
    bool reject = false;
  };
  ConflictScan scan_conflicts(const rsm::Command& cmd, const Timestamp& ts,
                              std::vector<CmdId>* blockers = nullptr);
  /// Finishes a proposal that is (no longer) blocked: replies OK or NACK.
  void answer_proposal(const Parked& p);
  /// Parks `p` and registers it in the waiter index under its blockers
  /// (deduplicated in place).
  void park_proposal(Parked p, std::vector<CmdId>& blockers);
  /// Registers `ticket` under every blocker at p's current wait epoch; the
  /// one registration path park_proposal and wake_dependents share.
  void register_waiters(std::uint64_t ticket, const Parked& p,
                        std::vector<CmdId>& blockers);
  /// Re-evaluates exactly the proposals waiting on `id` after its status
  /// advanced to accepted/stable; replaces the seed's full parked_ rescan.
  void wake_dependents(CmdId id);
  /// Removes one parked entry, optionally recording its wait time (pruned
  /// commands release silently, like the seed's rescan).
  void release_parked(std::uint64_t ticket, const Parked& p,
                      bool record_wait = true);

  // ---- history / index maintenance ------------------------------------------
  /// The record of a command in the history H, or nullptr when `id` is
  /// unknown here or has only a side record (see CmdInfo).
  CmdInfo* entry(CmdId id);
  /// Enters `cmd` into H through `info`, the record of cmd.id.
  static void adopt(CmdInfo& info, const rsm::Command& cmd);
  /// H.UPDATE from the paper: replaces the tuple and maintains the per-key
  /// timestamp index.
  void update_entry(CmdInfo& info, const Timestamp& ts, IdSet pred,
                    Status status, Ballot ballot, bool forced);
  void index_erase(const rsm::Command& cmd, const Timestamp& ts);

  // ---- stable / delivery ------------------------------------------------------
  void make_stable(CmdInfo& info, const rsm::Command& cmd, Ballot ballot,
                   const Timestamp& ts, IdSet pred);
  void break_loops(CmdId id);
  void try_deliver(CmdId id);
  void deliver_cascade(CmdId id);

  // ---- recovery ---------------------------------------------------------------
  void start_recovery(CmdId id);
  void finish_recovery(CmdId id);

  // ---- instance catch-up ------------------------------------------------------
  // CAESAR has no totally ordered log, so rejoin state transfer works in
  // *instance space*: the requester summarizes its stable knowledge as
  // per-origin sequence bounds plus an explicit list of instances it knows
  // exist but has not seen stable (in-flight entries, missing predecessors),
  // and the responder streams matching stable instances in chunks. Replay
  // goes through make_stable, i.e. the normal dependency-driven delivery.
  void catchup_tick();
  void request_catchup();

  // ---- gc ----------------------------------------------------------------------
  void gossip_tick();
  void maybe_prune(CmdId id);

  Ballot current_ballot(CmdId id) const;

  CaesarConfig cfg_;
  stats::ProtocolStats* stats_;
  std::size_t n_;
  std::size_t fq_;
  std::size_t cq_;
  TimestampClock clock_;

  /// One record per command id (CmdInfo): the history H plus the per-id
  /// protocol state kept beside it.
  CmdTable<CmdInfo> history_;
  /// Ids delivered here, kept after their records are pruned so a late
  /// duplicate STABLE or a successor's predecessor check still sees them.
  DeliveredIds delivered_;
  /// Per-key conflict index ordered by timestamp — the paper's red-black
  /// tree of conflicting commands (§VI), flattened to sorted vectors.
  KeyIndex key_index_;

  std::unordered_map<CmdId, Coordinator> coord_;
  std::unordered_map<CmdId, RecoveryCoordinator> recovery_;

  // --- wait-condition waiter index ---
  // Parked proposals keyed by a monotone ticket; per-blocker wakeup lists
  // mirror CmdInfo::delivery_waiters: a status change re-evaluates only the
  // proposals it can actually unblock, not the whole parked set.
  std::uint64_t next_park_ticket_ = 1;
  std::unordered_map<std::uint64_t, Parked> parked_;
  /// blocker cmd -> (ticket, wait_epoch) of proposals waiting on it. Entries
  /// whose epoch no longer matches the parked entry are stale (the proposal
  /// re-registered or was released) and are skipped on wake.
  std::unordered_map<CmdId, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      park_waiters_;

  // --- stable-path work buffers (reused across calls; no per-call alloc) ---
  std::vector<CmdId> cascade_queue_;  // deliver_cascade's FIFO
  std::vector<CmdId> lower_stable_;   // break_loops' two partitions
  std::vector<CmdId> higher_stable_;

  // --- gc state ---
  std::vector<CmdId> gossip_outbox_;

  // --- catch-up state ---
  /// Shared recovery machinery: failure-detector view, catch-up rotor and
  /// progress watchdog (runtime/recovery_driver.h). Revocation rounds are
  /// unused: CAESAR's ballot-protected per-command recovery (paper Fig 5)
  /// already resolves a dead leader's in-flight commands.
  rt::RecoveryDriver rec_;
  /// Cap on explicitly requested missing instances per catch-up request;
  /// the watchdog keeps re-requesting until the backlog drains, so the cap
  /// only bounds one round, not total transfer.
  static constexpr std::size_t kCatchupMaxWanted = 512;
  /// Delivered ids gossiped by peers that are neither stable nor delivered
  /// here: each is proof of a decision this node missed (e.g. a STABLE
  /// broadcast cut down mid-flight by the sender's crash), so they count as
  /// watchdog backlog and ride the catch-up wanted list. Pruned lazily once
  /// stable locally.
  std::unordered_set<CmdId> catchup_hints_;
};

}  // namespace caesar::core
