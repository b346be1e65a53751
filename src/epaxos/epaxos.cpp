#include "epaxos/epaxos.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "rsm/log_snapshot.h"

namespace caesar::epaxos {

namespace {
constexpr Time kEntriesPerUs = 16;
/// Dependency-graph execution is pointer-chasing over hash maps with stack
/// bookkeeping (Tarjan); calibrated at ~0.5us per visited node. This is the
/// delivery cost the paper blames for EPaxos' degradation under load
/// (§VI-A, Figs 8/9).
constexpr Time kGraphNodesPerUs = 2;

void encode_instance_msg(net::Encoder& e, InstanceId iid, Ballot ballot,
                         const rsm::Command& cmd, std::uint64_t seq,
                         const IdSet& deps) {
  e.put_u64(iid);
  e.put_u64(ballot);
  cmd.encode(e);
  e.put_varint(seq);
  e.put_id_set(deps);
}

struct InstanceMsg {
  InstanceId iid;
  Ballot ballot;
  rsm::Command cmd;
  std::uint64_t seq;
  IdSet deps;
};

InstanceMsg decode_instance_msg(net::Decoder& d) {
  InstanceMsg m;
  m.iid = d.get_u64();
  m.ballot = d.get_u64();
  m.cmd = rsm::Command::decode(d);
  m.seq = d.get_varint();
  m.deps = d.get_id_set();
  return m;
}
}  // namespace

EPaxos::EPaxos(rt::Env& env, DeliverFn deliver, EPaxosConfig cfg,
               stats::ProtocolStats* stats)
    : rt::Protocol(env, std::move(deliver)),
      cfg_(cfg),
      stats_(stats),
      n_(env.cluster_size()),
      fq_(epaxos_fast_quorum_size(env.cluster_size())),
      cq_(classic_quorum_size(env.cluster_size())),
      rec_(env.id(), env.cluster_size(),
           classic_quorum_size(env.cluster_size())) {}

void EPaxos::start() {
  if (cfg_.catchup_interval_us > 0) {
    env_.set_timer(cfg_.catchup_interval_us, [this] { catchup_tick(); });
  }
}

void EPaxos::on_recover() {
  start();
  rec_.reset_suspicions();
  // In-flight coordinators and recoveries lost their outstanding messages in
  // the outage. Re-drive each instance through the ballot-protected explicit
  // prepare: peers may have advanced (or no-op'd) it meanwhile, and prepare
  // converges on whatever the cluster decided. Timer ids are stale after a
  // crash and must not be cancelled.
  std::vector<InstanceId> redrive;
  for (auto& [iid, rc] : recovery_) {
    rc.retry_timer = sim::kNoEvent;
    redrive.push_back(iid);
  }
  recovery_.clear();
  for (const auto& [iid, c] : coord_) redrive.push_back(iid);
  coord_.clear();
  std::sort(redrive.begin(), redrive.end());
  redrive.erase(std::unique(redrive.begin(), redrive.end()), redrive.end());
  for (InstanceId iid : redrive) start_recovery(iid);
  request_catchup();
}

bool EPaxos::is_executed(InstanceId iid) const {
  auto it = instances_.find(iid);
  return it != instances_.end() && it->second.status == IStatus::kExecuted;
}

bool EPaxos::is_committed(InstanceId iid) const {
  auto it = instances_.find(iid);
  return it != instances_.end() && (it->second.status == IStatus::kCommitted ||
                                    it->second.status == IStatus::kExecuted);
}

std::uint64_t EPaxos::seq_of(InstanceId iid) const {
  auto it = instances_.find(iid);
  return it == instances_.end() ? 0 : it->second.seq;
}

IdSet EPaxos::deps_of(InstanceId iid) const {
  auto it = instances_.find(iid);
  return it == instances_.end() ? IdSet{} : it->second.deps;
}

// ---------------------------------------------------------------------------
// Attributes
// ---------------------------------------------------------------------------

std::pair<std::uint64_t, IdSet> EPaxos::attributes_for(const rsm::Command& cmd,
                                                       InstanceId self) {
  std::uint64_t seq = 1;
  std::vector<std::uint64_t> deps;
  Time scanned = 0;
  for (const rsm::Op& op : cmd.ops) {
    auto it = key_info_.find(op.key);
    if (it == key_info_.end()) continue;
    seq = std::max(seq, it->second.max_seq + 1);
    for (const auto& [replica, iid] : it->second.latest) {
      ++scanned;
      if (iid != self) deps.push_back(iid);
    }
  }
  env_.charge_cpu(scanned / kEntriesPerUs);
  return {seq, IdSet::from_vector(std::move(deps))};
}

void EPaxos::note_instance(InstanceId iid, const rsm::Command& cmd,
                           std::uint64_t seq) {
  const NodeId leader = iid_leader(iid);
  for (const rsm::Op& op : cmd.ops) {
    KeyInfo& info = key_info_[op.key];
    auto [it, inserted] = info.latest.try_emplace(leader, iid);
    if (!inserted && iid_slot(iid) > iid_slot(it->second)) it->second = iid;
    if (seq > info.max_seq) info.max_seq = seq;
  }
}

// ---------------------------------------------------------------------------
// Leader: propose / PreAccept
// ---------------------------------------------------------------------------

void EPaxos::propose(rsm::Command cmd) {
  const InstanceId iid = make_iid(env_.id(), ++next_slot_);
  auto [seq, deps] = attributes_for(cmd, iid);

  Instance& inst = instances_[iid];
  inst.cmd = cmd;
  inst.seq = seq;
  inst.deps = deps;
  inst.status = IStatus::kPreAccepted;
  inst.ballot = 0;
  note_instance(iid, cmd, seq);

  Coordinator& c = coord_[iid];
  c = Coordinator{};
  c.ballot = 0;
  c.seq = seq;
  c.deps = deps;
  c.max_seq = seq;
  c.union_deps = deps;
  c.start = env_.now();

  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, 0, cmd, seq, deps);
  env_.broadcast(kPreAccept, std::move(e), /*include_self=*/false);
}

void EPaxos::handle_pre_accept(NodeId from, net::Decoder& d) {
  InstanceMsg m = decode_instance_msg(d);
  Instance& inst = instances_[m.iid];
  if (inst.ballot > m.ballot) return;
  if (inst.status == IStatus::kCommitted || inst.status == IStatus::kExecuted)
    return;

  auto [local_seq, local_deps] = attributes_for(m.cmd, m.iid);
  const std::uint64_t seq = std::max(m.seq, local_seq);
  IdSet deps = m.deps;
  deps.merge(local_deps);
  const bool changed = (seq != m.seq) || !(deps == m.deps);

  inst.cmd = m.cmd;
  inst.seq = seq;
  inst.deps = deps;
  inst.status = IStatus::kPreAccepted;
  inst.ballot = m.ballot;
  note_instance(m.iid, m.cmd, seq);

  net::Encoder e = env_.encoder();
  e.put_u64(m.iid);
  e.put_u64(m.ballot);
  e.put_varint(seq);
  e.put_id_set(deps);
  e.put_bool(changed);
  env_.send(from, kPreAcceptReply, std::move(e));
}

void EPaxos::handle_pre_accept_reply(NodeId from, net::Decoder& d) {
  (void)from;
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  const std::uint64_t seq = d.get_varint();
  IdSet deps = d.get_id_set();
  const bool changed = d.get_bool();

  auto it = coord_.find(iid);
  if (it == coord_.end()) return;
  Coordinator& c = it->second;
  if (c.ballot != ballot || c.phase != Phase::kPreAccept) return;
  ++c.replies;
  if (changed) ++c.changed;
  c.max_seq = std::max(c.max_seq, seq);
  c.union_deps.merge(deps);
  env_.charge_cpu(static_cast<Time>(deps.size()) / kEntriesPerUs);

  // EPaxos fast-path rule: leader + (fq-1) other replies, all with the
  // leader's attributes untouched. Any disagreement -> Paxos-Accept round.
  if (c.replies == fq_ - 1) {
    if (c.changed == 0) {
      commit(iid, c.seq, c.deps, /*fast=*/true);
    } else {
      start_accept_phase(iid, c.max_seq, c.union_deps);
    }
  }
}

// ---------------------------------------------------------------------------
// Accept phase (slow path)
// ---------------------------------------------------------------------------

void EPaxos::start_accept_phase(InstanceId iid, std::uint64_t seq, IdSet deps) {
  Instance& inst = instances_[iid];
  // The decision may have raced in (a commit broadcast or catch-up reply
  // landing between quorum formation and this call): regressing a committed —
  // worse, executed — instance to kAccepted would let the eventual re-commit
  // deliver it a second time. The decision is in; stand down.
  if (inst.status == IStatus::kCommitted || inst.status == IStatus::kExecuted) {
    coord_.erase(iid);
    return;
  }
  auto it = coord_.find(iid);
  assert(it != coord_.end());
  Coordinator& c = it->second;
  c.phase = Phase::kAccept;
  c.seq = seq;
  c.deps = deps;
  c.accept_acks = 1;  // self

  inst.seq = seq;
  inst.deps = deps;
  inst.status = IStatus::kAccepted;
  inst.ballot = c.ballot;
  note_instance(iid, inst.cmd, seq);

  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, c.ballot, inst.cmd, seq, deps);
  env_.broadcast(kAccept, std::move(e), /*include_self=*/false);
}

void EPaxos::handle_accept(NodeId from, net::Decoder& d) {
  InstanceMsg m = decode_instance_msg(d);
  Instance& inst = instances_[m.iid];
  if (inst.ballot > m.ballot) return;
  if (inst.status == IStatus::kCommitted || inst.status == IStatus::kExecuted)
    return;
  inst.cmd = m.cmd;
  inst.seq = m.seq;
  inst.deps = m.deps;
  inst.status = IStatus::kAccepted;
  inst.ballot = m.ballot;
  note_instance(m.iid, m.cmd, m.seq);

  net::Encoder e = env_.encoder();
  e.put_u64(m.iid);
  e.put_u64(m.ballot);
  env_.send(from, kAcceptReply, std::move(e));
}

void EPaxos::handle_accept_reply(NodeId from, net::Decoder& d) {
  (void)from;
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  auto it = coord_.find(iid);
  if (it == coord_.end()) return;
  Coordinator& c = it->second;
  if (c.ballot != ballot || c.phase != Phase::kAccept) return;
  ++c.accept_acks;
  if (c.accept_acks == cq_) {
    commit(iid, c.seq, c.deps, /*fast=*/false);
  }
}

// ---------------------------------------------------------------------------
// Commit + execution
// ---------------------------------------------------------------------------

void EPaxos::commit(InstanceId iid, std::uint64_t seq, IdSet deps, bool fast) {
  auto it = coord_.find(iid);
  assert(it != coord_.end());
  Coordinator& c = it->second;
  c.phase = Phase::kDone;
  if (stats_ != nullptr) {
    if (fast) {
      ++stats_->fast_decisions;
    } else {
      ++stats_->slow_decisions;
    }
    stats_->propose_phase.record(env_.now() - c.start);
  }
  const rsm::Command cmd = instances_[iid].cmd;  // copy: apply_commit mutates
  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, c.ballot, cmd, seq, deps);
  env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  apply_commit(iid, cmd, seq, std::move(deps));
  coord_.erase(iid);
}

void EPaxos::handle_commit(net::Decoder& d) {
  InstanceMsg m = decode_instance_msg(d);
  apply_commit(m.iid, m.cmd, m.seq, std::move(m.deps));
}

void EPaxos::apply_commit(InstanceId iid, const rsm::Command& cmd,
                          std::uint64_t seq, IdSet deps) {
  Instance& inst = instances_[iid];
  if (inst.status == IStatus::kCommitted || inst.status == IStatus::kExecuted)
    return;
  inst.cmd = cmd;
  inst.seq = seq;
  inst.deps = std::move(deps);
  inst.status = IStatus::kCommitted;
  note_instance(iid, cmd, seq);
  unknown_deps_.erase(iid);

  try_execute(iid);
  // Wake instances whose execution was blocked on this commit.
  auto w = exec_waiters_.find(iid);
  if (w != exec_waiters_.end()) {
    std::vector<InstanceId> roots = std::move(w->second);
    exec_waiters_.erase(w);
    for (InstanceId root : roots) try_execute(root);
  }
}

void EPaxos::execute_instance(Instance& inst, InstanceId iid) {
  inst.status = IStatus::kExecuted;
  ++executed_count_;
  if (!inst.cmd.ops.empty()) deliver_(inst.cmd);
  (void)iid;
}

void EPaxos::try_execute(InstanceId root) {
  {
    auto rit = instances_.find(root);
    if (rit == instances_.end() || rit->second.status != IStatus::kCommitted)
      return;
  }
  // Iterative Tarjan over committed-but-unexecuted instances reachable from
  // `root`. Components pop in dependency order (a component is emitted only
  // after everything it reaches), so executing them in emission order
  // respects the dependency graph; ties inside a component break by (seq,
  // instance id) — exactly EPaxos' execution algorithm.
  std::unordered_map<InstanceId, std::uint32_t> index, lowlink;
  std::unordered_set<InstanceId> on_stack;
  std::vector<InstanceId> stack;
  std::uint32_t next_index = 1;
  Time visited = 0;

  struct Frame {
    InstanceId iid;
    std::size_t dep_idx;
  };
  std::vector<Frame> frames;
  std::vector<std::vector<InstanceId>> components;

  auto push_node = [&](InstanceId v) {
    index[v] = lowlink[v] = next_index++;
    stack.push_back(v);
    on_stack.insert(v);
    frames.push_back(Frame{v, 0});
  };
  push_node(root);

  while (!frames.empty()) {
    Frame& f = frames.back();
    Instance& inst = instances_.at(f.iid);
    bool descended = false;
    while (f.dep_idx < inst.deps.size()) {
      const InstanceId dep = *(inst.deps.begin() + static_cast<std::ptrdiff_t>(f.dep_idx));
      ++f.dep_idx;
      ++visited;
      auto dit = instances_.find(dep);
      if (dit == instances_.end() || dit->second.status == IStatus::kNone ||
          dit->second.status == IStatus::kPreAccepted ||
          dit->second.status == IStatus::kAccepted) {
        // Not committed yet: cannot linearize; park and retry on commit.
        if (dit == instances_.end()) unknown_deps_.insert(dep);
        exec_waiters_[dep].push_back(root);
        env_.charge_cpu(visited / kGraphNodesPerUs);
        return;
      }
      if (dit->second.status == IStatus::kExecuted) continue;
      auto idx_it = index.find(dep);
      if (idx_it == index.end()) {
        push_node(dep);
        descended = true;
        break;
      }
      if (on_stack.count(dep) != 0) {
        lowlink[f.iid] = std::min(lowlink[f.iid], idx_it->second);
      }
    }
    if (descended) continue;
    // Node finished: pop component if root of SCC.
    const InstanceId v = f.iid;
    frames.pop_back();
    if (!frames.empty()) {
      lowlink[frames.back().iid] =
          std::min(lowlink[frames.back().iid], lowlink[v]);
    }
    if (lowlink[v] == index[v]) {
      std::vector<InstanceId> comp;
      while (true) {
        const InstanceId w = stack.back();
        stack.pop_back();
        on_stack.erase(w);
        comp.push_back(w);
        if (w == v) break;
      }
      components.push_back(std::move(comp));
    }
  }

  env_.charge_cpu(visited / kGraphNodesPerUs);
  for (auto& comp : components) {
    std::sort(comp.begin(), comp.end(), [this](InstanceId a, InstanceId b) {
      const Instance& ia = instances_.at(a);
      const Instance& ib = instances_.at(b);
      if (ia.seq != ib.seq) return ia.seq < ib.seq;
      return a < b;
    });
    for (InstanceId v : comp) {
      Instance& inst = instances_.at(v);
      if (inst.status == IStatus::kCommitted) execute_instance(inst, v);
    }
  }
  if (stats_ != nullptr && !components.empty()) {
    stats_->deliver_phase.record(visited);  // graph work proxy
  }
}

// ---------------------------------------------------------------------------
// Recovery (simplified explicit prepare)
// ---------------------------------------------------------------------------

void EPaxos::on_node_suspected(NodeId peer) {
  rec_.note_suspected(peer);
  std::vector<InstanceId> to_recover;
  for (const auto& [iid, inst] : instances_) {
    if (iid_leader(iid) != peer) continue;
    if (inst.status == IStatus::kCommitted || inst.status == IStatus::kExecuted)
      continue;
    if (inst.status == IStatus::kNone) continue;
    to_recover.push_back(iid);
  }
  for (InstanceId iid : unknown_deps_) {
    if (iid_leader(iid) == peer) to_recover.push_back(iid);
  }
  for (InstanceId iid : to_recover) {
    const Time stagger = static_cast<Time>(env_.rng().uniform_int(
        static_cast<std::uint64_t>(cfg_.recovery_stagger_us) + 1));
    env_.set_timer(stagger, [this, iid] { start_recovery(iid); });
  }
}

void EPaxos::start_recovery(InstanceId iid) {
  auto it = instances_.find(iid);
  if (it != instances_.end() && (it->second.status == IStatus::kCommitted ||
                                 it->second.status == IStatus::kExecuted)) {
    return;
  }
  if (recovery_.count(iid) != 0) return;
  if (stats_ != nullptr) ++stats_->recoveries;
  const Ballot current = it == instances_.end() ? 0 : it->second.ballot;
  const Ballot nb = make_ballot(ballot_round(current) + 1, env_.id());
  RecoveryCoordinator& rc = recovery_[iid];
  rc.ballot = nb;
  net::Encoder e = env_.encoder();
  e.put_u64(iid);
  e.put_u64(nb);
  env_.broadcast(kPrepare, std::move(e), /*include_self=*/true);
  rc.retry_timer = env_.set_timer(cfg_.recovery_retry_us, [this, iid] {
    recovery_.erase(iid);
    start_recovery(iid);
  });
}

void EPaxos::handle_prepare(NodeId from, net::Decoder& d) {
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  Instance& inst = instances_[iid];
  // Stale prepare: stay silent; the recoverer's retry timer handles it.
  if (ballot <= inst.ballot && inst.status != IStatus::kNone) return;
  inst.ballot = ballot;
  // Stand down as coordinator if we were competing at a lower ballot.
  auto cit = coord_.find(iid);
  if (cit != coord_.end() && cit->second.ballot < ballot) coord_.erase(cit);

  net::Encoder e = env_.encoder();
  e.put_u64(iid);
  e.put_u64(ballot);
  e.put_u8(static_cast<std::uint8_t>(inst.status));
  inst.cmd.encode(e);
  e.put_varint(inst.seq);
  e.put_id_set(inst.deps);
  env_.send(from, kPrepareReply, std::move(e));
}

void EPaxos::handle_prepare_reply(NodeId from, net::Decoder& d) {
  const InstanceId iid = d.get_u64();
  const Ballot ballot = d.get_u64();
  Instance info;
  info.status = static_cast<IStatus>(d.get_u8());
  info.cmd = rsm::Command::decode(d);
  info.seq = d.get_varint();
  info.deps = d.get_id_set();

  auto it = recovery_.find(iid);
  if (it == recovery_.end() || it->second.ballot != ballot) return;
  RecoveryCoordinator& rc = it->second;
  if (!rc.responded.insert(from).second) return;
  const bool has_info = info.status != IStatus::kNone;
  rc.replies.emplace_back(from, std::move(info), has_info);
  if (rc.responded.size() == cq_) finish_recovery(iid);
}

void EPaxos::finish_recovery(InstanceId iid) {
  auto rit = recovery_.find(iid);
  assert(rit != recovery_.end());
  RecoveryCoordinator rc = std::move(rit->second);
  recovery_.erase(rit);
  if (rc.retry_timer != sim::kNoEvent) env_.cancel_timer(rc.retry_timer);

  // Prepare replies are snapshots from when the prepare went out; the real
  // commit may have raced them in (delivered — even executed — here while
  // the last reply was in flight). Re-announce the decided value instead of
  // regressing the instance through another accept round or a no-op fill.
  {
    auto iit = instances_.find(iid);
    if (iit != instances_.end() &&
        (iit->second.status == IStatus::kCommitted ||
         iit->second.status == IStatus::kExecuted)) {
      const Instance& inst = iit->second;
      net::Encoder e = env_.encoder();
      encode_instance_msg(e, iid, rc.ballot, inst.cmd, inst.seq, inst.deps);
      env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
      return;
    }
  }

  const Instance* committed = nullptr;
  const Instance* accepted = nullptr;
  std::vector<const Instance*> preaccepted;
  for (const auto& [from, info, has] : rc.replies) {
    (void)from;
    if (!has) continue;
    switch (info.status) {
      case IStatus::kCommitted:
      case IStatus::kExecuted:
        committed = &info;
        break;
      case IStatus::kAccepted:
        accepted = &info;
        break;
      case IStatus::kPreAccepted:
        preaccepted.push_back(&info);
        break;
      default:
        break;
    }
  }

  Coordinator& c = coord_[iid];
  c = Coordinator{};
  c.ballot = rc.ballot;
  c.start = env_.now();

  if (committed != nullptr) {
    // Someone saw the commit: just re-broadcast it.
    Instance& inst = instances_[iid];
    inst.cmd = committed->cmd;
    c.phase = Phase::kDone;
    coord_.erase(iid);
    net::Encoder e = env_.encoder();
    encode_instance_msg(e, iid, rc.ballot, committed->cmd, committed->seq,
                        committed->deps);
    env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
    apply_commit(iid, committed->cmd, committed->seq, committed->deps);
    return;
  }
  if (accepted != nullptr) {
    instances_[iid].cmd = accepted->cmd;
    start_accept_phase(iid, accepted->seq, accepted->deps);
    return;
  }
  if (!preaccepted.empty()) {
    // If >= floor(CQ/2)+1 identical pre-accepts exist, the fast path may
    // have fired with those attributes: adopt them via Accept. The shortcut
    // is meaningless when this node leads the instance — only the leader
    // can take the fast path, and it is recovering precisely because it
    // never committed — so a self-led recovery always re-runs PreAccept.
    const Instance* chosen = nullptr;
    if (iid_leader(iid) != env_.id()) {
      const std::size_t threshold = cq_ / 2 + 1;
      for (const Instance* a : preaccepted) {
        std::size_t same = 0;
        for (const Instance* b : preaccepted) {
          if (a->seq == b->seq && a->deps == b->deps) ++same;
        }
        if (same >= threshold) {
          chosen = a;
          break;
        }
      }
    }
    if (chosen != nullptr) {
      instances_[iid].cmd = chosen->cmd;
      start_accept_phase(iid, chosen->seq, chosen->deps);
      return;
    }
    // No fast-path evidence. The surviving pre-accepts are snapshots from
    // before the outage: commands proposed meanwhile never made it into
    // their attributes, and pushing the stale union through Accept (which
    // stores attributes verbatim) would commit an interfering command with
    // no ordering edge to its rivals. Instead re-run the PreAccept round at
    // the recovery ballot, seeded with the union plus locally recomputed
    // interference — acceptors fold in whatever they learned since, and any
    // disagreement routes through the normal slow path. This stands in for
    // the paper's TryPreAccept, which this implementation does not have.
    const rsm::Command cmd = preaccepted.front()->cmd;
    auto [seq, deps] = attributes_for(cmd, iid);
    for (const Instance* a : preaccepted) {
      seq = std::max(seq, a->seq);
      deps.merge(a->deps);
    }
    Instance& inst = instances_[iid];
    inst.cmd = cmd;
    inst.seq = seq;
    inst.deps = deps;
    inst.status = IStatus::kPreAccepted;
    inst.ballot = rc.ballot;
    note_instance(iid, cmd, seq);
    c.seq = seq;
    c.deps = deps;
    c.max_seq = seq;
    c.union_deps = deps;
    net::Encoder e = env_.encoder();
    encode_instance_msg(e, iid, rc.ballot, cmd, seq, deps);
    env_.broadcast(kPreAccept, std::move(e), /*include_self=*/false);
    return;
  }
  // Nobody knows the instance: commit a no-op to fill the slot.
  rsm::Command noop;
  noop.id = iid;
  noop.origin = iid_leader(iid);
  Instance& inst = instances_[iid];
  inst.cmd = noop;
  c.phase = Phase::kDone;
  coord_.erase(iid);
  net::Encoder e = env_.encoder();
  encode_instance_msg(e, iid, rc.ballot, noop, 0, IdSet{});
  env_.broadcast(kCommit, std::move(e), /*include_self=*/false);
  apply_commit(iid, noop, 0, IdSet{});
}

void EPaxos::on_node_recovered(NodeId peer) {
  // Clears the suspicion; the rejoiner pulls what it missed via its own
  // catch-up, so nothing to push from this side.
  rec_.note_recovered(peer);
}

// ---------------------------------------------------------------------------
// Instance catch-up (rejoin state transfer)
// ---------------------------------------------------------------------------
// Leader columns are dense — slots come from a per-leader counter starting at
// 1 — and instances are never pruned, so one committed-prefix frontier per
// leader captures everything this node can be missing: the responder streams
// every committed instance at/above each frontier. Re-shipping instances the
// requester already has above its first hole is harmless (apply_commit is
// idempotent) and the hole fills on the first successful round, so frontiers
// stay tight in steady state.

std::vector<std::uint64_t> EPaxos::committed_frontiers(bool* any_hole) const {
  std::vector<std::vector<std::uint64_t>> committed(n_);
  for (const auto& [iid, inst] : instances_) {
    if (inst.status != IStatus::kCommitted &&
        inst.status != IStatus::kExecuted) {
      continue;
    }
    const NodeId leader = iid_leader(iid);
    if (leader < n_) committed[leader].push_back(iid_slot(iid));
  }
  std::vector<std::uint64_t> frontier(n_, 1);
  for (std::size_t l = 0; l < n_; ++l) {
    std::sort(committed[l].begin(), committed[l].end());
    std::uint64_t f = 1;
    for (std::uint64_t s : committed[l]) {
      if (s != f) break;
      ++f;
    }
    frontier[l] = f;
    if (any_hole != nullptr && !committed[l].empty() &&
        committed[l].back() >= f) {
      *any_hole = true;
    }
  }
  return frontier;
}

void EPaxos::catchup_tick() {
  env_.set_timer(cfg_.catchup_interval_us, [this] { catchup_tick(); });
  // Backlog evidence: a column hole (a committed slot above an uncommitted
  // one — that commit was dropped while a link was down and nothing local
  // may reference it), execution blocked on an unresolved dependency, or
  // any instance stuck short of execution. Together with a stalled
  // execution frontier that means this node is missing decisions it cannot
  // reach through normal traffic.
  bool backlog = false;
  committed_frontiers(&backlog);
  if (!backlog) backlog = !exec_waiters_.empty() || !unknown_deps_.empty();
  if (!backlog) {
    for (const auto& [iid, inst] : instances_) {
      if (inst.status != IStatus::kNone && inst.status != IStatus::kExecuted) {
        backlog = true;
        break;
      }
    }
  }
  if (rec_.watchdog_tick(executed_count_, backlog)) request_catchup();
}

void EPaxos::request_catchup() {
  // Per-leader committed-prefix frontier: smallest slot not committed here.
  const std::vector<std::uint64_t> frontier = committed_frontiers(nullptr);
  auto body = [&](net::Encoder& e) {
    e.put_varint(n_);
    for (std::uint64_t f : frontier) e.put_varint(f);
  };
  rec_.request_instance_catchup(*this, body, stats_);
}

void EPaxos::on_catchup_request(NodeId from, net::Decoder& d) {
  auto choose = [this](net::Decoder& req) {
    const std::uint64_t nl = req.get_varint();
    std::vector<std::uint64_t> frontier(nl, 0);
    for (std::uint64_t i = 0; i < nl; ++i) frontier[i] = req.get_varint();
    std::vector<InstanceId> ship;
    for (const auto& [iid, inst] : instances_) {
      if (inst.status != IStatus::kCommitted &&
          inst.status != IStatus::kExecuted) {
        continue;
      }
      const NodeId leader = iid_leader(iid);
      if (leader < frontier.size() && iid_slot(iid) >= frontier[leader]) {
        ship.push_back(iid);
      }
    }
    std::sort(ship.begin(), ship.end());  // deterministic frame contents
    return ship;
  };
  auto write_item = [this](net::Encoder& e, InstanceId iid) {
    const Instance& inst = instances_.at(iid);
    encode_instance_msg(e, iid, inst.ballot, inst.cmd, inst.seq, inst.deps);
  };
  rt::RecoveryDriver::serve_instance_catchup(*this, from, d, choose,
                                             write_item, stats_);
}

void EPaxos::on_catchup_reply(NodeId /*from*/, net::Decoder& d) {
  auto apply = [this](net::Decoder& item) {
    InstanceMsg m = decode_instance_msg(item);
    const bool news = !is_committed(m.iid);
    // A coordinator of ours still in flight for this instance is obsolete —
    // the decision is in; it must not push a dead ballot any further.
    coord_.erase(m.iid);
    apply_commit(m.iid, m.cmd, m.seq, std::move(m.deps));
    return news;
  };
  rec_.read_instance_reply(d, apply, stats_);
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

void EPaxos::on_message(NodeId from, std::uint16_t type, net::Decoder& d) {
  switch (static_cast<MsgType>(type)) {
    case kPreAccept:
      handle_pre_accept(from, d);
      break;
    case kPreAcceptReply:
      handle_pre_accept_reply(from, d);
      break;
    case kAccept:
      handle_accept(from, d);
      break;
    case kAcceptReply:
      handle_accept_reply(from, d);
      break;
    case kCommit:
      handle_commit(d);
      break;
    case kPrepare:
      handle_prepare(from, d);
      break;
    case kPrepareReply:
      handle_prepare_reply(from, d);
      break;
    default:
      log::warn("epaxos: unknown message type ", type);
  }
}

}  // namespace caesar::epaxos
