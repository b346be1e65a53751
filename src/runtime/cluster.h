// Cluster: wires a Simulator, a Network and N protocol-hosting Nodes, plus a
// simulated failure detector (crash -> suspicion upcall after a timeout),
// which the paper's model assumes (§III: weakest FD sufficient for leader
// election).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "runtime/node.h"

namespace caesar::rt {

struct ClusterConfig {
  NodeConfig node;
  /// Delay between a crash and every live node's failure detector reporting
  /// the suspicion.
  Time fd_timeout_us = 500 * kMs;
  /// FD/partition coupling: when a link stays cut past fd_timeout_us, each
  /// endpoint suspects the peer on the far side (an eventually-accurate FD
  /// cannot tell a partitioned peer from a crashed one); the suspicion is
  /// retracted one detector delay after the link heals.
  bool suspect_partitions = false;
  /// Durable storage (WAL + snapshots). Off unless data_dir is set; each
  /// node then persists under <data_dir>/node-<id>/ and restart() can
  /// rebuild it from disk.
  storage::StorageConfig storage;
};

class Cluster {
 public:
  /// Builds the protocol instance for one node.
  using ProtocolFactory =
      std::function<std::unique_ptr<Protocol>(Env&, Protocol::DeliverFn)>;
  /// Observes every delivery (node, command) — metrics, state machine, tests.
  /// Batch composites are unbundled before this hook fires: observers always
  /// see individual client commands (rsm::batch_member), never composites.
  /// A member is only valid during the call (rsm::for_each_member rewrites
  /// one Command per composite); observers copy what they keep.
  using DeliverHook = std::function<void(NodeId, const rsm::Command&)>;
  /// Observes every protocol-level delivery (one consensus instance — a
  /// single command or a whole batch composite) after its members went
  /// through the DeliverHook. Mirrors that track the protocol's own
  /// delivered-instance count (e.g. the harness's restart bookkeeping) hang
  /// off this.
  using InstanceHook = std::function<void(NodeId)>;

  Cluster(sim::Simulator& sim, const net::Topology& topo, ClusterConfig cfg,
          const ProtocolFactory& factory, DeliverHook on_deliver);

  std::size_t size() const { return nodes_.size(); }
  Node& node(NodeId id) { return *nodes_[id]; }
  net::Network& network() { return net_; }
  sim::Simulator& simulator() { return sim_; }

  /// Calls Protocol::start on every node.
  void start();

  /// Crashes `id` now and schedules suspicion upcalls on all live nodes.
  void crash(NodeId id);

  /// Restarts a crashed `id` (state intact, as if from stable storage) and
  /// schedules suspicion-retraction upcalls on all live nodes after the same
  /// failure-detector delay. No-op if `id` is not crashed.
  void recover(NodeId id);

  /// Restart-from-disk: reinstalls a fresh protocol instance on crashed
  /// `id`, rebuilt from the node's durable state (snapshot + WAL replay via
  /// Protocol::on_restore), then rejoins it like recover(). In-memory state
  /// the WAL had not flushed is gone — the PR-5 catch-up path fetches it
  /// from live peers. Requires cfg.storage to be enabled.
  void restart(NodeId id);

  /// Observes every restart's replayed state before the node rejoins —
  /// the harness rewinds its order checker and re-seeds its store mirrors
  /// here.
  using RestartHook =
      std::function<void(NodeId, const storage::RecoveredState&)>;
  void set_restart_hook(RestartHook h) { restart_hook_ = std::move(h); }

  /// Forwarded from Node: a catch-up snapshot install replaced `id`'s store.
  using SnapshotInstallHook = std::function<void(
      NodeId, const rsm::KvStore&, std::uint64_t delivered_count)>;
  void set_snapshot_install_hook(SnapshotInstallHook h);

  void set_instance_hook(InstanceHook h) { instance_hook_ = std::move(h); }

  /// Cuts (up=false) or restores (up=true) both directions of the a<->b
  /// link — the cluster-level handle fault schedules use for partitions.
  /// With cfg.suspect_partitions, cutting also arms the failure detector:
  /// after fd_timeout_us of continuous outage the endpoints suspect each
  /// other; healing retracts the suspicion after the same delay.
  void set_link(NodeId a, NodeId b, bool up);

  /// Failure-detector upcalls issued so far (one per observer, i.e. a
  /// partition-induced suspicion counts twice — once on each side).
  std::uint64_t fd_suspicions() const { return fd_suspicions_; }
  std::uint64_t fd_retractions() const { return fd_retractions_; }

 private:
  /// Symmetric per-pair state, stored at [min(a,b)][max(a,b)].
  struct LinkFd {
    /// Bumped on every set_link for the pair; fences stale FD timers.
    std::uint64_t epoch = 0;
    bool suspected = false;
  };
  LinkFd& link_fd(NodeId a, NodeId b);
  /// Per-node delivery funnel: feeds the origin's batcher (pipelining
  /// feedback), unbundles batch composites for the DeliverHook, then fires
  /// the InstanceHook.
  void handle_delivery(NodeId node, const rsm::Command& cmd);
  void arm_partition_fd(NodeId a, NodeId b, std::uint64_t epoch);
  void suspect_pair(NodeId a, NodeId b);
  void retract_pair(NodeId a, NodeId b);

  sim::Simulator& sim_;
  net::Network net_;
  ClusterConfig cfg_;
  DeliverHook on_deliver_;
  /// Retained so restart() can build a fresh protocol instance for a node
  /// coming back from disk.
  ProtocolFactory factory_;
  RestartHook restart_hook_;
  InstanceHook instance_hook_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::vector<LinkFd>> link_fd_;
  /// crash_suspects_[peer][subject]: peer's detector currently suspects
  /// subject because of a crash. Keeps the suspicion/retraction counters
  /// paired when a node crashes and recovers within one FD timeout (the
  /// suspicion never fires, so the recovery must not count a retraction).
  std::vector<std::vector<bool>> crash_suspects_;
  std::uint64_t fd_suspicions_ = 0;
  std::uint64_t fd_retractions_ = 0;
};

}  // namespace caesar::rt
