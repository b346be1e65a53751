#include "runtime/cluster.h"

#include <algorithm>

namespace caesar::rt {

Cluster::Cluster(sim::Simulator& sim, const net::Topology& topo,
                 ClusterConfig cfg, const ProtocolFactory& factory,
                 DeliverHook on_deliver)
    : sim_(sim),
      net_(sim, topo),
      cfg_(cfg),
      on_deliver_(std::move(on_deliver)),
      factory_(factory) {
  const std::size_t n = topo.size();
  nodes_.reserve(n);
  for (NodeId i = 0; i < n; ++i) {
    nodes_.push_back(std::make_unique<Node>(sim_, net_, i, cfg_.node));
    if (cfg_.storage.enabled()) {
      nodes_.back()->enable_durability(
          cfg_.storage.data_dir + "/node-" + std::to_string(i), cfg_.storage);
    }
  }
  for (NodeId i = 0; i < n; ++i) {
    Node& node = *nodes_[i];
    node.set_protocol(factory_(node, [this, i](const rsm::Command& cmd) {
      handle_delivery(i, cmd);
    }));
  }
  link_fd_.assign(n, std::vector<LinkFd>(n));
  crash_suspects_.assign(n, std::vector<bool>(n, false));
}

void Cluster::handle_delivery(NodeId node, const rsm::Command& cmd) {
  // Pipelining feedback first: the origin's batcher counts its own proposals
  // back in as they come out of consensus.
  nodes_[node]->note_delivery(cmd);
  if (on_deliver_) {
    rsm::for_each_member(
        cmd, [&](const rsm::Command& member) { on_deliver_(node, member); });
  }
  if (instance_hook_) instance_hook_(node);
}

void Cluster::set_snapshot_install_hook(SnapshotInstallHook h) {
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    nodes_[i]->set_snapshot_install_hook(
        [h, i](const rsm::KvStore& store, std::uint64_t delivered) {
          h(i, store, delivered);
        });
  }
}

void Cluster::restart(NodeId id) {
  Node& node = *nodes_[id];
  if (!node.crashed()) return;
  // Fresh protocol instance, rebuilt silently from disk before it rejoins;
  // deliveries flow through the same per-node hook as the original.
  auto proto = factory_(node, [this, id](const rsm::Command& cmd) {
    handle_delivery(id, cmd);
  });
  if (node.durability() != nullptr) {
    storage::RecoveredState st = node.durability()->replay();
    proto->on_restore(st);
    if (restart_hook_) restart_hook_(id, st);
  }
  node.set_protocol(std::move(proto));
  recover(id);
}

void Cluster::start() {
  for (auto& node : nodes_) node->protocol().start();
}

void Cluster::recover(NodeId id) {
  if (!nodes_[id]->crashed()) return;
  nodes_[id]->recover();
  // The rejoined node's failure detector starts from a blank slate (its
  // protocol resets its suspicion view in on_recover): mirror that in the
  // cluster's accounting for peers that are alive again — retractions that
  // should have reached this node while it was down were lost with its
  // timers, and a stale flag would miscount the next suspicion episode.
  for (NodeId j = 0; j < nodes_.size(); ++j) {
    if (j != id && !nodes_[j]->crashed()) crash_suspects_[id][j] = false;
  }
  // Peers that are *still* crashed must be re-reported to it (the original
  // suspicion upcalls fired while it was down and were lost with its
  // timers). Same detector delay as any fresh suspicion.
  for (NodeId j = 0; j < nodes_.size(); ++j) {
    if (j == id || !nodes_[j]->crashed()) continue;
    Node* self = nodes_[id].get();
    sim_.after(cfg_.fd_timeout_us, [this, self, id, j] {
      if (!self->crashed() && nodes_[j]->crashed()) {
        if (!crash_suspects_[id][j]) {
          crash_suspects_[id][j] = true;
          ++fd_suspicions_;
        }
        self->protocol().on_node_suspected(j);
      }
    });
  }
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (i == id || nodes_[i]->crashed()) continue;
    Node* peer = nodes_[i].get();
    sim_.after(cfg_.fd_timeout_us, [this, peer, i, id] {
      // Re-check the subject too: it may have crashed again meanwhile.
      if (!peer->crashed() && !nodes_[id]->crashed()) {
        // Only count a retraction when this peer's suspicion actually
        // fired (a crash+recover inside one FD timeout never suspects).
        // The upcall itself is unconditional: protocols use it to resync
        // with the rejoined node regardless.
        if (crash_suspects_[i][id]) {
          crash_suspects_[i][id] = false;
          ++fd_retractions_;
        }
        peer->protocol().on_node_recovered(id);
      }
    });
  }
}

Cluster::LinkFd& Cluster::link_fd(NodeId a, NodeId b) {
  return link_fd_[std::min(a, b)][std::max(a, b)];
}

void Cluster::arm_partition_fd(NodeId a, NodeId b, std::uint64_t epoch) {
  sim_.after(cfg_.fd_timeout_us, [this, a, b, epoch] {
    if (link_fd(a, b).epoch != epoch) return;  // link state changed meanwhile
    // A crashed endpoint is owned by the crash detector for now, but a cut
    // that outlives the recovery must still be suspected: keep watching
    // until both endpoints are alive or the link heals.
    if (nodes_[a]->crashed() || nodes_[b]->crashed()) {
      arm_partition_fd(a, b, epoch);
      return;
    }
    suspect_pair(a, b);
  });
}

void Cluster::suspect_pair(NodeId a, NodeId b) {
  LinkFd& fd = link_fd(a, b);
  // Already suspected and never retracted (the link flapped back down before
  // the retraction fired): the earlier suspicion still stands, don't issue a
  // duplicate upcall or double-count it.
  if (fd.suspected) return;
  if (nodes_[a]->crashed() || nodes_[b]->crashed()) return;
  fd.suspected = true;
  fd_suspicions_ += 2;
  nodes_[a]->protocol().on_node_suspected(b);
  nodes_[b]->protocol().on_node_suspected(a);
}

void Cluster::retract_pair(NodeId a, NodeId b) {
  LinkFd& fd = link_fd(a, b);
  if (!fd.suspected) return;
  fd.suspected = false;
  // If an endpoint crashed meanwhile, the survivor's suspicion of it is now
  // justified by the crash (and the crash detector issued its own upcall),
  // so no retraction is due: drop the partition-level flag only. The
  // suspicion/retraction counters legitimately stay unbalanced here.
  if (nodes_[a]->crashed() || nodes_[b]->crashed()) return;
  fd_retractions_ += 2;
  nodes_[a]->protocol().on_node_recovered(b);
  nodes_[b]->protocol().on_node_recovered(a);
}

void Cluster::set_link(NodeId a, NodeId b, bool up) {
  net_.set_link_up(a, b, up);
  if (!cfg_.suspect_partitions) return;
  const std::uint64_t epoch = ++link_fd(a, b).epoch;
  if (!up) {
    // Suspect both endpoints after a full detector timeout of outage. The
    // epoch fence voids the chain if the link flaps before it fires.
    arm_partition_fd(a, b, epoch);
  } else if (link_fd(a, b).suspected) {
    // Heal: the detector notices the peer is reachable again one timeout
    // later and retracts (the peer's state survived — it never crashed).
    sim_.after(cfg_.fd_timeout_us, [this, a, b, epoch] {
      if (link_fd(a, b).epoch != epoch) return;
      retract_pair(a, b);
    });
  }
}

void Cluster::crash(NodeId id) {
  nodes_[id]->crash();
  for (NodeId i = 0; i < nodes_.size(); ++i) {
    if (i == id || nodes_[i]->crashed()) continue;
    Node* peer = nodes_[i].get();
    sim_.after(cfg_.fd_timeout_us, [this, peer, i, id] {
      // Suspicion is retracted if the subject recovered within the timeout:
      // a live node must not be treated as failed (protocols would start
      // recovering its in-flight commands against the live owner).
      if (!peer->crashed() && nodes_[id]->crashed()) {
        if (!crash_suspects_[i][id]) {
          crash_suspects_[i][id] = true;
          ++fd_suspicions_;
        }
        peer->protocol().on_node_suspected(id);
      }
    });
  }
}

}  // namespace caesar::rt
