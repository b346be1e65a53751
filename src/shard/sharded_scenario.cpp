#include "shard/sharded_scenario.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <vector>

#include "harness/order_checker.h"
#include "rsm/kvstore.h"
#include "shard/shard_router.h"
#include "shard/sharded_cluster.h"

namespace caesar::shard {

using harness::FaultEvent;
using harness::RunReport;
using harness::Scenario;

namespace {

/// One boundary snapshot of the monotone counters, global and per group;
/// adjacent snapshots subtract into window deltas.
struct Snap {
  stats::ProtocolCounters proto;
  std::uint64_t submitted = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::vector<stats::ProtocolCounters> gproto;
  std::vector<std::uint64_t> grouted;
  std::vector<std::uint64_t> gmessages;
  std::vector<std::uint64_t> gbytes;
  /// Latency-pool sample counts per flat (group-major) node index.
  std::vector<stats::ProtocolStats::PoolCounts> pools;
};

}  // namespace

RunReport run_sharded_scenario(const Scenario& s) {
  harness::validate_scenario(s);

  const std::size_t n = s.topology.size();
  const std::uint32_t groups = s.shards.count;
  sim::Simulator sim(s.seed);

  RunReport result;
  // Per-node protocol stats, group-major: group g's node i lands at g*n + i.
  result.per_node.resize(groups * n);
  result.timeline = stats::TimeSeries(s.timeline_bucket);
  result.sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.sites.push_back(harness::SiteMetrics{s.topology.site_names[i], {}});
  }
  result.provenance.scenario = s.name;
  result.provenance.protocol = std::string(to_string(s.protocol));
  result.provenance.sites = s.topology.site_names;
  result.provenance.seed = s.seed;
  result.provenance.duration = s.duration;
  result.provenance.warmup = s.warmup;
  result.provenance.build = std::string(harness::build_version());
  result.windows = harness::detail::plan_windows(s);

  result.router.partition = std::string(to_string(s.shards.partition));
  result.router.multi_key = std::string(to_string(s.shards.multi_key));
  result.shards.resize(groups);
  for (std::uint32_t g = 0; g < groups; ++g) {
    result.shards[g].group = g;
    result.shards[g].windows = result.windows;  // same slicing per group
  }

  // Harness-side checker and store mirrors of each group's replica state.
  std::vector<std::shared_ptr<harness::OrderChecker>> orders(groups);
  if (s.check_consistency) {
    for (auto& order : orders) {
      order = std::make_shared<harness::OrderChecker>(n, s.storage.enabled());
    }
  }
  std::vector<std::vector<rsm::KvStore>> kvs(groups,
                                             std::vector<rsm::KvStore>(n));

  rt::ClusterConfig ccfg;
  ccfg.node = s.node;
  ccfg.fd_timeout_us = s.fd_timeout_us;
  ccfg.suspect_partitions = s.fd_suspect_partitions;
  ccfg.storage = s.storage;
  if (s.storage.enabled()) {
    // A stale data dir would replay a previous run's WAL into this one;
    // wiping keeps every run reproducible from (scenario, seed) alone.
    std::filesystem::remove_all(s.storage.data_dir);
    std::filesystem::create_directories(s.storage.data_dir);
  }

  ShardRouter* router_ptr = nullptr;
  wl::ClientPool* pool_ptr = nullptr;
  // Which group is mid-delivery: set synchronously around the pool upcall so
  // the completion hook can attribute the completion to its group.
  std::int32_t completing_group = -1;

  ShardedCluster cluster(
      sim, s.topology, ccfg, groups,
      [&s, &result, n](std::uint32_t g) {
        return harness::detail::make_factory(s, result.per_node, g * n);
      },
      [&](std::uint32_t g, NodeId node, const rsm::Command& cmd) {
        if (orders[g]) orders[g]->deliver(node, cmd, sim.now());
        kvs[g][node].apply(cmd);
        if (router_ptr != nullptr) router_ptr->on_delivery(g, node, cmd);
        if (pool_ptr != nullptr) {
          completing_group = static_cast<std::int32_t>(g);
          pool_ptr->on_delivery(node, cmd);
          completing_group = -1;
        }
      });

  if (s.check_consistency && s.storage.enabled()) {
    cluster.set_instance_hook([&](std::uint32_t g, NodeId node) {
      orders[g]->end_instance(node, cluster.group(g)
                                        .node(node)
                                        .durability()
                                        ->durable_delivered_count());
    });
  }

  ShardRouter router(cluster, ShardMap(s.shards));
  router_ptr = &router;

  wl::ClientPool pool(sim, router, s.workload, sim.rng().fork(), s.phases,
                      s.duration);
  pool_ptr = &pool;
  router.set_loss_hook([&pool](ReqId req) { pool.on_request_lost(req); });

  // Keep the checkers and mirrors honest across durability events (see
  // run_scenario).
  cluster.set_restart_hook([&](std::uint32_t g, NodeId node,
                               const caesar::storage::RecoveredState& st) {
    if (orders[g]) orders[g]->restart(node, st.delivered_count, st.trimmed);
    kvs[g][node] = st.store;
  });
  cluster.set_snapshot_install_hook(
      [&](std::uint32_t g, NodeId node, const rsm::KvStore& store,
          std::uint64_t delivered) {
        if (orders[g]) orders[g]->rebase(node, delivered);
        kvs[g][node] = store;
      });

  // Window assignment is by completion instant (see run_scenario); the
  // per-group window cursors advance independently because each group only
  // sees its own completions.
  std::size_t widx = 0;
  std::vector<std::size_t> swidx(groups, 0);
  pool.set_completion_hook([&](const wl::Completion& c) {
    result.timeline.record(c.complete_time);
    if (completing_group >= 0) ++result.shards[completing_group].completed;
    if (c.complete_time < s.warmup) return;
    const Time latency = c.complete_time - c.submit_time;
    result.total_latency.record(latency);
    result.sites[c.site].latency.record(latency);
    while (widx + 1 < result.windows.size() &&
           c.complete_time >= result.windows[widx].end) {
      ++widx;
    }
    result.windows[widx].latency.record(latency);
    if (completing_group >= 0) {
      harness::ShardMetrics& sm = result.shards[completing_group];
      sm.latency.record(latency);
      std::size_t& wi = swidx[completing_group];
      while (wi + 1 < sm.windows.size() &&
             c.complete_time >= sm.windows[wi].end) {
        ++wi;
      }
      sm.windows[wi].latency.record(latency);
    }
  });

  cluster.start();
  pool.start();

  // Fault schedule. A group-scoped fault touches only that group's replica
  // and its in-flight requests; an all-groups fault is a whole-site event
  // the pool reacts to as well.
  for (const FaultEvent& e : s.faults) {
    sim.at(e.at, [&cluster, &router, &pool, e, groups, n] {
      switch (e.kind) {
        case FaultEvent::Kind::kCrash:
          cluster.crash(e.group, e.node);
          if (e.group == FaultEvent::kAllGroups) {
            for (std::uint32_t g = 0; g < groups; ++g) {
              router.on_group_node_crashed(g, e.node);
            }
            pool.on_node_crashed(e.node);
          } else {
            router.on_group_node_crashed(static_cast<std::uint32_t>(e.group),
                                         e.node);
          }
          break;
        case FaultEvent::Kind::kRecover:
          cluster.recover(e.group, e.node);
          if (e.group == FaultEvent::kAllGroups) pool.on_node_recovered(e.node);
          break;
        case FaultEvent::Kind::kPartition:
          cluster.set_link(e.group, e.a, e.b, false);
          break;
        case FaultEvent::Kind::kHeal:
          cluster.set_link(e.group, e.a, e.b, true);
          break;
        case FaultEvent::Kind::kPowerLoss:
          for (NodeId i = 0; i < n; ++i) {
            for (std::uint32_t g = 0; g < groups; ++g) {
              if (cluster.group(g).node(i).crashed()) continue;
              cluster.group(g).crash(i);
              router.on_group_node_crashed(g, i);
            }
            pool.on_node_crashed(i);
          }
          break;
        case FaultEvent::Kind::kRestart:
          cluster.restart(e.group, e.node);
          if (e.group == FaultEvent::kAllGroups) pool.on_node_recovered(e.node);
          break;
      }
    });
  }

  // Mid-run protocol-counter snapshots (aggregated over all groups).
  result.samples.reserve(s.sample_stats_at.size());
  for (Time t : s.sample_stats_at) {
    sim.at(t, [&result, &pool, t] {
      result.samples.push_back(harness::StatsSample{
          t, harness::detail::aggregate(result.per_node), pool.completed()});
    });
  }

  // Window-boundary snapshots, global and per group. A group window's
  // "submitted" is the router's routed-into-this-group delta.
  std::vector<Snap> snaps(result.windows.size() + 1);
  auto capture = [&result, &pool, &cluster, &router, groups, n](Snap& snap) {
    snap.proto = harness::detail::aggregate_counters(result.per_node);
    snap.submitted = pool.submitted();
    snap.gproto.resize(groups);
    snap.grouted.resize(groups);
    snap.gmessages.resize(groups);
    snap.gbytes.resize(groups);
    snap.messages = 0;
    snap.bytes = 0;
    snap.pools.resize(result.per_node.size());
    for (std::size_t i = 0; i < result.per_node.size(); ++i) {
      snap.pools[i] = result.per_node[i].pool_counts();
    }
    for (std::uint32_t g = 0; g < groups; ++g) {
      snap.gproto[g] =
          harness::detail::aggregate_counters(result.per_node, g * n, n);
      snap.grouted[g] = router.stats().routed[g];
      snap.gmessages[g] = cluster.group(g).network().messages_delivered();
      snap.gbytes[g] = cluster.group(g).network().bytes_sent();
      snap.messages += snap.gmessages[g];
      snap.bytes += snap.gbytes[g];
    }
  };
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    sim.at(result.windows[i].begin, [&capture, &snaps, i] { capture(snaps[i]); });
  }

  sim.run_until(s.duration);
  capture(snaps.back());

  auto merge_pools = [&result](stats::MetricsWindow& w, const Snap& from,
                               const Snap& to, std::size_t lo, std::size_t hi) {
    for (std::size_t node = lo; node < hi; ++node) {
      const auto& f = from.pools[node];
      const auto& t = to.pools[node];
      const stats::ProtocolStats& ps = result.per_node[node];
      w.wait_time.merge_range(ps.wait_time, f.wait, t.wait);
      w.propose_phase.merge_range(ps.propose_phase, f.propose, t.propose);
      w.retry_phase.merge_range(ps.retry_phase, f.retry, t.retry);
      w.deliver_phase.merge_range(ps.deliver_phase, f.deliver, t.deliver);
    }
  };
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    stats::MetricsWindow& w = result.windows[i];
    w.submitted = snaps[i + 1].submitted - snaps[i].submitted;
    w.messages = snaps[i + 1].messages - snaps[i].messages;
    w.bytes = snaps[i + 1].bytes - snaps[i].bytes;
    w.proto = snaps[i + 1].proto - snaps[i].proto;
    merge_pools(w, snaps[i], snaps[i + 1], 0, result.per_node.size());
    for (std::uint32_t g = 0; g < groups; ++g) {
      stats::MetricsWindow& gw = result.shards[g].windows[i];
      gw.submitted = snaps[i + 1].grouted[g] - snaps[i].grouted[g];
      gw.messages = snaps[i + 1].gmessages[g] - snaps[i].gmessages[g];
      gw.bytes = snaps[i + 1].gbytes[g] - snaps[i].gbytes[g];
      gw.proto = snaps[i + 1].gproto[g] - snaps[i].gproto[g];
      merge_pools(gw, snaps[i], snaps[i + 1], g * n, g * n + n);
    }
  }

  result.completed = pool.completed();
  result.submitted = pool.submitted();
  const double window_s =
      static_cast<double>(s.duration - s.warmup) / static_cast<double>(kSec);
  result.throughput_tps =
      window_s > 0 ? static_cast<double>(result.total_latency.count()) / window_s
                   : 0.0;
  result.proto = harness::detail::aggregate(result.per_node);

  for (std::uint32_t g = 0; g < groups; ++g) {
    harness::ShardMetrics& sm = result.shards[g];
    sm.routed = router.stats().routed[g];
    sm.throughput_tps =
        window_s > 0
            ? static_cast<double>(sm.latency.count()) / window_s
            : 0.0;
    sm.messages = cluster.group(g).network().messages_delivered();
    sm.bytes = cluster.group(g).network().bytes_sent();
    sm.proto = harness::detail::aggregate(result.per_node, g * n, n);
    sm.fd_suspicions = cluster.group(g).fd_suspicions();
    sm.fd_retractions = cluster.group(g).fd_retractions();
    result.messages += sm.messages;
    result.bytes += sm.bytes;

    if (orders[g]) {
      sm.crashed_at_end.resize(n);
      for (NodeId i = 0; i < n; ++i) {
        sm.crashed_at_end[i] = cluster.group(g).node(i).crashed();
      }
      sm.consistent = orders[g]->verdict(sm.crashed_at_end, false).ok;
      result.consistent = result.consistent && sm.consistent;
      sm.order = std::move(orders[g]);
      sm.stores = std::move(kvs[g]);
    }
  }

  result.fd_suspicions = cluster.fd_suspicions();
  result.fd_retractions = cluster.fd_retractions();
  result.flow_control.enabled = pool.flow_control_enabled();
  result.flow_control.admitted = pool.flow_admitted();
  result.flow_control.deferred = pool.flow_deferred();
  result.flow_control.shed = pool.flow_shed();
  result.router.cross_shard_pins = router.stats().cross_shard_pins;
  result.router.cross_shard_rejects = router.stats().cross_shard_rejects;
  result.router.reroutes = router.stats().reroutes;
  return result;
}

}  // namespace caesar::shard
