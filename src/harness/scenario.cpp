#include "harness/scenario.h"

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "rsm/delivery_log.h"
#include "rsm/kvstore.h"
#include "shard/sharded_scenario.h"

namespace caesar::harness {

std::string_view to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kCaesar:
      return "Caesar";
    case ProtocolKind::kEPaxos:
      return "EPaxos";
    case ProtocolKind::kM2Paxos:
      return "M2Paxos";
    case ProtocolKind::kMencius:
      return "Mencius";
    case ProtocolKind::kMultiPaxos:
      return "MultiPaxos";
    case ProtocolKind::kClockRsm:
      return "ClockRSM";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// FaultEvent
// ---------------------------------------------------------------------------

FaultEvent FaultEvent::Crash(NodeId node, Time at) {
  FaultEvent e;
  e.kind = Kind::kCrash;
  e.node = node;
  e.at = at;
  return e;
}

FaultEvent FaultEvent::Recover(NodeId node, Time at) {
  FaultEvent e;
  e.kind = Kind::kRecover;
  e.node = node;
  e.at = at;
  return e;
}

FaultEvent FaultEvent::Partition(NodeId a, NodeId b, Time at) {
  FaultEvent e;
  e.kind = Kind::kPartition;
  e.a = a;
  e.b = b;
  e.at = at;
  return e;
}

FaultEvent FaultEvent::Heal(NodeId a, NodeId b, Time at) {
  FaultEvent e;
  e.kind = Kind::kHeal;
  e.a = a;
  e.b = b;
  e.at = at;
  return e;
}

FaultEvent FaultEvent::PowerLoss(Time at) {
  FaultEvent e;
  e.kind = Kind::kPowerLoss;
  e.at = at;
  return e;
}

FaultEvent FaultEvent::Restart(NodeId node, Time at) {
  FaultEvent e;
  e.kind = Kind::kRestart;
  e.node = node;
  e.at = at;
  return e;
}

std::string to_string(const FaultEvent& e) {
  std::ostringstream os;
  switch (e.kind) {
    case FaultEvent::Kind::kCrash:
      os << "Crash{node=" << e.node;
      break;
    case FaultEvent::Kind::kRecover:
      os << "Recover{node=" << e.node;
      break;
    case FaultEvent::Kind::kPartition:
      os << "Partition{a=" << e.a << ", b=" << e.b;
      break;
    case FaultEvent::Kind::kHeal:
      os << "Heal{a=" << e.a << ", b=" << e.b;
      break;
    case FaultEvent::Kind::kPowerLoss:
      os << "PowerLoss{all";
      break;
    case FaultEvent::Kind::kRestart:
      os << "Restart{node=" << e.node;
      break;
  }
  if (e.group != FaultEvent::kAllGroups) os << ", group=" << e.group;
  os << ", at=" << e.at << "us}";
  return os.str();
}

// ---------------------------------------------------------------------------
// ScenarioBuilder
// ---------------------------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::name(std::string v) {
  s_.name = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::protocol(ProtocolKind v) {
  s_.protocol = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::topology(net::Topology v) {
  s_.topology = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::duration(Time v) {
  s_.duration = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::warmup(Time v) {
  s_.warmup = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t v) {
  s_.seed = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::node(rt::NodeConfig v) {
  s_.node = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::fd_timeout(Time v) {
  s_.fd_timeout_us = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::fd_suspect_partitions(bool v) {
  s_.fd_suspect_partitions = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::batching(bool v) {
  s_.node.batching = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::batch_delay(Time v) {
  s_.node.batch_delay_us = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::batch_max_ops(std::size_t v) {
  s_.node.batch_max_ops = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::pipeline_window(std::size_t v) {
  s_.node.pipeline_window = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::coalescing(bool v) {
  s_.node.coalescing = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::max_inflight(std::uint32_t v) {
  s_.workload.max_inflight = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::overload_policy(wl::OverloadPolicy v) {
  s_.workload.overload_policy = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::overload_queue_cap(std::size_t v) {
  s_.workload.overload_queue_cap = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::workload(wl::WorkloadConfig v) {
  s_.workload = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::clients_per_site(std::uint32_t v) {
  s_.workload.clients_per_site = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::conflicts(double fraction) {
  s_.workload.conflict_fraction = fraction;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::think_time(Time v) {
  s_.workload.think_us = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::key_dist(wl::KeyDistConfig v) {
  s_.workload.key_dist = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::uniform_keys(std::uint64_t keyspace) {
  s_.workload.key_dist.dist = wl::KeyDist::kUniform;
  s_.workload.key_dist.keyspace = keyspace;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::zipfian(double theta, std::uint64_t keyspace) {
  s_.workload.key_dist.dist = wl::KeyDist::kZipfian;
  s_.workload.key_dist.zipf_theta = theta;
  s_.workload.key_dist.keyspace = keyspace;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::hot_key(double hot_fraction,
                                          std::uint64_t hot_keys,
                                          std::uint64_t keyspace) {
  s_.workload.key_dist.dist = wl::KeyDist::kHotKey;
  s_.workload.key_dist.hot_fraction = hot_fraction;
  s_.workload.key_dist.hot_keys = hot_keys;
  s_.workload.key_dist.keyspace = keyspace;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::shards(std::uint32_t count,
                                         shard::Partition partition) {
  s_.shards.count = count;
  s_.shards.partition = partition;
  // Range partitioning splits the workload's configured keyspace by default.
  s_.shards.range_keyspace = s_.workload.key_dist.keyspace;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::shard_spec(shard::ShardSpec v) {
  s_.shards = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::multi_key_policy(shard::MultiKeyPolicy v) {
  s_.shards.multi_key = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::closed_loop(Time at,
                                              std::uint32_t clients_per_site,
                                              Time think_us) {
  s_.phases.push_back(wl::PhaseSpec::closed_loop(at, clients_per_site, think_us));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::open_loop(Time at, double rate_tps) {
  s_.phases.push_back(wl::PhaseSpec::open_loop(at, rate_tps));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::ramp(Time at, double from_tps,
                                       double to_tps) {
  s_.phases.push_back(wl::PhaseSpec::ramp(at, from_tps, to_tps));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::quiesce(Time at) {
  s_.phases.push_back(wl::PhaseSpec::quiesce(at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::crash(NodeId node, Time at) {
  s_.faults.push_back(FaultEvent::Crash(node, at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::recover(NodeId node, Time at) {
  s_.faults.push_back(FaultEvent::Recover(node, at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::partition(NodeId a, NodeId b, Time at) {
  s_.faults.push_back(FaultEvent::Partition(a, b, at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::heal(NodeId a, NodeId b, Time at) {
  s_.faults.push_back(FaultEvent::Heal(a, b, at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::power_loss(Time at) {
  s_.faults.push_back(FaultEvent::PowerLoss(at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::restart(NodeId node, Time at) {
  s_.faults.push_back(FaultEvent::Restart(node, at));
  return *this;
}
ScenarioBuilder& ScenarioBuilder::fault(FaultEvent e) {
  s_.faults.push_back(e);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::crash_in_group(std::int32_t group,
                                                 NodeId node, Time at) {
  FaultEvent e = FaultEvent::Crash(node, at);
  e.group = group;
  s_.faults.push_back(e);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::recover_in_group(std::int32_t group,
                                                   NodeId node, Time at) {
  FaultEvent e = FaultEvent::Recover(node, at);
  e.group = group;
  s_.faults.push_back(e);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::restart_in_group(std::int32_t group,
                                                   NodeId node, Time at) {
  FaultEvent e = FaultEvent::Restart(node, at);
  e.group = group;
  s_.faults.push_back(e);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::partition_in_group(std::int32_t group,
                                                     NodeId a, NodeId b,
                                                     Time at) {
  FaultEvent e = FaultEvent::Partition(a, b, at);
  e.group = group;
  s_.faults.push_back(e);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::heal_in_group(std::int32_t group, NodeId a,
                                                NodeId b, Time at) {
  FaultEvent e = FaultEvent::Heal(a, b, at);
  e.group = group;
  s_.faults.push_back(e);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::storage(caesar::storage::StorageConfig v) {
  s_.storage = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::data_dir(std::string v) {
  s_.storage.data_dir = std::move(v);
  return *this;
}
ScenarioBuilder& ScenarioBuilder::sync_mode(caesar::storage::SyncMode v) {
  s_.storage.sync_mode = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::caesar(core::CaesarConfig v) {
  s_.caesar = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::epaxos(epaxos::EPaxosConfig v) {
  s_.epaxos = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::m2paxos(m2paxos::M2PaxosConfig v) {
  s_.m2paxos = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::mencius(mencius::MenciusConfig v) {
  s_.mencius = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::clockrsm(clockrsm::ClockRsmConfig v) {
  s_.clockrsm = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::multipaxos(mpaxos::MultiPaxosConfig v) {
  s_.multipaxos = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::multipaxos_leader(NodeId leader) {
  s_.multipaxos.leader = leader;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::check_consistency(bool v) {
  s_.check_consistency = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::timeline_bucket(Time v) {
  s_.timeline_bucket = v;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::metrics_window(Time width) {
  s_.metrics_window_us = width;
  return *this;
}
ScenarioBuilder& ScenarioBuilder::sample_stats_at(Time v) {
  s_.sample_stats_at.push_back(v);
  return *this;
}

Scenario ScenarioBuilder::build() const {
  Scenario s = s_;
  std::stable_sort(s.faults.begin(), s.faults.end(),
                   [](const FaultEvent& x, const FaultEvent& y) {
                     return x.at < y.at;
                   });
  std::stable_sort(s.phases.begin(), s.phases.end(),
                   [](const wl::PhaseSpec& x, const wl::PhaseSpec& y) {
                     return x.at < y.at;
                   });
  std::sort(s.sample_stats_at.begin(), s.sample_stats_at.end());
  validate_scenario(s);
  return s;
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

namespace {

[[noreturn]] void fail(const Scenario& s, const std::string& what) {
  throw std::invalid_argument("scenario '" + s.name + "': " + what);
}

void check_node_in_range(const Scenario& s, NodeId node, const char* what) {
  if (node >= s.topology.size()) {
    std::ostringstream os;
    os << what << "=" << node << " out of range for topology of "
       << s.topology.size() << " sites";
    fail(s, os.str());
  }
}

}  // namespace

void validate_scenario(const Scenario& s) {
  const std::size_t n = s.topology.size();
  if (n == 0) fail(s, "topology has no sites");
  if (s.duration <= 0) fail(s, "duration must be positive");
  if (s.warmup < 0 || s.warmup >= s.duration) {
    fail(s, "warmup must lie in [0, duration)");
  }
  if (s.workload.conflict_fraction < 0.0 ||
      s.workload.conflict_fraction > 1.0) {
    fail(s, "workload.conflict_fraction must lie in [0, 1]");
  }

  // Key distribution.
  const wl::KeyDistConfig& kd = s.workload.key_dist;
  if (kd.dist != wl::KeyDist::kPaperConflict && kd.keyspace < 2) {
    fail(s, "workload.key_dist.keyspace must be at least 2");
  }
  if (kd.dist == wl::KeyDist::kZipfian &&
      (kd.zipf_theta <= 0.0 || kd.zipf_theta >= 1.0)) {
    fail(s, "workload.key_dist.zipf_theta must lie in (0, 1)");
  }
  if (kd.dist == wl::KeyDist::kHotKey) {
    if (kd.hot_fraction < 0.0 || kd.hot_fraction > 1.0) {
      fail(s, "workload.key_dist.hot_fraction must lie in [0, 1]");
    }
    if (kd.hot_keys == 0 || kd.hot_keys >= kd.keyspace) {
      fail(s, "workload.key_dist.hot_keys must lie in [1, keyspace)");
    }
  }

  // Sharding.
  if (s.shards.count == 0) {
    fail(s, "shards.count must be at least 1");
  }
  if (s.shards.sharded() && s.shards.partition == shard::Partition::kRange &&
      s.shards.range_keyspace == 0) {
    fail(s, "shards.range_keyspace must be positive for range partitioning");
  }

  // Protocol knobs that index into the topology.
  if (s.protocol == ProtocolKind::kMultiPaxos) {
    check_node_in_range(s, s.multipaxos.leader, "multipaxos.leader");
    if (s.multipaxos.resync_grace_us <= s.fd_timeout_us) {
      fail(s,
           "multipaxos.resync_grace_us must exceed fd_timeout_us, or a "
           "rejoined follower sweeps its log gap before the leader's "
           "fd-retraction replay arrives");
    }
  }
  if (s.protocol == ProtocolKind::kMencius &&
      s.mencius.resync_grace_us <= s.fd_timeout_us) {
    fail(s,
         "mencius.resync_grace_us must exceed fd_timeout_us, or a rejoined "
         "node sweeps still-pending accept entries before its peers' "
         "fd-retraction re-ACCEPTs arrive");
  }
  // Mencius, Multi-Paxos and Clock-RSM count quorum acks (and track
  // suspected/revoked peers) in 64-bit node bitmasks.
  if ((s.protocol == ProtocolKind::kMencius ||
       s.protocol == ProtocolKind::kMultiPaxos ||
       s.protocol == ProtocolKind::kClockRsm) &&
      n > 64) {
    fail(s, "Mencius/MultiPaxos/ClockRSM support at most 64 sites (bitmask)");
  }
  if (s.protocol == ProtocolKind::kCaesar &&
      s.caesar.fast_quorum_override > n) {
    std::ostringstream os;
    os << "caesar.fast_quorum_override=" << s.caesar.fast_quorum_override
       << " exceeds the topology's " << n << " sites";
    fail(s, os.str());
  }

  for (const FaultEvent& e : s.faults) {
    if (e.at < 0 || e.at > s.duration) {
      fail(s, to_string(e) + " is outside the run's [0, duration] window");
    }
    if (e.group != FaultEvent::kAllGroups) {
      if (e.group < 0 ||
          e.group >= static_cast<std::int32_t>(s.shards.count)) {
        std::ostringstream os;
        os << to_string(e) << " targets group " << e.group
           << " but the scenario has " << s.shards.count
           << " shard group(s); valid groups are -1 (all) .. "
           << (s.shards.count - 1);
        fail(s, os.str());
      }
    }
    switch (e.kind) {
      case FaultEvent::Kind::kCrash:
      case FaultEvent::Kind::kRecover:
        check_node_in_range(s, e.node, "fault.node");
        break;
      case FaultEvent::Kind::kPartition:
      case FaultEvent::Kind::kHeal:
        check_node_in_range(s, e.a, "fault.a");
        check_node_in_range(s, e.b, "fault.b");
        if (e.a == e.b) fail(s, to_string(e) + " partitions a node from itself");
        break;
      case FaultEvent::Kind::kPowerLoss:
        if (!s.storage.enabled()) {
          fail(s, to_string(e) +
                      " requires durable storage (set Scenario::storage."
                      "data_dir), or there is nothing to restart from");
        }
        break;
      case FaultEvent::Kind::kRestart:
        check_node_in_range(s, e.node, "fault.node");
        if (!s.storage.enabled()) {
          fail(s, to_string(e) +
                      " requires durable storage (set Scenario::storage."
                      "data_dir), or there is nothing to restart from");
        }
        break;
    }
  }

  // Phases execute in time order regardless of their order in the vector
  // (a Scenario may be built by hand, not via the sorting builder), so the
  // checks must be order-independent.
  std::vector<Time> phase_starts;
  phase_starts.reserve(s.phases.size());
  for (const wl::PhaseSpec& p : s.phases) {
    if (p.at < 0 || p.at >= s.duration) {
      fail(s, "phase start time outside [0, duration)");
    }
    phase_starts.push_back(p.at);
    if (p.mode == wl::PhaseSpec::Mode::kQuiesce) {
      // No parameters to validate; a quiesce phase just stops submissions.
    } else if (p.mode == wl::PhaseSpec::Mode::kClosedLoop) {
      if (p.clients_per_site == 0) {
        fail(s, "closed-loop phase with zero clients per site");
      }
      if (p.think_us < 0) fail(s, "closed-loop phase with negative think time");
    } else {
      if (p.arrival_rate_tps <= 0.0) {
        fail(s, "open-loop phase requires a positive arrival rate");
      }
      if (p.mode == wl::PhaseSpec::Mode::kOpenLoopRamp &&
          p.ramp_to_tps <= 0.0) {
        fail(s, "ramp phase requires a positive target rate");
      }
    }
  }
  std::sort(phase_starts.begin(), phase_starts.end());
  if (std::adjacent_find(phase_starts.begin(), phase_starts.end()) !=
      phase_starts.end()) {
    fail(s, "two phases start at the same instant");
  }
  if (!phase_starts.empty() && phase_starts.front() != 0) {
    fail(s, "the first workload phase must start at t=0");
  }
  if (s.phases.empty() && s.workload.clients_per_site == 0) {
    fail(s, "workload.clients_per_site must be positive");
  }

  for (Time t : s.sample_stats_at) {
    if (t < 0 || t > s.duration) {
      fail(s, "sample_stats_at instant outside [0, duration]");
    }
  }

  if (s.metrics_window_us < 0) {
    fail(s, "metrics_window_us must be non-negative (0 = per-phase windows)");
  }

  // Saturation-machinery knobs.
  if (s.node.batch_max_ops == 0) {
    fail(s, "node.batch_max_ops must be at least 1");
  }
  if (s.node.batch_delay_us < 0) {
    fail(s, "node.batch_delay_us must be non-negative");
  }
  if (s.node.pipeline_window == 0) {
    fail(s, "node.pipeline_window must be at least 1 (1 = stop-and-wait)");
  }
  if (s.workload.max_inflight == 0 && s.workload.overload_queue_cap == 0) {
    // Harmless combination, nothing to check: flow control is off.
  } else if (s.workload.max_inflight > 0 &&
             s.workload.overload_policy == wl::OverloadPolicy::kQueue &&
             s.workload.overload_queue_cap == 0) {
    fail(s,
         "workload.overload_queue_cap must be positive under the kQueue "
         "policy (use kShed to drop over-limit arrivals outright)");
  }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

namespace detail {

rt::Cluster::ProtocolFactory make_factory(
    const Scenario& s, std::vector<stats::ProtocolStats>& stats,
    std::size_t offset) {
  switch (s.protocol) {
    case ProtocolKind::kCaesar:
      return [&s, &stats, offset](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<core::Caesar>(
            env, std::move(deliver), s.caesar, &stats[offset + env.id()]);
      };
    case ProtocolKind::kEPaxos:
      return [&s, &stats, offset](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<epaxos::EPaxos>(
            env, std::move(deliver), s.epaxos, &stats[offset + env.id()]);
      };
    case ProtocolKind::kM2Paxos:
      return [&s, &stats, offset](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<m2paxos::M2Paxos>(
            env, std::move(deliver), s.m2paxos, &stats[offset + env.id()]);
      };
    case ProtocolKind::kMencius:
      return [&s, &stats, offset](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<mencius::Mencius>(
            env, std::move(deliver), s.mencius, &stats[offset + env.id()]);
      };
    case ProtocolKind::kMultiPaxos:
      return [&s, &stats, offset](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<mpaxos::MultiPaxos>(
            env, std::move(deliver), s.multipaxos, &stats[offset + env.id()]);
      };
    case ProtocolKind::kClockRsm:
      return [&s, &stats, offset](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<clockrsm::ClockRsm>(
            env, std::move(deliver), s.clockrsm, &stats[offset + env.id()]);
      };
  }
  throw std::invalid_argument("unknown protocol kind");
}

stats::ProtocolStats aggregate(const std::vector<stats::ProtocolStats>& per_node,
                               std::size_t offset, std::size_t count) {
  stats::ProtocolStats total;
  const std::size_t end =
      count == SIZE_MAX ? per_node.size()
                        : std::min(per_node.size(), offset + count);
  for (std::size_t i = offset; i < end; ++i) {
    const auto& s = per_node[i];
    total.fast_decisions += s.fast_decisions;
    total.slow_decisions += s.slow_decisions;
    total.retries += s.retries;
    total.slow_proposals += s.slow_proposals;
    total.recoveries += s.recoveries;
    total.waits += s.waits;
    total.catchup_requests += s.catchup_requests;
    total.catchup_chunks += s.catchup_chunks;
    total.catchup_commands += s.catchup_commands;
    total.revocations += s.revocations;
    total.wal_appends += s.wal_appends;
    total.fsyncs += s.fsyncs;
    total.snapshots += s.snapshots;
    total.truncated_segments += s.truncated_segments;
    total.wait_time.merge(s.wait_time);
    total.propose_phase.merge(s.propose_phase);
    total.retry_phase.merge(s.retry_phase);
    total.deliver_phase.merge(s.deliver_phase);
  }
  return total;
}

stats::ProtocolCounters aggregate_counters(
    const std::vector<stats::ProtocolStats>& per_node, std::size_t offset,
    std::size_t count) {
  stats::ProtocolCounters total;
  const std::size_t end =
      count == SIZE_MAX ? per_node.size()
                        : std::min(per_node.size(), offset + count);
  for (std::size_t i = offset; i < end; ++i) total += per_node[i].counters();
  return total;
}

void record_unbundled(rsm::DeliveryLog& log, const rsm::Command& cmd) {
  if (rsm::is_batch_command(cmd)) {
    for (std::size_t k = 0; k < cmd.ops.size(); ++k) {
      log.record(rsm::batch_member(cmd, k));
    }
  } else {
    log.record(cmd);
  }
}

/// Lays out the report's metrics windows: disjoint half-open slices covering
/// [warmup, duration). Fixed-width when the scenario asks for it, otherwise
/// one window per workload phase active inside the measurement interval
/// (phases that end before warmup fold into the first window), or a single
/// "run" window for unphased scenarios.
std::vector<stats::MetricsWindow> plan_windows(const Scenario& s) {
  std::vector<Time> bounds;
  bounds.push_back(s.warmup);
  if (s.metrics_window_us > 0) {
    for (Time t = s.warmup + s.metrics_window_us; t < s.duration;
         t += s.metrics_window_us) {
      bounds.push_back(t);
    }
  } else {
    for (const wl::PhaseSpec& p : s.phases) {
      if (p.at > s.warmup && p.at < s.duration) bounds.push_back(p.at);
    }
  }
  bounds.push_back(s.duration);
  std::sort(bounds.begin(), bounds.end());
  bounds.erase(std::unique(bounds.begin(), bounds.end()), bounds.end());

  std::vector<stats::MetricsWindow> windows;
  windows.reserve(bounds.size() - 1);
  for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
    stats::MetricsWindow w;
    w.begin = bounds[i];
    w.end = bounds[i + 1];
    // Active phase: the latest phase starting at or before the window opens
    // (phases may be unsorted in a hand-built scenario).
    int phase = -1;
    for (std::size_t p = 0; p < s.phases.size(); ++p) {
      if (s.phases[p].at <= w.begin &&
          (phase < 0 || s.phases[p].at > s.phases[phase].at)) {
        phase = static_cast<int>(p);
      }
    }
    w.phase = phase;
    if (s.metrics_window_us > 0) {
      w.label = "win" + std::to_string(i);
    } else if (phase >= 0) {
      w.label = "phase" + std::to_string(phase);
    } else {
      w.label = "run";
    }
    windows.push_back(std::move(w));
  }
  return windows;
}

}  // namespace detail

namespace {

using detail::aggregate;
using detail::aggregate_counters;
using detail::make_factory;
using detail::plan_windows;

/// One boundary snapshot of the run's monotone counters; adjacent snapshots
/// subtract into a window's deltas.
struct BoundarySnap {
  stats::ProtocolCounters proto;
  std::uint64_t submitted = 0;
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  /// Per-node latency-pool sample counts; adjacent snapshots delimit the
  /// samples each window range-merges into its phase breakdown.
  std::vector<stats::ProtocolStats::PoolCounts> pools;
};

}  // namespace

RunReport run_scenario(const Scenario& s) {
  validate_scenario(s);
  if (s.shards.sharded()) return shard::run_sharded_scenario(s);

  const std::size_t n = s.topology.size();
  sim::Simulator sim(s.seed);

  RunReport result;
  result.per_node.resize(n);
  result.timeline = stats::TimeSeries(s.timeline_bucket);
  result.sites.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    result.sites.push_back(SiteMetrics{s.topology.site_names[i], {}});
  }
  result.provenance.scenario = s.name;
  result.provenance.protocol = std::string(to_string(s.protocol));
  result.provenance.sites = s.topology.site_names;
  result.provenance.seed = s.seed;
  result.provenance.duration = s.duration;
  result.provenance.warmup = s.warmup;
  result.provenance.build = std::string(build_version());
  result.windows = plan_windows(s);

  std::vector<rsm::KvStore> kvs(n);
  std::shared_ptr<OrderChecker> order;
  if (s.check_consistency) {
    order = std::make_shared<OrderChecker>(n, s.storage.enabled());
  }

  wl::ClientPool* pool_ptr = nullptr;
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

  rt::Cluster cluster(
      sim, s.topology, ccfg, make_factory(s, result.per_node),
      [&](NodeId node, const rsm::Command& cmd) {
        if (order) order->deliver(node, cmd, sim.now());
        kvs[node].apply(cmd);
        if (pool_ptr != nullptr) pool_ptr->on_delivery(node, cmd);
      });
  if (order && s.storage.enabled()) {
    cluster.set_instance_hook([&](NodeId node) {
      order->end_instance(
          node, cluster.node(node).durability()->durable_delivered_count());
    });
  }

  wl::ClientPool pool(sim, cluster, s.workload, sim.rng().fork(), s.phases,
                      s.duration);
  pool_ptr = &pool;

  // Keep the checker and the store mirrors honest across durability events:
  // a restart rolls a node's history back to its durable prefix, and a
  // catch-up snapshot install replaces its store wholesale mid-run.
  cluster.set_restart_hook([&](NodeId node,
                               const caesar::storage::RecoveredState& st) {
    if (order) order->restart(node, st.delivered_count, st.trimmed);
    kvs[node] = st.store;
  });
  cluster.set_snapshot_install_hook(
      [&](NodeId node, const rsm::KvStore& store, std::uint64_t delivered) {
        if (order) order->rebase(node, delivered);
        kvs[node] = store;
      });
  // Window assignment is by completion instant: windows are half-open
  // [begin, end) slices in time order and completions arrive in time order,
  // so a single advancing index suffices; completions at exactly t=duration
  // clamp into the last window.
  std::size_t widx = 0;
  pool.set_completion_hook([&](const wl::Completion& c) {
    result.timeline.record(c.complete_time);
    if (c.complete_time < s.warmup) return;
    const Time latency = c.complete_time - c.submit_time;
    result.total_latency.record(latency);
    result.sites[c.site].latency.record(latency);
    while (widx + 1 < result.windows.size() &&
           c.complete_time >= result.windows[widx].end) {
      ++widx;
    }
    result.windows[widx].latency.record(latency);
  });

  cluster.start();
  pool.start();

  // Fault schedule: each event fires at its instant, in timeline order.
  for (const FaultEvent& e : s.faults) {
    sim.at(e.at, [&cluster, &pool, e] {
      switch (e.kind) {
        case FaultEvent::Kind::kCrash:
          cluster.crash(e.node);
          pool.on_node_crashed(e.node);
          break;
        case FaultEvent::Kind::kRecover:
          cluster.recover(e.node);
          pool.on_node_recovered(e.node);
          break;
        case FaultEvent::Kind::kPartition:
          cluster.set_link(e.a, e.b, false);
          break;
        case FaultEvent::Kind::kHeal:
          cluster.set_link(e.a, e.b, true);
          break;
        case FaultEvent::Kind::kPowerLoss:
          for (NodeId i = 0; i < cluster.size(); ++i) {
            if (cluster.node(i).crashed()) continue;
            cluster.crash(i);
            pool.on_node_crashed(i);
          }
          break;
        case FaultEvent::Kind::kRestart:
          cluster.restart(e.node);
          pool.on_node_recovered(e.node);
          break;
      }
    });
  }

  // Mid-run protocol-counter snapshots.
  result.samples.reserve(s.sample_stats_at.size());
  for (Time t : s.sample_stats_at) {
    sim.at(t, [&result, &pool, t] {
      result.samples.push_back(
          StatsSample{t, aggregate(result.per_node), pool.completed()});
    });
  }

  // Window-boundary snapshots of the monotone counters. Interior boundaries
  // fire as events — scheduled before the run starts, so at a shared instant
  // they execute ahead of activity scheduled later, matching the half-open
  // window rule — and the final boundary is read after the run.
  std::vector<BoundarySnap> snaps(result.windows.size() + 1);
  auto capture = [&result, &pool, &cluster](BoundarySnap& snap) {
    snap.proto = aggregate_counters(result.per_node);
    snap.submitted = pool.submitted();
    snap.messages = cluster.network().messages_delivered();
    snap.bytes = cluster.network().bytes_sent();
    snap.pools.resize(result.per_node.size());
    for (std::size_t i = 0; i < result.per_node.size(); ++i) {
      snap.pools[i] = result.per_node[i].pool_counts();
    }
  };
  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    sim.at(result.windows[i].begin, [&capture, &snaps, i] { capture(snaps[i]); });
  }

  sim.run_until(s.duration);
  capture(snaps.back());

  for (std::size_t i = 0; i < result.windows.size(); ++i) {
    stats::MetricsWindow& w = result.windows[i];
    w.submitted = snaps[i + 1].submitted - snaps[i].submitted;
    w.messages = snaps[i + 1].messages - snaps[i].messages;
    w.bytes = snaps[i + 1].bytes - snaps[i].bytes;
    w.proto = snaps[i + 1].proto - snaps[i].proto;
    for (std::size_t node = 0; node < n; ++node) {
      const auto& from = snaps[i].pools[node];
      const auto& to = snaps[i + 1].pools[node];
      const stats::ProtocolStats& ps = result.per_node[node];
      w.wait_time.merge_range(ps.wait_time, from.wait, to.wait);
      w.propose_phase.merge_range(ps.propose_phase, from.propose, to.propose);
      w.retry_phase.merge_range(ps.retry_phase, from.retry, to.retry);
      w.deliver_phase.merge_range(ps.deliver_phase, from.deliver, to.deliver);
    }
  }

  result.completed = pool.completed();
  result.submitted = pool.submitted();
  const double window_s =
      static_cast<double>(s.duration - s.warmup) / static_cast<double>(kSec);
  result.throughput_tps =
      window_s > 0 ? static_cast<double>(result.total_latency.count()) / window_s
                   : 0.0;
  result.proto = aggregate(result.per_node);

  if (order) {
    // Hand the final replica state to the caller: the oracle reads the
    // checker and the stores, plus which nodes were still down when the run
    // ended (a crashed-forever node legitimately trails the cluster).
    result.crashed_at_end.resize(n);
    for (NodeId i = 0; i < n; ++i) {
      result.crashed_at_end[i] = cluster.node(i).crashed();
    }
    result.consistent = order->verdict(result.crashed_at_end, false).ok;
    result.order = std::move(order);
    result.stores = std::move(kvs);
  }

  result.messages = cluster.network().messages_delivered();
  result.bytes = cluster.network().bytes_sent();
  result.fd_suspicions = cluster.fd_suspicions();
  result.fd_retractions = cluster.fd_retractions();
  result.flow_control.enabled = pool.flow_control_enabled();
  result.flow_control.admitted = pool.flow_admitted();
  result.flow_control.deferred = pool.flow_deferred();
  result.flow_control.shed = pool.flow_shed();
  return result;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

namespace {

std::map<std::string, ScenarioInfo, std::less<>>& registry() {
  static std::map<std::string, ScenarioInfo, std::less<>> reg;
  return reg;
}

void register_builtins();

/// Lazily installs the built-ins exactly once. The flag is flipped before
/// registering so the register_scenario calls inside register_builtins do
/// not recurse back here.
void ensure_builtins() {
  static bool done = false;
  if (done) return;
  done = true;
  register_builtins();
}

void register_builtins() {
  register_scenario(ScenarioInfo{
      "quickstart",
      "CAESAR on the paper's five-site EC2 topology: 10 closed-loop clients "
      "per site, 10% conflicts, 10s run",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        return ScenarioBuilder("quickstart")
            .protocol(ProtocolKind::kCaesar)
            .clients_per_site(10)
            .conflicts(0.10)
            .caesar(caesar)
            .duration(10 * kSec)
            .warmup(2 * kSec)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "fig12-failover",
      "Paper Fig 12: 500 closed-loop clients/site, Frankfurt crashes at "
      "t=20s, its clients reconnect; throughput timeline shows dip+recovery",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 100 * kMs;
        rt::NodeConfig node;
        node.base_service_us = 12;
        wl::WorkloadConfig w;
        w.clients_per_site = 500;
        w.conflict_fraction = 0.02;
        w.reconnect_delay_us = 2 * kSec;
        return ScenarioBuilder("fig12-failover")
            .protocol(ProtocolKind::kCaesar)
            .workload(w)
            .node(node)
            .caesar(caesar)
            .crash(2, 20 * kSec)  // Frankfurt, as in the paper
            .fd_timeout(1 * kSec)
            .duration(40 * kSec)
            .warmup(0)
            .seed(12)
            .check_consistency(false)
            .timeline_bucket(1 * kSec)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "partition-heal",
      "Virginia loses its links to Frankfurt and Ireland between t=4s and "
      "t=8s (fast quorum unreachable from Virginia), then the links heal; "
      "snapshots at the boundaries expose the fast-path dip and recovery",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        return ScenarioBuilder("partition-heal")
            .protocol(ProtocolKind::kCaesar)
            .clients_per_site(8)
            .conflicts(0.10)
            .caesar(caesar)
            .partition(0, 2, 4 * kSec)
            .partition(0, 3, 4 * kSec)
            .heal(0, 2, 8 * kSec)
            .heal(0, 3, 8 * kSec)
            .sample_stats_at(4 * kSec)
            .sample_stats_at(8 * kSec)
            .duration(14 * kSec)
            .warmup(1 * kSec)
            .seed(7)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "crash-recover",
      "Frankfurt crashes at t=4s and rejoins (state intact) at t=8s; "
      "exercises Recover events and the failure detector's retraction path",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        wl::WorkloadConfig w;
        w.clients_per_site = 8;
        w.conflict_fraction = 0.05;
        w.reconnect_delay_us = 1 * kSec;
        return ScenarioBuilder("crash-recover")
            .protocol(ProtocolKind::kCaesar)
            .workload(w)
            .caesar(caesar)
            .crash(2, 4 * kSec)
            .recover(2, 8 * kSec)
            .fd_timeout(500 * kMs)
            .duration(14 * kSec)
            .warmup(1 * kSec)
            .seed(9)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "crash-long",
      "Rejoin state transfer: Frankfurt is down from t=3s to t=6s — far "
      "longer than any in-flight window — then rejoins and catches up on "
      "the committed suffix it missed from a live peer; a quiesce tail "
      "lets the consistency oracle prove its log and store converged "
      "(default protocol Mencius, where a missed slot was previously "
      "silently skipped)",
      [] {
        wl::WorkloadConfig w;
        w.clients_per_site = 6;
        w.conflict_fraction = 0.10;
        w.reconnect_delay_us = 1 * kSec;
        return ScenarioBuilder("crash-long")
            .protocol(ProtocolKind::kMencius)
            .workload(w)
            .closed_loop(0, 6)
            .quiesce(10 * kSec)
            .crash(2, 3 * kSec)
            .recover(2, 6 * kSec)
            .fd_timeout(500 * kMs)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(23)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "dead-node",
      "Dead-node revocation: Mumbai crashes at t=3s and never returns; the "
      "cluster keeps delivering past its slots (Mencius revokes them by "
      "quorum agreement, Clock-RSM excludes its frozen clock) instead of "
      "wedging behind an owner that will never answer; quiesce tail for "
      "the consistency oracle",
      [] {
        wl::WorkloadConfig w;
        w.clients_per_site = 6;
        w.conflict_fraction = 0.10;
        w.reconnect_delay_us = 1 * kSec;
        return ScenarioBuilder("dead-node")
            .protocol(ProtocolKind::kMencius)
            .workload(w)
            .closed_loop(0, 6)
            .quiesce(10 * kSec)
            .crash(4, 3 * kSec)
            .fd_timeout(500 * kMs)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(29)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "power-loss",
      "Whole-cluster power loss at t=4s: every node crashes at once and "
      "restarts from its WAL one second later — unflushed group-commit "
      "batches are gone, so the replicas resume from (possibly different) "
      "durable prefixes, reconcile via catch-up and converge; quiesce tail "
      "for the consistency oracle",
      [] {
        wl::WorkloadConfig w;
        w.clients_per_site = 6;
        w.conflict_fraction = 0.10;
        w.reconnect_delay_us = 1 * kSec;
        ScenarioBuilder b("power-loss");
        b.protocol(ProtocolKind::kMencius)
            .workload(w)
            .closed_loop(0, 6)
            .quiesce(10 * kSec)
            .power_loss(4 * kSec)
            .data_dir("caesar-data/power-loss")
            .fd_timeout(500 * kMs)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(31);
        for (NodeId i = 0; i < 5; ++i) b.restart(i, 5 * kSec);
        return b.build();
      }});

  register_scenario(ScenarioInfo{
      "restart-disk",
      "Restart-from-disk: Frankfurt is down from t=3s to t=6s, then comes "
      "back from its own snapshot + WAL instead of empty — replay rebuilds "
      "the durable prefix locally, the PR-5 catch-up path fetches only the "
      "suffix it missed; quiesce tail for the consistency oracle",
      [] {
        wl::WorkloadConfig w;
        w.clients_per_site = 6;
        w.conflict_fraction = 0.10;
        w.reconnect_delay_us = 1 * kSec;
        return ScenarioBuilder("restart-disk")
            .protocol(ProtocolKind::kMencius)
            .workload(w)
            .closed_loop(0, 6)
            .quiesce(10 * kSec)
            .crash(2, 3 * kSec)
            .restart(2, 6 * kSec)
            .data_dir("caesar-data/restart-disk")
            .fd_timeout(500 * kMs)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(37)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "rate-sweep",
      "Open-loop Poisson load stepping 500 -> 2000 -> 4000 cmd/s mid-run; "
      "demonstrates workload-phase switching and rate tracking",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 100 * kMs;
        return ScenarioBuilder("rate-sweep")
            .protocol(ProtocolKind::kCaesar)
            .conflicts(0.02)
            .caesar(caesar)
            .open_loop(0, 500.0)
            .open_loop(4 * kSec, 2000.0)
            .open_loop(8 * kSec, 4000.0)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(11)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "rate-ramp",
      "Open-loop arrivals ramping linearly 500 -> 4000 cmd/s across the run "
      "(ScenarioBuilder::ramp); 2s metrics windows expose the climb",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 100 * kMs;
        return ScenarioBuilder("rate-ramp")
            .protocol(ProtocolKind::kCaesar)
            .conflicts(0.02)
            .caesar(caesar)
            .ramp(0, 500.0, 4000.0)
            .metrics_window(2 * kSec)
            .duration(12 * kSec)
            .warmup(0)
            .seed(17)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "saturation",
      "Fig 9 saturation machinery: 5-site LAN, 100 closed-loop clients/site "
      "driving the full stack — proposal batching, an 8-instance pipeline "
      "window, send coalescing — then an open-loop overload tail far past "
      "the saturation point, flow-controlled (shed) so throughput holds "
      "instead of collapsing; 1s metrics windows expose the plateau",
      [] {
        return ScenarioBuilder("saturation")
            .protocol(ProtocolKind::kMencius)
            .topology(net::Topology::lan(5))
            .uniform_keys(1ull << 16)
            .batching()
            .batch_delay(1000)
            .batch_max_ops(64)
            .pipeline_window(8)
            .coalescing()
            .max_inflight(128)
            .overload_policy(wl::OverloadPolicy::kShed)
            .closed_loop(0, 100)
            .open_loop(5 * kSec, 600000.0)
            .metrics_window(1 * kSec)
            .duration(9 * kSec)
            .warmup(1 * kSec)
            .seed(29)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "sharded-saturation",
      "Multi-group scaling: 4 hash-partitioned consensus groups on a 5-site "
      "LAN, 100 closed-loop clients/site drawing uniform keys — each group "
      "orders only its own keyspace slice, so aggregate throughput scales "
      "with the group count while a single CPU-saturated group cannot",
      [] {
        return ScenarioBuilder("sharded-saturation")
            .protocol(ProtocolKind::kMencius)
            .topology(net::Topology::lan(5))
            .clients_per_site(100)
            .uniform_keys(1ull << 16)
            .shards(4)
            .duration(4 * kSec)
            .warmup(1 * kSec)
            .seed(41)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "sharded-fault",
      "Asymmetric fault isolation: 4 groups, group 1's Frankfurt replica "
      "crashes at t=4s and recovers at t=8s while the other groups' replicas "
      "at the same site keep running; only group 1's throughput dips, the "
      "router fails its traffic over, and a quiesce tail lets every group's "
      "consistency oracle prove convergence",
      [] {
        wl::WorkloadConfig w;
        w.clients_per_site = 40;
        w.reconnect_delay_us = 500 * kMs;
        w.key_dist.dist = wl::KeyDist::kUniform;
        w.key_dist.keyspace = 1ull << 16;
        return ScenarioBuilder("sharded-fault")
            .protocol(ProtocolKind::kMencius)
            .topology(net::Topology::lan(5))
            .workload(w)
            .closed_loop(0, 40)
            .quiesce(10 * kSec)
            .shards(4)
            .crash_in_group(1, 2, 4 * kSec)
            .recover_in_group(1, 2, 8 * kSec)
            .fd_timeout(500 * kMs)
            .metrics_window(2 * kSec)
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(43)
            .build();
      }});

  register_scenario(ScenarioInfo{
      "partition-suspect",
      "FD/partition coupling: the Ohio<->Frankfurt link is cut from t=3s to "
      "t=9s, far past the 500ms FD timeout, so each side suspects the other "
      "(recovery of in-flight commands runs against a live owner) and the "
      "suspicion retracts after the heal",
      [] {
        core::CaesarConfig caesar;
        caesar.gossip_interval_us = 200 * kMs;
        return ScenarioBuilder("partition-suspect")
            .protocol(ProtocolKind::kCaesar)
            .clients_per_site(6)
            .conflicts(0.10)
            .caesar(caesar)
            .partition(1, 2, 3 * kSec)
            .heal(1, 2, 9 * kSec)
            .fd_timeout(500 * kMs)
            .fd_suspect_partitions()
            .duration(12 * kSec)
            .warmup(1 * kSec)
            .seed(19)
            .build();
      }});
}

}  // namespace

void register_scenario(ScenarioInfo info) {
  ensure_builtins();
  auto& reg = registry();
  std::string key = info.name;
  reg[std::move(key)] = std::move(info);
}

bool has_scenario(std::string_view name) {
  ensure_builtins();
  const auto& reg = registry();
  return reg.find(name) != reg.end();
}

Scenario make_scenario(std::string_view name) {
  ensure_builtins();
  const auto& reg = registry();
  auto it = reg.find(name);
  if (it == reg.end()) {
    std::ostringstream os;
    os << "unknown scenario '" << name << "'; available:";
    for (const auto& [key, info] : reg) os << " " << key;
    throw std::invalid_argument(os.str());
  }
  return it->second.make();
}

std::vector<ScenarioInfo> list_scenarios() {
  ensure_builtins();
  std::vector<ScenarioInfo> out;
  for (const auto& [key, info] : registry()) out.push_back(info);
  return out;
}

}  // namespace caesar::harness
