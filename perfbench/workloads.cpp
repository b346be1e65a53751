#include "workloads.h"

#include <stdexcept>

namespace perfbench {

namespace {

using caesar::kMs;
using caesar::kSec;
using caesar::NodeId;
namespace harness = caesar::harness;
namespace wl = caesar::wl;

// CAESAR on the paper's EC2 sites at 30% conflicts, batching off, open-loop
// Poisson arrivals ramping linearly from well below to past the saturation
// knee; 1 s metrics windows; flow control sheds the overload tail. Nodes
// charge 100 us per message (the library default is 10 us), which puts the
// knee near 3k cmd/s instead of 18k: one run then costs about 2 s of wall
// time instead of 20 s, and the ramp's 500 cmd/s-per-window step straddles
// the knee (~2.9k offered still keeps up, ~3.4k does not). The ramp runs on
// to twice the knee so that shedding, not the backlog the in-flight cap
// admits, dominates the failed share.
Workload caesar_wan_ramp(std::uint64_t seed, bool smoke) {
  caesar::core::CaesarConfig caesar;
  caesar.gossip_interval_us = 100 * kMs;
  caesar::rt::NodeConfig node;
  node.base_service_us = 100;
  const Time duration = (smoke ? 3 : 12) * kSec;
  Workload w;
  w.name = "caesar-wan-ramp";
  w.latency_limit_us = 800 * kMs;
  w.oracle.require_converged_stores = false;
  w.scenario = harness::ScenarioBuilder(w.name)
                   .protocol(harness::ProtocolKind::kCaesar)
                   .topology(caesar::net::Topology::ec2_five_sites())
                   .conflicts(0.30)
                   .caesar(caesar)
                   .node(node)
                   .ramp(0, 600.0, 600.0 + 500.0 * (duration / kSec))
                   .max_inflight(250)
                   .overload_policy(wl::OverloadPolicy::kShed)
                   .metrics_window(1 * kSec)
                   .duration(duration)
                   .warmup(1 * kSec)
                   .seed(seed)
                   .build();
  return w;
}

// The registered `saturation` scenario (Mencius on a LAN with batching, an
// 8-deep pipeline, coalescing, 100 closed-loop clients per site, then an
// open-loop overload tail with shedding), shortened so that one run takes
// seconds while both phases stay in the measurement window. The tail offers
// 3M cmd/s instead of the registered 600k: 600k sits at the batcher's own
// capacity, where a 250 ms tail settles into one of two throughput regimes
// depending on the seed (shed share 1-8% across seeds 1-5); at 3M the
// excess, not that transient, decides what is shed.
Workload mencius_lan_saturation(std::uint64_t seed, bool smoke) {
  harness::Scenario s = harness::make_scenario("saturation");
  const Time overload_at = (smoke ? 100 : 250) * kMs;
  s.phases = {wl::PhaseSpec::closed_loop(0, 100),
              wl::PhaseSpec::open_loop(overload_at, 3000000.0)};
  s.duration = 2 * overload_at;
  s.warmup = 50 * kMs;
  s.metrics_window_us = 50 * kMs;
  s.seed = seed;
  Workload w;
  w.name = "mencius-lan-saturation";
  w.latency_limit_us = 10 * kMs;
  w.oracle.require_converged_stores = false;
  w.scenario = harness::ScenarioBuilder(std::move(s)).name(w.name).build();
  return w;
}

// Mencius on the EC2 sites with the WAL and snapshots on (batched group
// commit), open-loop arrivals at a fixed rate; every node loses power at
// once, all restart one second later, and a quiesce tail lets the oracle
// demand converged stores. Completions are bucketed at 10 ms; 1 s metrics
// windows.
Workload mencius_wan_powerloss(std::uint64_t seed, bool smoke,
                               const std::string& data_dir) {
  const Time fault_at = (smoke ? 1 : 2) * kSec;
  wl::WorkloadConfig load;
  load.conflict_fraction = 0.10;
  Workload w;
  w.name = "mencius-wan-powerloss";
  w.latency_limit_us = 800 * kMs;
  w.disruption_at = fault_at;
  w.oracle.require_converged_stores = true;
  harness::ScenarioBuilder b(w.name);
  b.protocol(harness::ProtocolKind::kMencius)
      .topology(caesar::net::Topology::ec2_five_sites())
      .workload(load)
      .open_loop(0, 8000.0)
      .power_loss(fault_at)
      .quiesce(fault_at + (smoke ? 2 : 4) * kSec)
      .data_dir(data_dir)
      .fd_timeout(500 * kMs)
      .timeline_bucket(10 * kMs)
      .metrics_window(1 * kSec)
      .duration(fault_at + (smoke ? 4 : 6) * kSec)
      .warmup(500 * kMs)
      .seed(seed);
  for (NodeId i = 0; i < 5; ++i) b.restart(i, fault_at + 1 * kSec);
  w.scenario = b.build();
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "caesar-wan-ramp", "mencius-lan-saturation", "mencius-wan-powerloss"};
  return names;
}

Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke,
                       const std::string& data_dir) {
  if (name == "caesar-wan-ramp") return caesar_wan_ramp(seed, smoke);
  if (name == "mencius-lan-saturation") {
    return mencius_lan_saturation(seed, smoke);
  }
  if (name == "mencius-wan-powerloss") {
    return mencius_wan_powerloss(seed, smoke, data_dir);
  }
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

}  // namespace perfbench
