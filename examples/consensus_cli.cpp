// consensus_cli: a small command-line driver over the scenario harness so
// downstream users can explore the protocol space without writing C++.
//
//   $ ./examples/consensus_cli --protocol=caesar --conflict=30 \
//         --clients=50 --duration=10 --batching --seed=7
//   $ ./examples/consensus_cli --scenario=partition-heal
//   $ ./examples/consensus_cli --scenario=rate-sweep --json=run.json
//   $ ./examples/consensus_cli --list-scenarios
//
// Prints per-site latency, per-window metrics, throughput, decision-path
// statistics and the cross-site consistency verdict; --json additionally
// writes the full RunReport as a schema-stable JSON document. With
// --scenario the run starts from a registered scenario (fault schedule and
// workload phases included) and the remaining flags act as overrides.
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>

#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenario_file.h"

using namespace caesar;

namespace {

/// A numeric flag value must parse completely and fit its field: a typo
/// exits 2 like any other configuration error, instead of silently running
/// a different experiment.
[[noreturn]] void bad_value(const std::string& flag, const std::string& text,
                            const std::string& expected) {
  std::cerr << "invalid value for " << flag << ": \"" << text
            << "\" (expected " << expected << ")\n";
  std::exit(2);
}

template <typename T>
T int_flag(const std::string& flag, const std::string& text,
           T lo = std::numeric_limits<T>::min(),
           T hi = std::numeric_limits<T>::max()) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end || v < lo || v > hi) {
    bad_value(flag, text,
              "an integer in [" + std::to_string(lo) + ", " +
                  std::to_string(hi) + "]");
  }
  return v;
}

double real_flag(const std::string& flag, const std::string& text, double lo,
                 double hi) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || stop != end || !(v >= lo && v <= hi)) {
    std::ostringstream range;
    range << "a number in [" << lo << ", " << hi << "]";
    bad_value(flag, text, range.str());
  }
  return v;
}

/// Seconds that still fit a Time in microseconds.
constexpr double kMaxSeconds =
    static_cast<double>(std::numeric_limits<Time>::max() / kSec);

void usage() {
  std::cout <<
      "usage: consensus_cli [options]\n"
      "  --scenario=NAME   start from a registered scenario (see\n"
      "                    --list-scenarios); other flags override it\n"
      "  --scenario-file=F start from a JSON scenario file (see\n"
      "                    src/harness/scenario_file.h for the schema);\n"
      "                    other flags override it\n"
      "  --list-scenarios  print the scenario registry and exit\n"
      "  --protocol=NAME   caesar|epaxos|m2paxos|mencius|multipaxos|clockrsm\n"
      "                    (default caesar)\n"
      "  --conflict=PCT    conflicting-command percentage (default 10)\n"
      "  --clients=N       closed-loop clients per site (default 10)\n"
      "  --rate=TPS        open-loop Poisson arrivals/s instead of closed loop\n"
      "  --duration=SEC    simulated seconds (default 10)\n"
      "  --seed=N          simulation seed (default 1)\n"
      "  --leader=SITE     Multi-Paxos leader site index (default 3=Ireland)\n"
      "  --batching        enable request batching (accumulate-while-busy)\n"
      "  --no-batching     disable batching a scenario turned on\n"
      "  --batch-delay-us=T  max time a command waits in the batcher\n"
      "  --batch-max-ops=N batch size cap in ops (forces a flush)\n"
      "  --pipeline=W      open proposals per node before waiting on\n"
      "                    delivery (default 1 = stop-and-wait)\n"
      "  --coalescing      merge same-destination frames sent within one\n"
      "                    CPU turn into a single wire envelope\n"
      "  --no-coalescing   disable coalescing a scenario turned on\n"
      "  --max-inflight=N  open-loop flow control: per-site in-flight cap\n"
      "                    (0 = unlimited)\n"
      "  --overload-policy=P  what to do over the cap: shed|queue\n"
      "                    (default queue)\n"
      "  --no-wait         CAESAR ablation: disable the wait condition\n"
      "  --shards=N        run N consensus groups over a hash-partitioned\n"
      "                    keyspace (1 = classic single group)\n"
      "  --crash=SITE      crash this site halfway through the run\n"
      "  --data-dir=DIR    enable durable storage (WAL + snapshots) under DIR;\n"
      "                    required by scenarios with power-loss/restart faults\n"
      "  --sync-mode=MODE  WAL group-commit policy: none|batched|always\n"
      "                    (default batched; needs --data-dir)\n"
      "  --window=SEC      fixed metrics-window width (default: per-phase)\n"
      "  --json=FILE       also write the run report as JSON to FILE\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool sync_mode_set = false;
  harness::Scenario s;
  s.name = "cli";
  s.workload.conflict_fraction = 0.10;
  s.duration = 10 * kSec;
  s.warmup = 2 * kSec;
  s.caesar.gossip_interval_us = 200 * kMs;

  // --list-scenarios / --scenario come first: the scenario forms the base
  // configuration the remaining flags then override.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-scenarios") {
      harness::Table t({"scenario", "description"});
      for (const auto& info : harness::list_scenarios()) {
        t.add_row({info.name, info.description});
      }
      t.print();
      return 0;
    }
    if (arg.rfind("--scenario=", 0) == 0) {
      try {
        s = harness::make_scenario(arg.substr(std::strlen("--scenario=")));
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    }
    if (arg.rfind("--scenario-file=", 0) == 0) {
      try {
        s = harness::load_scenario_file(
            arg.substr(std::strlen("--scenario-file=")));
      } catch (const std::exception& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
    }
  }

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const char* prefix) -> std::optional<std::string> {
      const std::size_t len = std::strlen(prefix);
      if (arg.rfind(prefix, 0) == 0) return arg.substr(len);
      return std::nullopt;
    };
    if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (arg == "--list-scenarios" || value_of("--scenario=") ||
               value_of("--scenario-file=")) {
      // handled in the first pass
    } else if (auto v = value_of("--shards=")) {
      s.shards.count = int_flag<std::uint32_t>("--shards", *v, 1);
      if (s.workload.key_dist.dist == wl::KeyDist::kPaperConflict &&
          s.shards.count > 1) {
        // The paper-conflict chooser funnels everything onto key 0; give a
        // multi-group run a spreadable keyspace instead.
        s.workload.key_dist.dist = wl::KeyDist::kUniform;
      }
    } else if (auto v = value_of("--protocol=")) {
      auto kind = harness::parse_protocol(*v);
      if (!kind) {
        std::cerr << "unknown protocol: " << *v << "\n";
        return 2;
      }
      s.protocol = *kind;
    } else if (auto v = value_of("--conflict=")) {
      s.workload.conflict_fraction =
          real_flag("--conflict", *v, 0, 100) / 100.0;
    } else if (auto v = value_of("--clients=")) {
      s.workload.clients_per_site = int_flag<std::uint32_t>("--clients", *v);
      s.phases.clear();  // back to the default single closed-loop phase
    } else if (auto v = value_of("--rate=")) {
      s.phases = {wl::PhaseSpec::open_loop(
          0, real_flag("--rate", *v, 0, std::numeric_limits<double>::max()))};
    } else if (auto v = value_of("--duration=")) {
      s.duration =
          static_cast<Time>(real_flag("--duration", *v, 0, kMaxSeconds) * kSec);
      s.warmup = s.duration / 5;
    } else if (auto v = value_of("--seed=")) {
      s.seed = int_flag<std::uint64_t>("--seed", *v);
    } else if (auto v = value_of("--leader=")) {
      s.multipaxos.leader = int_flag<NodeId>("--leader", *v);
    } else if (arg == "--batching") {
      s.node.batching = true;
    } else if (arg == "--no-batching") {
      s.node.batching = false;
    } else if (auto v = value_of("--batch-delay-us=")) {
      s.node.batch_delay_us = int_flag<Time>("--batch-delay-us", *v, 0);
    } else if (auto v = value_of("--batch-max-ops=")) {
      s.node.batch_max_ops = int_flag<std::size_t>("--batch-max-ops", *v);
    } else if (auto v = value_of("--pipeline=")) {
      s.node.pipeline_window = int_flag<std::size_t>("--pipeline", *v);
    } else if (arg == "--coalescing") {
      s.node.coalescing = true;
    } else if (arg == "--no-coalescing") {
      s.node.coalescing = false;
    } else if (auto v = value_of("--max-inflight=")) {
      s.workload.max_inflight = int_flag<std::uint32_t>("--max-inflight", *v);
    } else if (auto v = value_of("--overload-policy=")) {
      if (*v == "shed") {
        s.workload.overload_policy = wl::OverloadPolicy::kShed;
      } else if (*v == "queue") {
        s.workload.overload_policy = wl::OverloadPolicy::kQueue;
      } else {
        std::cerr << "unknown overload policy: " << *v
                  << " (expected shed|queue)\n";
        return 2;
      }
    } else if (arg == "--no-wait") {
      s.caesar.wait_enabled = false;
    } else if (auto v = value_of("--window=")) {
      s.metrics_window_us =
          static_cast<Time>(real_flag("--window", *v, 0, kMaxSeconds) * kSec);
    } else if (auto v = value_of("--json=")) {
      json_path = *v;
    } else if (arg == "--json") {
      if (i + 1 >= argc) {
        std::cerr << "--json requires a file path\n";
        return 2;
      }
      json_path = argv[++i];
    } else if (auto v = value_of("--crash=")) {
      s.faults.push_back(harness::FaultEvent::Crash(
          int_flag<NodeId>("--crash", *v), s.duration / 2));
    } else if (auto v = value_of("--data-dir=")) {
      if (v->empty()) {
        std::cerr << "--data-dir requires a directory path\n";
        return 2;
      }
      s.storage.data_dir = *v;
    } else if (auto v = value_of("--sync-mode=")) {
      try {
        s.storage.sync_mode = storage::parse_sync_mode(*v);
      } catch (const std::invalid_argument& e) {
        std::cerr << e.what() << "\n";
        return 2;
      }
      sync_mode_set = true;
    } else {
      std::cerr << "unknown option: " << arg << "\n";
      usage();
      return 2;
    }
  }

  if (sync_mode_set && !s.storage.enabled()) {
    std::cerr << "--sync-mode has no effect without --data-dir (or a "
                 "scenario that sets one)\n";
    return 2;
  }

  std::cout << "scenario=" << s.name << " protocol=" << to_string(s.protocol)
            << " conflict=" << s.workload.conflict_fraction * 100 << "%"
            << " clients/site=" << s.workload.clients_per_site
            << " duration=" << s.duration / kSec << "s seed=" << s.seed
            << (s.node.batching ? " batching" : "")
            << (s.node.coalescing ? " coalescing" : "")
            << (s.caesar.wait_enabled ? "" : " no-wait");
  if (s.node.pipeline_window > 1) {
    std::cout << " pipeline=" << s.node.pipeline_window;
  }
  if (s.workload.max_inflight > 0) {
    std::cout << " max-inflight=" << s.workload.max_inflight << "("
              << (s.workload.overload_policy == wl::OverloadPolicy::kShed
                      ? "shed"
                      : "queue")
              << ")";
  }
  if (s.shards.sharded()) {
    std::cout << " shards=" << s.shards.count << "("
              << to_string(s.shards.partition) << ")";
  }
  if (s.storage.enabled()) {
    std::cout << " data-dir=" << s.storage.data_dir
              << " sync-mode=" << storage::to_string(s.storage.sync_mode);
  }
  std::cout << "\n";
  for (const auto& e : s.faults) std::cout << "fault: " << to_string(e) << "\n";
  std::cout << "\n";

  harness::RunReport r;
  try {
    r = harness::run_scenario(s);
  } catch (const std::invalid_argument& e) {
    std::cerr << "invalid scenario: " << e.what() << "\n";
    return 2;
  }

  harness::print_report(r);

  if (!json_path.empty()) {
    harness::JsonReportFile json("consensus_cli", json_path);
    json.add(s.name, r);
    if (!json.write()) return 1;
  }
  return r.consistent ? 0 : 1;
}
