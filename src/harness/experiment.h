// Legacy experiment harness, kept as a thin compatibility shim over the
// Scenario API (harness/scenario.h). ExperimentConfig expresses exactly one
// shape — a single closed-loop workload plus at most one crash — and
// run_experiment() maps it onto a one-phase scenario. New code should build
// scenarios directly; this header remains so the paper-figure programs and
// older tests stay source-compatible.
#pragma once

#include "harness/scenario.h"

namespace caesar::harness {

struct ExperimentConfig {
  ProtocolKind protocol = ProtocolKind::kCaesar;
  net::Topology topology = net::Topology::ec2_five_sites();
  wl::WorkloadConfig workload;
  rt::NodeConfig node;
  Time fd_timeout_us = 500 * kMs;

  /// Total simulated run length and measurement warmup cutoff.
  Time duration = 12 * kSec;
  Time warmup = 3 * kSec;
  std::uint64_t seed = 1;

  // Protocol-specific knobs.
  core::CaesarConfig caesar;
  epaxos::EPaxosConfig epaxos;
  m2paxos::M2PaxosConfig m2paxos;
  mencius::MenciusConfig mencius;
  clockrsm::ClockRsmConfig clockrsm;
  mpaxos::MultiPaxosConfig multipaxos{/*leader=*/3};  // Ireland by default

  // Failure injection (paper Fig 12).
  NodeId crash_node = kNoNode;
  Time crash_at = 0;

  /// Check per-key order consistency online and keep the final stores for
  /// the oracle (disable only for very long throughput runs).
  bool check_consistency = true;
  Time timeline_bucket = 500 * kMs;
};

/// The scenario an ExperimentConfig denotes: one closed-loop phase plus at
/// most one crash. Useful when migrating call sites mechanically.
Scenario to_scenario(const ExperimentConfig& cfg);

/// Runs one experiment to completion. Deterministic in cfg.seed.
/// Equivalent to run_scenario(to_scenario(cfg)).
ExperimentResult run_experiment(const ExperimentConfig& cfg);

}  // namespace caesar::harness
