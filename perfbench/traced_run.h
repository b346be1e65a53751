// The benchmark's own run driver: the same simulation harness::run_scenario
// performs, assembled from the library's public pieces so that the benchmark
// can observe it from outside. Every call into a layer goes through a
// forwarding wrapper (rt::Protocol, rt::Env, wl::Frontend and the delivery
// hooks); with timing on, each wrapper records a wall-time span.
//
// Nothing here schedules simulator events or draws random numbers beyond
// what run_scenario does, so for a given seed run_driver reproduces
// run_scenario's simulated results exactly — the benchmark checks that on
// every run (see fingerprint()).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "harness/run_report.h"
#include "workloads.h"

namespace perfbench {

/// Request accounting seen through run_driver's Frontend: every attempted
/// request ends up completed, shed by flow control, dropped at a crashed
/// site, or still in flight when the run ends.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t shed = 0;
  /// In flight at a node when it crashed, or submitted to a crashed node.
  std::uint64_t dropped_at_crash = 0;
  /// Open-loop arrivals while every site was down (they never reach a node).
  std::uint64_t dropped_no_site = 0;
  /// Still in flight when the run ends; reported apart from the failures.
  std::uint64_t in_flight_end = 0;

  std::uint64_t dropped() const { return dropped_at_crash + dropped_no_site; }
  std::uint64_t failed() const { return shed + dropped(); }
};

struct DriverResult {
  caesar::harness::RunReport report;
  Accounting acct;
  bool correct = true;
  std::string detail;
  /// Highest metrics window's offered rate (arrivals per second) meeting the
  /// workload's limits; 0 when no window does.
  double knee_cps = 0;
  /// Simulated ms from the workload's disruption to a site's first
  /// completion after it, averaged over the sites; -1 when some site
  /// completes nothing after it.
  double unavail_ms = -1;
  /// Wall seconds from the start of run_driver through the oracle.
  double wall_s = 0;
  /// Per-layer metrics (name -> value); filled with timing on.
  std::map<std::string, double> layers;
  /// Per wire-type protocol handler calls and inclusive seconds.
  std::map<std::uint16_t, std::pair<std::uint64_t, double>> msg_types;
};

struct DriverOptions {
  /// Record wall-time spans (the traced run); off for the counting pass.
  bool timing = false;
  /// Where to write the first 100,000 spans as Chrome trace-event JSON;
  /// empty = nowhere.
  std::string trace_out;
};

DriverResult run_driver(const Workload& w, const DriverOptions& opt);

/// The simulated results two runs of one seed must agree on, as a JSON
/// object: completions, submissions, latency percentiles, traffic, protocol
/// counters, flow control and per-window counts.
std::string fingerprint(const caesar::harness::RunReport& r);

/// Checks a finished run: run_scenario's own consistency flag and the
/// library oracle. Returns an empty string when both pass.
std::string check_run(const caesar::harness::RunReport& r, const Workload& w);

}  // namespace perfbench
