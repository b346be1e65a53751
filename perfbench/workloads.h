// The benchmark's workloads: each one is a harness::Scenario built from the
// benchmark's --seed, plus what the metrics need to know about its shape.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace perfbench {

using caesar::Time;

struct Workload {
  std::string name;
  caesar::harness::Scenario scenario;
  /// The p99 limit a metrics window must meet to count towards the
  /// saturation knee.
  Time latency_limit_us = 0;
  /// The disruption unavailability is measured from: the power loss, or the
  /// start of the run (a cold start) for workloads without faults.
  Time disruption_at = 0;
  /// Options for harness::check_cluster_consistency: store convergence is
  /// required only after a quiesce tail.
  caesar::harness::ConsistencyOptions oracle;
};

/// Workload names in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

/// Builds a workload's scenario for `seed`. `smoke` selects the short
/// variant the self-test runs. Storage-backed workloads keep their data
/// under `data_dir`. Throws std::invalid_argument on an unknown name.
Workload make_workload(std::string_view name, std::uint64_t seed, bool smoke,
                       const std::string& data_dir);

}  // namespace perfbench
