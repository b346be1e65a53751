// Cluster-consistency oracle.
//
// A run that merely *finishes* proves little: a rejoined replica that
// silently omitted the slots it missed still agrees with everyone on the
// relative order of the commands it did deliver. This oracle holds finished
// runs to the real standard:
//
//   * per-key prefix consistency — for every key, live nodes' delivery
//     sequences must be prefixes of one another (no command missing from the
//     middle of anyone's history); a node that joined mid-stream through a
//     store snapshot must hold a suffix that reaches as far as everyone
//     else's;
//   * store convergence (optional) — after a quiesce tail, every live
//     node's kv-store must hold byte-identical contents;
//   * sequence equality (optional) — total-order protocols, fully quiesced,
//     must agree on the entire delivery sequence, not just per key.
//
// The order properties are checked online, delivery by delivery, by the
// run's OrderChecker (harness/order_checker.h); RunReport::consistent is
// that checker's order verdict, so the two never disagree. Reports that
// carry full per-node logs instead are replayed through the same checker.
//
// Nodes still crashed when the run ended are excluded: a dead replica
// legitimately trails the cluster.
//
// The oracle lives in the library (not the test tree) so benches and the
// CLI can assert it too — a performance number from an inconsistent run is
// worse than no number. Sharded runs get per-group verdicts plus a routing
// invariant: the groups' keyspaces must be disjoint, so the per-group
// stores reassemble into one well-defined whole-run store.
#pragma once

#include <string>
#include <vector>

#include "harness/run_report.h"

namespace caesar::harness {

struct ConsistencyOptions {
  /// Require all live stores to hold identical (key -> value, version)
  /// contents. Valid after a quiesce tail drained in-flight commands;
  /// protocols without state transfer cannot meet it across crashes.
  bool require_converged_stores = true;
  /// Require identical full delivery sequences across live nodes
  /// (total-order protocols, fully quiesced). When off, only per-key prefix
  /// consistency is enforced.
  bool require_equal_sequences = false;
};

/// Runs the oracle over a finished run's final replica state. The scenario
/// must have kept check_consistency on (the default), or the verdict fails
/// fast with an explanation. A sharded report dispatches to
/// check_sharded_consistency automatically.
ConsistencyVerdict check_cluster_consistency(const RunReport& r,
                                             ConsistencyOptions opt = {});

/// Sharded oracle: every group's replica set must pass the core oracle, and
/// the groups' keyspaces must be disjoint (a key owned by two groups means
/// the router violated the partition — per-key ordering guarantees are void).
ConsistencyVerdict check_sharded_consistency(const RunReport& r,
                                             ConsistencyOptions opt = {});

/// Merges each group's (first live node's) store into the whole-run store a
/// single-group run would have produced. Fails (returns an empty store and
/// sets *error) when a key appears in more than one group. Requires a
/// sharded report with final state retained.
rsm::KvStore reassemble_sharded_store(const RunReport& r,
                                      std::string* error = nullptr);

}  // namespace caesar::harness
