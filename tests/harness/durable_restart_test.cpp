// Restart-from-disk, proven end to end by the cluster consistency oracle:
// power loss takes every node down at once and the cluster reassembles
// itself from WALs; a single node restarts from snapshot + WAL and fetches
// only the suffix it missed; a rejoiner behind the cluster's compaction
// horizon converges through snapshot-then-suffix catch-up.
#include <gtest/gtest.h>

#include <string>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

constexpr ConsistencyOptions kStrict{/*require_converged_stores=*/true,
                                     /*require_equal_sequences=*/true};
constexpr ConsistencyOptions kConverged{/*require_converged_stores=*/true,
                                        /*require_equal_sequences=*/false};

/// Each test gets its own data dir: ctest runs suites in parallel, and two
/// runs sharing a directory would wipe each other's WALs mid-flight.
Scenario scenario_for(const std::string& base, ProtocolKind kind,
                      const std::string& tag) {
  Scenario s = make_scenario(base);
  s.protocol = kind;
  s.storage.data_dir = "caesar-data/test-" + base + "-" + tag;
  return s;
}

void expect_consistent(const RunReport& r, const ConsistencyOptions& opt) {
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, opt);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
}

// --- whole-cluster power loss ----------------------------------------------

void run_power_loss(ProtocolKind kind, const std::string& tag) {
  const RunReport r =
      run_scenario(scenario_for("power-loss", kind, tag));
  expect_consistent(r, kStrict);
  // Everyone ran with durability on and actually restarted from disk: the
  // WAL saw traffic and the group-commit path flushed.
  EXPECT_GT(r.proto.wal_appends, 1000u);
  EXPECT_GT(r.proto.fsyncs, 0u);
  // The cluster kept delivering after the blackout (the clients drained
  // their backlog), not just before it.
  EXPECT_GT(r.completed, 0u);
  ASSERT_EQ(r.crashed_at_end.size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_FALSE(r.crashed_at_end[i]) << "node " << i << " never restarted";
  }
}

TEST(PowerLossTest, MenciusClusterRestartsFromWalAndConverges) {
  run_power_loss(ProtocolKind::kMencius, "mencius");
}

TEST(PowerLossTest, MultiPaxosClusterRestartsFromWalAndConverges) {
  run_power_loss(ProtocolKind::kMultiPaxos, "multipaxos");
}

TEST(PowerLossTest, ClockRsmClusterRestartsFromWalAndConverges) {
  run_power_loss(ProtocolKind::kClockRsm, "clockrsm");
}

// --- single-node restart-from-disk -----------------------------------------

void run_restart_disk(ProtocolKind kind, const std::string& tag) {
  const RunReport r =
      run_scenario(scenario_for("restart-disk", kind, tag));
  expect_consistent(r, kStrict);
  EXPECT_GT(r.proto.wal_appends, 1000u);
  EXPECT_GT(r.proto.fsyncs, 0u);
  // The rejoiner replayed its own durable prefix and only needed the
  // crash-window suffix from peers, so catch-up ran but moved far less than
  // the node's full history.
  EXPECT_GE(r.proto.catchup_requests, 1u);
  ASSERT_NE(r.order, nullptr);
  EXPECT_LT(r.proto.catchup_commands, r.order->delivered(0));
}

TEST(RestartDiskTest, MenciusRestartsFromSnapshotAndWal) {
  run_restart_disk(ProtocolKind::kMencius, "mencius");
}

// Node 2 is a follower (the builtin leader is node 3 = Ireland): follower
// restart is the supported Multi-Paxos restart shape — leader election stays
// out of scope.
TEST(RestartDiskTest, MultiPaxosFollowerRestartsFromSnapshotAndWal) {
  run_restart_disk(ProtocolKind::kMultiPaxos, "multipaxos");
}

TEST(RestartDiskTest, ClockRsmRestartsFromSnapshotAndWal) {
  run_restart_disk(ProtocolKind::kClockRsm, "clockrsm");
}

TEST(RestartDiskTest, DurabilityCountersSurviveWindowAccounting) {
  const RunReport r = run_scenario(
      scenario_for("restart-disk", ProtocolKind::kMencius, "windows"));
  std::uint64_t windowed = 0;
  for (const auto& w : r.windows) windowed += w.proto.wal_appends;
  // Windows cover [warmup=1s, duration); the warmup slice keeps its own
  // appends, so the windowed sum can only trail the run-wide total.
  EXPECT_GT(windowed, 0u);
  EXPECT_LE(windowed, r.proto.wal_appends);
}

// --- rejoin from behind the compaction horizon ------------------------------

// With an aggressive snapshot cadence the live peers compact their logs far
// past the crashed node's durable frontier during its 3-second outage. Plain
// chunked catch-up cannot serve the dropped prefix; the responder must hand
// over a store snapshot, and the rejoiner continues from it (trimmed log,
// suffix consistency).
TEST(CompactionHorizonTest, RejoinerBehindHorizonGetsSnapshotThenSuffix) {
  Scenario s = scenario_for("restart-disk", ProtocolKind::kMencius, "horizon");
  s.storage.snapshot_every = 64;
  const RunReport r = run_scenario(s);

  // Compaction really happened — snapshots were cut and WAL segments
  // deleted — and the rejoiner crossed the horizon via a snapshot install.
  EXPECT_GT(r.proto.snapshots, 0u);
  EXPECT_GT(r.proto.truncated_segments, 0u);
  ASSERT_NE(r.order, nullptr);
  ASSERT_EQ(r.order->nodes(), 5u);
  EXPECT_TRUE(r.order->trimmed(2))
      << "node 2 rejoined without installing a catch-up snapshot — did the "
         "responder serve the whole prefix despite compaction?";
  // It still delivered the post-install stream in cluster order.
  EXPECT_GT(r.order->delivered(2), 0u);
  expect_consistent(r, kConverged);
}

}  // namespace
}  // namespace caesar::harness
