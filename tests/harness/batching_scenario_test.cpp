// End-to-end scenario coverage for the saturation machinery: batched
// delivery stays consistent across crash/recover and restart-from-disk
// faults (the delivered-count bookkeeping translates between protocol-level
// composites and unbundled member commands), knob validation rejects
// nonsense configs, and flow-control counters surface in the report only
// when the feature is on.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "harness/oracle.h"
#include "harness/report.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

constexpr ConsistencyOptions kStrict{/*require_converged_stores=*/true,
                                     /*require_equal_sequences=*/true};
// CAESAR orders only conflicting commands, so nodes may interleave
// non-conflicting deliveries differently; per-key order still has to agree.
constexpr ConsistencyOptions kConverged{/*require_converged_stores=*/true,
                                        /*require_equal_sequences=*/false};

Scenario with_saturation_knobs(Scenario s) {
  s.node.batching = true;
  s.node.batch_delay_us = 1000;
  s.node.batch_max_ops = 32;
  s.node.pipeline_window = 4;
  s.node.coalescing = true;
  return s;
}

// --- batch unbundle ordering under crash/recover ---------------------------

void run_batched_crash_recover(ProtocolKind kind,
                               const ConsistencyOptions& opt) {
  Scenario s = with_saturation_knobs(make_scenario("crash-long"));
  s.protocol = kind;
  const RunReport r = run_scenario(s);
  // The oracle checks per-key delivery orders across nodes over the
  // unbundled member streams: a composite delivered out of member order, or
  // double-counted across the crash, would fail here.
  EXPECT_TRUE(r.consistent) << to_string(kind);
  const auto verdict = check_cluster_consistency(r, opt);
  EXPECT_TRUE(verdict.ok) << to_string(kind) << ": " << verdict.detail;
  EXPECT_GT(r.completed, 0u);
}

TEST(BatchingScenarioTest, CrashRecoverStaysConsistentMencius) {
  run_batched_crash_recover(ProtocolKind::kMencius, kStrict);
}

TEST(BatchingScenarioTest, CrashRecoverStaysConsistentMultiPaxos) {
  run_batched_crash_recover(ProtocolKind::kMultiPaxos, kStrict);
}

TEST(BatchingScenarioTest, PartitionHealStaysConsistentCaesar) {
  // CAESAR's fault repertoire here is partitions — crash/recover catch-up is
  // exercised for the total-order protocols only (see fault_fuzz_test.cpp) —
  // so its batched fault coverage partitions Virginia away from the fast
  // quorum and heals, with a quiesce tail so stores drain and converge.
  Scenario s = with_saturation_knobs(
      ScenarioBuilder("batched-partition-heal")
          .protocol(ProtocolKind::kCaesar)
          .topology(net::Topology::ec2_five_sites())
          .conflicts(0.15)
          .closed_loop(0, 4)
          .partition(0, 2, 1 * kSec)
          .partition(0, 3, 1 * kSec)
          .heal(0, 2, 2 * kSec)
          .heal(0, 3, 2 * kSec)
          .quiesce(3 * kSec)
          .duration(4 * kSec)
          .warmup(500 * kMs)
          .seed(11)
          .build());
  const RunReport r = run_scenario(s);
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kConverged);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GT(r.completed, 0u);
}

// --- batch unbundle vs restart-from-disk -----------------------------------

TEST(BatchingScenarioTest, RestartFromDiskReplaysBatchesConsistently) {
  // Restart rewinds the order checker to the durable delivered count, which
  // counts protocol-level deliveries (composites) while the checker sees
  // unbundled member commands: the rewind must translate between the two.
  Scenario s = with_saturation_knobs(make_scenario("restart-disk"));
  s.protocol = ProtocolKind::kMencius;
  s.storage.data_dir = "caesar-data/test-batched-restart";
  const RunReport r = run_scenario(s);
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(r, kStrict);
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GT(r.proto.wal_appends, 0u);
  EXPECT_GT(r.completed, 0u);
}

// --- knob validation --------------------------------------------------------

TEST(BatchingScenarioTest, ValidationRejectsZeroBatchMaxOps) {
  ScenarioBuilder b("bad-batch");
  b.batching(true).batch_max_ops(0);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(BatchingScenarioTest, ValidationRejectsZeroPipelineWindow) {
  ScenarioBuilder b("bad-window");
  b.pipeline_window(0);
  EXPECT_THROW(b.build(), std::invalid_argument);
}

TEST(BatchingScenarioTest, ValidationRejectsQueuePolicyWithZeroCap) {
  ScenarioBuilder b("bad-queue");
  b.max_inflight(16)
      .overload_policy(wl::OverloadPolicy::kQueue)
      .overload_queue_cap(0);
  EXPECT_THROW(b.build(), std::invalid_argument);
  // kShed with a zero cap is fine: the queue is never used.
  ScenarioBuilder ok("shed-queue");
  ok.max_inflight(16)
      .overload_policy(wl::OverloadPolicy::kShed)
      .overload_queue_cap(0);
  EXPECT_NO_THROW(ok.build());
}

// --- flow-control reporting -------------------------------------------------

TEST(BatchingScenarioTest, FlowControlCountersSurfaceOnlyWhenEnabled) {
  ScenarioBuilder b("flow-control-report");
  b.protocol(ProtocolKind::kMencius)
      .open_loop(0, 20000.0)  // far past saturation for a 5-site WAN
      .duration(2 * kSec)
      .warmup(500 * kMs)
      .seed(3);

  RunReport off = run_scenario(b.build());
  EXPECT_FALSE(off.flow_control.enabled);
  EXPECT_EQ(to_json(off).find("\"flow_control\""), std::string::npos);

  b.name("flow-control-report-on").max_inflight(8).overload_policy(
      wl::OverloadPolicy::kShed);
  RunReport on = run_scenario(b.build());
  EXPECT_TRUE(on.flow_control.enabled);
  EXPECT_GT(on.flow_control.admitted, 0u);
  // Far beyond saturation with a tight in-flight cap, arrivals must shed.
  EXPECT_GT(on.flow_control.shed, 0u);
  const std::string json = to_json(on);
  EXPECT_NE(json.find("\"flow_control\":{\"admitted\":"), std::string::npos);
}

}  // namespace
}  // namespace caesar::harness
