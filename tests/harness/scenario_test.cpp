// Scenario API tests: builder + validation, the named registry, fault
// schedules (partition/heal, crash/recover) and open-loop workload phases.
#include "harness/scenario.h"

#include <gtest/gtest.h>

#include <stdexcept>

#include "harness/experiment.h"
#include "harness/oracle.h"

namespace caesar::harness {
namespace {

// ---------------------------------------------------------------------------
// Builder & validation
// ---------------------------------------------------------------------------

TEST(ScenarioBuilderTest, BuildsSortedFaultTimeline) {
  Scenario s = ScenarioBuilder("t")
                   .heal(0, 1, 8 * kSec)
                   .crash(2, 2 * kSec)
                   .partition(0, 1, 4 * kSec)
                   .duration(10 * kSec)
                   .warmup(1 * kSec)
                   .build();
  ASSERT_EQ(s.faults.size(), 3u);
  EXPECT_EQ(s.faults[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(s.faults[1].kind, FaultEvent::Kind::kPartition);
  EXPECT_EQ(s.faults[2].kind, FaultEvent::Kind::kHeal);
}

TEST(ScenarioBuilderTest, ForkingVariantsFromCommonPrefix) {
  ScenarioBuilder base = ScenarioBuilder("base").clients_per_site(4).duration(
      5 * kSec);
  Scenario caesar = ScenarioBuilder(base).protocol(ProtocolKind::kCaesar).build();
  Scenario epaxos = ScenarioBuilder(base).protocol(ProtocolKind::kEPaxos).build();
  EXPECT_EQ(caesar.protocol, ProtocolKind::kCaesar);
  EXPECT_EQ(epaxos.protocol, ProtocolKind::kEPaxos);
  EXPECT_EQ(caesar.workload.clients_per_site, 4u);
  EXPECT_EQ(epaxos.workload.clients_per_site, 4u);
}

TEST(ScenarioValidationTest, RejectsOutOfRangeMultiPaxosLeader) {
  // The old harness silently indexed out of range here; now it fails fast.
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kMultiPaxos;
  cfg.topology = net::Topology::lan(3);
  cfg.multipaxos.leader = 3;  // only sites 0..2 exist
  EXPECT_THROW(run_experiment(cfg), std::invalid_argument);

  EXPECT_THROW(ScenarioBuilder("t")
                   .protocol(ProtocolKind::kMultiPaxos)
                   .topology(net::Topology::lan(3))
                   .multipaxos_leader(5)
                   .build(),
               std::invalid_argument);
}

TEST(ScenarioValidationTest, AcceptsInRangeMultiPaxosLeaderOnSmallTopology) {
  ExperimentConfig cfg;
  cfg.protocol = ProtocolKind::kMultiPaxos;
  cfg.topology = net::Topology::lan(3);
  cfg.multipaxos.leader = 0;
  cfg.workload.clients_per_site = 2;
  cfg.duration = 2 * kSec;
  cfg.warmup = 0;
  ExperimentResult r = run_experiment(cfg);
  EXPECT_GT(r.completed, 0u);
  EXPECT_TRUE(r.consistent);
}

TEST(ScenarioValidationTest, RejectsMalformedScenarios) {
  // Fault target outside the topology.
  EXPECT_THROW(
      ScenarioBuilder("t").topology(net::Topology::lan(3)).crash(7, kSec).build(),
      std::invalid_argument);
  // Partitioning a node from itself.
  EXPECT_THROW(ScenarioBuilder("t").partition(1, 1, kSec).build(),
               std::invalid_argument);
  // Fault beyond the end of the run.
  EXPECT_THROW(
      ScenarioBuilder("t").duration(2 * kSec).warmup(0).crash(0, 5 * kSec).build(),
      std::invalid_argument);
  // Open-loop phase with no rate.
  EXPECT_THROW(ScenarioBuilder("t").open_loop(0, 0.0).build(),
               std::invalid_argument);
  // First phase must start at t=0.
  EXPECT_THROW(ScenarioBuilder("t").open_loop(2 * kSec, 100.0).build(),
               std::invalid_argument);
  // Warmup must precede the end of the run.
  EXPECT_THROW(
      ScenarioBuilder("t").duration(2 * kSec).warmup(2 * kSec).build(),
      std::invalid_argument);
  // CAESAR fast quorum cannot exceed the cluster.
  core::CaesarConfig cc;
  cc.fast_quorum_override = 9;
  EXPECT_THROW(ScenarioBuilder("t")
                   .topology(net::Topology::lan(3))
                   .caesar(cc)
                   .build(),
               std::invalid_argument);
  // Resync grace must cover the failure-detector retraction delay.
  EXPECT_THROW(ScenarioBuilder("t")
                   .protocol(ProtocolKind::kMencius)
                   .fd_timeout(5 * kSec)
                   .build(),
               std::invalid_argument);
  // Ack bitmasks cap Mencius/MultiPaxos topologies at 64 sites.
  EXPECT_THROW(ScenarioBuilder("t")
                   .protocol(ProtocolKind::kMencius)
                   .topology(net::Topology::lan(65))
                   .build(),
               std::invalid_argument);
}

TEST(ScenarioValidationTest, HandBuiltScenarioPhasesValidateInAnyOrder) {
  // Scenario is a public aggregate: callers may fill phases out of time
  // order without going through the sorting builder.
  Scenario s;
  s.duration = 5 * kSec;
  s.warmup = 0;
  s.workload.clients_per_site = 2;
  s.phases = {wl::PhaseSpec::open_loop(2 * kSec, 200.0),
              wl::PhaseSpec::closed_loop(0, 2)};
  ExperimentResult r = run_scenario(s);  // must not throw
  EXPECT_GT(r.completed, 0u);

  // Duplicate instants are rejected even when not adjacent in the vector.
  Scenario dup = s;
  dup.phases = {wl::PhaseSpec::closed_loop(0, 2),
                wl::PhaseSpec::open_loop(2 * kSec, 200.0),
                wl::PhaseSpec::closed_loop(0, 4)};
  EXPECT_THROW(run_scenario(dup), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

TEST(ScenarioRegistryTest, BuiltinsAreRegistered) {
  for (const char* name : {"quickstart", "fig12-failover", "partition-heal",
                           "crash-recover", "rate-sweep"}) {
    EXPECT_TRUE(has_scenario(name)) << name;
  }
  EXPECT_GE(list_scenarios().size(), 5u);
  // Registry instantiation produces a validated scenario.
  Scenario s = make_scenario("fig12-failover");
  ASSERT_EQ(s.faults.size(), 1u);
  EXPECT_EQ(s.faults[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(s.faults[0].node, 2u);
}

TEST(ScenarioRegistryTest, UnknownNameThrowsListingAvailable) {
  try {
    make_scenario("no-such-scenario");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-scenario"), std::string::npos);
    EXPECT_NE(what.find("partition-heal"), std::string::npos);
  }
}

TEST(ScenarioRegistryTest, UserRegistrationsAreSelectable) {
  register_scenario(ScenarioInfo{
      "test-tiny", "registered by scenario_test",
      [] {
        return ScenarioBuilder("test-tiny")
            .clients_per_site(2)
            .duration(2 * kSec)
            .warmup(0)
            .build();
      }});
  ASSERT_TRUE(has_scenario("test-tiny"));
  ExperimentResult r = run_scenario(make_scenario("test-tiny"));
  EXPECT_GT(r.completed, 0u);
}

// ---------------------------------------------------------------------------
// Partition / heal
// ---------------------------------------------------------------------------

TEST(ScenarioRunTest, PartitionHealStaysConsistentAndFastPathRecovers) {
  const Scenario s = make_scenario("partition-heal");
  ExperimentResult r = run_scenario(s);

  // Delivery consistency across the partition: no two sites may disagree on
  // the per-key delivery order even while the link is cut — and the
  // stronger oracle: nobody's history omits a command from the middle
  // (partitions hold traffic, they never lose it).
  EXPECT_TRUE(r.consistent);
  const auto verdict = check_cluster_consistency(
      r, ConsistencyOptions{/*require_converged_stores=*/false,
                                     /*require_equal_sequences=*/false});
  EXPECT_TRUE(verdict.ok) << verdict.detail;
  EXPECT_GT(r.completed, 1000u);

  // Fast-path fraction per window, from the mid-run snapshots taken at the
  // partition (4s) and heal (8s) instants.
  ASSERT_EQ(r.samples.size(), 2u);
  const auto& at_partition = r.samples[0];
  const auto& at_heal = r.samples[1];
  auto window_fast_fraction = [](std::uint64_t f0, std::uint64_t s0,
                                 std::uint64_t f1, std::uint64_t s1) {
    const double total = static_cast<double>((f1 - f0) + (s1 - s0));
    return total == 0 ? 1.0 : static_cast<double>(f1 - f0) / total;
  };
  const double during = window_fast_fraction(
      at_partition.proto.fast_decisions, at_partition.proto.slow_decisions,
      at_heal.proto.fast_decisions, at_heal.proto.slow_decisions);
  const double after = window_fast_fraction(
      at_heal.proto.fast_decisions, at_heal.proto.slow_decisions,
      r.proto.fast_decisions, r.proto.slow_decisions);

  // Virginia cannot reach its fast quorum while cut from Frankfurt and
  // Ireland, so a visible share of decisions go slow; after the heal the
  // fast path dominates again.
  EXPECT_LT(during, 0.98);
  EXPECT_GT(after, 0.99);
  EXPECT_GT(after, during);

  // Throughput also recovers: the final bucket is at least as busy as the
  // pre-partition steady state's half.
  const std::size_t buckets = r.timeline.bucket_count();
  ASSERT_GT(buckets, 0u);
  EXPECT_GT(r.timeline.rate_at(buckets - 1), 0.5 * r.timeline.rate_at(3));
}

TEST(ScenarioRunTest, PartitionHealIsDeterministicInSeed) {
  const Scenario s = make_scenario("partition-heal");
  ExperimentResult a = run_scenario(s);
  ExperimentResult b = run_scenario(s);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_DOUBLE_EQ(a.total_latency.mean(), b.total_latency.mean());
  EXPECT_EQ(a.proto.fast_decisions, b.proto.fast_decisions);
  EXPECT_EQ(a.proto.slow_decisions, b.proto.slow_decisions);
}

TEST(ScenarioRunTest, PartitionHealWorksForEveryProtocol) {
  for (ProtocolKind kind :
       {ProtocolKind::kCaesar, ProtocolKind::kEPaxos, ProtocolKind::kM2Paxos,
        ProtocolKind::kMencius, ProtocolKind::kMultiPaxos}) {
    Scenario s = make_scenario("partition-heal");
    s.protocol = kind;
    s.workload.clients_per_site = 3;  // keep the matrix cheap
    ExperimentResult r = run_scenario(s);
    EXPECT_TRUE(r.consistent) << to_string(kind);
    EXPECT_GT(r.completed, 100u) << to_string(kind);
    const auto verdict = check_cluster_consistency(
        r, ConsistencyOptions{/*require_converged_stores=*/false,
                                       /*require_equal_sequences=*/false});
    EXPECT_TRUE(verdict.ok) << to_string(kind) << ": " << verdict.detail;
  }
}

// ---------------------------------------------------------------------------
// Crash / recover
// ---------------------------------------------------------------------------

TEST(ScenarioRunTest, CrashThenRecoverRestoresThroughput) {
  const Scenario s = make_scenario("crash-recover");
  ExperimentResult r = run_scenario(s);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.completed, 1000u);

  const std::size_t buckets = r.timeline.bucket_count();
  ASSERT_GT(buckets, 20u);  // 14s run, 500ms buckets
  const auto second = [&](double s_) {
    return r.timeline.rate_at(static_cast<std::size_t>(s_ * 2));
  };
  // Dip while Frankfurt is down, recovery to at least the pre-crash level
  // once it rejoins (its clients reconnected elsewhere, so the tail can even
  // exceed the start).
  EXPECT_LT(second(5), 0.8 * second(3));
  EXPECT_GT(second(12), 0.9 * second(3));
}

TEST(ScenarioRunTest, CrashRecoverResumesDeliveryForEveryProtocol) {
  // Regression: a rejoining node must not leave the cluster wedged. Mencius
  // re-proposes its in-flight slots and re-learns the slot frontier from
  // peer floors; ClockRSM's clock ticks restart; M2Paxos' watchdog resumes.
  for (ProtocolKind kind :
       {ProtocolKind::kEPaxos, ProtocolKind::kM2Paxos, ProtocolKind::kMencius,
        ProtocolKind::kClockRsm, ProtocolKind::kMultiPaxos}) {
    Scenario s = make_scenario("crash-recover");
    s.protocol = kind;  // node 2 crashes; the MultiPaxos leader (3) does not
    s.sample_stats_at.push_back(10 * kSec);  // well after the 8s recovery
    ExperimentResult r = run_scenario(s);
    EXPECT_TRUE(r.consistent) << to_string(kind);
    ASSERT_EQ(r.samples.size(), 1u) << to_string(kind);
    // Real progress between 10s and the 14s end of the run.
    EXPECT_GT(r.completed, r.samples[0].completed + 100) << to_string(kind);
    // Protocols with state transfer are additionally held to the prefix
    // oracle: the rejoined node's history must not omit missed commands
    // (EPaxos/M2Paxos instance-space catch-up is a ROADMAP follow-up).
    if (kind == ProtocolKind::kMencius || kind == ProtocolKind::kClockRsm ||
        kind == ProtocolKind::kMultiPaxos) {
      const auto verdict = check_cluster_consistency(
          r, ConsistencyOptions{/*require_converged_stores=*/false,
                                         /*require_equal_sequences=*/false});
      EXPECT_TRUE(verdict.ok) << to_string(kind) << ": " << verdict.detail;
    }
  }
}

// ---------------------------------------------------------------------------
// Open-loop phases
// ---------------------------------------------------------------------------

TEST(ScenarioRunTest, OpenLoopThroughputTracksArrivalRate) {
  const double rate = 2000.0;
  core::CaesarConfig cc;
  cc.gossip_interval_us = 100 * kMs;
  Scenario s = ScenarioBuilder("open-loop-track")
                   .protocol(ProtocolKind::kCaesar)
                   .conflicts(0.0)
                   .caesar(cc)
                   .open_loop(0, rate)
                   .duration(8 * kSec)
                   .warmup(2 * kSec)
                   .seed(3)
                   .build();
  ExperimentResult r = run_scenario(s);
  EXPECT_TRUE(r.consistent);
  // Completions per second in the measurement window track the configured
  // Poisson arrival rate (the system is far from saturation here).
  EXPECT_NEAR(r.throughput_tps, rate, 0.10 * rate);
}

TEST(ScenarioRunTest, RateSweepStepsThroughputPerPhase) {
  ExperimentResult r = run_scenario(make_scenario("rate-sweep"));
  EXPECT_TRUE(r.consistent);
  const auto second = [&](double s_) {
    return r.timeline.rate_at(static_cast<std::size_t>(s_ * 2));
  };
  // Steady-state buckets inside each phase track 500 / 2000 / 4000 cmd/s.
  EXPECT_NEAR(second(2.5), 500.0, 100.0);
  EXPECT_NEAR(second(6.5), 2000.0, 300.0);
  EXPECT_NEAR(second(10.5), 4000.0, 600.0);
}

TEST(ScenarioRunTest, OpenLoopIsDeterministicInSeed) {
  const Scenario s = make_scenario("rate-sweep");
  ExperimentResult a = run_scenario(s);
  ExperimentResult b = run_scenario(s);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.submitted, b.submitted);
  EXPECT_DOUBLE_EQ(a.total_latency.mean(), b.total_latency.mean());
}

// ---------------------------------------------------------------------------
// Compatibility shim
// ---------------------------------------------------------------------------

TEST(ExperimentShimTest, MatchesDirectScenarioRun) {
  ExperimentConfig cfg;
  cfg.workload.clients_per_site = 4;
  cfg.workload.conflict_fraction = 0.2;
  cfg.duration = 4 * kSec;
  cfg.warmup = 1 * kSec;
  cfg.seed = 21;
  cfg.crash_node = 1;
  cfg.crash_at = 2 * kSec;
  ExperimentResult via_shim = run_experiment(cfg);
  ExperimentResult via_scenario = run_scenario(to_scenario(cfg));
  EXPECT_EQ(via_shim.completed, via_scenario.completed);
  EXPECT_EQ(via_shim.submitted, via_scenario.submitted);
  EXPECT_EQ(via_shim.messages, via_scenario.messages);
  EXPECT_DOUBLE_EQ(via_shim.total_latency.mean(),
                   via_scenario.total_latency.mean());
  EXPECT_TRUE(via_shim.consistent);
}

}  // namespace
}  // namespace caesar::harness
