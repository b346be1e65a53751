// The online order checker, driven directly (exact violation sites, restart
// rewinds, snapshot rebases, whole-sequence equality, offline replay) and
// through full runs (the oracle's options, bounded retention).
#include "harness/order_checker.h"

#include <gtest/gtest.h>

#include "harness/oracle.h"
#include "harness/scenario.h"

namespace caesar::harness {
namespace {

rsm::Command cmd(std::uint64_t seq, std::initializer_list<Key> keys) {
  rsm::Command c;
  c.id = make_cmd_id(0, seq);
  for (Key k : keys) c.ops.push_back(rsm::Op{k, seq, seq});
  c.finalize();
  return c;
}

const std::vector<bool> kAllLive;

/// Delivers `c` on every node in `nodes`, closing one protocol-level
/// delivery each with `durable` deliveries on disk.
void deliver_all(OrderChecker& oc, std::initializer_list<NodeId> nodes,
                 const rsm::Command& c, Time at, std::uint64_t durable = 0) {
  for (NodeId x : nodes) {
    oc.deliver(x, c, at);
    oc.end_instance(x, durable);
  }
}

TEST(OrderCheckerTest, DivergenceReportsExactSite) {
  OrderChecker oc(3, /*durable=*/false);
  deliver_all(oc, {0, 1, 2}, cmd(1, {5}), 100);
  oc.deliver(0, cmd(2, {5}), 200);
  oc.deliver(2, cmd(3, {5}), 350);  // node 2 decided another command there
  oc.deliver(1, cmd(2, {5}), 400);

  ASSERT_EQ(oc.violations().size(), 1u);
  const OrderViolation& v = oc.violations().front();
  EXPECT_EQ(v.at, 350);
  EXPECT_EQ(v.node, 2u);
  EXPECT_EQ(v.key, 5u);
  EXPECT_EQ(v.position, 1u);
  EXPECT_EQ(v.expected, make_cmd_id(0, 2));
  EXPECT_EQ(v.got, make_cmd_id(0, 3));

  const ConsistencyVerdict verdict = oc.verdict(kAllLive, false);
  EXPECT_FALSE(verdict.ok);
  EXPECT_EQ(verdict.detail, v.describe());
  for (const char* part : {"node 2", "key 5", "position 1", "t=350us",
                           "c(0.3)", "c(0.2)"}) {
    EXPECT_NE(verdict.detail.find(part), std::string::npos)
        << part << " missing from: " << verdict.detail;
  }
  // Excluding the offender (crashed at the end) clears the verdict.
  EXPECT_TRUE(oc.verdict({false, false, true}, false).ok);
}

TEST(OrderCheckerTest, OmittedCommandIsCaughtOnline) {
  // Same shape as the oracle's hand-built omitted-command case, but fed
  // delivery by delivery: node 1 resumes past #3 as if it never existed.
  OrderChecker oc(2, /*durable=*/false);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    oc.deliver(0, cmd(i, {7}), static_cast<Time>(i));
    if (i != 3) oc.deliver(1, cmd(i, {7}), static_cast<Time>(i));
  }
  ASSERT_FALSE(oc.violations().empty());
  EXPECT_EQ(oc.violations().front().node, 1u);
  EXPECT_EQ(oc.violations().front().position, 2u);
  EXPECT_EQ(oc.violations().front().got, make_cmd_id(0, 4));
  EXPECT_EQ(oc.violations().front().expected, make_cmd_id(0, 3));
  const ConsistencyVerdict verdict = oc.verdict(kAllLive, false);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("key 7"), std::string::npos) << verdict.detail;
}

TEST(OrderCheckerTest, CommandLostEverywhereInGroupCommitWindowIsForgotten) {
  // Every node delivers #2 but none flushes it before the power loss; after
  // the restart the cluster decides #3 there instead. Truncating each log to
  // its durable prefix and comparing afterwards finds nothing wrong, and
  // neither may the checker.
  OrderChecker oc(3, /*durable=*/true);
  deliver_all(oc, {0, 1, 2}, cmd(1, {9}), 10, /*durable=*/1);
  deliver_all(oc, {0, 1, 2}, cmd(2, {9}), 20, /*durable=*/1);
  for (NodeId x = 0; x < 3; ++x) oc.restart(x, 1, false);
  EXPECT_EQ(oc.delivered(0), 1u);
  deliver_all(oc, {0, 1, 2}, cmd(3, {9}), 30, /*durable=*/2);
  EXPECT_TRUE(oc.violations().empty());
  EXPECT_TRUE(oc.verdict(kAllLive, true).ok);
}

TEST(OrderCheckerTest, CommandLostOnSomeNodesStillConflicts) {
  // Node 0 made #2 durable; nodes 1 and 2 lost it and then delivered #3 at
  // its position. Node 0's history still holds #2 there: a real divergence.
  OrderChecker oc(3, /*durable=*/true);
  deliver_all(oc, {0, 1, 2}, cmd(1, {9}), 10, /*durable=*/1);
  oc.deliver(0, cmd(2, {9}), 20);
  oc.end_instance(0, 2);
  deliver_all(oc, {1, 2}, cmd(2, {9}), 20, /*durable=*/1);
  oc.restart(1, 1, false);
  oc.restart(2, 1, false);
  deliver_all(oc, {1, 2}, cmd(3, {9}), 30, /*durable=*/2);
  ASSERT_EQ(oc.violations().size(), 2u);
  EXPECT_EQ(oc.violations()[0].position, 1u);
  EXPECT_EQ(oc.violations()[0].expected, make_cmd_id(0, 2));
  EXPECT_FALSE(oc.verdict(kAllLive, false).ok);
}

TEST(OrderCheckerTest, RewoundDeliveryTakesItsViolationAlong) {
  // Node 1 delivered a wrong command but lost it in the crash, then
  // re-delivered the right one: its final history is clean.
  OrderChecker oc(2, /*durable=*/true);
  deliver_all(oc, {0, 1}, cmd(1, {4}), 10, /*durable=*/1);
  deliver_all(oc, {0}, cmd(2, {4}), 20, /*durable=*/2);
  deliver_all(oc, {1}, cmd(3, {4}), 20, /*durable=*/1);
  ASSERT_EQ(oc.violations().size(), 1u);
  oc.restart(1, 1, false);
  EXPECT_TRUE(oc.violations().empty());
  deliver_all(oc, {1}, cmd(2, {4}), 30, /*durable=*/2);
  EXPECT_TRUE(oc.verdict(kAllLive, true).ok);
}

TEST(OrderCheckerTest, RestartBelowReportedDiskStateFailsLoudly) {
  OrderChecker oc(2, /*durable=*/true);
  deliver_all(oc, {0, 1}, cmd(1, {4}), 10, /*durable=*/1);
  deliver_all(oc, {0, 1}, cmd(2, {4}), 20, /*durable=*/2);
  oc.restart(1, 1, false);  // disk had reported 2 deliveries
  const ConsistencyVerdict verdict = oc.verdict(kAllLive, false);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("node 1 restarted"), std::string::npos)
      << verdict.detail;
}

TEST(OrderCheckerTest, SnapshotRebaseChecksTheSuffix) {
  OrderChecker oc(3, /*durable=*/false);
  for (std::uint64_t i = 1; i <= 4; ++i) {
    deliver_all(oc, {0, 1}, cmd(i, {1, 2}), static_cast<Time>(i));
  }
  deliver_all(oc, {2}, cmd(1, {1, 2}), 1);
  // Node 2 installs a snapshot covering #1-#2 and carries on from #3.
  oc.rebase(2, 2);
  EXPECT_TRUE(oc.trimmed(2));
  EXPECT_EQ(oc.delivered(2), 0u);
  deliver_all(oc, {2}, cmd(3, {1, 2}), 5);
  // Still behind on both keys: not yet as far as the full histories.
  EXPECT_FALSE(oc.verdict(kAllLive, false).ok);
  deliver_all(oc, {2}, cmd(4, {1, 2}), 6);
  EXPECT_TRUE(oc.violations().empty());
  EXPECT_TRUE(oc.verdict(kAllLive, false).ok);
  // The rebased node left the whole-sequence comparison.
  EXPECT_TRUE(oc.verdict(kAllLive, true).ok);
  EXPECT_EQ(oc.delivered(2), 2u);

  // A gap after the join point is an order violation like any other.
  deliver_all(oc, {0, 1}, cmd(5, {1}), 7);
  deliver_all(oc, {0, 1}, cmd(6, {1}), 8);
  deliver_all(oc, {2}, cmd(6, {1}), 9);
  ASSERT_EQ(oc.violations().size(), 1u);
  EXPECT_EQ(oc.violations().front().node, 2u);
  EXPECT_EQ(oc.violations().front().expected, make_cmd_id(0, 5));
}

TEST(OrderCheckerTest, RequireEqualSequencesComparesWholeOrder) {
  // Per-key order holds (the two commands touch different keys), but the
  // nodes interleaved them differently.
  OrderChecker oc(2, /*durable=*/false);
  oc.deliver(0, cmd(1, {1}), 1);
  oc.deliver(0, cmd(2, {2}), 2);
  oc.deliver(1, cmd(2, {2}), 1);
  oc.deliver(1, cmd(1, {1}), 2);
  EXPECT_TRUE(oc.verdict(kAllLive, false).ok);
  const ConsistencyVerdict strict = oc.verdict(kAllLive, true);
  EXPECT_FALSE(strict.ok);
  EXPECT_NE(strict.detail.find("different sequence"), std::string::npos)
      << strict.detail;

  // Same order, different lengths: still unequal.
  OrderChecker behind(2, /*durable=*/false);
  behind.deliver(0, cmd(1, {1}), 1);
  behind.deliver(0, cmd(2, {2}), 2);
  behind.deliver(1, cmd(1, {1}), 1);
  EXPECT_TRUE(behind.verdict(kAllLive, false).ok);
  const ConsistencyVerdict lengths = behind.verdict(kAllLive, true);
  EXPECT_FALSE(lengths.ok);
  EXPECT_NE(lengths.detail.find("2 vs 1 commands"), std::string::npos)
      << lengths.detail;
}

TEST(OrderCheckerTest, RequireEqualSequencesThroughTheOracle) {
  // A total-order protocol passes the strict oracle; a generalized-consensus
  // one delivers non-conflicting commands in different orders and fails it
  // while passing the per-key one.
  auto run = [](ProtocolKind kind) {
    return run_scenario(ScenarioBuilder("equal-sequences")
                            .protocol(kind)
                            .conflicts(0.1)
                            .closed_loop(0, 4)
                            .quiesce(1500 * kMs)
                            .duration(2 * kSec)
                            .warmup(200 * kMs)
                            .seed(5)
                            .build());
  };
  const ConsistencyOptions strict{/*require_converged_stores=*/true,
                                  /*require_equal_sequences=*/true};
  const ConsistencyOptions per_key{/*require_converged_stores=*/true,
                                   /*require_equal_sequences=*/false};
  const RunReport mencius = run(ProtocolKind::kMencius);
  const auto ok = check_cluster_consistency(mencius, strict);
  EXPECT_TRUE(ok.ok) << ok.detail;
  const RunReport caesar = run(ProtocolKind::kCaesar);
  const auto weak = check_cluster_consistency(caesar, per_key);
  EXPECT_TRUE(weak.ok) << weak.detail;
  EXPECT_FALSE(check_cluster_consistency(caesar, strict).ok);
}

TEST(OrderCheckerTest, ReplayMatchesOnlineVerdict) {
  // Offline logs of the divergent run above reach the same verdict.
  std::vector<rsm::DeliveryLog> logs(3);
  for (NodeId x = 0; x < 3; ++x) logs[x].record(cmd(1, {5}));
  logs[0].record(cmd(2, {5}));
  logs[1].record(cmd(2, {5}));
  logs[2].record(cmd(3, {5}));
  const OrderChecker replayed = OrderChecker::replay(logs, {});
  const ConsistencyVerdict verdict = replayed.verdict(kAllLive, false);
  EXPECT_FALSE(verdict.ok);
  EXPECT_NE(verdict.detail.find("key 5 at position 1"), std::string::npos)
      << verdict.detail;
  // Node 2 crashed at the end: left out of the replay altogether.
  EXPECT_TRUE(OrderChecker::replay(logs, {false, false, true})
                  .verdict({false, false, true}, false)
                  .ok);
}

TEST(OrderCheckerTest, RetentionStaysBoundedWithoutFaults) {
  // A shortened saturation run: hundreds of thousands of checked deliveries,
  // yet only the entries some node has not reached yet stay held.
  Scenario s = make_scenario("saturation");
  s.phases = {wl::PhaseSpec::closed_loop(0, 100)};
  s.duration = 100 * kMs;
  s.warmup = 20 * kMs;
  s.sample_stats_at.clear();
  const RunReport r = run_scenario(s);
  ASSERT_NE(r.order, nullptr);
  EXPECT_TRUE(r.consistent);
  EXPECT_GT(r.order->checked(), 100000u);
  EXPECT_LT(r.order->retained() * 100, r.order->checked())
      << r.order->retained() << " of " << r.order->checked() << " held";
}

}  // namespace
}  // namespace caesar::harness
