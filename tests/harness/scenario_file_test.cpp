// Scenario-file tests: JSON scenarios parse into validated Scenarios, a
// "base" key inherits from the registry, and every malformed input fails
// with an error naming the offending field.
#include "harness/scenario_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>

namespace caesar::harness {
namespace {

/// Runs the parser and returns the error message it throws (empty = none).
std::string parse_error(const std::string& text) {
  try {
    scenario_from_json(text, "test.json");
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(ScenarioFileTest, ParsesFullDocument) {
  const std::string text = R"({
    "name": "my-experiment",
    "protocol": "mencius",
    "clients_per_site": 12,
    "conflict_pct": 25,
    "duration_s": 6,
    "warmup_s": 1,
    "seed": 99,
    "shards": {"count": 4, "partition": "range",
               "multi_key": "reject", "range_keyspace": 4096},
    "key_dist": {"dist": "zipfian", "keyspace": 4096, "theta": 0.8},
    "faults": [{"kind": "crash", "node": 2, "group": 1, "at_s": 3},
               {"kind": "recover", "node": 2, "group": 1, "at_s": 4.5}],
    "fd_timeout_ms": 400,
    "metrics_window_s": 2,
    "check_consistency": false
  })";
  const Scenario s = scenario_from_json(text, "test.json");
  EXPECT_EQ(s.name, "my-experiment");
  EXPECT_EQ(s.protocol, ProtocolKind::kMencius);
  EXPECT_EQ(s.workload.clients_per_site, 12u);
  EXPECT_DOUBLE_EQ(s.workload.conflict_fraction, 0.25);
  EXPECT_EQ(s.duration, 6 * kSec);
  EXPECT_EQ(s.warmup, 1 * kSec);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.shards.count, 4u);
  EXPECT_EQ(s.shards.partition, shard::Partition::kRange);
  EXPECT_EQ(s.shards.multi_key, shard::MultiKeyPolicy::kReject);
  EXPECT_EQ(s.shards.range_keyspace, 4096u);
  EXPECT_EQ(s.workload.key_dist.dist, wl::KeyDist::kZipfian);
  EXPECT_EQ(s.workload.key_dist.keyspace, 4096u);
  EXPECT_DOUBLE_EQ(s.workload.key_dist.zipf_theta, 0.8);
  ASSERT_EQ(s.faults.size(), 2u);
  EXPECT_EQ(s.faults[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(s.faults[0].node, 2u);
  EXPECT_EQ(s.faults[0].group, 1);
  EXPECT_EQ(s.faults[0].at, 3 * kSec);
  EXPECT_EQ(s.faults[1].at, 4 * kSec + 500 * kMs);
  EXPECT_EQ(s.fd_timeout_us, 400 * kMs);
  EXPECT_EQ(s.metrics_window_us, 2 * kSec);
  EXPECT_FALSE(s.check_consistency);
}

TEST(ScenarioFileTest, ParsesPhases) {
  const std::string text = R"({
    "duration_s": 10, "warmup_s": 1,
    "phases": [
      {"mode": "closed-loop", "at_s": 0, "clients_per_site": 8, "think_ms": 2},
      {"mode": "open-loop", "at_s": 3, "rate_tps": 500},
      {"mode": "ramp", "at_s": 5, "rate_tps": 500, "to_tps": 2000},
      {"mode": "quiesce", "at_s": 8}
    ]
  })";
  const Scenario s = scenario_from_json(text, "test.json");
  ASSERT_EQ(s.phases.size(), 4u);
  EXPECT_EQ(s.phases[0].mode, wl::PhaseSpec::Mode::kClosedLoop);
  EXPECT_EQ(s.phases[0].clients_per_site, 8u);
  EXPECT_EQ(s.phases[0].think_us, 2 * kMs);
  EXPECT_EQ(s.phases[1].mode, wl::PhaseSpec::Mode::kOpenLoop);
  EXPECT_DOUBLE_EQ(s.phases[1].arrival_rate_tps, 500.0);
  EXPECT_EQ(s.phases[2].mode, wl::PhaseSpec::Mode::kOpenLoopRamp);
  EXPECT_DOUBLE_EQ(s.phases[2].ramp_to_tps, 2000.0);
  EXPECT_EQ(s.phases[3].mode, wl::PhaseSpec::Mode::kQuiesce);
  EXPECT_EQ(s.phases[3].at, 8 * kSec);
}

TEST(ScenarioFileTest, BaseInheritsFromRegistryAndFieldsOverride) {
  const Scenario s = scenario_from_json(
      R"({"base": "sharded-fault", "seed": 1234})", "test.json");
  EXPECT_EQ(s.seed, 1234u);                 // overridden
  EXPECT_EQ(s.shards.count, 4u);            // inherited
  EXPECT_EQ(s.protocol, ProtocolKind::kMencius);
  EXPECT_EQ(s.faults.size(), 2u);
  // Key order must not matter: "base" applies first even when written last.
  const Scenario t = scenario_from_json(
      R"({"seed": 1234, "base": "sharded-fault"})", "test.json");
  EXPECT_EQ(t.seed, 1234u);
}

TEST(ScenarioFileTest, ErrorsNameTheOffendingField) {
  EXPECT_NE(parse_error(R"({"frobnicate": 1})").find("frobnicate"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"clients_per_site": "many"})")
                .find("clients_per_site"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"protocol": "raft"})").find("protocol"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"shards": {"partition": "modulo"}})")
                .find("shards.partition"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"key_dist": {"dist": "pareto"}})")
                .find("key_dist.dist"),
            std::string::npos);
  const std::string fault_err = parse_error(
      R"({"faults": [{"kind": "crash", "node": 0, "at_s": 1},
                     {"kind": "explode", "at_s": 2}], "duration_s": 5})");
  EXPECT_NE(fault_err.find("faults[1].kind"), std::string::npos) << fault_err;
  EXPECT_NE(parse_error(R"({"phases": [{"at_s": 0}]})").find("phases[0].mode"),
            std::string::npos);
  EXPECT_NE(parse_error(
                R"({"phases": [{"mode": "quiesce", "at_s": 0,
                                "rate_tps": 10}]})")
                .find("phases[0].rate_tps"),
            std::string::npos);
}

TEST(ScenarioFileTest, ParsesSaturationKnobs) {
  const std::string text = R"({
    "duration_s": 5, "warmup_s": 1,
    "node": {"batching": true, "batch_delay_ms": 2, "batch_max_ops": 64,
             "pipeline_window": 8, "coalescing": true},
    "flow_control": {"max_inflight": 32, "policy": "shed", "queue_cap": 10}
  })";
  const Scenario s = scenario_from_json(text, "test.json");
  EXPECT_TRUE(s.node.batching);
  EXPECT_EQ(s.node.batch_delay_us, 2 * kMs);
  EXPECT_EQ(s.node.batch_max_ops, 64u);
  EXPECT_EQ(s.node.pipeline_window, 8u);
  EXPECT_TRUE(s.node.coalescing);
  EXPECT_EQ(s.workload.max_inflight, 32u);
  EXPECT_EQ(s.workload.overload_policy, wl::OverloadPolicy::kShed);
  EXPECT_EQ(s.workload.overload_queue_cap, 10u);
}

TEST(ScenarioFileTest, SaturationKnobErrorsNameTheField) {
  EXPECT_NE(parse_error(R"({"node": {"batch_size": 4}})").find("node.batch_size"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"node": {"batching": 3}})").find("node.batching"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"flow_control": {"policy": "drop"}})")
                .find("flow_control.policy"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"flow_control": {"cap": 1}})")
                .find("flow_control.cap"),
            std::string::npos);
  // Parses fine, but validate_scenario rejects the degenerate knobs.
  EXPECT_NE(parse_error(R"({"node": {"batch_max_ops": 0}})")
                .find("batch_max_ops"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"node": {"pipeline_window": 0}})")
                .find("pipeline_window"),
            std::string::npos);
}

// An integer that does not fit its field is an error naming the field, never
// a silently wrapped value (a crash of node 2^32 used to become node 0).
TEST(ScenarioFileTest, IntegersThatDoNotFitTheFieldAreRejected) {
  const auto expect_range_error = [](const std::string& text,
                                     const std::string& field) {
    const std::string err = parse_error(text);
    EXPECT_NE(err.find("\"" + field + "\""), std::string::npos) << err;
    EXPECT_NE(err.find("out of range"), std::string::npos) << err;
  };
  expect_range_error(
      R"({"duration_s": 5, "faults": [{"kind": "crash",
          "node": 4294967296, "at_s": 1}]})",
      "faults[0].node");
  expect_range_error(R"({"shards": {"count": 4294967297}})", "shards.count");
  expect_range_error(
      R"({"duration_s": 5, "shards": {"count": 2}, "faults": [{"kind":
          "crash", "node": 0, "group": 2147483648, "at_s": 1}]})",
      "faults[0].group");
  expect_range_error(R"({"clients_per_site": 4294967296})",
                     "clients_per_site");
  expect_range_error(R"({"flow_control": {"max_inflight": 4294967296}})",
                     "flow_control.max_inflight");
  expect_range_error(R"({"multipaxos_leader": 4294967299})",
                     "multipaxos_leader");
  // Past int64 the double-to-integer cast itself would be undefined.
  expect_range_error(R"({"seed": 1e20})", "seed");
  expect_range_error(R"({"node": {"batch_delay_us": -1e20}})",
                     "node.batch_delay_us");
}

// Likewise a duration whose microseconds overflow a Time: it used to wrap
// into a misleading "must be positive" error, or into a run with a wrapped
// timeout.
TEST(ScenarioFileTest, DurationsThatOverflowAreRejected) {
  for (const std::string field : {"duration_s", "fd_timeout_ms"}) {
    const std::string err = parse_error("{\"" + field + "\": 1e17}");
    EXPECT_NE(err.find("\"" + field + "\": duration out of range"),
              std::string::npos)
        << err;
  }
}

TEST(ScenarioFileTest, RejectsMalformedJson) {
  EXPECT_THROW(scenario_from_json("{", "t"), std::invalid_argument);
  EXPECT_THROW(scenario_from_json("{}trailing", "t"), std::invalid_argument);
  EXPECT_THROW(scenario_from_json(R"({"seed": 1, "seed": 2})", "t"),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_json("[1,2]", "t"), std::invalid_argument);
  EXPECT_THROW(scenario_from_json(R"({"seed": })", "t"),
               std::invalid_argument);
}

TEST(ScenarioFileTest, ResultIsValidated) {
  // Parses fine, but validate_scenario must reject it (fault beyond end).
  const std::string err = parse_error(
      R"({"duration_s": 2, "warmup_s": 0,
          "faults": [{"kind": "crash", "node": 0, "at_s": 10}]})");
  EXPECT_FALSE(err.empty());
}

TEST(ScenarioFileTest, LoadsFromDiskAndReportsMissingFiles) {
  const std::string path = ::testing::TempDir() + "scenario_file_test.json";
  {
    std::ofstream out(path);
    out << R"({"name": "from-disk", "clients_per_site": 3, "duration_s": 4,
               "warmup_s": 1})";
  }
  const Scenario s = load_scenario_file(path);
  EXPECT_EQ(s.name, "from-disk");
  EXPECT_EQ(s.workload.clients_per_site, 3u);
  std::remove(path.c_str());

  EXPECT_THROW(load_scenario_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

TEST(ScenarioFileTest, ErrorMessagesCarryTheOrigin) {
  try {
    scenario_from_json(R"({"bogus": 1})", "configs/exp.json");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("configs/exp.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace caesar::harness
