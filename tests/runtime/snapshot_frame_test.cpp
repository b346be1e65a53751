// Store-snapshot catch-up frames through the shared log-protocol path
// (rt::RecoveryDriver::install_log_snapshot). Each log protocol runs on a
// scripted Env and is fed hand-built kCatchupSnapshotType frames: one whose
// digest does not match its contents, and valid ones at or below its own
// frontier, must change nothing and send nothing. A valid frame above the
// frontier installs — the control that proves the frames are well formed.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "clockrsm/clock_rsm.h"
#include "mencius/mencius.h"
#include "multipaxos/multipaxos.h"

namespace caesar {
namespace {

class ScriptEnv final : public rt::Env {
 public:
  NodeId id() const override { return 1; }
  std::size_t cluster_size() const override { return 5; }
  Time now() const override { return 0; }
  void send(NodeId /*to*/, std::uint16_t type, net::Encoder /*body*/) override {
    sent.push_back(type);
  }
  void broadcast(std::uint16_t type, net::Encoder /*body*/,
                 bool /*include_self*/) override {
    sent.push_back(type);
  }
  sim::EventId set_timer(Time /*delay*/, std::function<void()> fn) override {
    timers.push_back(std::move(fn));
    return timers.size();
  }
  void cancel_timer(sim::EventId /*id*/) override {}
  Rng& rng() override { return rng_; }
  void charge_cpu(Time /*extra*/) override {}
  CmdId fresh_cmd_id() override { return make_cmd_id(1, ++seq_); }

  /// Fires every timer armed so far (each may arm its successor).
  void fire_timers() {
    std::vector<std::function<void()>> due;
    due.swap(timers);
    for (auto& fn : due) fn();
  }
  std::size_t count_sent(std::uint16_t type) const {
    std::size_t n = 0;
    for (std::uint16_t t : sent) n += t == type ? 1 : 0;
    return n;
  }

  std::vector<std::uint16_t> sent;
  std::vector<std::function<void()>> timers;

 private:
  Rng rng_{1};
  std::uint64_t seq_ = 0;
};

/// One protocol instance plus uniform views of its delivery frontier and
/// delivered log.
struct Replica {
  std::unique_ptr<rt::Protocol> proto;
  std::function<std::uint64_t()> frontier;
  std::function<const rsm::CommandLog&()> log;
};

template <class P, class Config>
Replica make_replica(rt::Env& env) {
  auto p = std::make_unique<P>(env, [](const rsm::Command&) {}, Config{},
                               nullptr);
  P* raw = p.get();
  return Replica{std::move(p), [raw] { return raw->delivered_through(); },
                 [raw]() -> const rsm::CommandLog& {
                   return raw->delivered_log();
                 }};
}

struct Case {
  const char* name;
  Replica (*make)(rt::Env&);
};
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

rsm::Command command(std::uint64_t seq) {
  rsm::Command c;
  c.id = make_cmd_id(2, seq);
  c.origin = 2;
  c.ops.push_back(rsm::Op{seq, make_req_id(2, seq), 1});
  return c;
}

/// The kCatchupSnapshotType body: frontier, prefix hash, delivered count,
/// store digest, then the (key, value, version) triples.
std::vector<std::byte> snapshot_frame(std::uint64_t frontier,
                                      bool corrupt_digest) {
  rsm::KvStore store;
  store.install(7, 70, 1);
  store.install(9, 90, 2);
  net::Encoder e;
  e.put_u64(frontier);
  e.put_u64(0x5eed);  // prefix hash
  e.put_u64(frontier);
  e.put_u64(store.digest() + (corrupt_digest ? 1 : 0));
  e.put_varint(store.key_count());
  for (const auto& [key, entry] : store.contents()) {
    e.put_u64(key);
    e.put_u64(entry.value);
    e.put_varint(entry.version);
  }
  return e.take();
}

class SnapshotFrameTest : public ::testing::TestWithParam<Case> {
 protected:
  void SetUp() override {
    replica_ = GetParam().make(env_);
    replica_.proto->start();
    // Deliver indices 0..2 through a done reply chunk, so the frontier (3)
    // lies above zero and stale frames can sit both at and below it.
    rsm::LogSnapshot chunk;
    chunk.from = 0;
    chunk.through = 3;
    for (std::uint64_t i = 0; i < 3; ++i) {
      chunk.entries.emplace_back(i, command(i + 1));
    }
    net::Encoder e;
    chunk.encode(e);
    const std::vector<std::byte> bytes = e.take();
    net::Decoder d{std::span<const std::byte>(bytes)};
    replica_.proto->on_catchup_reply(2, d);
    ASSERT_EQ(replica_.frontier(), 3u);
    env_.sent.clear();
  }

  void feed(const std::vector<std::byte>& frame) {
    net::Decoder d{std::span<const std::byte>(frame)};
    replica_.proto->on_catchup_snapshot(2, d);
  }

  /// Frontier, log base and catch-up latch untouched, nothing sent — the
  /// latch shows on the next watchdog tick, which requests only when set.
  void expect_ignored() {
    EXPECT_EQ(replica_.frontier(), 3u);
    EXPECT_EQ(replica_.log().base_index(), 0u);
    EXPECT_EQ(replica_.log().size(), 3u);
    EXPECT_TRUE(env_.sent.empty());
    env_.fire_timers();
    EXPECT_EQ(env_.count_sent(rt::kCatchupRequestType), 0u);
  }

  ScriptEnv env_;
  Replica replica_;
};

TEST_P(SnapshotFrameTest, DigestMismatchIsDropped) {
  feed(snapshot_frame(10, /*corrupt_digest=*/true));
  expect_ignored();
}

TEST_P(SnapshotFrameTest, FrameAtFrontierIsIgnored) {
  feed(snapshot_frame(3, /*corrupt_digest=*/false));
  expect_ignored();
}

TEST_P(SnapshotFrameTest, FrameBelowFrontierIsIgnored) {
  feed(snapshot_frame(2, /*corrupt_digest=*/false));
  expect_ignored();
}

TEST_P(SnapshotFrameTest, FrameAboveFrontierInstallsAndRequestsSuffix) {
  feed(snapshot_frame(10, /*corrupt_digest=*/false));
  EXPECT_EQ(replica_.frontier(), 10u);
  EXPECT_EQ(replica_.log().base_index(), 10u);
  EXPECT_EQ(replica_.log().rolling_hash(), 0x5eedu);
  EXPECT_EQ(env_.count_sent(rt::kCatchupRequestType), 1u);
}

INSTANTIATE_TEST_SUITE_P(
    LogProtocols, SnapshotFrameTest,
    ::testing::Values(
        Case{"Mencius",
             make_replica<mencius::Mencius, mencius::MenciusConfig>},
        Case{"MultiPaxos",
             make_replica<mpaxos::MultiPaxos, mpaxos::MultiPaxosConfig>},
        Case{"ClockRsm",
             make_replica<clockrsm::ClockRsm, clockrsm::ClockRsmConfig>}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace caesar
