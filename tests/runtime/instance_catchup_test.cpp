// Instance-space catch-up frames through the shared wire path
// (rt::RecoveryDriver::request/serve_instance_catchup, read_instance_reply).
// CAESAR and EPaxos each run on a scripted Env that keeps every frame body,
// so the tests read the request and reply frames byte for byte: the round id
// the request carries, the chunking of a reply, its done flag, and the
// news-free-round latch policy as the next watchdog tick shows it.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <ostream>
#include <vector>

#include "core/caesar.h"
#include "epaxos/epaxos.h"
#include "rsm/log_snapshot.h"

namespace caesar {
namespace {

constexpr Time kTick = 250 * kMs;

struct Frame {
  NodeId to;
  std::uint16_t type;
  std::vector<std::byte> body;
};

class ScriptEnv final : public rt::Env {
 public:
  NodeId id() const override { return 1; }
  std::size_t cluster_size() const override { return 5; }
  Time now() const override { return 0; }
  /// No reserved frame header: a kept body is exactly the protocol's bytes.
  net::Encoder encoder() override { return net::Encoder{}; }
  void send(NodeId to, std::uint16_t type, net::Encoder body) override {
    frames.push_back(Frame{to, type, body.take()});
  }
  void broadcast(std::uint16_t type, net::Encoder body,
                 bool /*include_self*/) override {
    frames.push_back(Frame{kNoNode, type, body.take()});
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
  std::vector<Frame> take(std::uint16_t type) {
    std::vector<Frame> out;
    for (Frame& f : frames) {
      if (f.type == type) out.push_back(std::move(f));
    }
    frames.clear();
    return out;
  }

  std::vector<Frame> frames;
  std::vector<std::function<void()>> timers;

 private:
  Rng rng_{1};
  std::uint64_t seq_ = 0;
};

rsm::Command command(std::uint64_t seq) {
  rsm::Command c;
  c.id = make_cmd_id(2, seq);
  c.origin = 2;
  c.ops.push_back(rsm::Op{seq, make_req_id(2, seq), 1});
  return c;
}

/// One decided instance `seq` of origin/leader 2, in the protocol's item
/// encoding.
void caesar_item(net::Encoder& e, std::uint64_t seq) {
  core::TimestampedCmdMsg m;
  m.cmd = command(seq);
  m.ts = core::Timestamp{seq, 2};
  m.encode(e);
}
void epaxos_item(net::Encoder& e, std::uint64_t seq) {
  e.put_u64(epaxos::make_iid(2, seq));
  e.put_u64(0);  // ballot
  command(seq).encode(e);
  e.put_varint(seq);
  e.put_id_set({});
}

template <class P, class Config>
std::unique_ptr<rt::Protocol> make(rt::Env& env) {
  Config cfg;
  cfg.catchup_interval_us = kTick;
  return std::make_unique<P>(env, [](const rsm::Command&) {}, cfg, nullptr);
}

struct Case {
  const char* name;
  std::unique_ptr<rt::Protocol> (*make)(rt::Env&);
  void (*item)(net::Encoder&, std::uint64_t seq);
};
void PrintTo(const Case& c, std::ostream* os) { *os << c.name; }

/// A reply frame: round, count, the items for seqs [1, count], done flag.
std::vector<std::byte> reply(const Case& c, std::uint64_t round,
                             std::uint64_t count, bool done) {
  net::Encoder e;
  e.put_varint(round);
  e.put_varint(count);
  for (std::uint64_t seq = 1; seq <= count; ++seq) c.item(e, seq);
  e.put_u8(done ? 1 : 0);
  return e.take();
}

std::uint64_t round_of(const Frame& f) {
  net::Decoder d{std::span<const std::byte>(f.body)};
  return d.get_varint();
}

struct ReplyHeader {
  std::uint64_t round;
  std::uint64_t count;
  bool done;
};
/// Round and count from the front of a reply frame; done from its last byte.
ReplyHeader header_of(const Frame& f) {
  net::Decoder d{std::span<const std::byte>(f.body)};
  ReplyHeader h;
  h.round = d.get_varint();
  h.count = d.get_varint();
  h.done = f.body.back() == std::byte{1};
  return h;
}

class InstanceCatchupTest : public ::testing::TestWithParam<Case> {
 protected:
  /// A rejoining requester: on_recover sends one request and latches.
  std::unique_ptr<rt::Protocol> rejoined(ScriptEnv& env, Frame* request) {
    auto p = GetParam().make(env);
    p->on_recover();
    std::vector<Frame> sent = env.take(rt::kCatchupRequestType);
    EXPECT_EQ(sent.size(), 1u);
    if (!sent.empty()) *request = sent.front();
    return p;
  }

  void feed_reply(rt::Protocol& p, const std::vector<std::byte>& frame) {
    net::Decoder d{std::span<const std::byte>(frame)};
    p.on_catchup_reply(2, d);
  }

  /// Requests the next watchdog tick sends.
  std::vector<Frame> tick(ScriptEnv& env) {
    env.frames.clear();
    env.fire_timers();
    return env.take(rt::kCatchupRequestType);
  }

  /// The reply frames `responder` serves for `request`.
  std::vector<Frame> serve(ScriptEnv& env, rt::Protocol& responder,
                           const Frame& request) {
    env.frames.clear();
    net::Decoder d{std::span<const std::byte>(request.body)};
    responder.on_catchup_request(3, d);
    return env.take(rt::kCatchupReplyType);
  }
};

TEST_P(InstanceCatchupTest, EmptyReplyIsOneDoneFrame) {
  ScriptEnv req_env, resp_env;
  Frame request;
  auto requester = rejoined(req_env, &request);
  auto responder = GetParam().make(resp_env);
  const std::vector<Frame> frames = serve(resp_env, *responder, request);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].to, 3u);
  const ReplyHeader h = header_of(frames[0]);
  EXPECT_EQ(h.round, round_of(request));
  EXPECT_EQ(h.count, 0u);
  EXPECT_TRUE(h.done);
}

TEST_P(InstanceCatchupTest, OneMoreThanAChunkGoesOutAsTwoFrames) {
  ScriptEnv req_env, resp_env;
  Frame request;
  auto requester = rejoined(req_env, &request);
  auto responder = GetParam().make(resp_env);
  // The responder learns the decided instances through a reply of its own.
  const std::uint64_t n = rsm::kCatchupChunkEntries + 1;
  feed_reply(*responder, reply(GetParam(), 0, n, /*done=*/true));
  const std::vector<Frame> frames = serve(resp_env, *responder, request);
  ASSERT_EQ(frames.size(), 2u);
  const ReplyHeader first = header_of(frames[0]);
  const ReplyHeader last = header_of(frames[1]);
  EXPECT_EQ(first.count, rsm::kCatchupChunkEntries);
  EXPECT_FALSE(first.done);
  EXPECT_EQ(last.count, 1u);
  EXPECT_TRUE(last.done);
  EXPECT_EQ(first.round, round_of(request));
  EXPECT_EQ(last.round, round_of(request));

  // Replayed at the requester, the two frames teach it every instance: the
  // round had news, so the latch holds and the next tick asks again.
  for (const Frame& f : frames) feed_reply(*requester, f.body);
  EXPECT_EQ(tick(req_env).size(), 1u);
}

TEST_P(InstanceCatchupTest, NewsFreeDoneFrameClearsTheLatch) {
  ScriptEnv env;
  Frame request;
  auto p = rejoined(env, &request);
  feed_reply(*p, reply(GetParam(), round_of(request), 0, /*done=*/true));
  EXPECT_TRUE(tick(env).empty());
}

TEST_P(InstanceCatchupTest, DoneFrameWithNewsKeepsTheLatch) {
  ScriptEnv env;
  Frame request;
  auto p = rejoined(env, &request);
  feed_reply(*p, reply(GetParam(), round_of(request), 1, /*done=*/true));
  const std::vector<Frame> next = tick(env);
  ASSERT_EQ(next.size(), 1u);
  EXPECT_NE(next[0].to, request.to);  // the rotor moved to the next peer
  EXPECT_EQ(round_of(next[0]), round_of(request) + 1);
}

TEST_P(InstanceCatchupTest, SupersededRoundCannotClearTheLatch) {
  ScriptEnv env;
  Frame first;
  auto p = rejoined(env, &first);
  // Nothing answered yet: the latch holds and the tick opens a new round.
  const std::vector<Frame> second = tick(env);
  ASSERT_EQ(second.size(), 1u);
  ASSERT_NE(round_of(second[0]), round_of(first));
  // A late news-free done frame for the first round leaves the latch set.
  feed_reply(*p, reply(GetParam(), round_of(first), 0, /*done=*/true));
  const std::vector<Frame> third = tick(env);
  ASSERT_EQ(third.size(), 1u);
  // The current round's news-free done frame is what clears it.
  feed_reply(*p, reply(GetParam(), round_of(third[0]), 0, /*done=*/true));
  EXPECT_TRUE(tick(env).empty());
}

INSTANTIATE_TEST_SUITE_P(
    InstanceProtocols, InstanceCatchupTest,
    ::testing::Values(
        Case{"Caesar", make<core::Caesar, core::CaesarConfig>, caesar_item},
        Case{"EPaxos", make<epaxos::EPaxos, epaxos::EPaxosConfig>,
             epaxos_item}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace caesar
