// Single-acceptor tests of CAESAR's per-command records: one Caesar
// instance on a scripted Env, fed hand-built messages, so each test controls
// exactly which of a command's pieces of state (joined ballot, gossip acks,
// the tuple itself) arrive and in what order.
#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "core/caesar.h"

namespace caesar::core {
namespace {

class ScriptEnv final : public rt::Env {
 public:
  struct Sent {
    NodeId to;  // kNoNode for a broadcast
    std::uint16_t type;
    std::vector<std::byte> body;
  };

  ScriptEnv(NodeId id, std::size_t n) : id_(id), n_(n) {}

  NodeId id() const override { return id_; }
  std::size_t cluster_size() const override { return n_; }
  Time now() const override { return 0; }
  void send(NodeId to, std::uint16_t type, net::Encoder body) override {
    sent.push_back(Sent{to, type, strip(std::move(body))});
  }
  void broadcast(std::uint16_t type, net::Encoder body,
                 bool /*include_self*/) override {
    sent.push_back(Sent{kNoNode, type, strip(std::move(body))});
  }
  sim::EventId set_timer(Time /*delay*/, std::function<void()> fn) override {
    timers.push_back(std::move(fn));
    return timers.size();
  }
  void cancel_timer(sim::EventId /*id*/) override {}
  Rng& rng() override { return rng_; }
  void charge_cpu(Time /*extra*/) override {}
  CmdId fresh_cmd_id() override { return make_cmd_id(id_, ++seq_); }

  /// Fires every timer armed so far (each may arm its successor).
  void fire_timers() {
    std::vector<std::function<void()>> due;
    due.swap(timers);
    for (auto& fn : due) fn();
  }

  std::vector<Sent> sent;
  std::vector<std::function<void()>> timers;

 private:
  static std::vector<std::byte> strip(net::Encoder body) {
    const bool framed = body.has_frame_header();
    std::vector<std::byte> bytes = body.take();
    if (framed) bytes.erase(bytes.begin(), bytes.begin() + 2);
    return bytes;
  }

  NodeId id_;
  std::size_t n_;
  Rng rng_{1};
  std::uint64_t seq_ = 0;
};

struct Acceptor {
  explicit Acceptor(std::size_t n, CaesarConfig cfg = {})
      : env(0, n),
        caesar(
            env, [this](const rsm::Command& c) { delivered.push_back(c.id); },
            cfg, nullptr) {
    caesar.start();
  }

  template <class Msg>
  void receive(NodeId from, MsgType type, const Msg& m) {
    net::Encoder e;
    m.encode(e);
    const std::vector<std::byte> bytes = e.take();
    net::Decoder d{std::span<const std::byte>(bytes)};
    caesar.on_message(from, type, d);
  }

  std::size_t count_sent(MsgType type) const {
    std::size_t n = 0;
    for (const auto& s : env.sent) n += s.type == type ? 1 : 0;
    return n;
  }

  ScriptEnv env;
  std::vector<CmdId> delivered;
  Caesar caesar;
};

rsm::Command command(CmdId id, Key key) {
  rsm::Command c;
  c.id = id;
  c.origin = cmd_origin(id);
  c.ops.push_back(rsm::Op{key, make_req_id(c.origin, cmd_seq(id)), 1});
  return c;
}

TimestampedCmdMsg stable_msg(const rsm::Command& cmd, Timestamp ts) {
  TimestampedCmdMsg m;
  m.cmd = cmd;
  m.ballot = 0;
  m.ts = ts;
  return m;
}

TEST(CaesarRecordTest, JoinedBallotForUnseenCommandStaysInvisible) {
  Acceptor a(5);
  const CmdId id = make_cmd_id(3, 7);
  const Ballot b = make_ballot(1, 2);
  a.receive(2, kRecovery, RecoveryMsg{id, b});
  // The joined ballot alone does not enter the command into the history.
  EXPECT_EQ(a.caesar.status_of(id), Status::kNone);
  EXPECT_FALSE(a.caesar.is_delivered(id));
  EXPECT_TRUE(a.caesar.pred_of(id).empty());
  EXPECT_EQ(a.caesar.history_size(), 0u);
  ASSERT_EQ(a.env.sent.size(), 1u);
  ASSERT_EQ(a.env.sent[0].type, kRecoveryReply);
  net::Decoder rd{std::span<const std::byte>(a.env.sent[0].body)};
  const RecoveryReplyMsg reply = RecoveryReplyMsg::decode(rd);
  EXPECT_EQ(reply.ballot, b);
  EXPECT_FALSE(reply.has_info);

  // The original leader's proposal is stale under the joined ballot...
  FastProposeMsg stale;
  stale.cmd = command(id, 9);
  stale.ballot = 0;
  stale.ts = Timestamp{4, 3};
  a.receive(3, kFastPropose, stale);
  EXPECT_EQ(a.caesar.status_of(id), Status::kNone);
  EXPECT_EQ(a.count_sent(kFastProposeReply), 0u);

  // ...while the recovery leader's proposal at that ballot is accepted.
  FastProposeMsg fresh = stale;
  fresh.ballot = b;
  fresh.ts = Timestamp{5, 2};
  fresh.has_whitelist = true;
  a.receive(2, kFastPropose, fresh);
  EXPECT_EQ(a.caesar.status_of(id), Status::kFastPending);
  EXPECT_EQ(a.caesar.ts_of(id), fresh.ts);
  EXPECT_EQ(a.caesar.history_size(), 1u);
  ASSERT_EQ(a.count_sent(kFastProposeReply), 1u);
  const ScriptEnv::Sent& out = a.env.sent.back();
  EXPECT_EQ(out.to, 2u);
  net::Decoder pd{std::span<const std::byte>(out.body)};
  const ProposeReplyMsg ok = ProposeReplyMsg::decode(pd);
  EXPECT_TRUE(ok.ok);
  EXPECT_EQ(ok.ballot, b);
  EXPECT_EQ(ok.ts, fresh.ts);
}

TEST(CaesarRecordTest, AcksBeforeLocalDeliveryDoNotPruneEarly) {
  CaesarConfig cfg;
  cfg.gossip_interval_us = 10 * kMs;
  Acceptor a(3, cfg);
  const rsm::Command cmd = command(make_cmd_id(1, 1), 5);
  // Both peers report delivering the command before its STABLE reaches us.
  a.receive(1, kGossip, GossipMsg{IdSet{cmd.id}});
  a.receive(2, kGossip, GossipMsg{IdSet{cmd.id}});
  EXPECT_EQ(a.caesar.status_of(cmd.id), Status::kNone);
  EXPECT_FALSE(a.caesar.is_delivered(cmd.id));

  a.receive(1, kStable, stable_msg(cmd, Timestamp{3, 1}));
  ASSERT_EQ(a.delivered, std::vector<CmdId>{cmd.id});
  // Two of three acks: the command stays in the history.
  EXPECT_EQ(a.caesar.status_of(cmd.id), Status::kStable);
  EXPECT_EQ(a.caesar.history_size(), 1u);

  // Our own gossip is the last ack; the early acks were kept, so it prunes.
  a.env.fire_timers();
  EXPECT_EQ(a.count_sent(kGossip), 1u);
  EXPECT_EQ(a.caesar.history_size(), 0u);
  EXPECT_EQ(a.caesar.status_of(cmd.id), Status::kNone);
  EXPECT_TRUE(a.caesar.is_delivered(cmd.id));
}

TEST(CaesarRecordTest, DuplicateStableAfterPruneDoesNotRedeliver) {
  CaesarConfig cfg;
  cfg.gossip_interval_us = 10 * kMs;
  Acceptor a(3, cfg);
  const rsm::Command cmd = command(make_cmd_id(2, 4), 8);
  const TimestampedCmdMsg stable = stable_msg(cmd, Timestamp{6, 2});
  a.receive(2, kStable, stable);
  ASSERT_EQ(a.delivered.size(), 1u);
  a.env.fire_timers();  // own ack
  a.receive(1, kGossip, GossipMsg{IdSet{cmd.id}});
  a.receive(2, kGossip, GossipMsg{IdSet{cmd.id}});
  ASSERT_EQ(a.caesar.history_size(), 0u) << "expected the command pruned";
  // A late duplicate (e.g. a re-shipped catch-up column) must not deliver
  // the command a second time.
  a.receive(2, kStable, stable);
  EXPECT_EQ(a.delivered.size(), 1u);
  EXPECT_TRUE(a.caesar.is_delivered(cmd.id));
  // Nor does any ack make the pruned command a catch-up hint.
  EXPECT_EQ(a.caesar.catchup_hint_count(), 0u);
}

}  // namespace
}  // namespace caesar::core
