#include "runtime/protocol.h"

#include "common/logging.h"

namespace caesar::rt {

void Protocol::on_catchup_request(NodeId from, net::Decoder& d) {
  (void)d;
  log::warn(name(), ": node ", from,
            " requested catch-up but this protocol has no state transfer");
}

void Protocol::on_catchup_reply(NodeId from, net::Decoder& d) {
  (void)from;
  (void)d;
}

void Protocol::on_catchup_snapshot(NodeId from, net::Decoder& d) {
  (void)from;
  (void)d;
}

void Protocol::send_catchup_snapshot(NodeId to, const rsm::KvStore& store,
                                     std::uint64_t frontier,
                                     std::uint64_t prefix_hash,
                                     std::uint64_t delivered_count) {
  net::Encoder e = env_.encoder();
  e.put_u64(frontier);
  e.put_u64(prefix_hash);
  e.put_u64(delivered_count);
  e.put_u64(store.digest());
  e.put_varint(store.key_count());
  for (const auto& [key, entry] : store.contents()) {
    e.put_u64(key);
    e.put_u64(entry.value);
    e.put_varint(entry.version);
  }
  env_.send(to, kCatchupSnapshotType, std::move(e));
}

Protocol::CatchupSnapshot Protocol::decode_catchup_snapshot(net::Decoder& d) {
  CatchupSnapshot s;
  s.frontier = d.get_u64();
  s.prefix_hash = d.get_u64();
  s.delivered_count = d.get_u64();
  const std::uint64_t digest = d.get_u64();
  const std::uint64_t n = d.get_varint();
  for (std::uint64_t i = 0; i < n; ++i) {
    const Key key = d.get_u64();
    const std::uint64_t value = d.get_u64();
    const std::uint64_t version = d.get_varint();
    s.store.install(key, value, version);
  }
  s.store.set_applied_commands(s.delivered_count);
  s.valid = s.store.digest() == digest;
  return s;
}

rsm::Command Protocol::make_composite(std::vector<rsm::Command>& cmds) {
  rsm::Command out;
  out.id = env_.fresh_batch_id();
  out.origin = env_.id();
  std::size_t total = 0;
  for (const auto& c : cmds) total += c.ops.size();
  out.ops.reserve(total);
  for (auto& c : cmds) {
    out.ops.insert(out.ops.end(), c.ops.begin(), c.ops.end());
  }
  out.finalize();
  return out;
}

void Protocol::propose_batch(std::vector<rsm::Command> cmds) {
  if (cmds.empty()) return;
  if (cmds.size() == 1) {
    propose(std::move(cmds.front()));
    return;
  }
  propose(make_composite(cmds));
}

}  // namespace caesar::rt
