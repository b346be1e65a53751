#include "runtime/protocol.h"

#include "common/logging.h"

namespace caesar::rt {

void Protocol::on_catchup_request(NodeId from, net::Decoder& d) {
  (void)d;
  log::warn(name(), ": node ", from,
            " requested catch-up but this protocol has no state transfer");
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
