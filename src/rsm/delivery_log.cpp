#include "rsm/delivery_log.h"

#include <algorithm>
#include <unordered_set>

namespace caesar::rsm {

namespace {

/// Checks that the elements common to `x` and `y` appear in the same order.
bool common_subsequence_ordered(const std::vector<CmdId>& x,
                                const std::vector<CmdId>& y) {
  std::unordered_set<CmdId> in_x(x.begin(), x.end());
  std::unordered_set<CmdId> in_y(y.begin(), y.end());
  std::vector<CmdId> fx, fy;
  for (CmdId id : x)
    if (in_y.count(id) != 0) fx.push_back(id);
  for (CmdId id : y)
    if (in_x.count(id) != 0) fy.push_back(id);
  return fx == fy;
}

/// Fast path for the common case: one sequence is a prefix of the other.
/// Then the common elements are exactly the shorter sequence, in order —
/// unless the longer one's tail repeats an id from the prefix, which only the
/// full comparison judges correctly.
bool prefix_ordered(const std::vector<CmdId>& x, const std::vector<CmdId>& y) {
  const auto& shorter = x.size() <= y.size() ? x : y;
  const auto& longer = x.size() <= y.size() ? y : x;
  if (!std::equal(shorter.begin(), shorter.end(), longer.begin())) {
    return false;
  }
  if (shorter.size() == longer.size()) return true;
  const std::unordered_set<CmdId> tail(
      longer.begin() + static_cast<std::ptrdiff_t>(shorter.size()),
      longer.end());
  return std::none_of(shorter.begin(), shorter.end(),
                      [&tail](CmdId id) { return tail.count(id) != 0; });
}

}  // namespace

bool consistent_key_orders(const DeliveryLog& a, const DeliveryLog& b) {
  for (const auto& [key, seq_a] : a.per_key()) {
    const auto& seq_b = b.key_sequence(key);
    if (seq_b.empty()) continue;
    if (prefix_ordered(seq_a, seq_b)) continue;
    if (!common_subsequence_ordered(seq_a, seq_b)) return false;
  }
  return true;
}

}  // namespace caesar::rsm
