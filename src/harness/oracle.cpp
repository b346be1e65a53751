#include "harness/oracle.h"

#include <sstream>

namespace caesar::harness {

namespace {

ConsistencyVerdict fail(std::string detail) {
  return ConsistencyVerdict{false, std::move(detail)};
}

bool same_store_contents(const rsm::KvStore& a, const rsm::KvStore& b,
                         std::string* why) {
  if (a.key_count() != b.key_count()) {
    *why = "key counts differ: " + std::to_string(a.key_count()) + " vs " +
           std::to_string(b.key_count());
    return false;
  }
  for (const auto& [key, ea] : a.contents()) {
    const auto eb = b.get(key);
    if (!eb.has_value()) {
      *why = "key " + std::to_string(key) + " missing on one side";
      return false;
    }
    if (eb->value != ea.value || eb->version != ea.version) {
      std::ostringstream os;
      os << "key " << key << " differs: value " << ea.value << "/v"
         << ea.version << " vs " << eb->value << "/v" << eb->version;
      *why = os.str();
      return false;
    }
  }
  return true;
}

constexpr const char* kNoState =
    "run kept no final replica state — was the scenario's check_consistency "
    "disabled?";

/// One replica set's final state: the checker's order verdict and optional
/// store convergence across the nodes not listed as crashed (`crashed` may
/// be empty = all live).
ConsistencyVerdict check_replica_set(const OrderChecker& order,
                                     const std::vector<rsm::KvStore>& stores,
                                     const std::vector<bool>& crashed,
                                     ConsistencyOptions opt) {
  const std::size_t n = stores.size();
  if (n == 0 || order.nodes() != n) return fail(kNoState);
  ConsistencyVerdict v = order.verdict(crashed, opt.require_equal_sequences);
  if (!v || !opt.require_converged_stores) return v;
  std::size_t first = n;  // the first live node, once found
  for (std::size_t i = 0; i < n; ++i) {
    if (crashed.size() == n && crashed[i]) continue;
    if (first == n) {
      first = i;
      continue;
    }
    std::string why;
    if (!same_store_contents(stores[first], stores[i], &why)) {
      return fail("stores of nodes " + std::to_string(first) + " and " +
                  std::to_string(i) + " did not converge: " + why);
    }
  }
  return {};
}

/// One replica set's verdict from whichever state the report carries: full
/// logs are replayed through a fresh checker, otherwise the run's own.
ConsistencyVerdict check_group(const OrderChecker* order,
                               const std::vector<rsm::DeliveryLog>& logs,
                               const std::vector<rsm::KvStore>& stores,
                               const std::vector<bool>& crashed,
                               ConsistencyOptions opt) {
  if (!logs.empty()) {
    if (logs.size() != stores.size()) return fail(kNoState);
    return check_replica_set(OrderChecker::replay(logs, crashed), stores,
                             crashed, opt);
  }
  if (order == nullptr) return fail(kNoState);
  return check_replica_set(*order, stores, crashed, opt);
}

}  // namespace

ConsistencyVerdict check_cluster_consistency(const RunReport& r,
                                             ConsistencyOptions opt) {
  if (r.sharded()) return check_sharded_consistency(r, opt);
  return check_group(r.order.get(), r.delivery_logs, r.stores,
                     r.crashed_at_end, opt);
}

ConsistencyVerdict check_sharded_consistency(const RunReport& r,
                                             ConsistencyOptions opt) {
  if (!r.sharded()) {
    return fail("report carries no shards[] — not a sharded run");
  }
  for (const ShardMetrics& sm : r.shards) {
    ConsistencyVerdict v = check_group(sm.order.get(), {}, sm.stores,
                                       sm.crashed_at_end, opt);
    if (!v) {
      return fail("group " + std::to_string(sm.group) + ": " + v.detail);
    }
  }
  // Routing invariant: the groups partition the keyspace, so no key may
  // appear in two groups' stores. Reassembly performs exactly this check.
  std::string why;
  reassemble_sharded_store(r, &why);
  if (!why.empty()) return fail(why);
  return {};
}

rsm::KvStore reassemble_sharded_store(const RunReport& r, std::string* error) {
  if (error != nullptr) error->clear();
  rsm::KvStore whole;
  auto set_error = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    whole.clear();
  };
  if (!r.sharded()) {
    set_error("report carries no shards[] — not a sharded run");
    return whole;
  }
  for (const ShardMetrics& sm : r.shards) {
    // Any live node's store represents the group (the per-group oracle has
    // already established convergence when it was asked to).
    const rsm::KvStore* rep = nullptr;
    for (std::size_t i = 0; i < sm.stores.size(); ++i) {
      if (sm.crashed_at_end.size() == sm.stores.size() &&
          sm.crashed_at_end[i]) {
        continue;
      }
      rep = &sm.stores[i];
      break;
    }
    if (rep == nullptr) {
      if (sm.stores.empty()) {
        set_error("group " + std::to_string(sm.group) +
                  " kept no final state — was check_consistency disabled?");
        return whole;
      }
      continue;  // whole group crashed; its slice contributes nothing
    }
    for (const auto& [key, e] : rep->contents()) {
      if (whole.get(key).has_value()) {
        set_error("key " + std::to_string(key) +
                  " owned by two groups (routing invariant violated, seen "
                  "again in group " +
                  std::to_string(sm.group) + ")");
        return whole;
      }
      whole.install(key, e.value, e.version);
    }
  }
  return whole;
}

}  // namespace caesar::harness
