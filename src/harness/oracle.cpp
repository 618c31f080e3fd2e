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

}  // namespace

ConsistencyVerdict check_replica_set_consistency(
    const std::vector<rsm::DeliveryLog>& logs,
    const std::vector<rsm::KvStore>& stores, const std::vector<bool>& crashed,
    ConsistencyOptions opt) {
  const std::size_t n = stores.size();
  if (n == 0 || logs.size() != n) {
    return fail(
        "report holds no final replica state (one log and one store per "
        "node) — was it made by run_scenario?");
  }
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < n; ++i) {
    if (crashed.size() == n && crashed[i]) continue;
    live.push_back(i);
  }
  if (live.size() < 2) return {};  // nothing to compare

  for (std::size_t x = 0; x < live.size(); ++x) {
    for (std::size_t y = x + 1; y < live.size(); ++y) {
      const std::size_t i = live[x];
      const std::size_t j = live[y];
      const rsm::DeliveryLog& li = logs[i];
      const rsm::DeliveryLog& lj = logs[j];
      std::string why;
      // A trimmed log joined mid-stream via a store snapshot: its history
      // has no common prefix with a full log, so compare the suffix instead
      // (and fall back to common-relative-order when both are trimmed —
      // their join points may differ).
      if (li.trimmed() && lj.trimmed()) {
        if (!rsm::consistent_key_orders(li, lj)) {
          return fail("trimmed nodes " + std::to_string(i) + " and " +
                      std::to_string(j) +
                      " disagree on their common delivery order");
        }
      } else if (li.trimmed() || lj.trimmed()) {
        const rsm::DeliveryLog& full = li.trimmed() ? lj : li;
        const rsm::DeliveryLog& trimmed = li.trimmed() ? li : lj;
        if (!rsm::suffix_consistent_key_orders(full, trimmed, &why)) {
          return fail("nodes " + std::to_string(i) + " and " +
                      std::to_string(j) +
                      " are not suffix-consistent: " + why);
        }
      } else if (!rsm::prefix_consistent_key_orders(li, lj, &why)) {
        return fail("nodes " + std::to_string(i) + " and " +
                    std::to_string(j) + " are not prefix-consistent: " + why);
      }
      if (opt.require_equal_sequences && !li.trimmed() && !lj.trimmed() &&
          li.sequence() != lj.sequence()) {
        return fail("nodes " + std::to_string(i) + " and " +
                    std::to_string(j) + " delivered different sequences (" +
                    std::to_string(li.size()) + " vs " +
                    std::to_string(lj.size()) + " commands)");
      }
      if (opt.require_converged_stores &&
          !same_store_contents(stores[i], stores[j], &why)) {
        return fail("stores of nodes " + std::to_string(i) + " and " +
                    std::to_string(j) + " did not converge: " + why);
      }
    }
  }
  return {};
}

ConsistencyVerdict check_cluster_consistency(const RunReport& r,
                                             ConsistencyOptions opt) {
  if (r.sharded()) return check_sharded_consistency(r, opt);
  return check_replica_set_consistency(r.delivery_logs, r.stores,
                                       r.crashed_at_end, opt);
}

ConsistencyVerdict check_sharded_consistency(const RunReport& r,
                                             ConsistencyOptions opt) {
  if (!r.sharded()) {
    return fail("report carries no shards[] — not a sharded run");
  }
  for (const ShardMetrics& sm : r.shards) {
    ConsistencyVerdict v = check_replica_set_consistency(
        sm.delivery_logs, sm.stores, sm.crashed_at_end, opt);
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
                  " holds no final state — was the report made by "
                  "run_scenario?");
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
