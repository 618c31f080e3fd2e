// Bank-ledger example: multi-key (composite) commands.
//
// Transfers touch two accounts at once, so a transfer conflicts with any
// command touching either account — exercising CAESAR's conflict relation on
// key *sets*, not just single keys. We verify double-entry integrity: the
// total balance across accounts is conserved on every replica.
//
//   $ ./examples/bank_ledger
#include <iostream>
#include <map>

#include "core/caesar.h"
#include "rsm/delivery_log.h"
#include "rsm/kvstore.h"
#include "runtime/cluster.h"

using namespace caesar;

namespace {

constexpr std::uint64_t kInitialBalance = 1000;
constexpr Key kAccounts = 8;

/// A tiny double-entry ledger replicated by consensus: commands carry the
/// post-transfer balances of both accounts (computed deterministically from
/// delivery order would need a real state machine; for the demo each replica
/// applies the same delta stream).
struct Ledger {
  std::map<Key, std::int64_t> balance;

  Ledger() {
    for (Key a = 0; a < kAccounts; ++a) balance[a] = kInitialBalance;
  }

  void apply_transfer(Key from, Key to, std::int64_t amount) {
    balance[from] -= amount;
    balance[to] += amount;
  }

  std::int64_t total() const {
    std::int64_t t = 0;
    for (auto& [k, v] : balance) t += v;
    return t;
  }
};

}  // namespace

int main() {
  sim::Simulator sim(77);
  const net::Topology topo = net::Topology::ec2_five_sites();
  std::vector<Ledger> ledgers(topo.size());
  std::vector<rsm::DeliveryLog> logs(topo.size());

  rt::Cluster cluster(
      sim, topo, rt::ClusterConfig{},
      [&](rt::Env& env, rt::Protocol::DeliverFn deliver) {
        return std::make_unique<core::Caesar>(env, std::move(deliver),
                                              core::CaesarConfig{}, nullptr);
      },
      [&](NodeId node, const rsm::Command& cmd) {
        // ops[0] = debit account, ops[1] = credit account, value = amount.
        ledgers[node].apply_transfer(cmd.ops[0].key, cmd.ops[1].key,
                                     static_cast<std::int64_t>(cmd.ops[0].value));
        logs[node].record(cmd);
      });
  cluster.start();

  // Concurrent transfers from all five sites, heavily overlapping accounts.
  Rng rng(99);
  std::uint64_t req = 0;
  int submitted = 0;
  for (int i = 0; i < 40; ++i) {
    const NodeId site = static_cast<NodeId>(rng.uniform_int(topo.size()));
    const Key from = rng.uniform_int(kAccounts);
    Key to = rng.uniform_int(kAccounts);
    if (to == from) to = (to + 1) % kAccounts;
    const std::uint64_t amount = 1 + rng.uniform_int(50);
    sim.at(static_cast<Time>(rng.uniform_int(2000)) * kMs, [&, site, from, to,
                                                            amount] {
      rsm::Command cmd;
      cmd.ops.push_back(rsm::Op{from, make_req_id(site, ++req), amount});
      cmd.ops.push_back(rsm::Op{to, make_req_id(site, ++req), amount});
      cluster.node(site).submit(std::move(cmd));
    });
    ++submitted;
  }
  sim.run();

  std::cout << "Submitted " << submitted << " transfers across "
            << topo.size() << " sites.\n\n";
  // Generalized consensus may permute transfers on disjoint accounts; what
  // must agree is the per-account order and the resulting state. sim.run()
  // drains the simulation, so every replica holds every transfer and the
  // per-account prefix check applies: a missing transfer fails it too.
  bool all_match = true;
  for (NodeId n = 0; n < topo.size(); ++n) {
    all_match = all_match &&
                rsm::prefix_consistent_key_orders(logs[n], logs[0]) &&
                (ledgers[n].balance == ledgers[0].balance);
  }
  std::cout << "Replicas applied " << logs[0].size()
            << " transfers each; per-account orders and final states match: "
            << (all_match ? "yes" : "NO") << "\n";
  std::cout << "Total balance conserved: " << ledgers[0].total() << " == "
            << kInitialBalance * kAccounts << " -> "
            << (ledgers[0].total() ==
                        static_cast<std::int64_t>(kInitialBalance * kAccounts)
                    ? "yes"
                    : "NO")
            << "\n\nFinal balances: ";
  for (auto& [acct, bal] : ledgers[0].balance) {
    std::cout << "a" << acct << "=" << bal << " ";
  }
  std::cout << "\n";
  return all_match ? 0 : 1;
}
