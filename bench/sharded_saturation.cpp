// Sharded multi-group scaling bench.
//
// A single consensus group saturates on replica CPU: past that point more
// clients only deepen queues. Hash-partitioning the keyspace across N
// independent groups (one Mencius cluster each, shared simulated clock)
// multiplies the ordering capacity, so aggregate throughput under uniform
// load should scale near-linearly in N. Three panels:
//
//   uniform — closed-loop uniform keys, sweep the group count (the scaling
//             headline: >= ~3x at 4 groups vs 1);
//   skew    — the same sweep under Zipfian(0.99) keys: hot keys concentrate
//             on a few groups, so scaling degrades gracefully instead of
//             collapsing;
//   fault   — the registered sharded-fault scenario (group 1 loses a replica
//             mid-run), with the per-group consistency oracle asserted; a
//             throughput number from an inconsistent run is worse than none,
//             so an oracle failure fails the bench.
//
// Every run keeps its replicas' final state, so each report's per-group
// `consistent` flag is the common-order verdict over whole logs; the
// stronger per-group oracle runs on the fault panel only.
//
//   $ bench/sharded_saturation                      # sweep 1,2,4 groups
//   $ bench/sharded_saturation --shards=1 --json shards1.json
//   $ bench/sharded_saturation --shards=4 --json shards4.json
//   $ tools/bench_diff.py shards1.json shards4.json --min-ratio 3.0
//
// With a single --shards value the run labels are bare ("uniform", "skew",
// "fault"), so two invocations produce comparable metric names and
// bench_diff's --min-ratio can assert the scaling factor between them.
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "harness/oracle.h"
#include "harness/report.h"
#include "harness/scenario.h"
#include "net/topology.h"

namespace {

using namespace caesar;
using harness::JsonReportFile;
using harness::ProtocolKind;
using harness::RunReport;
using harness::ScenarioBuilder;
using harness::Table;

RunReport run_saturation(std::uint32_t shards, std::uint32_t clients,
                         bool zipfian) {
  ScenarioBuilder b(zipfian ? "sharded-skew" : "sharded-saturation");
  b.protocol(ProtocolKind::kMencius)
      .topology(net::Topology::lan(5))
      .clients_per_site(clients);
  if (zipfian) {
    b.zipfian(0.99, 1ull << 16);
  } else {
    b.uniform_keys(1ull << 16);
  }
  b.shards(shards)
      .duration(4 * kSec)
      .warmup(1 * kSec)
      .seed(41);
  return harness::run_scenario(b.build());
}

/// max/min per-group routed ratio — 1.0 is a perfectly balanced partition.
double imbalance(const RunReport& r) {
  if (!r.sharded()) return 1.0;
  std::uint64_t lo = UINT64_MAX, hi = 0;
  for (const auto& sm : r.shards) {
    lo = std::min(lo, sm.routed);
    hi = std::max(hi, sm.routed);
  }
  return lo == 0 ? 0.0 : static_cast<double>(hi) / static_cast<double>(lo);
}

void panel(JsonReportFile& json, const std::vector<std::uint32_t>& counts,
           std::uint32_t clients, bool zipfian) {
  const char* title = zipfian ? "skew" : "uniform";
  std::cout << "\n-- " << title << " keys ("
            << (zipfian ? "Zipfian theta=0.99" : "uniform") << ", " << clients
            << " clients/site, Mencius, 5-site LAN) --\n";
  Table t({"groups", "ktps", "speedup", "p50 ms", "p99 ms", "imbalance"});
  double base_tps = 0.0;
  for (std::uint32_t n : counts) {
    RunReport r = run_saturation(n, clients, zipfian);
    if (base_tps == 0.0) base_tps = r.throughput_tps;
    t.add_row({std::to_string(n), Table::num(r.throughput_tps / 1000.0, 1),
               Table::num(base_tps > 0 ? r.throughput_tps / base_tps : 0.0, 2),
               Table::ms(r.total_latency.percentile(50)),
               Table::ms(r.total_latency.percentile(99)),
               Table::num(imbalance(r), 2)});
    const std::string label =
        counts.size() == 1 ? std::string(title)
                           : std::string(title) + "/s=" + std::to_string(n);
    json.add(label, r);
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::uint32_t> counts = {1, 2, 4};
  std::uint32_t clients = 100;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--shards=", 0) == 0) {
      counts.clear();
      std::string list = arg.substr(std::strlen("--shards="));
      for (std::size_t pos = 0; pos < list.size();) {
        std::size_t comma = list.find(',', pos);
        if (comma == std::string::npos) comma = list.size();
        const int n = std::atoi(list.substr(pos, comma - pos).c_str());
        if (n < 1) {
          std::cerr << "--shards expects a comma-separated list of counts "
                       ">= 1, got \""
                    << list << "\"\n";
          return 2;
        }
        counts.push_back(static_cast<std::uint32_t>(n));
        pos = comma + 1;
      }
    } else if (arg.rfind("--clients=", 0) == 0) {
      clients = static_cast<std::uint32_t>(
          std::atoi(arg.substr(std::strlen("--clients=")).c_str()));
    }
  }

  JsonReportFile json("sharded_saturation", argc, argv);
  harness::print_figure_header(
      "Sharded saturation",
      "aggregate throughput vs consensus-group count, uniform and Zipfian "
      "keys, plus fault isolation with the consistency oracle",
      "near-linear scaling under uniform keys (>=3x at 4 groups), graceful "
      "degradation under skew, per-group oracles pass across a mid-run "
      "replica crash");

  panel(json, counts, clients, /*zipfian=*/false);
  panel(json, counts, clients, /*zipfian=*/true);

  std::cout << "\n-- fault isolation (sharded-fault scenario, oracle on) --\n";
  RunReport fr = harness::run_scenario(harness::make_scenario("sharded-fault"));
  harness::print_report(fr);
  json.add("fault", fr);

  const harness::ConsistencyVerdict v =
      harness::check_sharded_consistency(fr);
  if (!v) {
    std::cerr << "CONSISTENCY ORACLE FAILED: " << v.detail << "\n";
    json.write();
    return 1;
  }
  std::cout << "per-group consistency oracle: OK (all groups converged, "
               "keyspaces disjoint)\n";

  return json.write() ? 0 : 1;
}
