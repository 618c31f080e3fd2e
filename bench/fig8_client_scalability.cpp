// Figure 8 reproduction: per-site latency while growing the number of
// connected closed-loop clients from 5 to 2000, at 10% conflicting commands,
// no message batching.
//
// Paper shape: CAESAR holds a steady latency and saturates only beyond
// ~1500 clients; EPaxos' dependency-graph analysis drives latency up as load
// grows; M2Paxos stops scaling after ~1000 clients due to forwarding.
#include <algorithm>
#include <iostream>

#include "harness/report.h"
#include "harness/scenario.h"

namespace {

using namespace caesar;
using harness::ProtocolKind;
using harness::RunReport;
using harness::ScenarioBuilder;
using harness::Table;

RunReport run(ProtocolKind kind, std::uint32_t total_clients) {
  core::CaesarConfig caesar;
  caesar.gossip_interval_us = 100 * kMs;
  rt::NodeConfig node;
  node.base_service_us = 12;
  return harness::run_scenario(
      ScenarioBuilder("fig8")
          .protocol(kind)
          .clients_per_site(std::max<std::uint32_t>(total_clients / 5, 1))
          .conflicts(0.10)
          .node(node)
          .caesar(caesar)
          .duration(8 * kSec)
          .warmup(2 * kSec)
          .seed(8)
          .build());
}

}  // namespace

int main(int argc, char** argv) {
  harness::JsonReportFile json("fig8", argc, argv);
  harness::print_figure_header(
      "Figure 8", "latency vs #connected clients (5-2000), 10% conflicts",
      "CAESAR steady until ~1500 clients; EPaxos degrades with load "
      "(graph analysis); M2Paxos stops scaling ~1000 clients");

  const std::uint32_t client_counts[] = {5, 50, 500, 1000, 1500, 2000};

  Table t({"clients", "Caesar(ms)", "EPaxos(ms)", "M2Paxos(ms)",
           "Caesar(ktps)", "EPaxos(ktps)", "M2Paxos(ktps)"});
  for (std::uint32_t clients : client_counts) {
    RunReport cs = run(ProtocolKind::kCaesar, clients);
    RunReport ep = run(ProtocolKind::kEPaxos, clients);
    RunReport m2 = run(ProtocolKind::kM2Paxos, clients);
    json.add("caesar/clients=" + std::to_string(clients), cs);
    json.add("epaxos/clients=" + std::to_string(clients), ep);
    json.add("m2paxos/clients=" + std::to_string(clients), m2);
    t.add_row({std::to_string(clients), Table::ms(cs.total_latency.mean()),
               Table::ms(ep.total_latency.mean()),
               Table::ms(m2.total_latency.mean()),
               Table::num(cs.throughput_tps / 1000.0, 1),
               Table::num(ep.throughput_tps / 1000.0, 1),
               Table::num(m2.throughput_tps / 1000.0, 1)});
  }
  t.print();
  return json.write() ? 0 : 1;
}
