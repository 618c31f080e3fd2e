// Figure 9 reproduction: total throughput while varying the conflict
// percentage, for all six deployments (CAESAR, EPaxos, M2Paxos, Mencius,
// Multi-Paxos-IR, Multi-Paxos-IN), with batching disabled (top panel) and
// enabled (bottom panel; the paper's Mencius implementation lacks batching,
// ours follows suit).
//
// Paper shape, batching off: CAESAR loses only ~17% from 0%->10% conflicts
// while EPaxos/M2Paxos lose 24%/45%; M2Paxos best at 100%.
// Batching on: CAESAR sustains ~3x EPaxos up to 10%; EPaxos best at >=50%.
#include <iostream>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/scenario.h"

namespace {

using namespace caesar;
using harness::JsonReportFile;
using harness::ProtocolKind;
using harness::RunReport;
using harness::ScenarioBuilder;
using harness::Table;

/// Labels of the runs whose RunReport::consistent reads false.
std::vector<std::string> inconsistent;

/// Runs one point and adds it to the JSON document; returns its throughput
/// cell (1000 x cmds/s), marked "!" when the run is not consistent.
std::string run(JsonReportFile& json, ProtocolKind kind, double conflict,
                bool batching, NodeId mpaxos_leader = 3) {
  core::CaesarConfig caesar;
  caesar.gossip_interval_us = 100 * kMs;
  rt::NodeConfig node;
  node.base_service_us = 15;
  node.batching = batching;
  node.batch_delay_us = 2 * kMs;
  node.batch_max_ops = 96;
  const RunReport r = harness::run_scenario(
      ScenarioBuilder("fig9")
          .protocol(kind)
          .clients_per_site(800)  // saturating closed-loop pool
          .conflicts(conflict)
          .multipaxos_leader(mpaxos_leader)
          .node(node)
          .caesar(caesar)
          .duration(5 * kSec)
          .warmup(1500 * kMs)
          .seed(9)
          .build());
  std::string label = std::string(to_string(kind)) + "/c=" +
                      Table::num(conflict * 100, 0) +
                      (batching ? "/batch" : "");
  if (kind == ProtocolKind::kMultiPaxos) {
    label += "/leader=" + std::to_string(mpaxos_leader);
  }
  json.add(label, r);
  std::string cell = Table::num(r.throughput_tps / 1000.0, 1);
  if (!r.consistent) {
    inconsistent.push_back(label);
    cell += "!";
  }
  return cell;
}

void panel(JsonReportFile& json, bool batching) {
  std::cout << "\n-- batching " << (batching ? "ENABLED" : "DISABLED")
            << " (throughput, 1000 x cmds/s) --\n";
  const double conflicts[] = {0.0, 0.02, 0.10, 0.30, 0.50, 1.0};
  std::vector<std::string> headers = {"conflict%", "Caesar", "EPaxos",
                                      "M2Paxos"};
  if (!batching) headers.push_back("Mencius");
  headers.push_back("MPaxos-IR");
  headers.push_back("MPaxos-IN");
  Table t(std::move(headers));
  for (double c : conflicts) {
    std::vector<std::string> row{Table::num(c * 100, 0)};
    row.push_back(run(json, ProtocolKind::kCaesar, c, batching));
    row.push_back(run(json, ProtocolKind::kEPaxos, c, batching));
    row.push_back(run(json, ProtocolKind::kM2Paxos, c, batching));
    if (!batching) {
      // Mencius and Multi-Paxos are conflict-oblivious; the paper plots them
      // as flat lines — measure once at 0% semantics regardless of c.
      row.push_back(run(json, ProtocolKind::kMencius, c, batching));
    }
    row.push_back(run(json, ProtocolKind::kMultiPaxos, c, batching, 3));
    row.push_back(run(json, ProtocolKind::kMultiPaxos, c, batching, 4));
    t.add_row(std::move(row));
  }
  t.print();
}

}  // namespace

int main(int argc, char** argv) {
  JsonReportFile json("fig9", argc, argv);
  harness::print_figure_header(
      "Figure 9", "throughput vs conflict %, batching off (top) / on (bottom)",
      "no-batch: CAESAR -17% at 10% conflicts vs EPaxos -24% / M2Paxos -45%; "
      "batch: CAESAR ~3x EPaxos at <=10%, EPaxos leads at >=50%");
  panel(json, /*batching=*/false);
  panel(json, /*batching=*/true);
  const bool written = json.write();
  if (!inconsistent.empty()) {
    std::cout << "\nNOT CONSISTENT ('!' above; RunReport::consistent false):";
    for (const std::string& label : inconsistent) std::cout << " " << label;
    std::cout << "\n";
  }
  return written && inconsistent.empty() ? 0 : 1;
}
