// Figure 10 reproduction: percentage of commands decided via the slow path
// while varying the conflict percentage — CAESAR vs EPaxos, batching off.
//
// Paper shape: EPaxos' slow-path share tracks the conflict percentage;
// CAESAR's grows far more slowly (>=3x fewer slow decisions at 30%),
// thanks to the wait condition that only rejects provably-invalid
// timestamps.
#include <iostream>

#include "harness/report.h"
#include "harness/scenario.h"

namespace {

using namespace caesar;
using harness::ProtocolKind;
using harness::RunReport;
using harness::ScenarioBuilder;
using harness::Table;

RunReport run(ProtocolKind kind, double conflict) {
  core::CaesarConfig caesar;
  caesar.gossip_interval_us = 200 * kMs;
  // The paper measures slow paths under its throughput workload: enough
  // in-flight commands that conflicting proposals actually overlap in time.
  return harness::run_scenario(ScenarioBuilder("fig10")
                                   .protocol(kind)
                                   .clients_per_site(100)
                                   .conflicts(conflict)
                                   .caesar(caesar)
                                   .duration(12 * kSec)
                                   .warmup(3 * kSec)
                                   .seed(10)
                                   .build());
}

}  // namespace

int main(int argc, char** argv) {
  harness::JsonReportFile json("fig10", argc, argv);
  harness::print_figure_header(
      "Figure 10", "% of commands delivered via a slow decision",
      "EPaxos slow% ~ conflict%; CAESAR several times lower "
      "(>=3x fewer slow paths at 30%)");

  Table t({"conflict%", "Caesar slow%", "EPaxos slow%", "ratio(EP/Caesar)",
           "Caesar waits", "Caesar retries"});
  for (double c : {0.0, 0.02, 0.10, 0.30, 0.50, 1.0}) {
    RunReport cs = run(ProtocolKind::kCaesar, c);
    RunReport ep = run(ProtocolKind::kEPaxos, c);
    const std::string pct = Table::num(c * 100, 0);
    json.add("caesar/c=" + pct, cs);
    json.add("epaxos/c=" + pct, ep);
    json.add(harness::diff(cs, ep, "caesar/c=" + pct, "epaxos/c=" + pct));
    const double ratio = cs.slow_path_pct() > 0
                             ? ep.slow_path_pct() / cs.slow_path_pct()
                             : 0.0;
    t.add_row({pct, Table::num(cs.slow_path_pct(), 1),
               Table::num(ep.slow_path_pct(), 1),
               cs.slow_path_pct() > 0 ? Table::num(ratio, 1) + "x" : "-",
               std::to_string(cs.proto.waits),
               std::to_string(cs.proto.retries)});
  }
  t.print();
  return json.write() ? 0 : 1;
}
