// consensus_cli: a small command-line driver over the scenario harness so
// downstream users can explore the protocol space without writing C++.
//
//   $ ./examples/consensus_cli --set protocol=epaxos --set conflict_pct=30
//   $ ./examples/consensus_cli --scenario=partition-heal
//   $ ./examples/consensus_cli --scenario=saturation \
//         --set node.batching=false
//   $ ./examples/consensus_cli --scenario=rate-sweep --json=run.json
//   $ ./examples/consensus_cli --list-scenarios
//
// Prints per-site latency, per-window metrics, throughput, decision-path
// statistics and the cross-site consistency verdict; --json additionally
// writes the full RunReport as a schema-stable JSON document. The run
// starts from the `quickstart` scenario, or from --scenario/--scenario-file;
// each --set then overrides one knob, whatever the argument order.
#include <cstring>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/report.h"
#include "harness/scenario.h"
#include "harness/scenario_file.h"

using namespace caesar;

namespace {

void usage() {
  std::cout <<
      "usage: consensus_cli [options]\n"
      "  --scenario=NAME    start from a registered scenario (default\n"
      "                     quickstart; see --list-scenarios)\n"
      "  --scenario-file=F  start from a JSON scenario file\n"
      "  --set KEY=VALUE    override one knob; repeatable, applied after\n"
      "                     the scenario. KEY is a scenario-file key,\n"
      "                     dotted inside a section (node.batching);\n"
      "                     VALUE is JSON, or else a plain string. The\n"
      "                     keys are listed in src/harness/scenario_file.h\n"
      "  --list-scenarios   print the scenario registry and exit\n"
      "  --json=FILE        also write the run report as JSON to FILE\n";
}

std::optional<std::string> value_of(const std::string& arg,
                                    const char* prefix) {
  if (arg.rfind(prefix, 0) != 0) return std::nullopt;
  return arg.substr(std::strlen(prefix));
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::vector<std::string> sets;
  harness::Scenario s;
  try {
    s = harness::make_scenario("quickstart");
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const bool has_next = i + 1 < argc;
      if (arg == "--help" || arg == "-h") {
        usage();
        return 0;
      } else if (arg == "--list-scenarios") {
        harness::Table t({"scenario", "description"});
        for (const auto& info : harness::list_scenarios()) {
          t.add_row({info.name, info.description});
        }
        t.print();
        return 0;
      } else if (auto v = value_of(arg, "--scenario=")) {
        s = harness::make_scenario(*v);
      } else if (auto v = value_of(arg, "--scenario-file=")) {
        s = harness::load_scenario_file(*v);
      } else if (auto v = value_of(arg, "--set=")) {
        sets.push_back(*v);
      } else if (arg == "--set" && has_next) {
        sets.push_back(argv[++i]);
      } else if (auto v = value_of(arg, "--json=")) {
        json_path = *v;
      } else if (arg == "--json" && has_next) {
        json_path = argv[++i];
      } else {
        std::cerr << "unknown option: " << arg << "\n";
        usage();
        return 2;
      }
    }
    for (const std::string& kv : sets) {
      const std::size_t eq = kv.find('=');
      if (eq == std::string::npos) {
        throw std::invalid_argument("--set " + kv + ": expected KEY=VALUE");
      }
      harness::set_scenario_knob(s, kv.substr(0, eq), kv.substr(eq + 1));
    }
    s = harness::ScenarioBuilder(s).build();
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 2;
  }

  std::cout << "scenario=" << s.name << " protocol=" << to_string(s.protocol)
            << " seed=" << s.seed;
  for (const std::string& kv : sets) std::cout << " " << kv;
  std::cout << "\n";
  for (const auto& e : s.faults) std::cout << "fault: " << to_string(e) << "\n";
  std::cout << "\n";

  harness::RunReport r;
  try {
    r = harness::run_scenario(s);
  } catch (const std::invalid_argument& e) {
    std::cerr << "invalid scenario: " << e.what() << "\n";
    return 2;
  }

  harness::print_report(r);

  if (!json_path.empty()) {
    harness::JsonReportFile json("consensus_cli", json_path);
    json.add(s.name, r);
    if (!json.write()) return 1;
  }
  return r.consistent ? 0 : 1;
}
