// Scenario-file tests: JSON scenarios parse into validated Scenarios, a
// "base" key inherits from the registry, and every malformed input fails
// with an error naming the offending field.
#include "harness/scenario_file.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>

namespace caesar::harness {
namespace {

/// Runs the parser and returns the error message it throws (empty = none).
std::string parse_error(const std::string& text) {
  try {
    scenario_from_json(text, "test.json");
    return "";
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
}

TEST(ScenarioFileTest, ParsesFullDocument) {
  const std::string text = R"({
    "name": "my-experiment",
    "protocol": "mencius",
    "clients_per_site": 12,
    "conflict_pct": 25,
    "duration_s": 6,
    "warmup_s": 1,
    "seed": 99,
    "shards": {"count": 4, "partition": "range"},
    "key_dist": {"dist": "zipfian", "keyspace": 4096, "theta": 0.8},
    "faults": [{"kind": "crash", "node": 2, "group": 1, "at_s": 3},
               {"kind": "recover", "node": 2, "group": 1, "at_s": 4.5}],
    "fd_timeout_ms": 400,
    "metrics_window_s": 2
  })";
  const Scenario s = scenario_from_json(text, "test.json");
  EXPECT_EQ(s.name, "my-experiment");
  EXPECT_EQ(s.protocol, ProtocolKind::kMencius);
  EXPECT_EQ(s.workload.clients_per_site, 12u);
  EXPECT_DOUBLE_EQ(s.workload.conflict_fraction, 0.25);
  EXPECT_EQ(s.duration, 6 * kSec);
  EXPECT_EQ(s.warmup, 1 * kSec);
  EXPECT_EQ(s.seed, 99u);
  EXPECT_EQ(s.shards.count, 4u);
  EXPECT_EQ(s.shards.partition, shard::Partition::kRange);
  EXPECT_EQ(s.workload.key_dist.dist, wl::KeyDist::kZipfian);
  EXPECT_EQ(s.workload.key_dist.keyspace, 4096u);
  EXPECT_DOUBLE_EQ(s.workload.key_dist.zipf_theta, 0.8);
  ASSERT_EQ(s.faults.size(), 2u);
  EXPECT_EQ(s.faults[0].kind, FaultEvent::Kind::kCrash);
  EXPECT_EQ(s.faults[0].node, 2u);
  EXPECT_EQ(s.faults[0].group, 1);
  EXPECT_EQ(s.faults[0].at, 3 * kSec);
  EXPECT_EQ(s.faults[1].at, 4 * kSec + 500 * kMs);
  EXPECT_EQ(s.fd_timeout_us, 400 * kMs);
  EXPECT_EQ(s.metrics_window_us, 2 * kSec);
}

TEST(ScenarioFileTest, ParsesPhases) {
  const std::string text = R"({
    "duration_s": 10, "warmup_s": 1,
    "phases": [
      {"mode": "closed-loop", "at_s": 0, "clients_per_site": 8, "think_ms": 2},
      {"mode": "open-loop", "at_s": 3, "rate_tps": 500},
      {"mode": "ramp", "at_s": 5, "rate_tps": 500, "to_tps": 2000},
      {"mode": "quiesce", "at_s": 8}
    ]
  })";
  const Scenario s = scenario_from_json(text, "test.json");
  ASSERT_EQ(s.phases.size(), 4u);
  EXPECT_EQ(s.phases[0].mode, wl::PhaseSpec::Mode::kClosedLoop);
  EXPECT_EQ(s.phases[0].clients_per_site, 8u);
  EXPECT_EQ(s.phases[0].think_us, 2 * kMs);
  EXPECT_EQ(s.phases[1].mode, wl::PhaseSpec::Mode::kOpenLoop);
  EXPECT_DOUBLE_EQ(s.phases[1].arrival_rate_tps, 500.0);
  EXPECT_EQ(s.phases[2].mode, wl::PhaseSpec::Mode::kOpenLoopRamp);
  EXPECT_DOUBLE_EQ(s.phases[2].ramp_to_tps, 2000.0);
  EXPECT_EQ(s.phases[3].mode, wl::PhaseSpec::Mode::kQuiesce);
  EXPECT_EQ(s.phases[3].at, 8 * kSec);
}

TEST(ScenarioFileTest, BaseInheritsFromRegistryAndFieldsOverride) {
  const Scenario s = scenario_from_json(
      R"({"base": "sharded-fault", "seed": 1234})", "test.json");
  EXPECT_EQ(s.seed, 1234u);                 // overridden
  EXPECT_EQ(s.shards.count, 4u);            // inherited
  EXPECT_EQ(s.protocol, ProtocolKind::kMencius);
  EXPECT_EQ(s.faults.size(), 2u);
  // Key order must not matter: "base" applies first even when written last.
  const Scenario t = scenario_from_json(
      R"({"seed": 1234, "base": "sharded-fault"})", "test.json");
  EXPECT_EQ(t.seed, 1234u);
}

TEST(ScenarioFileTest, ErrorsNameTheOffendingField) {
  EXPECT_NE(parse_error(R"({"frobnicate": 1})").find("frobnicate"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"clients_per_site": "many"})")
                .find("clients_per_site"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"protocol": "raft"})").find("protocol"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"shards": {"partition": "modulo"}})")
                .find("shards.partition"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"key_dist": {"dist": "pareto"}})")
                .find("key_dist.dist"),
            std::string::npos);
  const std::string fault_err = parse_error(
      R"({"faults": [{"kind": "crash", "node": 0, "at_s": 1},
                     {"kind": "explode", "at_s": 2}], "duration_s": 5})");
  EXPECT_NE(fault_err.find("faults[1].kind"), std::string::npos) << fault_err;
  EXPECT_NE(parse_error(R"({"phases": [{"at_s": 0}]})").find("phases[0].mode"),
            std::string::npos);
  EXPECT_NE(parse_error(
                R"({"phases": [{"mode": "quiesce", "at_s": 0,
                                "rate_tps": 10}]})")
                .find("phases[0].rate_tps"),
            std::string::npos);
}

TEST(ScenarioFileTest, ParsesSaturationKnobs) {
  const std::string text = R"({
    "duration_s": 5, "warmup_s": 1,
    "node": {"batching": true, "batch_delay_ms": 2, "batch_max_ops": 64,
             "pipeline_window": 8, "coalescing": true},
    "flow_control": {"max_inflight": 32, "policy": "shed", "queue_cap": 10}
  })";
  const Scenario s = scenario_from_json(text, "test.json");
  EXPECT_TRUE(s.node.batching);
  EXPECT_EQ(s.node.batch_delay_us, 2 * kMs);
  EXPECT_EQ(s.node.batch_max_ops, 64u);
  EXPECT_EQ(s.node.pipeline_window, 8u);
  EXPECT_TRUE(s.node.coalescing);
  EXPECT_EQ(s.workload.max_inflight, 32u);
  EXPECT_EQ(s.workload.overload_policy, wl::OverloadPolicy::kShed);
  EXPECT_EQ(s.workload.overload_queue_cap, 10u);
}

TEST(ScenarioFileTest, SaturationKnobErrorsNameTheField) {
  EXPECT_NE(parse_error(R"({"node": {"batch_size": 4}})").find("node.batch_size"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"node": {"batching": 3}})").find("node.batching"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"flow_control": {"policy": "drop"}})")
                .find("flow_control.policy"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"flow_control": {"cap": 1}})")
                .find("flow_control.cap"),
            std::string::npos);
  // Parses fine, but validate_scenario rejects the degenerate knobs.
  EXPECT_NE(parse_error(R"({"node": {"batch_max_ops": 0}})")
                .find("batch_max_ops"),
            std::string::npos);
  EXPECT_NE(parse_error(R"({"node": {"pipeline_window": 0}})")
                .find("pipeline_window"),
            std::string::npos);
}

TEST(ScenarioFileTest, RejectsMalformedJson) {
  EXPECT_THROW(scenario_from_json("{", "t"), std::invalid_argument);
  EXPECT_THROW(scenario_from_json("{}trailing", "t"), std::invalid_argument);
  EXPECT_THROW(scenario_from_json(R"({"seed": 1, "seed": 2})", "t"),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_json("[1,2]", "t"), std::invalid_argument);
  EXPECT_THROW(scenario_from_json(R"({"seed": })", "t"),
               std::invalid_argument);
  // A number token is read whole ("1-2" is not 1), and JSON has no '+'.
  EXPECT_THROW(scenario_from_json(R"({"seed": 1-2})", "t"),
               std::invalid_argument);
  EXPECT_THROW(scenario_from_json(R"({"seed": +5})", "t"),
               std::invalid_argument);
}

TEST(ScenarioFileTest, RejectsIntegersTheMemberCannotHold) {
  // Each would wrap or overflow on the way into its member: 2^32 + 1
  // clients is 1 client, node 2^32 + 2 is node 2, an in-flight cap of 2^32
  // is 0 (flow control off), and 1e300 seconds or a 1e30 seed overflows a
  // 64-bit integer.
  const std::pair<const char*, const char*> cases[] = {
      {R"({"clients_per_site": 4294967297})", "\"clients_per_site\""},
      {R"({"faults": [{"kind": "crash", "node": 4294967298, "at_s": 1}]})",
       "\"faults[0].node\""},
      {R"({"flow_control": {"max_inflight": 4294967296}})",
       "\"flow_control.max_inflight\""},
      {R"({"seed": 1e30})", "\"seed\""},
      {R"({"duration_s": 1e300})", "\"duration_s\""},
  };
  for (const auto& [text, field] : cases) {
    const std::string err = parse_error(text);
    EXPECT_NE(err.find(field), std::string::npos) << text << " -> " << err;
  }
  // In-range values still parse: a seed past 2^32, a negative group.
  const Scenario s = scenario_from_json(
      R"({"seed": 9007199254740992, "faults": [{"kind": "crash",
          "node": 4, "group": -1, "at_s": 1}]})",
      "t");
  EXPECT_EQ(s.seed, 9007199254740992u);
}

TEST(ScenarioFileTest, SetKnobTakesFileKeysWithJsonValues) {
  Scenario s = make_scenario("quickstart");
  set_scenario_knob(s, "protocol", "epaxos");  // not JSON: a bare string
  set_scenario_knob(s, "seed", "42");
  set_scenario_knob(s, "phases",
                    R"([{"mode": "open-loop", "at_s": 0, "rate_tps": 900}])");
  set_scenario_knob(s, "node.batch_max_ops", "64");
  set_scenario_knob(s, "flow_control",
                    R"({"max_inflight": 8, "policy": "shed"})");
  set_scenario_knob(s, "caesar.wait_enabled", "false");
  EXPECT_EQ(s.protocol, ProtocolKind::kEPaxos);
  EXPECT_EQ(s.seed, 42u);
  ASSERT_EQ(s.phases.size(), 1u);
  EXPECT_EQ(s.phases[0].mode, wl::PhaseSpec::Mode::kOpenLoop);
  EXPECT_DOUBLE_EQ(s.phases[0].arrival_rate_tps, 900.0);
  EXPECT_EQ(s.node.batch_max_ops, 64u);
  EXPECT_EQ(s.workload.max_inflight, 8u);
  EXPECT_EQ(s.workload.overload_policy, wl::OverloadPolicy::kShed);
  EXPECT_FALSE(s.caesar.wait_enabled);
  EXPECT_NO_THROW(ScenarioBuilder(s).build());

  // A scenario file takes the new CAESAR section too, nested.
  EXPECT_FALSE(scenario_from_json(R"({"caesar": {"wait_enabled": false}})",
                                  "t")
                   .caesar.wait_enabled);
}

TEST(ScenarioFileTest, SetKnobErrorsNameTheKey) {
  auto set_error = [](const char* key, const char* value) -> std::string {
    Scenario s;
    try {
      set_scenario_knob(s, key, value);
      return "";
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
  };
  EXPECT_NE(set_error("node.batch_size", "4").find("\"node.batch_size\""),
            std::string::npos);
  EXPECT_NE(set_error("frobnicate", "1").find("\"frobnicate\""),
            std::string::npos);
  EXPECT_NE(set_error("seed", "abc").find("\"seed\""), std::string::npos);
  EXPECT_NE(set_error("node", R"({"batch_size": 4})").find("node.batch_size"),
            std::string::npos);
  EXPECT_NE(set_error("base", "quickstart").find("base"), std::string::npos);
  // In a file, nesting is the only spelling of a section key.
  EXPECT_NE(parse_error(R"({"node.batching": true})").find("node.batching"),
            std::string::npos);
}

TEST(ScenarioFileTest, SyncModeOtherThanBatchedNeedsDataDir) {
  EXPECT_NE(parse_error(R"({"sync_mode": "always"})").find("sync_mode"),
            std::string::npos);
  EXPECT_EQ(parse_error(R"({"sync_mode": "batched"})"), "");
  EXPECT_EQ(parse_error(R"({"sync_mode": "always",
                            "data_dir": "caesar-test-data/sync-mode"})"),
            "");
}

TEST(ScenarioFileTest, ResultIsValidated) {
  // Parses fine, but validate_scenario must reject it (fault beyond end).
  const std::string err = parse_error(
      R"({"duration_s": 2, "warmup_s": 0,
          "faults": [{"kind": "crash", "node": 0, "at_s": 10}]})");
  EXPECT_FALSE(err.empty());
}

TEST(ScenarioFileTest, LoadsFromDiskAndReportsMissingFiles) {
  const std::string path = ::testing::TempDir() + "scenario_file_test.json";
  {
    std::ofstream out(path);
    out << R"({"name": "from-disk", "clients_per_site": 3, "duration_s": 4,
               "warmup_s": 1})";
  }
  const Scenario s = load_scenario_file(path);
  EXPECT_EQ(s.name, "from-disk");
  EXPECT_EQ(s.workload.clients_per_site, 3u);
  std::remove(path.c_str());

  EXPECT_THROW(load_scenario_file("/nonexistent/scenario.json"),
               std::runtime_error);
}

TEST(ScenarioFileTest, CommittedScenarioFilesLoadAndValidate) {
  // Every example scenario file must parse and validate (without running):
  // a key the parser no longer takes fails here, not in a user's run.
  const std::filesystem::path dir =
      std::filesystem::path(CAESAR_SOURCE_DIR) / "examples" / "scenarios";
  std::size_t loaded = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".json") continue;
    EXPECT_NO_THROW(load_scenario_file(entry.path().string()))
        << entry.path();
    ++loaded;
  }
  EXPECT_GE(loaded, 2u) << "no scenario files found in " << dir;
}

TEST(ScenarioFileTest, ErrorMessagesCarryTheOrigin) {
  try {
    scenario_from_json(R"({"bogus": 1})", "configs/exp.json");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("configs/exp.json"),
              std::string::npos);
  }
}

}  // namespace
}  // namespace caesar::harness
