// Scenario definitions loadable from JSON files.
//
// A scenario file is a single JSON object; every field is optional except
// that the result must pass validate_scenario. Fields mirror the
// ScenarioBuilder vocabulary, with human units (seconds, milliseconds,
// percent) where the C++ API uses microseconds and fractions:
//
//   {
//     "name": "my-experiment",
//     "base": "sharded-saturation",          // start from a registry entry
//     "protocol": "mencius",                 // a ProtocolInfo::key
//     "clients_per_site": 100,               // these two shape only the
//     "think_ms": 0,                         // default phase (no "phases")
//     "conflict_pct": 10,
//     "duration_s": 12, "warmup_s": 1, "seed": 7,
//     "shards": {"count": 4, "partition": "hash"},
//     "key_dist": {"dist": "zipfian", "keyspace": 65536, "theta": 0.99},
//     "phases": [{"mode": "closed-loop", "at_s": 0, "clients_per_site": 40},
//                {"mode": "quiesce", "at_s": 10}],
//     "faults": [{"kind": "crash", "node": 2, "group": 1, "at_s": 4},
//                {"kind": "recover", "node": 2, "group": 1, "at_s": 8}],
//     "fd_timeout_ms": 500, "fd_suspect_partitions": false,
//     "data_dir": "caesar-data/my-experiment", "sync_mode": "batched",
//     "metrics_window_s": 2, "multipaxos_leader": 3,
//     "node": {"batching": true, "batch_delay_ms": 2,
//              "batch_max_ops": 128, "pipeline_window": 1,
//              "coalescing": false},
//     "flow_control": {"max_inflight": 0, "policy": "queue",
//                      "queue_cap": 1024},
//     "caesar": {"wait_enabled": true}
//   }
//
// "phases" and "faults" replace the base's lists whole. Phase keys besides
// "mode" and "at_s" depend on the mode: closed-loop takes clients_per_site
// and think_ms, open-loop rate_tps, ramp rate_tps and to_tps. A "range"
// partition splits key_dist.keyspace into equal slices.
//
// Parsing is strict: unknown keys, wrong types, integers the target member
// cannot hold and unknown enum names throw std::invalid_argument naming the
// offending field ("faults[1].kind"), so a typo fails the run at load time
// rather than silently running the default.
//
// set_scenario_knob (consensus_cli's --set) takes the same keys, with a
// section member spelled "section.member" ("node.batching"). In a file,
// nesting is the only spelling.
#pragma once

#include <string>
#include <string_view>

#include "harness/scenario.h"

namespace caesar::harness {

/// Parses a scenario from JSON text. `origin` names the source (file path)
/// in error messages. The result has been through ScenarioBuilder::build(),
/// i.e. sorted and validated.
Scenario scenario_from_json(std::string_view text, std::string_view origin);

/// Reads and parses `path`. Throws std::invalid_argument on parse/validation
/// errors and std::runtime_error when the file cannot be read.
Scenario load_scenario_file(const std::string& path);

/// Sets one knob of `s` the way a scenario file would: `key` is a file key,
/// dotted inside a section ("node.batch_max_ops"), or a whole section
/// ("node") given an object. `value` is JSON; text that does not parse as
/// JSON is taken as a string, so "protocol" may be given "epaxos". Throws
/// std::invalid_argument naming the key. Does not validate: pass the result
/// through ScenarioBuilder::build().
void set_scenario_knob(Scenario& s, std::string_view key,
                       std::string_view value);

}  // namespace caesar::harness
