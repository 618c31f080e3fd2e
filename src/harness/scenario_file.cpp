#include "harness/scenario_file.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "storage/wal.h"

namespace caesar::harness {

namespace {

// ---------------------------------------------------------------------------
// Minimal JSON value + recursive-descent parser (no external dependencies).
// Scenario files are small, so simplicity beats speed; objects preserve key
// order and allow duplicate detection.
// ---------------------------------------------------------------------------

struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  const JsonValue* find(std::string_view key) const {
    for (const auto& [k, v] : object) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

class JsonParser {
 public:
  JsonParser(std::string_view text, std::string_view origin)
      : text_(text), origin_(origin) {}

  JsonValue parse() {
    JsonValue v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content after the JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    std::ostringstream os;
    os << "scenario file " << origin_ << ":" << line << ":" << col << ": "
       << what;
    throw std::invalid_argument(os.str());
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  JsonValue value() {
    skip_ws();
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        return null();
      default:
        return number();
    }
  }

  JsonValue object() {
    JsonValue v;
    v.kind = JsonValue::Kind::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      if (peek() != '"') fail("object keys must be strings");
      std::string key = parse_string();
      if (v.find(key) != nullptr) fail("duplicate key \"" + key + "\"");
      skip_ws();
      expect(':');
      v.object.emplace_back(std::move(key), value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  JsonValue array() {
    JsonValue v;
    v.kind = JsonValue::Kind::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            out += '"';
            break;
          case '\\':
            out += '\\';
            break;
          case '/':
            out += '/';
            break;
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          case 'r':
            out += '\r';
            break;
          default:
            fail(std::string("unsupported escape '\\") + e + "'");
        }
      } else {
        out += c;
      }
    }
  }

  JsonValue string_value() {
    JsonValue v;
    v.kind = JsonValue::Kind::kString;
    v.string = parse_string();
    return v;
  }

  JsonValue boolean() {
    JsonValue v;
    v.kind = JsonValue::Kind::kBool;
    if (text_.compare(pos_, 4, "true") == 0) {
      v.boolean = true;
      pos_ += 4;
    } else if (text_.compare(pos_, 5, "false") == 0) {
      v.boolean = false;
      pos_ += 5;
    } else {
      fail("expected 'true' or 'false'");
    }
    return v;
  }

  JsonValue null() {
    JsonValue v;
    if (text_.compare(pos_, 4, "null") != 0) fail("expected 'null'");
    pos_ += 4;
    return v;
  }

  JsonValue number() {
    const std::size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    if (pos_ == start) fail("expected a JSON value");
    JsonValue v;
    v.kind = JsonValue::Kind::kNumber;
    // The whole token must be one number ("1-2" is not 1). from_chars
    // rejects a leading '+', as JSON does.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    const auto [end, ec] = std::from_chars(first, last, v.number);
    if (ec != std::errc() || end != last) {
      pos_ = start;
      fail("malformed number");
    }
    return v;
  }

  std::string_view text_;
  std::string_view origin_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JSON -> Scenario: one table row per knob. A Field is one JSON value on its
// way into a Scenario member; its readers check the JSON type, the member's
// integer range, the key's unit and enum names, and every error names the
// field path ("faults[1].kind").
// ---------------------------------------------------------------------------

/// One {name, value} pair of an enum-valued key.
template <typename E>
using Name = std::pair<std::string_view, E>;

/// A choice() row as its {name, value} pair.
template <typename E>
Name<E> named(const Name<E>& n) {
  return n;
}
Name<ProtocolKind> named(const ProtocolInfo& p) { return {p.key, p.kind}; }

struct Field {
  const JsonValue& v;
  std::string path;
  std::string_view origin;

  [[noreturn]] void fail(const std::string& what) const {
    std::ostringstream os;
    os << origin << ": ";
    if (!path.empty()) os << "field \"" << path << "\": ";
    os << what;
    throw std::invalid_argument(os.str());
  }

  /// Reads a bool, string, integer or double into `out`. An integer must be
  /// a whole number that `out` holds exactly.
  template <typename T>
  void read(T& out) const {
    if constexpr (std::is_same_v<T, bool>) {
      if (v.kind != JsonValue::Kind::kBool) fail("expected true or false");
      out = v.boolean;
    } else if constexpr (std::is_same_v<T, std::string>) {
      if (v.kind != JsonValue::Kind::kString) fail("expected a string");
      out = v.string;
    } else if constexpr (std::is_integral_v<T>) {
      const double d = number();
      if (!fits<T>(d)) {
        fail("expected an integer in [" +
             std::to_string(std::numeric_limits<T>::min()) + ", " +
             std::to_string(std::numeric_limits<T>::max()) + "]");
      }
      out = static_cast<T>(d);
    } else {
      out = number();
    }
  }

  /// A time written in units of `unit` microseconds (a "_s" or "_ms" key),
  /// rounded to the nearest microsecond.
  Time time(Time unit) const {
    const double us = std::round(number() * static_cast<double>(unit));
    if (!fits<Time>(us)) fail("time out of range");
    return static_cast<Time>(us);
  }

  std::string string() const {
    std::string out;
    read(out);
    return out;
  }

  double number() const {
    if (v.kind != JsonValue::Kind::kNumber) fail("expected a number");
    return v.number;
  }

  /// Sets `out` to the value this string names; `rows` are {name, value}
  /// pairs or protocol table rows.
  template <typename E, typename Rows>
  void choice(E& out, const Rows& rows) const {
    const std::string name = string();
    std::string expected;
    for (const auto& row : rows) {
      const auto [n, value] = named(row);
      if (n == name) {
        out = value;
        return;
      }
      expected += (expected.empty() ? "" : "|") + std::string(n);
    }
    fail("unknown value \"" + name + "\" (expected " + expected + ")");
  }

  Field member(const std::string& key, const JsonValue& m) const {
    return {m, path.empty() ? key : path + "." + key, origin};
  }

  /// The member `key` of this object, which must be present.
  Field get(const std::string& key) const {
    if (v.kind != JsonValue::Kind::kObject) fail("expected an object");
    const JsonValue* m = v.find(key);
    if (m == nullptr) member(key, v).fail("missing");
    return member(key, *m);
  }

  /// Calls fn(key, field) for each member of this object. A key holding a
  /// '.' is unknown: nesting is the only way a file spells a section key.
  template <typename Fn>
  void each_member(Fn&& fn) const {
    if (v.kind != JsonValue::Kind::kObject) fail("expected an object");
    for (const auto& [key, m] : v.object) {
      const Field f = member(key, m);
      if (key.find('.') != std::string::npos) f.fail("unknown key");
      fn(key, f);
    }
  }

  /// Replaces `out` with this array's elements, each read by `read_one`.
  template <typename T>
  void list(std::vector<T>& out, T (*read_one)(const Field&)) const {
    if (v.kind != JsonValue::Kind::kArray) fail("expected an array");
    out.clear();
    for (std::size_t i = 0; i < v.array.size(); ++i) {
      out.push_back(read_one(
          Field{v.array[i], path + "[" + std::to_string(i) + "]", origin}));
    }
  }

 private:
  /// True when `d` is a whole number in [min, 2^digits), T's range; both
  /// ends are exact in a double.
  template <typename T>
  static bool fits(double d) {
    return d == std::floor(d) &&
           d >= static_cast<double>(std::numeric_limits<T>::min()) &&
           d < std::ldexp(1.0, std::numeric_limits<T>::digits);
  }
};

constexpr Name<wl::KeyDist> kKeyDists[] = {
    {"paper-conflict", wl::KeyDist::kPaperConflict},
    {"uniform", wl::KeyDist::kUniform},
    {"zipfian", wl::KeyDist::kZipfian}};
constexpr Name<wl::OverloadPolicy> kOverloadPolicies[] = {
    {"shed", wl::OverloadPolicy::kShed}, {"queue", wl::OverloadPolicy::kQueue}};
constexpr Name<wl::PhaseSpec::Mode> kPhaseModes[] = {
    {"closed-loop", wl::PhaseSpec::Mode::kClosedLoop},
    {"open-loop", wl::PhaseSpec::Mode::kOpenLoop},
    {"ramp", wl::PhaseSpec::Mode::kOpenLoopRamp},
    {"quiesce", wl::PhaseSpec::Mode::kQuiesce}};
constexpr Name<FaultEvent::Kind> kFaultKinds[] = {
    {"crash", FaultEvent::Kind::kCrash},
    {"recover", FaultEvent::Kind::kRecover},
    {"partition", FaultEvent::Kind::kPartition},
    {"heal", FaultEvent::Kind::kHeal},
    {"power-loss", FaultEvent::Kind::kPowerLoss},
    {"restart", FaultEvent::Kind::kRestart}};

/// One "phases" element. Besides "mode" and "at_s" it takes only the keys
/// its mode uses.
wl::PhaseSpec read_phase(const Field& f) {
  using Mode = wl::PhaseSpec::Mode;
  wl::PhaseSpec p;
  const Field mode = f.get("mode");
  mode.choice(p.mode, kPhaseModes);
  if (p.mode == Mode::kQuiesce) p.clients_per_site = 0;
  const bool closed = p.mode == Mode::kClosedLoop;
  const bool ramp = p.mode == Mode::kOpenLoopRamp;
  const bool open = ramp || p.mode == Mode::kOpenLoop;
  f.each_member([&](const std::string& key, const Field& m) {
    if (key == "mode") {  // read above
    } else if (key == "at_s") {
      p.at = m.time(kSec);
    } else if (closed && key == "clients_per_site") {
      m.read(p.clients_per_site);
    } else if (closed && key == "think_ms") {
      p.think_us = m.time(kMs);
    } else if (open && key == "rate_tps") {
      m.read(p.arrival_rate_tps);
    } else if (ramp && key == "to_tps") {
      m.read(p.ramp_to_tps);
    } else {
      m.fail("unknown key for mode \"" + mode.v.string + "\"");
    }
  });
  return p;
}

/// One "faults" element. Every kind takes the same keys; validate_scenario
/// checks the ones the kind needs.
FaultEvent read_fault(const Field& f) {
  FaultEvent e;
  f.get("kind").choice(e.kind, kFaultKinds);
  f.each_member([&e](const std::string& key, const Field& m) {
    if (key == "kind") {  // read above
    } else if (key == "at_s") {
      e.at = m.time(kSec);
    } else if (key == "node") {
      m.read(e.node);
    } else if (key == "a") {
      m.read(e.a);
    } else if (key == "b") {
      m.read(e.b);
    } else if (key == "group") {
      m.read(e.group);
    } else {
      m.fail("unknown key");
    }
  });
  return e;
}

struct Knob {
  std::string_view key;
  void (*apply)(Scenario&, const Field&);
};

// Every settable knob, by its key path; each row's lambda takes
// (Scenario& s, const Field& f). The rows check no values of their own:
// validate_scenario judges the finished scenario. A list replaces the
// base's list whole.
constexpr Knob kKnobs[] = {
    {"name", [](auto& s, auto& f) { f.read(s.name); }},
    {"protocol",
     [](auto& s, auto& f) { f.choice(s.protocol, protocol_table()); }},
    {"clients_per_site",
     [](auto& s, auto& f) { f.read(s.workload.clients_per_site); }},
    {"conflict_pct",
     [](auto& s, auto& f) {
       s.workload.conflict_fraction = f.number() / 100.0;
     }},
    {"think_ms", [](auto& s, auto& f) { s.workload.think_us = f.time(kMs); }},
    {"duration_s", [](auto& s, auto& f) { s.duration = f.time(kSec); }},
    {"warmup_s", [](auto& s, auto& f) { s.warmup = f.time(kSec); }},
    {"seed", [](auto& s, auto& f) { f.read(s.seed); }},
    {"phases", [](auto& s, auto& f) { f.list(s.phases, read_phase); }},
    {"faults", [](auto& s, auto& f) { f.list(s.faults, read_fault); }},
    {"fd_timeout_ms", [](auto& s, auto& f) { s.fd_timeout_us = f.time(kMs); }},
    {"fd_suspect_partitions",
     [](auto& s, auto& f) { f.read(s.fd_suspect_partitions); }},
    {"data_dir", [](auto& s, auto& f) { f.read(s.storage.data_dir); }},
    {"sync_mode", [](auto& s, auto& f) {
       try {
         s.storage.sync_mode = storage::parse_sync_mode(f.string());
       } catch (const std::invalid_argument& e) {
         f.fail(e.what());
       }
     }},
    {"metrics_window_s",
     [](auto& s, auto& f) { s.metrics_window_us = f.time(kSec); }},
    {"multipaxos_leader",
     [](auto& s, auto& f) { f.read(s.multipaxos.leader); }},
    {"shards.count", [](auto& s, auto& f) { f.read(s.shards.count); }},
    {"shards.partition",
     [](auto& s, auto& f) {
       f.choice(s.shards.partition, shard::kPartitionNames);
     }},
    {"key_dist.dist",
     [](auto& s, auto& f) { f.choice(s.workload.key_dist.dist, kKeyDists); }},
    {"key_dist.keyspace",
     [](auto& s, auto& f) { f.read(s.workload.key_dist.keyspace); }},
    {"key_dist.theta",
     [](auto& s, auto& f) { f.read(s.workload.key_dist.zipf_theta); }},
    {"node.batching", [](auto& s, auto& f) { f.read(s.node.batching); }},
    {"node.batch_delay_ms",
     [](auto& s, auto& f) { s.node.batch_delay_us = f.time(kMs); }},
    {"node.batch_max_ops",
     [](auto& s, auto& f) { f.read(s.node.batch_max_ops); }},
    {"node.pipeline_window",
     [](auto& s, auto& f) { f.read(s.node.pipeline_window); }},
    {"node.coalescing", [](auto& s, auto& f) { f.read(s.node.coalescing); }},
    {"flow_control.max_inflight",
     [](auto& s, auto& f) { f.read(s.workload.max_inflight); }},
    {"flow_control.policy",
     [](auto& s, auto& f) {
       f.choice(s.workload.overload_policy, kOverloadPolicies);
     }},
    {"flow_control.queue_cap",
     [](auto& s, auto& f) { f.read(s.workload.overload_queue_cap); }},
    {"caesar.wait_enabled",
     [](auto& s, auto& f) { f.read(s.caesar.wait_enabled); }},
};

/// Applies `f` to the knob at its path. A section key (a row-key prefix
/// followed by '.') takes an object and applies its members one by one.
void apply_knob(Scenario& s, const Field& f) {
  for (const Knob& k : kKnobs) {
    if (k.key == f.path) return k.apply(s, f);
  }
  const std::string section = f.path + ".";
  for (const Knob& k : kKnobs) {
    if (k.key.starts_with(section)) {
      return f.each_member(
          [&s](const std::string&, const Field& m) { apply_knob(s, m); });
    }
  }
  f.fail("unknown key");
}

}  // namespace

Scenario scenario_from_json(std::string_view text, std::string_view origin) {
  const std::string where = "scenario file " + std::string(origin);
  const JsonValue root = JsonParser(text, origin).parse();
  const Field top{root, "", where};
  if (root.kind != JsonValue::Kind::kObject) {
    top.fail("top level must be a JSON object");
  }
  Scenario s;
  // "base" first regardless of key order: the other keys override it.
  if (const JsonValue* base = root.find("base")) {
    s = make_scenario(top.member("base", *base).string());
  }
  top.each_member([&s](const std::string& key, const Field& f) {
    if (key != "base") apply_knob(s, f);
  });
  return ScenarioBuilder(std::move(s)).build();
}

void set_scenario_knob(Scenario& s, std::string_view key,
                       std::string_view value) {
  const std::string where =
      "--set " + std::string(key) + "=" + std::string(value);
  JsonValue v;
  try {
    v = JsonParser(value, where).parse();
  } catch (const std::invalid_argument&) {
    v.kind = JsonValue::Kind::kString;
    v.string = value;
  }
  const Field f{v, std::string(key), where};
  if (key == "base") f.fail("not a knob: it names the scenario to start from");
  apply_knob(s, f);
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot read scenario file: " + path);
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  return scenario_from_json(buf.str(), path);
}

}  // namespace caesar::harness
