// hostbench: host cost per simulated command beside the simulated outcomes.
//
//   hostbench --workload W --seed N --seconds S --trace 0|1 [--quick]
//   hostbench --workload W --corrupt-check
//   hostbench --list
//
// --trace 0 times harness::run_scenario plus harness::check_cluster_consistency
// from outside, repeating the identical run until S seconds have passed, and
// prints the end-to-end metrics. --trace 1 alternates that untraced run with
// the assembled traced run (traced_run.h) and prints the per-layer metrics.
// Host times are scaled to a reference machine speed (calibrate.h). Every
// run passes the correctness gate first, or the program exits 1 and prints
// no result. The last stdout line is the JSON result object.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <unordered_set>
#include <vector>

#include "harness/oracle.h"
#include "calibrate.h"
#include "harness/scenario.h"
#include "traced_run.h"
#include "tracer.h"
#include "workloads.h"

namespace {

namespace h = caesar::harness;
using hostbench::Observations;
using hostbench::Tracer;
using hostbench::Workload;
using Clock = std::chrono::steady_clock;
using caesar::Time;

/// Spans kept in memory and written out by a traced run (32 bytes each).
constexpr std::size_t kKeptSpans = std::size_t{1} << 19;
/// Untraced repetitions: at least this many, whatever --seconds says.
constexpr int kMinReps = 3;
/// Set-up measurements before each untraced repetition (the median of all
/// of them is reported).
constexpr int kSetups = 15;
/// Calibration-kernel runs per machine-speed reading (median taken).
constexpr int kKernelRuns = 3;
const char* const kOutDir = ".bench_build/hostbench-traces";

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10;
  int trace = 0;
  bool quick = false;
  bool corrupt_check = false;
  bool list = false;
};

[[noreturn]] void die(const std::string& why) {
  std::cerr << "hostbench: " << why << "\n";
  std::exit(1);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
      a.seed_set = true;
    } else if (k == "--seconds") {
      a.seconds = std::stod(value());
    } else if (k == "--trace") {
      a.trace = std::stoi(value());
    } else if (k == "--quick") {
      a.quick = true;
    } else if (k == "--corrupt-check") {
      a.corrupt_check = true;
    } else if (k == "--list") {
      a.list = true;
    } else {
      die("unknown argument " + k);
    }
  }
  if (a.trace != 0 && a.trace != 1) die("--trace must be 0 or 1");
  return a;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

template <typename T>
double median(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1
             ? static_cast<double>(v[m])
             : (static_cast<double>(v[m - 1]) + static_cast<double>(v[m])) / 2;
}

template <typename T>
double p99(std::vector<T> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  return static_cast<double>(v[(v.size() - 1) * 99 / 100]);
}

double per(double x, std::uint64_t n) {
  return n == 0 ? 0.0 : x / static_cast<double>(n);
}

/// Kernel timings of one run; the factor pools all of them, so a single
/// noisy kernel run cannot move it.
struct SpeedGauge {
  std::vector<double> kernel_ns;
  std::uint64_t sink = 0;

  /// Runs the kernel kKernelRuns times; returns the index of the first run.
  std::size_t sample() {
    const std::size_t first = kernel_ns.size();
    for (int i = 0; i < kKernelRuns; ++i) {
      kernel_ns.push_back(hostbench::calibration_kernel(sink));
    }
    return first;
  }
  /// A host time multiplied by this reads as if measured at the reference
  /// machine speed.
  double factor() const {
    return hostbench::kReferenceKernelNs / median(kernel_ns);
  }
  /// The same, from the kernel runs with index in [from, to) only.
  double factor(std::size_t from, std::size_t to) const {
    return hostbench::kReferenceKernelNs /
           median(std::vector<double>(kernel_ns.begin() + from,
                                      kernel_ns.begin() + to));
  }
};

// ---------------------------------------------------------------------------
// Simulated outcome of one run, from its report.
// ---------------------------------------------------------------------------

struct SimMetrics {
  double tput = 0;         // completions per simulated second in [warmup, quiesce)
  double p50 = 0, p99 = 0, p999 = 0;  // ms
  std::uint64_t samples = 0;
  std::uint64_t beyond_p999 = 0;
  double outage_ms = 0;    // longest completion-free gap in [warmup, quiesce)
  double completed_pct = 0;
};

SimMetrics sim_metrics(const h::RunReport& r, const h::Scenario& s) {
  SimMetrics m;
  const Time b = s.timeline_bucket;
  const auto& buckets = r.timeline.buckets();
  const auto lo = static_cast<std::int64_t>(s.warmup / b);
  const auto hi = static_cast<std::int64_t>(hostbench::quiesce_at(s) / b);
  double done = 0;
  std::int64_t prev = lo - 1;  // virtual completion just before the interval
  std::int64_t gap = 0;
  for (std::int64_t i = lo; i < hi; ++i) {
    const double v = static_cast<std::size_t>(i) < buckets.size()
                         ? buckets[static_cast<std::size_t>(i)]
                         : 0.0;
    if (v <= 0) continue;
    done += v;
    gap = std::max(gap, i - prev);
    prev = i;
  }
  gap = std::max(gap, hi - prev);
  m.outage_ms = static_cast<double>(gap * b) / 1000.0;
  m.tput = done / (static_cast<double>((hi - lo) * b) / 1e6);
  const auto& lat = r.total_latency;
  m.samples = lat.count();
  m.p50 = static_cast<double>(lat.percentile(50)) / 1000.0;
  m.p99 = static_cast<double>(lat.percentile(99)) / 1000.0;
  m.p999 = static_cast<double>(lat.percentile(99.9)) / 1000.0;
  const Time cut = lat.percentile(99.9);
  for (Time v : lat.samples()) m.beyond_p999 += v > cut ? 1 : 0;
  m.completed_pct = 100.0 * per(static_cast<double>(r.completed), r.submitted);
  return m;
}

// ---------------------------------------------------------------------------
// Correctness gate and fidelity checks.
// ---------------------------------------------------------------------------

/// Every command the client pool saw complete must be in every live
/// replica's final delivery log (or, for a log that restarted mid-stream
/// from a store snapshot, be folded into that snapshot).
std::string check_acked(const std::vector<caesar::rsm::DeliveryLog>& logs,
                        const std::vector<bool>& crashed,
                        const Observations& obs) {
  for (std::size_t i = 0; i < logs.size(); ++i) {
    if (crashed[i]) continue;
    const auto& seq = logs[i].sequence();
    const std::unordered_set<std::uint64_t> have(seq.begin(), seq.end());
    for (const auto& [cmd, at] : obs.acked) {
      if (have.count(cmd) != 0) continue;
      if (obs.trimmed_at[i] >= 0 && at <= obs.trimmed_at[i]) continue;
      std::ostringstream os;
      os << "acknowledged command " << cmd << " (completed at t=" << at
         << "us) is missing from node " << i << "'s final delivery log";
      return os.str();
    }
  }
  return {};
}

/// The oracle plus the acknowledged-write check; empty when both pass.
std::string gate(const h::RunReport& r, const Workload& w,
                 const Observations& acks) {
  const h::ConsistencyVerdict v = h::check_cluster_consistency(r, w.oracle);
  if (!v.ok) return "consistency oracle: " + v.detail;
  return check_acked(r.delivery_logs, r.crashed_at_end, acks);
}

/// Field-by-field comparison of two runs' simulated results; empty when
/// they are identical.
std::string compare_runs(const h::RunReport& a, const h::RunReport& b) {
  std::ostringstream d;
  auto field = [&d](const char* name, auto x, auto y) {
    if (x != y) d << name << " " << x << " vs " << y << "; ";
  };
  field("completed", a.completed, b.completed);
  field("submitted", a.submitted, b.submitted);
  field("messages", a.messages, b.messages);
  field("bytes", a.bytes, b.bytes);
  field("fd_suspicions", a.fd_suspicions, b.fd_suspicions);
  field("latency.samples", a.total_latency.count(), b.total_latency.count());
  for (double p : {50.0, 99.0, 99.9, 100.0}) {
    const std::string name = "latency.p" + std::to_string(p);
    field(name.c_str(), a.total_latency.percentile(p),
          b.total_latency.percentile(p));
  }
  field("timeline", a.timeline.buckets() == b.timeline.buckets(), true);
  const caesar::stats::ProtocolCounters ca = a.proto.counters();
  const caesar::stats::ProtocolCounters cb = b.proto.counters();
  field("fast_decisions", ca.fast_decisions, cb.fast_decisions);
  field("slow_decisions", ca.slow_decisions, cb.slow_decisions);
  field("retries", ca.retries, cb.retries);
  field("slow_proposals", ca.slow_proposals, cb.slow_proposals);
  field("recoveries", ca.recoveries, cb.recoveries);
  field("waits", ca.waits, cb.waits);
  field("catchup_requests", ca.catchup_requests, cb.catchup_requests);
  field("catchup_chunks", ca.catchup_chunks, cb.catchup_chunks);
  field("catchup_commands", ca.catchup_commands, cb.catchup_commands);
  field("revocations", ca.revocations, cb.revocations);
  field("wal_appends", ca.wal_appends, cb.wal_appends);
  field("fsyncs", ca.fsyncs, cb.fsyncs);
  field("snapshots", ca.snapshots, cb.snapshots);
  field("truncated_segments", ca.truncated_segments, cb.truncated_segments);
  field("wait_time.samples", a.proto.wait_time.count(),
        b.proto.wait_time.count());
  field("flow_control.shed", a.flow_control.shed, b.flow_control.shed);
  field("stores", a.stores.size(), b.stores.size());
  for (std::size_t i = 0; i < std::min(a.stores.size(), b.stores.size()); ++i) {
    field("store.digest", a.stores[i].digest(), b.stores[i].digest());
    field("log.size", a.delivery_logs[i].size(), b.delivery_logs[i].size());
  }
  return d.str();
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_result(const std::vector<Metric>& metrics, std::uint64_t attempted,
                  std::uint64_t failed) {
  std::ostringstream js;
  js << std::setprecision(std::numeric_limits<double>::max_digits10);
  js << "{\"correct\": true, \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    js << (i ? ", " : "") << "\"" << metrics[i].name
       << "\": {\"value\": " << metrics[i].value << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  }
  js << "}}";
  std::cout << js.str() << std::endl;
}

void print_metric_lines(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "metric " << std::left << std::setw(28) << m.name << std::right
              << std::setw(16) << std::setprecision(6) << m.value << " "
              << m.unit << "\n";
  }
}

const char* protocol_layer(h::ProtocolKind p) {
  switch (p) {
    case h::ProtocolKind::kCaesar:
      return "core";
    case h::ProtocolKind::kEPaxos:
      return "epaxos";
    case h::ProtocolKind::kMencius:
      return "mencius";
    default:
      return "protocol";
  }
}

/// One untraced repetition: run_scenario plus the oracle, timed from
/// outside. The report is returned for the correctness and equality checks,
/// which run after the clock stops.
struct TimedRun {
  h::RunReport report;
  h::ConsistencyVerdict verdict;
  double wall_s = 0;
};

TimedRun timed_run(const h::Scenario& s, const Workload& w) {
  TimedRun t;
  const auto t0 = Clock::now();
  t.report = h::run_scenario(s);
  t.verdict = h::check_cluster_consistency(t.report, w.oracle);
  t.wall_s = seconds_since(t0);
  return t;
}

/// Dies unless an untraced repetition passed the gate and matched the
/// reference run exactly.
void verify_rep(const TimedRun& t, const h::RunReport& ref,
                const Observations& ref_obs) {
  if (!t.verdict.ok) die("consistency oracle failed: " + t.verdict.detail);
  const std::string acked = check_acked(t.report.delivery_logs,
                                        t.report.crashed_at_end, ref_obs);
  if (!acked.empty()) die(acked);
  const std::string diff = compare_runs(t.report, ref);
  if (!diff.empty()) die("run_scenario differs from the reference run: " + diff);
}

void print_header(const Args& a, const Workload& w, const h::Scenario& s) {
  std::cout << "# hostbench workload=" << w.name << " seed=" << a.seed
            << " (default " << w.seed << ", held-out " << w.holdout_seed
            << ") trace=" << a.trace << (a.quick ? " quick" : "") << "\n"
            << "# protocol=" << h::to_string(s.protocol)
            << " sites=" << s.topology.size() << " simulated "
            << static_cast<double>(s.duration) / 1e6 << "s (warmup "
            << static_cast<double>(s.warmup) / 1e6 << "s, quiesce tail from "
            << static_cast<double>(hostbench::quiesce_at(s)) / 1e6 << "s)\n"
            << "# simulated metrics (sim_*, completed_pct, counts) are exact "
               "for a seed: the simulation is deterministic, so repeated "
               "runs of one seed agree bit for bit by design. Host metrics "
               "(host_ns_per_cmd, setup_s, peak_rss_mb, *_ns_*) are "
               "measured and vary.\n";
}

void print_failures(const h::RunReport& r, const Observations& obs) {
  std::cout << "failures: submitted " << r.submitted << ", completed "
            << r.completed << "; lost when their node crashed "
            << obs.lost_in_crash << ", still in flight at the end "
            << obs.in_flight_at_end << ", shed by flow control "
            << r.flow_control.shed << "; refused at a crashed site (never "
            << "submitted) " << obs.refused_at_crashed_site
            << "; open-loop generator lateness max " << obs.max_lateness_us
            << " us\n";
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The reference run every mode starts with: the assembled pipeline without
/// spans, gated, with its failure accounting checked.
h::RunReport reference_run(const h::Scenario& s, const Workload& w,
                           Observations& obs) {
  h::RunReport ref = hostbench::run_assembled(s, nullptr, obs);
  const std::string bad = gate(ref, w, obs);
  if (!bad.empty()) die(bad);
  if (obs.rejoin_incomplete) die("a restarted node never caught up");
  if (ref.submitted - ref.completed != obs.lost_in_crash + obs.in_flight_at_end) {
    die("failure accounting does not add up");
  }
  if (obs.max_lateness_us != 0) die("open-loop generator ran late");
  return ref;
}

// ---------------------------------------------------------------------------
// Modes.
// ---------------------------------------------------------------------------

/// Times kSetups set-ups back to back. Every sample starts from the same
/// state: for a durable workload, an empty data dir whose earlier contents
/// (wiped by one untimed set-up) are flushed out of the page cache, so
/// write-back from the previous repetition does not stall the timing.
std::vector<double> setup_block(const h::Scenario& s) {
  {
    Observations untimed;
    hostbench::run_assembled(s, nullptr, untimed, /*setup_only=*/true);
    ::sync();
  }
  std::vector<double> setups;
  for (int i = 0; i < kSetups; ++i) {
    Observations setup_obs;
    hostbench::run_assembled(s, nullptr, setup_obs, /*setup_only=*/true);
    setups.push_back(setup_obs.setup_s);
  }
  return setups;
}

int run_end_to_end(const Args& a, const Workload& w, const h::Scenario& s) {
  SpeedGauge gauge;
  Observations ref_obs;
  const h::RunReport ref = reference_run(s, w, ref_obs);
  const SimMetrics sm = sim_metrics(ref, s);
  if (!a.quick && sm.beyond_p999 < 10) {
    die("fewer than 10 latency samples beyond p99.9");
  }

  // Every repetition follows a block of set-ups, and both are bracketed by
  // kernel runs and scaled by the machine speed those read. So a slowdown
  // lasting a few seconds is corrected where it happened, and the set-up
  // median covers the same stretch of the run as the repetitions'.
  std::vector<double> ns_per_cmd;
  std::vector<double> scaled;
  std::vector<double> walls;
  std::vector<std::vector<double>> setup_blocks;
  std::vector<std::size_t> marks;  // first kernel run before each repetition
  std::uint64_t attempted = ref.submitted;
  std::uint64_t failed = ref.submitted - ref.completed;
  const auto t0 = Clock::now();
  while (static_cast<int>(ns_per_cmd.size()) < kMinReps ||
         seconds_since(t0) < a.seconds) {
    marks.push_back(gauge.sample());
    setup_blocks.push_back(setup_block(s));
    const TimedRun t = timed_run(s, w);
    verify_rep(t, ref, ref_obs);
    walls.push_back(t.wall_s);
    ns_per_cmd.push_back(t.wall_s * 1e9 /
                         static_cast<double>(t.report.completed));
    attempted += t.report.submitted;
    failed += t.report.submitted - t.report.completed;
  }
  marks.push_back(gauge.sample());
  std::vector<double> setups;         // unscaled
  std::vector<double> scaled_setups;
  for (std::size_t i = 0; i < ns_per_cmd.size(); ++i) {
    const double f = gauge.factor(marks[i], marks[i + 1] + kKernelRuns);
    scaled.push_back(ns_per_cmd[i] * f);
    for (double x : setup_blocks[i]) {
      setups.push_back(x);
      scaled_setups.push_back(x * f);
    }
  }

  const std::vector<Metric> metrics{
      {"host_ns_per_cmd", median(scaled), "ns"},
      {"setup_s", median(scaled_setups), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"sim_tput_cmd_s", sm.tput, "cmd/s"},
      {"sim_lat_p50_ms", sm.p50, "ms"},
      {"sim_lat_p99_ms", sm.p99, "ms"},
      {"sim_lat_p999_ms", sm.p999, "ms"},
      {"completed_pct", sm.completed_pct, "%"},
  };

  print_header(a, w, s);
  std::cout << "host: " << walls.size() << " untraced repetitions of "
            << "run_scenario + check_cluster_consistency, wall s:";
  for (double x : walls) std::cout << " " << std::setprecision(4) << x;
  std::cout << "\nhost: scaled ns per command of each repetition:";
  for (double x : scaled) std::cout << " " << std::setprecision(6) << x;
  std::cout << "\nhost: machine-speed factor " << std::setprecision(4)
            << gauge.factor() << " from " << gauge.kernel_ns.size()
            << " calibration-kernel runs (median " << median(gauge.kernel_ns) / 1e6
            << " ms; checksum " << std::hex << gauge.sink << std::dec
            << ")\nhost: unscaled host_ns_per_cmd median " << std::setprecision(6)
            << median(ns_per_cmd) << " ns, unscaled setup_s median "
            << median(setups) << " s over " << setups.size() << " set-ups\n";
  std::cout << "latency samples " << sm.samples << " (" << sm.beyond_p999
            << " beyond p99.9); " << ref.completed << " commands completed\n"
            << "longest completion-free interval after warmup "
            << std::setprecision(6) << sm.outage_ms
            << " ms (not a metric: on the geo workloads it is the largest of "
               "many sub-millisecond gaps and varies too much from seed to "
               "seed to carry a bound)\n";
  print_failures(ref, ref_obs);
  std::cout << "correctness: oracle passed ("
            << (w.oracle.require_equal_sequences ? "equal sequences, "
                                                 : "per-key order, ")
            << "converged stores); " << ref_obs.acked.size()
            << " acknowledged commands present on every live replica; every "
               "repetition identical to the reference run\n";
  print_metric_lines(metrics);
  print_result(metrics, attempted, failed);
  return 0;
}

int run_traced(const Args& a, const Workload& w, const h::Scenario& s) {
  Observations ref_obs;
  const h::RunReport ref = reference_run(s, w, ref_obs);

  std::vector<double> untraced_walls;
  std::vector<double> traced_walls;
  std::optional<Tracer> kept_tracer;
  Observations obs;
  h::RunReport traced;
  SpeedGauge gauge;
  std::uint64_t attempted = ref.submitted;
  std::uint64_t failed = ref.submitted - ref.completed;
  const auto t0 = Clock::now();
  while (traced_walls.empty() || seconds_since(t0) < a.seconds) {
    const TimedRun t = timed_run(s, w);
    verify_rep(t, ref, ref_obs);
    untraced_walls.push_back(t.wall_s);

    gauge.sample();
    Tracer tracer(kKeptSpans);
    Observations o;
    const auto start = Clock::now();
    h::RunReport r = hostbench::run_assembled(s, &tracer, o);
    h::ConsistencyVerdict v;
    {
      hostbench::Span sp(&tracer, hostbench::SpanName::kHarnessOracle);
      v = h::check_cluster_consistency(r, w.oracle);
    }
    traced_walls.push_back(seconds_since(start));
    if (!v.ok) die("traced run: consistency oracle failed: " + v.detail);
    const std::string acked = check_acked(r.delivery_logs, r.crashed_at_end, o);
    if (!acked.empty()) die("traced run: " + acked);
    const std::string diff = compare_runs(r, t.report);
    if (!diff.empty()) die("traced run differs from the untraced run: " + diff);
    attempted += t.report.submitted + r.submitted;
    failed += (t.report.submitted - t.report.completed) +
              (r.submitted - r.completed);
    if (!kept_tracer) {
      r.delivery_logs.clear();  // only totals and counters are read below
      r.stores.clear();
      kept_tracer.emplace(std::move(tracer));
      obs = std::move(o);
      traced = std::move(r);
    }
  }
  const Tracer& tr = *kept_tracer;
  const double factor = gauge.factor();
  const double wall_ns = traced_walls.front() * 1e9;

  // Accounting: every span's self time sums to the root spans' time, and
  // the roots cover the traced wall time up to a small residual.
  if (tr.self_ns_sum() != tr.root_ns()) die("span self times do not add up");
  const double residual_ns = wall_ns - static_cast<double>(tr.root_ns());
  if (residual_ns < 0 || residual_ns > 0.02 * wall_ns) {
    die("spans do not account for the traced wall time");
  }

  const std::uint64_t done = traced.completed;
  const char* proto = protocol_layer(s.protocol);
  using hostbench::Layer;
  using hostbench::SpanName;
  // Host times, scaled to the reference machine speed like host_ns_per_cmd.
  auto self_per_cmd = [&](Layer l) {
    return factor * per(static_cast<double>(tr.layer_self_ns(l)), done);
  };
  auto incl_ns = [&](SpanName n) {
    return factor * static_cast<double>(tr.totals(n).incl_ns);
  };
  auto self_ns = [&](SpanName n) {
    return factor * static_cast<double>(tr.totals(n).self_ns);
  };
  const caesar::stats::ProtocolCounters c = traced.proto.counters();
  const double proto_self = self_per_cmd(Layer::kProtocol);
  const double proto_p99 = factor * p99(tr.protocol_call_ns());
  auto only = [&](const char* layer, double v) {
    return std::string(proto) == layer ? v : 0.0;
  };
  const double fast_pct = 100.0 * c.fast_path_fraction();

  const std::vector<Metric> metrics{
      {"sim.events_per_cmd", per(static_cast<double>(obs.events), done),
       "events/cmd"},
      {"sim.self_ns_per_event",
       factor * per(static_cast<double>(tr.layer_self_ns(Layer::kSim)),
                    obs.events),
       "ns/event"},
      {"sim.pending_p99", p99(obs.pending_samples), "events"},
      {"net.msgs_per_cmd", per(static_cast<double>(traced.messages), done),
       "msgs/cmd"},
      {"net.bytes_per_cmd", per(static_cast<double>(traced.bytes), done),
       "bytes/cmd"},
      {"net.frames_per_msg", per(static_cast<double>(obs.frames), obs.net_messages),
       "frames/msg"},
      {"runtime.self_ns_per_cmd", self_per_cmd(Layer::kRuntime), "ns/cmd"},
      {"runtime.send_ns_per_cmd",
       per(incl_ns(SpanName::kRuntimeSend) + incl_ns(SpanName::kRuntimeBroadcast) +
               incl_ns(SpanName::kRuntimeEncoder),
           done),
       "ns/cmd"},
      {"runtime.timers_per_cmd", per(static_cast<double>(obs.timers), done),
       "timers/cmd"},
      {"runtime.ops_per_batch",
       obs.batch_calls == 0
           ? 1.0
           : per(static_cast<double>(obs.batch_members), obs.batch_calls),
       "ops/batch"},
      {"runtime.cpu_util_max", 100.0 * obs.cpu_util_max, "%"},
      {"runtime.queue_depth_p99", p99(obs.queue_samples), "tasks"},
      {"runtime.catchup_cmds", static_cast<double>(c.catchup_commands), "cmds"},
      {"runtime.rejoin_ms", std::max(0.0, obs.rejoin_ms), "ms"},
      {"core.self_ns_per_cmd", only("core", proto_self), "ns/cmd"},
      {"core.call_ns_p99", only("core", proto_p99), "ns"},
      {"core.fast_path_pct", only("core", fast_pct), "%"},
      {"core.retries_per_kcmd",
       only("core", per(1000.0 * static_cast<double>(c.retries), done)),
       "1/kcmd"},
      {"core.waits_per_kcmd",
       only("core", per(1000.0 * static_cast<double>(c.waits), done)), "1/kcmd"},
      {"core.wait_p99_ms",
       only("core",
            static_cast<double>(traced.proto.wait_time.percentile(99)) / 1000.0),
       "ms"},
      {"epaxos.self_ns_per_cmd", only("epaxos", proto_self), "ns/cmd"},
      {"epaxos.call_ns_p99", only("epaxos", proto_p99), "ns"},
      {"epaxos.fast_path_pct", only("epaxos", fast_pct), "%"},
      {"mencius.self_ns_per_cmd", only("mencius", proto_self), "ns/cmd"},
      {"mencius.call_ns_p99", only("mencius", proto_p99), "ns"},
      {"storage.wal_appends_per_cmd",
       per(static_cast<double>(c.wal_appends), done), "appends/cmd"},
      {"storage.fsyncs_per_kcmd", per(1000.0 * static_cast<double>(c.fsyncs), done),
       "1/kcmd"},
      {"storage.snapshots", static_cast<double>(c.snapshots), "count"},
      {"storage.replay_ms", incl_ns(SpanName::kStorageRestart) / 1e6, "ms"},
      {"rsm.apply_ns_per_cmd", per(self_ns(SpanName::kRsmApply), done), "ns/cmd"},
      {"rsm.log_ns_per_cmd", per(self_ns(SpanName::kRsmLog), done), "ns/cmd"},
      {"workload.ns_per_cmd", self_per_cmd(Layer::kWorkload), "ns/cmd"},
      {"harness.self_ns_per_cmd", self_per_cmd(Layer::kHarness), "ns/cmd"},
      {"harness.oracle_ms", incl_ns(SpanName::kHarnessOracle) / 1e6, "ms"},
      {"trace.overhead_pct",
       100.0 * (median(traced_walls) / median(untraced_walls) - 1.0), "%"},
      {"trace.residual_pct", 100.0 * residual_ns / wall_ns, "%"},
      {"trace.spans_per_cmd", per(static_cast<double>(tr.spans_seen()), done),
       "spans/cmd"},
  };

  std::filesystem::create_directories(kOutDir);
  const std::string spans_path =
      std::string(kOutDir) + "/" + w.name + ".spans.tsv";
  if (!tr.write(spans_path, proto)) die("cannot write " + spans_path);

  print_header(a, w, s);
  std::cout << "traced run: simulated totals identical to the untraced run "
               "field by field; oracle and acknowledged-write checks passed\n";
  std::cout << "traced wall " << std::setprecision(4) << traced_walls.front()
            << " s; untraced median " << median(untraced_walls)
            << " s; traced median " << median(traced_walls) << " s over "
            << traced_walls.size() << " pairs\n";
  std::cout << "self time by layer (ns per completed command scaled by the "
               "machine-speed factor "
            << factor << ", share of traced wall):\n";
  const char* const names[] = {"sim",      "runtime", proto, "storage",
                               "rsm",      "workload", "harness"};
  for (std::size_t l = 0; l < hostbench::kLayers; ++l) {
    const double ns = static_cast<double>(tr.layer_self_ns(static_cast<Layer>(l)));
    std::cout << "  " << std::left << std::setw(10) << names[l] << std::right
              << std::setw(12) << std::setprecision(6) << factor * per(ns, done)
              << std::setw(9) << std::setprecision(3) << 100.0 * ns / wall_ns
              << "%\n";
  }
  std::cout << "  " << std::left << std::setw(10) << "residual" << std::right
            << std::setw(12) << std::setprecision(6)
            << factor * per(residual_ns, done)
            << std::setw(9) << std::setprecision(3)
            << 100.0 * residual_ns / wall_ns << "%\n";
  std::cout << "spans: " << tr.spans_seen() << " recorded, first "
            << tr.spans_kept() << " written to " << spans_path << "\n";
  print_failures(traced, obs);
  print_metric_lines(metrics);
  print_result(metrics, attempted, failed);
  return 0;
}

/// Self-check of the gate: a corrupted copy of one replica's delivery log
/// must fail it, once with an acknowledged command dropped and once with
/// two commands on one key swapped.
int run_corrupt_check(const Workload& w, const h::Scenario& s) {
  Observations obs;
  const h::RunReport ref = reference_run(s, w, obs);
  using caesar::rsm::Command;
  using caesar::rsm::DeliveryLog;
  const std::size_t victim = ref.delivery_logs.size() - 1;
  const DeliveryLog& orig = ref.delivery_logs[victim];
  std::map<std::uint64_t, std::vector<caesar::Key>> keys_of;
  for (const auto& [key, ids] : orig.per_key()) {
    for (std::uint64_t id : ids) keys_of[id].push_back(key);
  }
  auto rebuild = [&](std::vector<std::uint64_t> seq) {
    DeliveryLog log;
    for (std::uint64_t id : seq) {
      Command cmd;
      cmd.id = id;
      for (caesar::Key k : keys_of[id]) cmd.ops.push_back({k, 0, 0});
      log.record(cmd);
    }
    return log;
  };

  // (a) an acknowledged command vanishes from one replica.
  std::vector<std::uint64_t> dropped = orig.sequence();
  const std::uint64_t victim_cmd = obs.acked[obs.acked.size() / 2].first;
  dropped.erase(std::find(dropped.begin(), dropped.end(), victim_cmd));
  h::RunReport a = ref;
  a.delivery_logs[victim] = rebuild(dropped);
  const std::string why_a = gate(a, w, obs);

  // (b) two commands on one key swap places on one replica.
  std::vector<std::uint64_t> swapped = orig.sequence();
  for (const auto& [key, ids] : orig.per_key()) {
    if (ids.size() < 2) continue;
    auto x = std::find(swapped.begin(), swapped.end(), ids[0]);
    auto y = std::find(swapped.begin(), swapped.end(), ids[1]);
    std::iter_swap(x, y);
    break;
  }
  h::RunReport b = ref;
  b.delivery_logs[victim] = rebuild(swapped);
  const std::string why_b = gate(b, w, obs);

  std::cout << w.name << ": intact run passes the gate\n"
            << "  dropped acknowledged command -> "
            << (why_a.empty() ? "NOT DETECTED" : why_a) << "\n"
            << "  swapped per-key order        -> "
            << (why_b.empty() ? "NOT DETECTED" : why_b) << "\n";
  return why_a.empty() || why_b.empty() ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a0 = parse(argc, argv);
  if (a0.list) {
    for (const Workload& w : hostbench::workloads()) {
      std::cout << w.name << " seed=" << w.seed
                << " held-out-seed=" << w.holdout_seed << "\n";
    }
    return 0;
  }
  const Workload* w = hostbench::find_workload(a0.workload);
  if (w == nullptr) die("unknown workload '" + a0.workload + "'");
  Args a = a0;
  if (!a.seed_set) a.seed = w->seed;
  try {
    const h::Scenario s = w->make(a.seed, a.quick || a.corrupt_check);
    if (a.corrupt_check) return run_corrupt_check(*w, s);
    return a.trace == 1 ? run_traced(a, *w, s) : run_end_to_end(a, *w, s);
  } catch (const std::exception& e) {
    die(e.what());
  }
}
