#include "harness/report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace caesar::harness {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << "  ";
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : "";
      os << std::left << std::setw(static_cast<int>(widths[c]) + 2) << cell;
    }
    os << "\n";
  };
  print_row(headers_);
  std::string rule;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += std::string(widths[c], '-') + "  ";
  }
  os << "  " << rule << "\n";
  for (const auto& row : rows_) print_row(row);
}

std::string Table::ms(double us) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << us / 1000.0;
  return os.str();
}

std::string Table::pct(double fraction) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(1) << fraction * 100.0 << "%";
  return os.str();
}

std::string Table::num(double v, int decimals) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(decimals) << v;
  return os.str();
}

void print_figure_header(const std::string& figure,
                         const std::string& description,
                         const std::string& paper_expectation) {
  std::cout << "\n================================================================\n"
            << figure << ": " << description << "\n"
            << "Paper expectation: " << paper_expectation << "\n"
            << "================================================================\n";
}

// ---------------------------------------------------------------------------
// ASCII report renderers
// ---------------------------------------------------------------------------

void print_report(const RunReport& r, std::ostream& os) {
  Table sites({"site", "mean(ms)", "p50(ms)", "p99(ms)", "requests"});
  for (const auto& site : r.sites) {
    sites.add_row(
        {site.name, Table::ms(site.latency.mean()),
         Table::ms(static_cast<double>(site.latency.percentile(50))),
         Table::ms(static_cast<double>(site.latency.percentile(99))),
         std::to_string(site.latency.count())});
  }
  sites.print(os);

  if (r.windows.size() > 1) {
    os << "\n";
    Table wins({"window", "t(s)", "tput(cmd/s)", "mean(ms)", "p99(ms)",
                "fast-path%", "msgs"});
    for (const auto& w : r.windows) {
      std::ostringstream span;
      span << std::fixed << std::setprecision(1)
           << static_cast<double>(w.begin) / kSec << "-"
           << static_cast<double>(w.end) / kSec;
      wins.add_row({w.label, span.str(), Table::num(w.throughput_tps(), 0),
                    Table::ms(w.latency.mean()),
                    Table::ms(static_cast<double>(w.latency.percentile(99))),
                    Table::pct(w.proto.fast_path_fraction()),
                    std::to_string(w.messages)});
    }
    wins.print(os);
  }

  if (r.sharded()) {
    os << "\n";
    Table shards({"group", "routed", "completed", "tput(cmd/s)", "mean(ms)",
                  "p99(ms)", "msgs", "consistent"});
    for (const auto& s : r.shards) {
      shards.add_row(
          {std::to_string(s.group), std::to_string(s.routed),
           std::to_string(s.completed), Table::num(s.throughput_tps, 0),
           Table::ms(s.latency.mean()),
           Table::ms(static_cast<double>(s.latency.percentile(99))),
           std::to_string(s.messages), s.consistent ? "yes" : "NO"});
    }
    shards.print(os);
    os << "\nrouter: " << r.shards.size() << " groups, " << r.router.partition
       << " partition\nreroutes: " << r.router.reroutes;
  }

  os << "\nthroughput: " << Table::num(r.throughput_tps, 0) << " cmd/s"
     << "\ncompleted: " << r.completed << " / submitted: " << r.submitted
     << "\nfast decisions: " << r.proto.fast_decisions
     << "  slow: " << r.proto.slow_decisions
     << "  retries: " << r.proto.retries
     << "  recoveries: " << r.proto.recoveries
     << "\nmessages: " << r.messages << "  bytes: " << r.bytes;
  if (r.fd_suspicions > 0 || r.fd_retractions > 0) {
    os << "\nfd suspicions: " << r.fd_suspicions
       << "  retractions: " << r.fd_retractions;
  }
  if (r.flow_control.enabled) {
    os << "\nflow control: admitted " << r.flow_control.admitted
       << "  deferred " << r.flow_control.deferred << "  shed "
       << r.flow_control.shed;
  }
  if (r.proto.catchup_requests > 0 || r.proto.revocations > 0) {
    os << "\ncatch-up requests: " << r.proto.catchup_requests
       << "  chunks: " << r.proto.catchup_chunks
       << "  commands replayed: " << r.proto.catchup_commands
       << "  revocations: " << r.proto.revocations;
  }
  if (r.proto.wal_appends > 0) {
    os << "\nwal appends: " << r.proto.wal_appends
       << "  fsyncs: " << r.proto.fsyncs
       << "  snapshots: " << r.proto.snapshots
       << "  truncated segments: " << r.proto.truncated_segments;
  }
  os << "\nconsistent: " << (r.consistent ? "yes" : "NO") << "\n";
}

void print_diff(const RunReportDiff& d, std::ostream& os) {
  os << "A = " << d.label_a << "\nB = " << d.label_b << "\n";
  Table t({"metric", "A", "B", "B/A"});
  for (const MetricRatio& m : d.metrics) {
    t.add_row({m.metric, Table::num(m.a, 2), Table::num(m.b, 2),
               m.ratio_defined() ? Table::num(m.ratio(), 3) + "x" : "-"});
  }
  t.print(os);
}

// ---------------------------------------------------------------------------
// JSON emitters
// ---------------------------------------------------------------------------

namespace {

constexpr const char* kSchema = "caesar-run-report/1";

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Deterministic number formatting: integral values print as integers,
/// everything else with six significant digits — stable across platforms,
/// which the golden tests rely on.
std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// With `extended`, adds the upper percentiles (p95/p999) the
/// protocol-internal pools carry: wait times and phase breakdowns are
/// long-tailed, which the paper's Fig 11 discussion leans on.
void latency_json(std::ostream& os, const stats::LatencyStats& l,
                  bool extended = false) {
  os << "{\"count\":" << l.count() << ",\"mean\":" << json_num(l.mean())
     << ",\"min\":" << l.min() << ",\"max\":" << l.max()
     << ",\"p50\":" << l.percentile(50) << ",\"p90\":" << l.percentile(90);
  if (extended) os << ",\"p95\":" << l.percentile(95);
  os << ",\"p99\":" << l.percentile(99);
  if (extended) os << ",\"p999\":" << l.percentile(99.9);
  os << "}";
}

void counters_json(std::ostream& os, const stats::ProtocolCounters& c) {
  char sep = '{';
  for (const stats::CounterField& f : stats::kCounterFields) {
    os << sep << '"' << f.name << "\":" << c.*f.member;
    sep = ',';
  }
  os << ",\"fast_path_fraction\":" << json_num(c.fast_path_fraction()) << "}";
}

/// One extended latency block per pool, keyed by its kPoolFields name.
void pools_json(std::ostream& os, const stats::PhasePools& p) {
  char sep = '{';
  for (const stats::PoolField& f : stats::kPoolFields) {
    os << sep << '"' << f.name << "\":";
    latency_json(os, p.*f.member, /*extended=*/true);
    sep = ',';
  }
  os << "}";
}

void provenance_json(std::ostream& os, const Provenance& p) {
  os << "{\"scenario\":\"" << json_escape(p.scenario) << "\",\"protocol\":\""
     << json_escape(p.protocol) << "\",\"seed\":" << p.seed
     << ",\"duration_us\":" << p.duration << ",\"warmup_us\":" << p.warmup
     << ",\"build\":\"" << json_escape(p.build) << "\",\"sites\":[";
  for (std::size_t i = 0; i < p.sites.size(); ++i) {
    if (i) os << ",";
    os << "\"" << json_escape(p.sites[i]) << "\"";
  }
  os << "]}";
}

void window_json(std::ostream& os, const stats::MetricsWindow& w) {
  os << "{\"label\":\"" << json_escape(w.label) << "\",\"begin_us\":" << w.begin
     << ",\"end_us\":" << w.end << ",\"phase\":" << w.phase
     << ",\"completed\":" << w.completed() << ",\"submitted\":" << w.submitted
     << ",\"throughput_tps\":" << json_num(w.throughput_tps())
     << ",\"messages\":" << w.messages << ",\"bytes\":" << w.bytes
     << ",\"latency_us\":";
  latency_json(os, w.latency);
  os << ",\"protocol\":";
  counters_json(os, w.proto);
  // Per-window slices of the protocol-internal pools, mirroring the run-wide
  // phase_latency_us block in "totals".
  os << ",\"phase_latency_us\":";
  pools_json(os, w);
  os << "}";
}

}  // namespace

std::string to_json(const RunReport& r) {
  std::ostringstream os;
  os << "{\"schema\":\"" << kSchema << "\",\"provenance\":";
  provenance_json(os, r.provenance);

  os << ",\"totals\":{\"completed\":" << r.completed
     << ",\"submitted\":" << r.submitted
     << ",\"throughput_tps\":" << json_num(r.throughput_tps)
     << ",\"messages\":" << r.messages << ",\"bytes\":" << r.bytes
     << ",\"consistent\":" << (r.consistent ? "true" : "false")
     << ",\"latency_us\":";
  latency_json(os, r.total_latency);
  os << ",\"protocol\":";
  counters_json(os, r.proto.counters());
  // Percentile summaries of the protocol-internal pools (paper Fig 11):
  // wait-condition park times and the leader's phase breakdown.
  os << ",\"phase_latency_us\":";
  pools_json(os, r.proto);
  os << "}";

  os << ",\"windows\":[";
  for (std::size_t i = 0; i < r.windows.size(); ++i) {
    if (i) os << ",";
    window_json(os, r.windows[i]);
  }
  os << "]";

  os << ",\"sites\":[";
  for (std::size_t i = 0; i < r.sites.size(); ++i) {
    if (i) os << ",";
    os << "{\"name\":\"" << json_escape(r.sites[i].name)
       << "\",\"latency_us\":";
    latency_json(os, r.sites[i].latency);
    os << "}";
  }
  os << "]";

  os << ",\"timeline\":{\"bucket_us\":" << r.timeline.bucket_width()
     << ",\"rates_tps\":[";
  for (std::size_t b = 0; b < r.timeline.bucket_count(); ++b) {
    if (b) os << ",";
    os << json_num(r.timeline.rate_at(b));
  }
  os << "]}";

  os << ",\"fd\":{\"suspicions\":" << r.fd_suspicions
     << ",\"retractions\":" << r.fd_retractions << "}";

  // Flow-control counters only appear when the scenario enabled admission
  // gating; the classic document is unchanged (golden tests rely on that).
  if (r.flow_control.enabled) {
    os << ",\"flow_control\":{\"admitted\":" << r.flow_control.admitted
       << ",\"deferred\":" << r.flow_control.deferred
       << ",\"shed\":" << r.flow_control.shed << "}";
  }

  // Sharded runs append the router counters and the per-group rollups; the
  // classic single-group document is unchanged (golden tests rely on that).
  if (r.sharded()) {
    os << ",\"router\":{\"groups\":" << r.shards.size() << ",\"partition\":\""
       << json_escape(r.router.partition)
       << "\",\"reroutes\":" << r.router.reroutes << "}";
    os << ",\"shards\":[";
    for (std::size_t i = 0; i < r.shards.size(); ++i) {
      const ShardMetrics& s = r.shards[i];
      if (i) os << ",";
      os << "{\"group\":" << s.group << ",\"routed\":" << s.routed
         << ",\"completed\":" << s.completed
         << ",\"throughput_tps\":" << json_num(s.throughput_tps)
         << ",\"messages\":" << s.messages << ",\"bytes\":" << s.bytes
         << ",\"consistent\":" << (s.consistent ? "true" : "false")
         << ",\"fd\":{\"suspicions\":" << s.fd_suspicions
         << ",\"retractions\":" << s.fd_retractions << "},\"latency_us\":";
      latency_json(os, s.latency);
      os << ",\"protocol\":";
      counters_json(os, s.proto.counters());
      os << ",\"windows\":[";
      for (std::size_t w = 0; w < s.windows.size(); ++w) {
        if (w) os << ",";
        window_json(os, s.windows[w]);
      }
      os << "]}";
    }
    os << "]";
  }
  os << "}";
  return os.str();
}

std::string to_json(const RunReportDiff& d) {
  std::ostringstream os;
  os << "{\"a\":\"" << json_escape(d.label_a) << "\",\"b\":\""
     << json_escape(d.label_b) << "\",\"metrics\":[";
  for (std::size_t i = 0; i < d.metrics.size(); ++i) {
    const MetricRatio& m = d.metrics[i];
    if (i) os << ",";
    os << "{\"metric\":\"" << json_escape(m.metric)
       << "\",\"a\":" << json_num(m.a) << ",\"b\":" << json_num(m.b)
       << ",\"ratio\":"
       << (m.ratio_defined() ? json_num(m.ratio()) : "null") << "}";
  }
  os << "]}";
  return os.str();
}

// ---------------------------------------------------------------------------
// JsonReportFile
// ---------------------------------------------------------------------------

namespace {

std::string json_path_from_args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      if (i + 1 >= argc || argv[i + 1][0] == '\0') {
        // Fail fast: a silently-inert report file after a minutes-long bench
        // run is worse than refusing to start.
        std::cerr << "--json requires a file path\n";
        std::exit(2);
      }
      return argv[i + 1];
    }
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      if (argv[i][7] == '\0') {
        std::cerr << "--json requires a file path\n";
        std::exit(2);
      }
      return argv[i] + 7;
    }
  }
  return {};
}

}  // namespace

JsonReportFile::JsonReportFile(std::string bench, int argc, char** argv)
    : bench_(std::move(bench)), path_(json_path_from_args(argc, argv)) {}

JsonReportFile::JsonReportFile(std::string bench, std::string path)
    : bench_(std::move(bench)), path_(std::move(path)) {}

void JsonReportFile::add(const std::string& label, const RunReport& r) {
  if (!enabled()) return;
  runs_.push_back("{\"label\":\"" + json_escape(label) +
                  "\",\"report\":" + to_json(r) + "}");
}

void JsonReportFile::add(const RunReportDiff& d) {
  if (!enabled()) return;
  diffs_.push_back(to_json(d));
}

bool JsonReportFile::write() const {
  if (!enabled()) return true;
  std::ofstream out(path_);
  if (!out) {
    std::cerr << "cannot open " << path_ << " for writing\n";
    return false;
  }
  out << "{\"schema\":\"" << kSchema << "\",\"bench\":\""
      << json_escape(bench_) << "\",\"build\":\""
      << json_escape(build_version()) << "\",\"runs\":[";
  for (std::size_t i = 0; i < runs_.size(); ++i) {
    if (i) out << ",";
    out << runs_[i];
  }
  out << "],\"diffs\":[";
  for (std::size_t i = 0; i < diffs_.size(); ++i) {
    if (i) out << ",";
    out << diffs_[i];
  }
  out << "]}\n";
  out.close();
  if (!out) {
    std::cerr << "failed writing " << path_ << "\n";
    return false;
  }
  std::cerr << "wrote JSON report: " << path_ << "\n";
  return true;
}

}  // namespace caesar::harness
