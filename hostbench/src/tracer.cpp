#include "tracer.h"

#include <fstream>
#include <limits>

namespace hostbench {

namespace {

struct NameInfo {
  const char* name;
  Layer layer;
};

constexpr std::array<NameInfo, kSpanNames> kNames{{
    {"sim.run_until", Layer::kSim},
    {"harness.setup", Layer::kHarness},
    {"harness.collect", Layer::kHarness},
    {"harness.teardown", Layer::kHarness},
    {"harness.oracle", Layer::kHarness},
    {"harness.mirror", Layer::kHarness},
    {"runtime.send", Layer::kRuntime},
    {"runtime.broadcast", Layer::kRuntime},
    {"runtime.encoder", Layer::kRuntime},
    {"runtime.submit", Layer::kRuntime},
    {"proto.on_message", Layer::kProtocol},
    {"proto.propose", Layer::kProtocol},
    {"proto.propose_batch", Layer::kProtocol},
    {"proto.timer", Layer::kProtocol},
    {"proto.control", Layer::kProtocol},
    {"storage.restart", Layer::kStorage},
    {"rsm.apply", Layer::kRsm},
    {"rsm.log", Layer::kRsm},
    {"workload.on_delivery", Layer::kWorkload},
    {"workload.submit", Layer::kWorkload},
}};

const char* const kLayerNames[kLayers] = {"sim",     "runtime", "protocol",
                                          "storage", "rsm",     "workload",
                                          "harness"};

}  // namespace

const char* span_name(SpanName n) {
  return kNames[static_cast<std::size_t>(n)].name;
}

Layer layer_of(SpanName n) { return kNames[static_cast<std::size_t>(n)].layer; }

Tracer::Tracer(std::size_t keep) : epoch_(Clock::now()), keep_(keep) {
  kept_.reserve(keep);
  stack_.reserve(64);
}

void Tracer::begin(SpanName name, std::uint64_t cmd) {
  ++seen_;
  std::int32_t kept = -1;
  if (kept_.size() < keep_) {
    kept = static_cast<std::int32_t>(kept_.size());
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back().kept;
    kept_.push_back(Kept{0, 0, cmd, parent, name});
  }
  // Read the clock last so the bookkeeping above is charged to the parent.
  stack_.push_back(Open{now_ns(), 0, kept, name});
}

void Tracer::end() {
  const std::uint64_t t = now_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = t - open.start_ns;
  // Clock reads are monotone, so a child never outlasts its parent.
  const std::uint64_t self = dur - open.child_ns;
  Totals& tot = totals_[static_cast<std::size_t>(open.name)];
  ++tot.calls;
  tot.incl_ns += dur;
  tot.self_ns += self;
  if (layer_of(open.name) == Layer::kProtocol) {
    protocol_call_ns_.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(dur, std::numeric_limits<std::uint32_t>::max())));
  }
  if (open.kept >= 0) {
    kept_[static_cast<std::size_t>(open.kept)].start_ns = open.start_ns;
    kept_[static_cast<std::size_t>(open.kept)].end_ns = t;
  }
  if (stack_.empty()) {
    root_ns_ += dur;
  } else {
    stack_.back().child_ns += dur;
  }
}

std::uint64_t Tracer::layer_self_ns(Layer l) const {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < kSpanNames; ++i) {
    if (layer_of(static_cast<SpanName>(i)) == l) sum += totals_[i].self_ns;
  }
  return sum;
}

std::uint64_t Tracer::self_ns_sum() const {
  std::uint64_t sum = 0;
  for (const Totals& t : totals_) sum += t.self_ns;
  return sum;
}

bool Tracer::write(const std::string& path, const char* protocol_layer) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "id\tparent\tname\tlayer\tstart_ns\tend_ns\tcmd\n";
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    const Layer layer = layer_of(k.name);
    out << i << '\t' << k.parent << '\t' << span_name(k.name) << '\t'
        << (layer == Layer::kProtocol
                ? protocol_layer
                : kLayerNames[static_cast<std::size_t>(layer)])
        << '\t' << k.start_ns << '\t' << k.end_ns << '\t' << k.cmd << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace hostbench
