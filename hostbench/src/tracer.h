// In-memory span tracer for the benchmark's traced run.
//
// A span is one call into a layer, recorded from the benchmark's own
// wrappers around that layer's public functions: name, start, end, parent
// span, and the command id when the call carries one. A layer's self time is
// its spans' durations minus the time their child spans cover; whatever is
// left of `sim.run_until` after its children is the simulator's own work
// (event heap, network-delivery closures, node dispatch).
//
// Self and inclusive times are aggregated online for every span. The spans
// themselves are kept in memory up to a cap (the first spans of the run) and
// written out when the benchmark ends.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace hostbench {

enum class Layer : std::uint8_t {
  kSim,
  kRuntime,
  kProtocol,  // reported under the protocol's own module: core/epaxos/mencius
  kStorage,
  kRsm,
  kWorkload,
  kHarness,
  kCount
};

enum class SpanName : std::uint8_t {
  kSimRunUntil,
  kHarnessSetup,
  kHarnessCollect,
  kHarnessTeardown,
  kHarnessOracle,
  kHarnessMirror,
  kRuntimeSend,
  kRuntimeBroadcast,
  kRuntimeEncoder,
  kRuntimeSubmit,
  kProtoMessage,
  kProtoPropose,
  kProtoProposeBatch,
  kProtoTimer,
  kProtoControl,  // start, FD upcalls, recover/restore, catch-up frames
  kStorageRestart,
  kRsmApply,
  kRsmLog,
  kWorkloadDelivery,
  kWorkloadSubmit,
  kCount
};

inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
inline constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::kCount);

const char* span_name(SpanName n);
Layer layer_of(SpanName n);

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t incl_ns = 0;
    std::uint64_t self_ns = 0;
  };

  /// Keeps at most `keep` spans in memory; later spans still aggregate.
  explicit Tracer(std::size_t keep);

  void begin(SpanName name, std::uint64_t cmd = 0);
  void end();

  const Totals& totals(SpanName n) const {
    return totals_[static_cast<std::size_t>(n)];
  }
  std::uint64_t layer_self_ns(Layer l) const;
  /// Sum of the durations of spans with no parent. Equals the sum of every
  /// span's self time when the nesting bookkeeping is sound.
  std::uint64_t root_ns() const { return root_ns_; }
  std::uint64_t self_ns_sum() const;
  /// Inclusive durations of protocol-layer calls, one entry per call.
  const std::vector<std::uint32_t>& protocol_call_ns() const {
    return protocol_call_ns_;
  }
  std::uint64_t spans_seen() const { return seen_; }
  std::size_t spans_kept() const { return kept_.size(); }

  /// Writes the kept spans as tab-separated lines:
  /// id parent name layer start_ns end_ns cmd (parent -1 = root; times are
  /// relative to the tracer's construction).
  bool write(const std::string& path, const char* protocol_layer) const;

 private:
  struct Kept {
    std::uint64_t start_ns;
    std::uint64_t end_ns;
    std::uint64_t cmd;
    std::int32_t parent;
    SpanName name;
  };
  struct Open {
    std::uint64_t start_ns;
    std::uint64_t child_ns;
    std::int32_t kept;  // index into kept_, or -1
    SpanName name;
  };

  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             epoch_)
            .count());
  }

  Clock::time_point epoch_;
  std::size_t keep_;
  std::vector<Kept> kept_;
  std::vector<Open> stack_;
  std::array<Totals, kSpanNames> totals_{};
  std::vector<std::uint32_t> protocol_call_ns_;
  std::uint64_t root_ns_ = 0;
  std::uint64_t seen_ = 0;
};

/// RAII span; a null tracer makes it a no-op, so the same wrappers serve the
/// untraced reference run.
class Span {
 public:
  Span(Tracer* t, SpanName name, std::uint64_t cmd = 0) : t_(t) {
    if (t_ != nullptr) t_->begin(name, cmd);
  }
  ~Span() {
    if (t_ != nullptr) t_->end();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* t_;
};

}  // namespace hostbench
