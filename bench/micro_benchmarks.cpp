// Google-benchmark micro-benchmarks for the hot data structures the
// protocols lean on: serialization, the event queue (slab schedule/cancel/
// run), IdSet unions, the per-key conflict index, and the CAESAR
// wait-condition wakeup path end to end.
//
// `--json <file>` (or `--json=<file>`) writes the google-benchmark JSON
// document to <file>; tools/bench_diff.py compares two such documents and
// flags regressions against the committed BENCH_baseline.json.
#include <benchmark/benchmark.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/idset.h"
#include "core/caesar.h"
#include "core/key_index.h"
#include "core/timestamp.h"
#include "net/serialization.h"
#include "net/topology.h"
#include "rsm/command.h"
#include "runtime/cluster.h"
#include "sim/simulator.h"
#include "stats/latency_stats.h"

namespace {

using namespace caesar;

void BM_EncodeCommand(benchmark::State& state) {
  rsm::Command cmd;
  cmd.id = make_cmd_id(2, 77);
  cmd.origin = 2;
  for (int i = 0; i < state.range(0); ++i) {
    cmd.ops.push_back(rsm::Op{static_cast<Key>(i), make_req_id(2, i), 42});
  }
  cmd.finalize();
  for (auto _ : state) {
    net::Encoder e(64);
    cmd.encode(e);
    benchmark::DoNotOptimize(e.buffer().data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EncodeCommand)->Arg(1)->Arg(16)->Arg(128);

void BM_DecodeCommand(benchmark::State& state) {
  rsm::Command cmd;
  cmd.id = make_cmd_id(2, 77);
  cmd.origin = 2;
  for (int i = 0; i < state.range(0); ++i) {
    cmd.ops.push_back(rsm::Op{static_cast<Key>(i), make_req_id(2, i), 42});
  }
  cmd.finalize();
  net::Encoder e;
  cmd.encode(e);
  const auto buf = e.buffer();
  for (auto _ : state) {
    net::Decoder d{std::span<const std::byte>(buf)};
    rsm::Command back = rsm::Command::decode(d);
    benchmark::DoNotOptimize(back.ops.data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DecodeCommand)->Arg(1)->Arg(16)->Arg(128);

void BM_IdSetDeltaEncode(benchmark::State& state) {
  IdSet s;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    s.insert(make_cmd_id(static_cast<NodeId>(i % 5), 1000 + i));
  }
  for (auto _ : state) {
    net::Encoder e(1024);
    e.put_id_set(s);
    benchmark::DoNotOptimize(e.buffer().data());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * 8);
}
BENCHMARK(BM_IdSetDeltaEncode)->Arg(16)->Arg(256)->Arg(4096);

void BM_IdSetMerge(benchmark::State& state) {
  IdSet a, b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    a.insert(static_cast<std::uint64_t>(i * 2));
    b.insert(static_cast<std::uint64_t>(i * 2 + 1));
  }
  for (auto _ : state) {
    IdSet c = a;
    c.merge(b);
    benchmark::DoNotOptimize(c.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_IdSetMerge)->Arg(16)->Arg(256)->Arg(4096);

void BM_IdSetMergeSubset(benchmark::State& state) {
  // The dominant union shape at a leader: a reply echoes a predecessor set
  // the coordinator already holds. The subset fast path skips reallocation.
  IdSet a, b;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    a.insert(static_cast<std::uint64_t>(i));
    if (i % 2 == 0) b.insert(static_cast<std::uint64_t>(i));
  }
  for (auto _ : state) {
    a.merge(b);
    benchmark::DoNotOptimize(a.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 2);
}
BENCHMARK(BM_IdSetMergeSubset)->Arg(16)->Arg(256)->Arg(4096);

void BM_EventQueueChurn(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim(1);
    int fired = 0;
    for (int i = 0; i < state.range(0); ++i) {
      sim.after(static_cast<Time>(sim.rng().uniform_int(10000)),
                [&fired] { ++fired; });
    }
    sim.run();
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueChurn)->Arg(1000)->Arg(10000);

void BM_EventQueueLargeCaptureChurn(benchmark::State& state) {
  // The dominant slab shape in a real run: service continuations and packet
  // handlers capture ~40-56 bytes (this + shared_ptr payload + epoch), which
  // overflows libstdc++'s 16-byte std::function SBO and costs one heap
  // allocation per scheduled event. The slab's intrusive small-buffer
  // callable (sim/inline_fn.h, 48-byte buffer) keeps these inline.
  // Measured on the reference container, CPU time per iteration:
  //   std::function slab:  113 us (n=1000)   1747 us (n=10000)
  //   InlineFn slab:        72 us (n=1000)   1632 us (n=10000)
  struct Capture {
    std::uint64_t a, b, c, d, e;  // 40 bytes: past std::function's SBO
  };
  for (auto _ : state) {
    sim::Simulator sim(1);
    std::uint64_t acc = 0;
    for (int i = 0; i < state.range(0); ++i) {
      Capture cap{static_cast<std::uint64_t>(i), 1, 2, 3, 4};
      sim.after(static_cast<Time>(sim.rng().uniform_int(10000)),
                [&acc, cap] { acc += cap.a + cap.e; });
    }
    sim.run();
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EventQueueLargeCaptureChurn)->Arg(1000)->Arg(10000);

void BM_EventQueueScheduleCancel(benchmark::State& state) {
  // The protocol-timeout pattern: timers are armed per proposal and almost
  // always cancelled before firing (fast decisions beat the fast timeout).
  sim::Simulator sim(1);
  constexpr int kBatch = 64;
  std::array<sim::EventId, kBatch> ids{};
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      ids[static_cast<std::size_t>(i)] =
          sim.after(static_cast<Time>(1000 + i), [] {});
    }
    for (sim::EventId id : ids) sim.cancel(id);
    // One empty step drains the stale heap entries, as the sim loop would.
    benchmark::DoNotOptimize(sim.step());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
}
BENCHMARK(BM_EventQueueScheduleCancel);

void BM_EventQueueReschedule(benchmark::State& state) {
  // Failure-detector heartbeats: a pending timer pushed back, then fired.
  // Each iteration is one full arm + live-cancel + re-arm + (stale-skip,
  // run) cycle, with the heap drained inside the iteration so stale entries
  // cannot accumulate across iterations.
  sim::Simulator sim(1);
  std::uint64_t fired = 0;
  for (auto _ : state) {
    const sim::EventId id = sim.after(10, [] {});
    sim.cancel(id);  // the timer is still pending: a live cancel
    sim.after(20, [&fired] { ++fired; });
    sim.run_until(sim.now() + 20);  // skips the stale entry, runs the re-arm
  }
  benchmark::DoNotOptimize(fired);
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventQueueReschedule);

void BM_KeyIndexScan(benchmark::State& state) {
  // The CAESAR COMPUTEPREDECESSORS pattern: an ordered below-bound scan of
  // one key's flat sorted-vector index.
  core::KeyIndex index;
  constexpr Key kKey = 7;
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    index.put(kKey,
              core::Timestamp{static_cast<std::uint64_t>(i + 1),
                              static_cast<NodeId>(i % 5)},
              make_cmd_id(static_cast<NodeId>(i % 5), i));
  }
  const core::Timestamp bound{static_cast<std::uint64_t>(state.range(0) / 2), 0};
  for (auto _ : state) {
    std::vector<std::uint64_t> pred;
    const core::KeyIndex::EntryList* list = index.find(kKey);
    const auto below = core::KeyIndex::lower_bound(*list, bound);
    for (auto it = list->begin(); it != below; ++it) pred.push_back(it->id);
    benchmark::DoNotOptimize(pred.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) / 2);
}
BENCHMARK(BM_KeyIndexScan)->Arg(64)->Arg(1024);

void BM_KeyIndexMutate(benchmark::State& state) {
  // H.UPDATE churn: re-timestamping a command erases and reinserts its index
  // entry; the flat index pays two memmoves inside one allocation.
  core::KeyIndex index;
  constexpr Key kKey = 7;
  const std::int64_t n = state.range(0);
  for (std::int64_t i = 0; i < n; ++i) {
    index.put(kKey, core::Timestamp{static_cast<std::uint64_t>(2 * i + 1), 0},
              make_cmd_id(0, i));
  }
  std::uint64_t tick = 0;
  for (auto _ : state) {
    const std::uint64_t slot = (tick % static_cast<std::uint64_t>(n));
    const core::Timestamp old_ts{2 * slot + 1, 0};
    index.erase(kKey, old_ts);
    index.put(kKey, old_ts, make_cmd_id(1, tick));
    ++tick;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_KeyIndexMutate)->Arg(64)->Arg(1024);

void BM_CaesarParkedWakeup(benchmark::State& state) {
  // End-to-end wait-condition stress: every node proposes to the same key at
  // once, so acceptors park proposals and the waiter index drives wakeups.
  // Counts delivered commands per second of wall clock across the whole
  // stack (simulator, network, runtime, protocol).
  const std::int64_t per_node = state.range(0);
  std::uint64_t delivered_total = 0;
  for (auto _ : state) {
    sim::Simulator sim(42);
    std::vector<stats::ProtocolStats> stats(5);
    std::uint64_t delivered = 0;
    rt::Cluster cluster(
        sim, net::Topology::lan(5), rt::ClusterConfig{},
        [&](rt::Env& env, rt::Protocol::DeliverFn deliver) {
          return std::make_unique<core::Caesar>(env, std::move(deliver),
                                                core::CaesarConfig{},
                                                &stats[env.id()]);
        },
        [&](NodeId, const rsm::Command&) { ++delivered; });
    cluster.start();
    std::uint64_t req = 0;
    for (std::int64_t i = 0; i < per_node; ++i) {
      for (NodeId n = 0; n < 5; ++n) {
        sim.at(static_cast<Time>(i) * 100, [&cluster, n, &req] {
          rsm::Command c;
          c.ops.push_back(rsm::Op{1, make_req_id(n, ++req), req});
          cluster.node(n).submit(std::move(c));
        });
      }
    }
    sim.run();
    delivered_total += delivered;
    benchmark::DoNotOptimize(delivered);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(delivered_total));
}
BENCHMARK(BM_CaesarParkedWakeup)->Arg(20)->Arg(100);

void BM_LatencyPercentiles(benchmark::State& state) {
  // The report-emission pattern: many percentile reads over a settled pool.
  // The sorted cache makes every read after the first O(1) instead of a full
  // copy + nth_element per call.
  stats::LatencyStats s;
  Rng rng(7);
  for (std::int64_t i = 0; i < state.range(0); ++i) {
    s.record(static_cast<Time>(rng.uniform_int(1'000'000)));
  }
  for (auto _ : state) {
    Time sum = 0;
    for (double p : {50.0, 90.0, 95.0, 99.0, 99.9}) sum += s.percentile(p);
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 5);
}
BENCHMARK(BM_LatencyPercentiles)->Arg(1024)->Arg(1 << 20);

void BM_TimestampClock(benchmark::State& state) {
  core::TimestampClock clock(3);
  for (auto _ : state) {
    clock.observe(core::Timestamp{clock.raw() + 2, 1});
    benchmark::DoNotOptimize(clock.next());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimestampClock);

}  // namespace

// Custom main: `--json <file>` / `--json=<file>` is sugar for google
// benchmark's --benchmark_out/--benchmark_out_format pair, matching the
// --json flag every scenario bench in this repo takes.
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    const char* arg = argv[i];
    std::string path;
    if (std::strcmp(arg, "--json") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else if (std::strncmp(arg, "--json=", 7) == 0) {
      path = arg + 7;
    } else {
      args.emplace_back(arg);
      continue;
    }
    args.push_back("--benchmark_out=" + path);
    args.push_back("--benchmark_out_format=json");
  }
  std::vector<char*> argv2;
  argv2.reserve(args.size());
  for (std::string& a : args) argv2.push_back(a.data());
  int argc2 = static_cast<int>(argv2.size());
  benchmark::Initialize(&argc2, argv2.data());
  if (benchmark::ReportUnrecognizedArguments(argc2, argv2.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
