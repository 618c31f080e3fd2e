#include "runtime/node.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>

#include "runtime/cluster.h"

namespace caesar::rt {
namespace {

/// Test protocol: echoes every proposal to all peers through the framed
/// env.encoder() path the real protocols use; peers deliver on receipt;
/// also exposes hooks for timer and CPU-charging tests.
class EchoProtocol final : public Protocol {
 public:
  EchoProtocol(Env& env, DeliverFn deliver, Time charge = 0)
      : Protocol(env, std::move(deliver)), charge_(charge) {}

  void propose(rsm::Command cmd) override {
    proposed.push_back(cmd);
    net::Encoder e = env_.encoder();
    cmd.encode(e);
    env_.broadcast(1, std::move(e), /*include_self=*/true);
  }

  void on_message(NodeId from, std::uint16_t type, net::Decoder& d) override {
    ASSERT_EQ(type, 1);
    last_from = from;
    if (charge_ > 0) env_.charge_cpu(charge_);
    deliver_(rsm::Command::decode(d));
  }

  std::string_view name() const override { return "Echo"; }

  std::vector<rsm::Command> proposed;
  NodeId last_from = kNoNode;

 private:
  Time charge_;
};

struct Fixture {
  explicit Fixture(std::size_t n, NodeConfig node_cfg = {}, Time charge = 0)
      : sim(7) {
    ClusterConfig cfg;
    cfg.node = node_cfg;
    cluster = std::make_unique<Cluster>(
        sim, net::Topology::lan(n), cfg,
        [&, charge](Env& env, Protocol::DeliverFn deliver) {
          return std::make_unique<EchoProtocol>(env, std::move(deliver), charge);
        },
        [this](NodeId node, const rsm::Command& cmd) {
          delivered[node].push_back(cmd);
        });
  }

  rsm::Command one_op_cmd(Key k) {
    rsm::Command c;
    c.ops.push_back(rsm::Op{k, 1, 0});
    return c;
  }

  sim::Simulator sim;
  std::unique_ptr<Cluster> cluster;
  std::map<NodeId, std::vector<rsm::Command>> delivered;
};

TEST(NodeTest, SubmitAssignsIdAndOrigin) {
  Fixture f(3);
  f.cluster->node(1).submit(f.one_op_cmd(5));
  f.sim.run();
  auto& echo = static_cast<EchoProtocol&>(f.cluster->node(1).protocol());
  ASSERT_EQ(echo.proposed.size(), 1u);
  EXPECT_EQ(echo.proposed[0].origin, 1u);
  EXPECT_EQ(cmd_origin(echo.proposed[0].id), 1u);
  EXPECT_NE(echo.proposed[0].id, kNoCmd);
}

TEST(NodeTest, BroadcastReachesAllIncludingSelf) {
  Fixture f(3);
  f.cluster->node(0).submit(f.one_op_cmd(5));
  f.sim.run();
  for (NodeId i = 0; i < 3; ++i) {
    ASSERT_EQ(f.delivered[i].size(), 1u) << "node " << i;
    EXPECT_EQ(f.delivered[i][0].ops[0].key, 5u);
  }
}

TEST(NodeTest, FreshCmdIdsAreUnique) {
  Fixture f(2);
  for (int i = 0; i < 10; ++i) f.cluster->node(0).submit(f.one_op_cmd(1));
  f.sim.run();
  auto& echo = static_cast<EchoProtocol&>(f.cluster->node(0).protocol());
  std::set<CmdId> ids;
  for (const auto& c : echo.proposed) ids.insert(c.id);
  EXPECT_EQ(ids.size(), 10u);
}

TEST(NodeTest, CrashedNodeStopsProcessing) {
  Fixture f(3);
  f.cluster->node(0).crash();
  f.cluster->node(0).submit(f.one_op_cmd(5));
  f.cluster->node(1).submit(f.one_op_cmd(6));
  f.sim.run();
  EXPECT_TRUE(f.delivered[0].empty());       // crashed node delivers nothing
  EXPECT_EQ(f.delivered[1].size(), 1u);      // live nodes still talk
  EXPECT_EQ(f.delivered[2].size(), 1u);
}

TEST(NodeTest, RecoveredNodeProcessesAgainWithStateIntact) {
  Fixture f(3);
  f.cluster->node(0).submit(f.one_op_cmd(5));
  f.sim.run();
  ASSERT_EQ(f.delivered[2].size(), 1u);

  f.cluster->crash(2);
  f.cluster->node(0).submit(f.one_op_cmd(6));
  f.sim.run();
  EXPECT_EQ(f.delivered[2].size(), 1u);  // down: the second command is lost

  f.cluster->recover(2);
  EXPECT_FALSE(f.cluster->node(2).crashed());
  f.cluster->node(0).submit(f.one_op_cmd(7));
  f.cluster->node(2).submit(f.one_op_cmd(8));
  f.sim.run();
  // Rejoined: receives new traffic and can lead proposals again.
  EXPECT_EQ(f.delivered[2].size(), 3u);
  EXPECT_EQ(f.delivered[0].size(), 4u);
}

TEST(NodeTest, RecoverIsNoOpOnLiveNode) {
  Fixture f(3);
  f.cluster->recover(1);
  f.cluster->node(0).submit(f.one_op_cmd(5));
  f.sim.run();
  EXPECT_EQ(f.delivered[1].size(), 1u);
}

TEST(NodeTest, FailureDetectorFiresAfterTimeout) {
  sim::Simulator sim(7);
  ClusterConfig cfg;
  cfg.fd_timeout_us = 100 * kMs;
  std::vector<std::pair<NodeId, NodeId>> suspicions;  // (observer, suspect)

  class FdProtocol final : public Protocol {
   public:
    FdProtocol(Env& env, DeliverFn d,
               std::vector<std::pair<NodeId, NodeId>>* out)
        : Protocol(env, std::move(d)), out_(out) {}
    void propose(rsm::Command) override {}
    void on_message(NodeId, std::uint16_t, net::Decoder&) override {}
    void on_node_suspected(NodeId peer) override {
      out_->emplace_back(env_.id(), peer);
    }
    std::string_view name() const override { return "Fd"; }

   private:
    std::vector<std::pair<NodeId, NodeId>>* out_;
  };

  Cluster cluster(
      sim, net::Topology::lan(3), cfg,
      [&](Env& env, Protocol::DeliverFn d) {
        return std::make_unique<FdProtocol>(env, std::move(d), &suspicions);
      },
      nullptr);
  sim.at(1 * kMs, [&] { cluster.crash(2); });
  sim.run_until(50 * kMs);
  EXPECT_TRUE(suspicions.empty());  // before the FD timeout
  sim.run_until(200 * kMs);
  ASSERT_EQ(suspicions.size(), 2u);  // nodes 0 and 1 each suspect node 2
  for (auto& [observer, suspect] : suspicions) {
    EXPECT_NE(observer, 2u);
    EXPECT_EQ(suspect, 2u);
  }
}

TEST(NodeTest, CpuSerializationDelaysBackToBackWork) {
  NodeConfig ncfg;
  ncfg.base_service_us = 1000;  // exaggerated service time
  Fixture f(2, ncfg);
  // Node 1 receives 10 messages nearly simultaneously; service times must
  // serialize them ~1000us apart.
  for (int i = 0; i < 10; ++i) f.cluster->node(0).submit(f.one_op_cmd(1));
  f.sim.run();
  ASSERT_EQ(f.delivered[1].size(), 10u);
  EXPECT_GE(f.cluster->node(1).cpu_busy_time(), 10 * 1000);
}

TEST(NodeTest, ChargeCpuExtendsServiceTime) {
  Fixture plain(2, NodeConfig{}, /*charge=*/0);
  Fixture charged(2, NodeConfig{}, /*charge=*/5000);
  for (int i = 0; i < 5; ++i) {
    plain.cluster->node(0).submit(plain.one_op_cmd(1));
    charged.cluster->node(0).submit(charged.one_op_cmd(1));
  }
  plain.sim.run();
  charged.sim.run();
  EXPECT_GT(charged.cluster->node(1).cpu_busy_time(),
            plain.cluster->node(1).cpu_busy_time() + 4 * 5000);
}

TEST(NodeTest, BatchingAccumulatesWhileBusyAndUnbundlesOnDelivery) {
  NodeConfig ncfg;
  ncfg.batching = true;
  ncfg.batch_delay_us = 50 * kMs;  // long: flushes below are event-driven
  ncfg.batch_max_ops = 100;
  Fixture f(2, ncfg);
  for (int i = 0; i < 10; ++i)
    f.cluster->node(0).submit(f.one_op_cmd(static_cast<Key>(i)));
  f.sim.run();
  auto& echo = static_cast<EchoProtocol&>(f.cluster->node(0).protocol());
  // Accumulate-while-busy: the first submission finds an idle proposer and
  // flushes alone; the other nine pile up behind the open instance
  // (pipeline_window = 1) and flush as one composite once it delivers.
  ASSERT_EQ(echo.proposed.size(), 2u);
  EXPECT_EQ(echo.proposed[0].ops.size(), 1u);
  EXPECT_FALSE(is_batch_cmd_id(echo.proposed[0].id));
  EXPECT_EQ(echo.proposed[1].ops.size(), 9u);
  EXPECT_TRUE(is_batch_cmd_id(echo.proposed[1].id));
  EXPECT_EQ(echo.proposed[1].origin, 0u);
  // Delivery unbundles the composite: every node sees ten single-op
  // commands in submission order, with distinct per-member ids.
  for (NodeId node = 0; node < 2; ++node) {
    ASSERT_EQ(f.delivered[node].size(), 10u) << "node " << node;
    std::set<CmdId> ids;
    for (int i = 0; i < 10; ++i) {
      const auto& cmd = f.delivered[node][static_cast<std::size_t>(i)];
      ASSERT_EQ(cmd.ops.size(), 1u);
      EXPECT_EQ(cmd.ops[0].key, static_cast<Key>(i));
      EXPECT_EQ(cmd.origin, 0u);
      EXPECT_FALSE(is_batch_cmd_id(cmd.id));  // members are not batch ids
      ids.insert(cmd.id);
    }
    EXPECT_EQ(ids.size(), 10u);
  }
}

TEST(NodeTest, BatchFlushesEarlyWhenFull) {
  NodeConfig ncfg;
  ncfg.batching = true;
  ncfg.batch_delay_us = 1 * kSec;  // long window
  ncfg.batch_max_ops = 4;
  ncfg.pipeline_window = 2;  // room for the size-capped flush while busy
  Fixture f(2, ncfg);
  for (int i = 0; i < 5; ++i) f.cluster->node(0).submit(f.one_op_cmd(1));
  f.sim.run_until(100 * kMs);  // well before the delay timer
  auto& echo = static_cast<EchoProtocol&>(f.cluster->node(0).protocol());
  // First submission flushes alone (idle proposer); the next four hit the
  // size cap while the CPU is busy and flush immediately as one composite
  // because the pipeline window still has a slot.
  ASSERT_EQ(echo.proposed.size(), 2u);
  EXPECT_EQ(echo.proposed[0].ops.size(), 1u);
  EXPECT_EQ(echo.proposed[1].ops.size(), 4u);
}

/// Protocol that swallows proposals: nothing is ever delivered, so
/// note_delivery never fires and the pipeline window never reopens.
class SilentProtocol final : public Protocol {
 public:
  SilentProtocol(Env& env, DeliverFn deliver)
      : Protocol(env, std::move(deliver)) {}
  void propose(rsm::Command cmd) override { proposed.push_back(cmd); }
  void on_message(NodeId, std::uint16_t, net::Decoder&) override {}
  std::string_view name() const override { return "Silent"; }
  std::vector<rsm::Command> proposed;
};

struct SilentFixture {
  explicit SilentFixture(NodeConfig node_cfg) : sim(7) {
    ClusterConfig cfg;
    cfg.node = node_cfg;
    cluster = std::make_unique<Cluster>(
        sim, net::Topology::lan(2), cfg,
        [](Env& env, Protocol::DeliverFn deliver) {
          return std::make_unique<SilentProtocol>(env, std::move(deliver));
        },
        nullptr);
  }
  SilentProtocol& proto(NodeId n) {
    return static_cast<SilentProtocol&>(cluster->node(n).protocol());
  }
  rsm::Command one_op_cmd(Key k) {
    rsm::Command c;
    c.ops.push_back(rsm::Op{k, 1, 0});
    return c;
  }
  sim::Simulator sim;
  std::unique_ptr<Cluster> cluster;
};

TEST(NodeTest, BatchTimerForceFlushesWhenWindowStaysFull) {
  NodeConfig ncfg;
  ncfg.batching = true;
  ncfg.batch_delay_us = 5 * kMs;
  ncfg.pipeline_window = 1;
  SilentFixture f(ncfg);
  for (int i = 0; i < 3; ++i) f.cluster->node(0).submit(f.one_op_cmd(1));
  // The first submission flushed alone and its instance never delivers, so
  // the window stays full; the remaining two sit in the accumulator until
  // the delay timer force-flushes them regardless of window state.
  f.sim.run_until(4 * kMs);
  ASSERT_EQ(f.proto(0).proposed.size(), 1u);
  f.sim.run_until(10 * kMs);
  ASSERT_EQ(f.proto(0).proposed.size(), 2u);
  EXPECT_EQ(f.proto(0).proposed[1].ops.size(), 2u);
}

TEST(NodeTest, PipelineWindowGatesFlushes) {
  // Identical submissions; only the pipeline window differs. Stop-and-wait
  // (window 1) holds the accumulator behind the open instance, while a
  // wider window lets the batcher flush again as soon as the CPU runs dry.
  NodeConfig narrow;
  narrow.batching = true;
  narrow.batch_delay_us = 1 * kSec;
  narrow.pipeline_window = 1;
  NodeConfig wide = narrow;
  wide.pipeline_window = 3;

  SilentFixture a(narrow), b(wide);
  for (int i = 0; i < 5; ++i) {
    a.cluster->node(0).submit(a.one_op_cmd(static_cast<Key>(i)));
    b.cluster->node(0).submit(b.one_op_cmd(static_cast<Key>(i)));
  }
  a.sim.run_until(100 * kMs);
  b.sim.run_until(100 * kMs);
  EXPECT_EQ(a.proto(0).proposed.size(), 1u);  // held: window full
  ASSERT_EQ(b.proto(0).proposed.size(), 2u);  // flushed on CPU-idle
  EXPECT_EQ(b.proto(0).proposed[1].ops.size(), 4u);
}

TEST(NodeTest, TimerCancellation) {
  Fixture f(2);
  bool fired = false;
  auto& node = f.cluster->node(0);
  const sim::EventId id = node.set_timer(10 * kMs, [&] { fired = true; });
  node.cancel_timer(id);
  f.sim.run();
  EXPECT_FALSE(fired);
}

TEST(NodeTest, TimersDoNotFireAfterCrash) {
  Fixture f(2);
  bool fired = false;
  f.cluster->node(0).set_timer(10 * kMs, [&] { fired = true; });
  f.sim.at(1 * kMs, [&] { f.cluster->node(0).crash(); });
  f.sim.run();
  EXPECT_FALSE(fired);
}

// ---------------------------------------------------------------------------
// Pooled send path
// ---------------------------------------------------------------------------

TEST(NodeTest, PooledEncoderRoundTripsAndRecyclesBuffers) {
  Fixture f(3);
  for (int i = 0; i < 20; ++i) {
    f.cluster->node(0).submit(f.one_op_cmd(static_cast<Key>(i)));
    f.sim.run();
  }
  // Every node decoded every message intact through the pooled frames.
  for (NodeId n = 0; n < 3; ++n) {
    ASSERT_EQ(f.delivered[n].size(), 20u) << "node " << n;
    for (int i = 0; i < 20; ++i) {
      EXPECT_EQ(f.delivered[n][static_cast<std::size_t>(i)].ops[0].key,
                static_cast<Key>(i));
    }
  }
  // Steady state reuses released buffers instead of allocating fresh ones.
  EXPECT_GT(f.cluster->node(0).buffer_pool().reuses(), 0u);
}

TEST(NodeTest, SendRejectsBodyWithoutFrameHeader) {
  // Stamping the type tag into an unframed body would overwrite its first
  // payload bytes, so the runtime refuses it outright.
  Fixture f(2);
  net::Encoder plain;
  plain.put_u64(42);
  EXPECT_THROW(f.cluster->node(0).send(1, 1, plain), std::logic_error);
  EXPECT_THROW(f.cluster->node(0).broadcast(1, plain, /*include_self=*/true),
               std::logic_error);
}

}  // namespace
}  // namespace caesar::rt
