#include "rsm/delivery_log.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace caesar::rsm {
namespace {

Command cmd(CmdId id, std::initializer_list<Key> keys) {
  Command c;
  c.id = id;
  std::uint64_t i = 0;
  for (Key k : keys) c.ops.push_back(Op{k, ++i, 0});
  c.finalize();
  return c;
}

std::vector<CmdId> ids(std::span<const CmdId> s) { return {s.begin(), s.end()}; }

using KeyOrders = std::vector<std::pair<Key, std::vector<CmdId>>>;

/// per_key() flattened to (key, ids) pairs, in the order it yields them.
KeyOrders key_orders(const DeliveryLog& log) {
  KeyOrders out;
  for (const auto& [key, seq] : log.per_key()) out.emplace_back(key, ids(seq));
  return out;
}

TEST(DeliveryLogTest, RecordsSequenceAndPerKey) {
  DeliveryLog log;
  log.record(cmd(1, {10}));
  log.record(cmd(2, {11}));
  log.record(cmd(3, {10}));
  EXPECT_EQ(log.sequence(), (std::vector<CmdId>{1, 2, 3}));
  EXPECT_EQ(ids(log.key_sequence(10)), (std::vector<CmdId>{1, 3}));
  EXPECT_EQ(ids(log.key_sequence(11)), (std::vector<CmdId>{2}));
  EXPECT_TRUE(log.key_sequence(99).empty());
}

TEST(DeliveryLogTest, IdenticalLogsAreConsistent) {
  DeliveryLog a, b;
  for (CmdId id : {1, 2, 3}) {
    a.record(cmd(id, {7}));
    b.record(cmd(id, {7}));
  }
  EXPECT_TRUE(consistent_key_orders(a, b));
}

TEST(DeliveryLogTest, PermutedNonConflictingIsConsistent) {
  // Generalized consensus: nodes may permute commands on different keys.
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(2, {11}));
  b.record(cmd(2, {11}));
  b.record(cmd(1, {10}));
  EXPECT_TRUE(consistent_key_orders(a, b));
  EXPECT_TRUE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, SwappedConflictingIsInconsistent) {
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(2, {10}));
  b.record(cmd(2, {10}));
  b.record(cmd(1, {10}));
  EXPECT_FALSE(consistent_key_orders(a, b));
  EXPECT_FALSE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, PrefixesAreConsistent) {
  // One node being behind (shorter per-key prefix) is fine.
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(2, {10}));
  a.record(cmd(3, {10}));
  b.record(cmd(1, {10}));
  b.record(cmd(2, {10}));
  EXPECT_TRUE(consistent_key_orders(a, b));
  EXPECT_TRUE(consistent_key_orders(b, a));
}

TEST(DeliveryLogTest, CompositeCommandsIndexEveryKey) {
  DeliveryLog a;
  a.record(cmd(1, {10, 11}));
  EXPECT_EQ(ids(a.key_sequence(10)), (std::vector<CmdId>{1}));
  EXPECT_EQ(ids(a.key_sequence(11)), (std::vector<CmdId>{1}));
}

TEST(DeliveryLogTest, DivergenceHiddenByGapsStillDetected) {
  // b skipped command 2 entirely but delivered 1 and 3 in the opposite
  // relative order.
  DeliveryLog a, b;
  a.record(cmd(1, {10}));
  a.record(cmd(3, {10}));
  b.record(cmd(3, {10}));
  b.record(cmd(1, {10}));
  EXPECT_FALSE(consistent_key_orders(a, b));
}

TEST(DeliveryLogTest, PerKeyIsKeySortedAndComplete) {
  // Keys that differ only in a high byte, only in a low byte, or in both.
  constexpr Key kHigh = (Key{1} << 40) + 7;
  constexpr Key kMax = ~Key{0};
  DeliveryLog log;
  log.record(cmd(1, {42}));
  log.record(cmd(2, {0, 42}));  // composite, key 0 included
  log.record(cmd(3, {kHigh, 7}));
  log.record(cmd(4, {0}));
  log.record(cmd(5, {42, 7, 9, kMax}));
  log.record(cmd(6, {kHigh}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{0, {2, 4}},
                                        {7, {3, 5}},
                                        {9, {5}},
                                        {42, {1, 2, 5}},
                                        {kHigh, {3, 6}},
                                        {kMax, {5}}}));
  EXPECT_EQ(ids(log.key_sequence(0)), (std::vector<CmdId>{2, 4}));
  EXPECT_EQ(ids(log.key_sequence(kHigh)), (std::vector<CmdId>{3, 6}));
  EXPECT_TRUE(log.key_sequence(kHigh - 7).empty());
  EXPECT_EQ(log.sequence(), (std::vector<CmdId>{1, 2, 3, 4, 5, 6}));
}

TEST(DeliveryLogTest, RecordAfterBuildRefreshesPerKey) {
  DeliveryLog log;
  log.record(cmd(1, {5}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{5, {1}}}));
  log.record(cmd(2, {3, 5}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{3, {2}}, {5, {1, 2}}}));
  EXPECT_EQ(ids(log.key_sequence(5)), (std::vector<CmdId>{1, 2}));
}

TEST(DeliveryLogTest, TruncateAfterBuildKeepsFirstDeliveries) {
  DeliveryLog log;
  log.record(cmd(1, {5}));
  log.record(cmd(2, {3, 5}));
  log.record(cmd(3, {4}));
  log.record(cmd(4, {5}));
  EXPECT_EQ(key_orders(log).size(), 3u);  // builds the order
  log.truncate(2);
  EXPECT_EQ(log.sequence(), (std::vector<CmdId>{1, 2}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{3, {2}}, {5, {1, 2}}}));
  EXPECT_TRUE(log.key_sequence(4).empty());
  log.truncate(5);  // longer than the log: no-op
  EXPECT_EQ(log.size(), 2u);
  log.record(cmd(5, {4}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{3, {2}}, {4, {5}}, {5, {1, 2}}}));
  log.truncate(0);
  EXPECT_TRUE(key_orders(log).empty());
  EXPECT_FALSE(log.trimmed());
}

TEST(DeliveryLogTest, TruncateKeepsAnIdsEarlierDelivery) {
  // Id 1 was delivered twice; truncating off the second delivery keeps the
  // first one's entries. Only the position in the delivery sequence decides
  // what goes, never the id.
  DeliveryLog log;
  log.record(cmd(1, {5}));
  log.record(cmd(2, {6}));
  log.record(cmd(1, {5}));
  log.truncate(2);
  EXPECT_EQ(log.sequence(), (std::vector<CmdId>{1, 2}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{5, {1}}, {6, {2}}}));
  // Two back-to-back deliveries of one id are still told apart.
  log.record(cmd(2, {7}));
  log.truncate(2);
  EXPECT_EQ(key_orders(log), (KeyOrders{{5, {1}}, {6, {2}}}));
}

TEST(DeliveryLogTest, ResetTrimmedAfterBuildClearsPerKey) {
  DeliveryLog log;
  log.record(cmd(1, {5}));
  log.record(cmd(2, {6}));
  EXPECT_EQ(key_orders(log).size(), 2u);
  log.reset_trimmed();
  EXPECT_TRUE(log.trimmed());
  EXPECT_EQ(log.size(), 0u);
  EXPECT_TRUE(key_orders(log).empty());
  EXPECT_TRUE(log.key_sequence(5).empty());
  log.record(cmd(3, {6}));
  EXPECT_EQ(key_orders(log), (KeyOrders{{6, {3}}}));
}

TEST(DeliveryLogTest, CopiesAndMovesOwnTheirPerKeyViews) {
  const KeyOrders want{{1, {10, 12}}, {2, {11, 12}}};
  auto make = [] {
    auto log = std::make_unique<DeliveryLog>();
    log->record(cmd(10, {1}));
    log->record(cmd(11, {2}));
    log->record(cmd(12, {1, 2}));
    EXPECT_EQ(key_orders(*log).size(), 2u);  // the source's order is built
    return log;
  };
  auto src = make();
  const DeliveryLog copied(*src);
  DeliveryLog assigned;
  assigned.record(cmd(99, {9}));
  EXPECT_EQ(key_orders(assigned).size(), 1u);
  assigned = *src;
  src.reset();
  src = make();
  const DeliveryLog moved(std::move(*src));
  src.reset();
  for (const DeliveryLog* log :
       std::initializer_list<const DeliveryLog*>{&copied, &assigned, &moved}) {
    EXPECT_EQ(key_orders(*log), want);
    EXPECT_EQ(ids(log->key_sequence(2)), (std::vector<CmdId>{11, 12}));
    EXPECT_EQ(log->sequence(), (std::vector<CmdId>{10, 11, 12}));
  }
}

TEST(DeliveryLogTest, PrefixFailureNamesTheSmallestDivergingKey) {
  DeliveryLog a, b;
  for (Key k : {90, 7, 30}) {
    a.record(cmd(k * 10 + 1, {k}));
    a.record(cmd(k * 10 + 2, {k}));
    b.record(cmd(k * 10 + 2, {k}));
    b.record(cmd(k * 10 + 1, {k}));
  }
  std::string why;
  EXPECT_FALSE(prefix_consistent_key_orders(a, b, &why));
  EXPECT_NE(why.find("key 7 diverges at position 0"), std::string::npos)
      << why;
  DeliveryLog trimmed;
  trimmed.reset_trimmed();
  trimmed.record(cmd(902, {90}));
  trimmed.record(cmd(303, {30}));
  EXPECT_FALSE(suffix_consistent_key_orders(a, trimmed, &why));
  EXPECT_NE(why.find("key 30 suffix diverges at position 0"),
            std::string::npos)
      << why;
}

}  // namespace
}  // namespace caesar::rsm
