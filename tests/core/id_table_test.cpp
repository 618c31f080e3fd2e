// Unit tests for the open-addressing tables behind CAESAR's per-command
// bookkeeping: probe chains across the array end, backward-shift deletion,
// growth, address-stable records, iteration and the empty-cell sentinel.
#include "core/id_table.h"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <stdexcept>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace caesar::core {
namespace {

/// Record type that counts live instances, to check construction and
/// destruction pair up.
struct Counted {
  static int live;
  Counted() { ++live; }
  Counted(const Counted&) = delete;
  Counted& operator=(const Counted&) = delete;
  ~Counted() { --live; }
  std::uint64_t value = 0;
  std::vector<int> payload;
};
int Counted::live = 0;

/// The first `n` ids (from 1 up, skipping `avoid`) whose home cell in
/// `table` is `home`.
std::vector<std::uint64_t> ids_homed_at(const IdTable<std::uint64_t>& table,
                                        std::size_t home, std::size_t n,
                                        const std::set<std::uint64_t>& avoid) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t id = 1; out.size() < n; ++id) {
    if (table.home_of(id) == home && avoid.count(id) == 0) out.push_back(id);
  }
  return out;
}

TEST(IdTableTest, ProbeChainWrapsAroundTheArrayEndAndShiftsBackOnErase) {
  IdTable<std::uint64_t> t;
  t[1000] = 1000;  // allocates the first array
  const std::size_t cap = t.capacity();
  ASSERT_EQ(cap, 16u);
  t.erase(1000);
  const std::size_t last = cap - 1;
  // Three ids homed at the last cell and one homed at cell 0: the chain
  // runs last, 0, 1, 2 across the array end.
  const auto at_last = ids_homed_at(t, last, 3, {});
  const auto at_zero = ids_homed_at(t, 0, 1, {});
  const std::uint64_t a = at_last[0], b = at_last[1], c = at_last[2];
  const std::uint64_t d = at_zero[0];
  for (std::uint64_t id : {a, b, c, d}) t[id] = id * 10;
  ASSERT_EQ(t.capacity(), cap);
  EXPECT_EQ(t.cell_of(a), last);
  EXPECT_EQ(t.cell_of(b), 0u);
  EXPECT_EQ(t.cell_of(c), 1u);
  EXPECT_EQ(t.cell_of(d), 2u);
  const std::uint64_t* d_rec = t.find(d);

  // Erasing the chain head shifts each later member back one cell: b and c
  // (homed at `last`) wrap back across the end, d moves toward its home.
  EXPECT_TRUE(t.erase(a));
  EXPECT_EQ(t.find(a), nullptr);
  EXPECT_EQ(t.cell_of(b), last);
  EXPECT_EQ(t.cell_of(c), 0u);
  EXPECT_EQ(t.cell_of(d), 1u);
  EXPECT_EQ(t.find(d), d_rec);  // the cell moved, the record did not

  // Erasing from the middle of a wrapped chain: c back to `last`, d home.
  EXPECT_TRUE(t.erase(b));
  EXPECT_EQ(t.cell_of(c), last);
  EXPECT_EQ(t.cell_of(d), 0u);
  EXPECT_EQ(*t.find(c), c * 10);
  EXPECT_EQ(*t.find(d), d * 10);
  EXPECT_EQ(t.size(), 2u);

  // An id homed at its own cell never moves backwards past its home.
  const auto at_one = ids_homed_at(t, 1, 1, {a, b, c, d});
  t[at_one[0]] = 7;
  EXPECT_EQ(t.cell_of(at_one[0]), 1u);
  EXPECT_TRUE(t.erase(c));
  EXPECT_EQ(t.cell_of(d), 0u);
  EXPECT_EQ(t.cell_of(at_one[0]), 1u);
  EXPECT_FALSE(t.erase(c));
}

TEST(IdTableTest, GrowthKeepsEveryEntry) {
  IdTable<std::uint64_t> t;
  constexpr std::uint64_t kN = 20000;
  for (std::uint64_t i = 1; i <= kN; ++i) {
    auto [rec, inserted] = t.try_emplace(make_cmd_id(i % 5, i));
    ASSERT_TRUE(inserted);
    *rec = i;
  }
  EXPECT_EQ(t.size(), kN);
  EXPECT_GE(t.capacity(), 2 * kN);
  for (std::uint64_t i = 1; i <= kN; ++i) {
    const std::uint64_t* rec = t.find(make_cmd_id(i % 5, i));
    ASSERT_NE(rec, nullptr) << i;
    EXPECT_EQ(*rec, i);
    EXPECT_FALSE(t.try_emplace(make_cmd_id(i % 5, i)).second);
  }
  EXPECT_EQ(t.find(make_cmd_id(0, kN + 1)), nullptr);
}

TEST(IdTableTest, RecordsStayPutWhileOtherIdsComeAndGo) {
  IdTable<Counted> t;
  constexpr std::uint64_t kPinned = 7;
  Counted& pinned = t[kPinned];
  pinned.value = 42;
  pinned.payload = {1, 2, 3};
  for (std::uint64_t id = 100; id < 10100; ++id) t[id].value = id;  // growth
  for (std::uint64_t id = 100; id < 10100; id += 2) t.erase(id);    // shifts
  for (std::uint64_t id = 20000; id < 25000; ++id) t[id].value = id;  // reuse
  EXPECT_EQ(t.find(kPinned), &pinned);
  EXPECT_EQ(pinned.value, 42u);
  EXPECT_EQ(pinned.payload, (std::vector<int>{1, 2, 3}));
  for (std::uint64_t id = 101; id < 10100; id += 2) {
    ASSERT_NE(t.find(id), nullptr);
    EXPECT_EQ(t.find(id)->value, id);
  }
}

TEST(IdTableTest, IterationAfterInterleavedErasesVisitsEachLiveIdOnce) {
  IdTable<std::uint64_t> t;
  std::map<std::uint64_t, std::uint64_t> ref;
  Rng rng(5);
  for (int step = 0; step < 20000; ++step) {
    const std::uint64_t id = 1 + rng.uniform_int(600);
    if (rng.bernoulli(0.45)) {
      EXPECT_EQ(t.erase(id), ref.erase(id) == 1);
    } else {
      t[id] = id + static_cast<std::uint64_t>(step);
      ref[id] = id + static_cast<std::uint64_t>(step);
    }
  }
  std::map<std::uint64_t, std::uint64_t> seen;
  for (const auto& [id, value] : t) {
    EXPECT_TRUE(seen.emplace(id, value).second) << "visited twice: " << id;
  }
  EXPECT_EQ(seen, ref);
  EXPECT_EQ(t.size(), ref.size());
  // Records are reachable through iteration as mutable references.
  for (auto [id, value] : t) value = id;
  for (const auto& [id, value] : ref) EXPECT_EQ(*t.find(id), id);
}

TEST(IdTableTest, ClearAndDestructionDestroyEveryRecord) {
  {
    IdTable<Counted> t;
    for (std::uint64_t id = 1; id <= 1000; ++id) t[id].payload.assign(8, 1);
    for (std::uint64_t id = 1; id <= 1000; id += 3) t.erase(id);
    EXPECT_EQ(Counted::live, static_cast<int>(t.size()));
    t.clear();
    EXPECT_EQ(Counted::live, 0);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.find(2), nullptr);
    for (std::uint64_t id = 1; id <= 600; ++id) t[id].value = id;
    EXPECT_EQ(Counted::live, 600);
    EXPECT_EQ(t.find(599)->value, 599u);
  }
  EXPECT_EQ(Counted::live, 0);
}

TEST(IdTableTest, RejectsTheEmptyCellSentinelAsAKey) {
  IdTable<std::uint64_t> t;
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_THROW(t.try_emplace(0), std::invalid_argument);
  EXPECT_THROW(t[0], std::invalid_argument);
  t[5] = 1;
  EXPECT_THROW(t.try_emplace(0), std::invalid_argument);
  EXPECT_EQ(t.find(0), nullptr);
  EXPECT_FALSE(t.erase(0));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(*t.find(5), 1u);

  IdHashSet s;
  EXPECT_FALSE(s.contains(0));
  EXPECT_THROW(s.insert(0), std::invalid_argument);
  EXPECT_EQ(s.size(), 0u);
}

TEST(IdHashSetTest, InsertAndContainsAcrossGrowth) {
  IdHashSet s;
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    EXPECT_TRUE(s.insert(make_cmd_id(2, i)));
  }
  for (std::uint64_t i = 1; i <= 5000; ++i) {
    EXPECT_FALSE(s.insert(make_cmd_id(2, i)));
    EXPECT_TRUE(s.contains(make_cmd_id(2, i)));
    EXPECT_FALSE(s.contains(make_cmd_id(3, i)));
  }
  EXPECT_EQ(s.size(), 5000u);
}

}  // namespace
}  // namespace caesar::core
