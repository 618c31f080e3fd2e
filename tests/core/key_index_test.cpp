// Unit tests for CAESAR's per-key conflict index: sorted per-key lists,
// reassignment, dropping emptied keys, and the bound scans that
// COMPUTEPREDECESSORS and the wait condition run.
#include "core/key_index.h"

#include <gtest/gtest.h>

#include <vector>

namespace caesar::core {
namespace {

std::vector<CmdId> ids(KeyIndex::EntryList::const_iterator from,
                       KeyIndex::EntryList::const_iterator to) {
  std::vector<CmdId> out;
  for (auto it = from; it != to; ++it) out.push_back(it->id);
  return out;
}

TEST(KeyIndexTest, PutKeepsEachKeyListSortedByTimestamp) {
  KeyIndex index;
  EXPECT_TRUE(index.empty());
  index.put(7, Timestamp{30, 1}, 103);
  index.put(7, Timestamp{10, 2}, 101);
  index.put(7, Timestamp{20, 0}, 102);
  index.put(7, Timestamp{20, 4}, 104);  // same t, node breaks the tie
  index.put(9, Timestamp{15, 3}, 201);
  ASSERT_NE(index.find(7), nullptr);
  const KeyIndex::EntryList& list = *index.find(7);
  EXPECT_EQ(ids(list.begin(), list.end()),
            (std::vector<CmdId>{101, 102, 104, 103}));
  EXPECT_EQ(index.find(9)->size(), 1u);
  EXPECT_EQ(index.find(8), nullptr);
  EXPECT_EQ(index.key_count(), 2u);
}

TEST(KeyIndexTest, PutAtAnExistingTimestampReassignsTheEntry) {
  KeyIndex index;
  index.put(3, Timestamp{5, 1}, 11);
  index.put(3, Timestamp{6, 1}, 12);
  index.put(3, Timestamp{5, 1}, 99);
  const KeyIndex::EntryList& list = *index.find(3);
  EXPECT_EQ(ids(list.begin(), list.end()),
            (std::vector<CmdId>{99, 12}));
}

TEST(KeyIndexTest, EraseDownToAnEmptyListDropsTheKey) {
  KeyIndex index;
  for (Key k : {Key{0}, Key{4}}) {  // key 0 is kept outside the table
    index.put(k, Timestamp{1, 0}, 1);
    index.put(k, Timestamp{2, 0}, 2);
  }
  EXPECT_EQ(index.key_count(), 2u);
  for (Key k : {Key{0}, Key{4}}) {
    index.erase(k, Timestamp{3, 0});  // absent timestamp: no-op
    EXPECT_EQ(index.find(k)->size(), 2u);
    index.erase(k, Timestamp{1, 0});
    ASSERT_NE(index.find(k), nullptr);
    EXPECT_EQ(index.find(k)->front().id, 2u);
    index.erase(k, Timestamp{2, 0});
    EXPECT_EQ(index.find(k), nullptr) << "key " << k;
    index.erase(k, Timestamp{2, 0});  // erasing from an unindexed key
  }
  EXPECT_EQ(index.key_count(), 0u);
  EXPECT_TRUE(index.empty());
  // A dropped key comes back on the next put.
  index.put(4, Timestamp{8, 1}, 8);
  EXPECT_EQ(index.find(4)->size(), 1u);
  EXPECT_EQ(index.key_count(), 1u);
}

TEST(KeyIndexTest, BoundScansSplitAroundATimestamp) {
  KeyIndex index;
  for (std::uint64_t t = 1; t <= 5; ++t) {
    index.put(1, Timestamp{10 * t, 0}, t);  // timestamps 10..50
  }
  const KeyIndex::EntryList& list = *index.find(1);
  // Everything strictly below a bound: below an existing entry's timestamp,
  // and below a timestamp that falls between two entries.
  EXPECT_EQ(ids(list.begin(), KeyIndex::lower_bound(list, {30, 0})),
            (std::vector<CmdId>{1, 2}));
  EXPECT_EQ(ids(list.begin(), KeyIndex::lower_bound(list, {35, 2})),
            (std::vector<CmdId>{1, 2, 3}));
  // Everything strictly above a bound.
  EXPECT_EQ(ids(KeyIndex::upper_bound(list, {30, 0}), list.end()),
            (std::vector<CmdId>{4, 5}));
  EXPECT_EQ(ids(KeyIndex::upper_bound(list, {29, 9}), list.end()),
            (std::vector<CmdId>{3, 4, 5}));
  // Bounds outside the list.
  EXPECT_EQ(KeyIndex::lower_bound(list, {1, 0}), list.begin());
  EXPECT_EQ(KeyIndex::upper_bound(list, {99, 0}), list.end());
}

}  // namespace
}  // namespace caesar::core
