// Per-key conflict index: for every key, the conflicting commands ordered by
// timestamp — the paper's red-black tree of §VI, flattened.
//
// The IdSet argument applies here too: these per-key sequences are iterated
// and range-scanned (COMPUTEPREDECESSORS walks everything below a bound, the
// wait-condition scan walks everything above it) far more often than they are
// point-mutated, so a contiguous sorted vector beats a node-based std::map —
// scans are cache-linear and insert/erase are memmoves within one allocation.
// The lists themselves sit in an IdTable, one probe per key.
#pragma once

#include <algorithm>
#include <vector>

#include "common/types.h"
#include "core/id_table.h"
#include "core/timestamp.h"

namespace caesar::core {

class KeyIndex {
 public:
  struct Entry {
    Timestamp ts;
    CmdId id;
  };
  /// Sorted by ts ascending; timestamps are cluster-unique, so ts is a key.
  using EntryList = std::vector<Entry>;

  /// Inserts or reassigns the entry at `ts`.
  void put(Key key, const Timestamp& ts, CmdId id) {
    EntryList& list = key == 0 ? key0_ : lists_[key];
    auto it = lower_bound(list, ts);
    if (it != list.end() && it->ts == ts) {
      it->id = id;
    } else {
      list.insert(it, Entry{ts, id});
    }
  }

  /// Removes the entry at `ts`; drops the key when its list empties.
  void erase(Key key, const Timestamp& ts) {
    EntryList* list = key == 0 ? &key0_ : lists_.find(key);
    if (list == nullptr) return;
    auto it = lower_bound(*list, ts);
    if (it == list->end() || it->ts != ts) return;
    list->erase(it);
    if (list->empty() && key != 0) lists_.erase(key);
  }

  /// The key's entries, nullptr when the key is unindexed. Never empty.
  const EntryList* find(Key key) const {
    if (key == 0) return key0_.empty() ? nullptr : &key0_;
    return lists_.find(key);
  }

  /// First entry with ts >= bound (use for "everything below bound" scans).
  static EntryList::const_iterator lower_bound(const EntryList& list,
                                               const Timestamp& bound) {
    return std::lower_bound(
        list.begin(), list.end(), bound,
        [](const Entry& e, const Timestamp& t) { return e.ts < t; });
  }

  /// First entry with ts > bound (use for "everything above bound" scans).
  static EntryList::const_iterator upper_bound(const EntryList& list,
                                               const Timestamp& bound) {
    return std::upper_bound(
        list.begin(), list.end(), bound,
        [](const Timestamp& t, const Entry& e) { return t < e.ts; });
  }

  std::size_t key_count() const {
    return lists_.size() + (key0_.empty() ? 0 : 1);
  }
  bool empty() const { return key_count() == 0; }

 private:
  static EntryList::iterator lower_bound(EntryList& list,
                                         const Timestamp& bound) {
    return std::lower_bound(
        list.begin(), list.end(), bound,
        [](const Entry& e, const Timestamp& t) { return e.ts < t; });
  }

  /// IdTable reserves id 0 for free cells, and key 0 is the first key of
  /// every shared key pool, so its list lives outside the table.
  EntryList key0_;
  IdTable<EntryList> lists_;
};

}  // namespace caesar::core
