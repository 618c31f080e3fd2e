// Open-addressing tables keyed by nonzero 64-bit ids: the per-command and
// per-instance bookkeeping of CAESAR and EPaxos (records, coordinators,
// parked proposals, recoveries) and their per-key indexes.
//
// A lookup is one linear probe over a power-of-two array of 16-byte
// {id, record*} cells placed by Fibonacci hashing. Deletion shifts the rest
// of the probe chain back instead of leaving tombstones, so chains stay as
// short as the load (at most one half) allows. Id 0 marks an empty cell and
// is rejected as a key: CmdId 0 is kNoCmd, EPaxos instance slots and parking
// tickets start at 1, and the per-key indexes keep key 0 outside the table.
//
// Records live in a slab of fixed-size pages and never move. Growth rehashes
// only the cells, and erasing one id leaves every other record where it was,
// so a handler may hold a record reference while it inserts or erases
// *other* ids of the same table. Freed slots are reused by later inserts.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

namespace caesar {

namespace detail {

/// The probe array shared by IdTable and IdHashSet. `Cell` is trivially
/// copyable with a `std::uint64_t id` member that is 0 when the cell is free.
template <typename Cell>
class ProbeArray {
 public:
  static constexpr std::uint64_t kEmpty = 0;

  std::size_t size() const { return size_; }
  std::vector<Cell>& cells() { return cells_; }
  const std::vector<Cell>& cells() const { return cells_; }

  Cell* find(std::uint64_t id) {
    return const_cast<Cell*>(std::as_const(*this).find(id));
  }
  const Cell* find(std::uint64_t id) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      const Cell& c = cells_[i];
      if (c.id == kEmpty) return nullptr;  // also answers find(kEmpty)
      if (c.id == id) return &c;
    }
  }

  /// The cell holding `id`; a free cell is claimed (its id set, the rest of
  /// it left as is) when `id` is absent. `second` is true when claimed.
  std::pair<Cell*, bool> claim(std::uint64_t id) {
    if (id == kEmpty) {
      throw std::invalid_argument("id 0 marks an empty cell; it is not a key");
    }
    if (2 * (size_ + 1) > cells_.size()) grow();
    for (std::size_t i = home(id);; i = (i + 1) & mask_) {
      Cell& c = cells_[i];
      if (c.id == id) return {&c, false};
      if (c.id == kEmpty) {
        c.id = id;
        ++size_;
        return {&c, true};
      }
    }
  }

  /// Frees `cell` and closes the gap: each later member of the probe chain
  /// whose home lies at or before the hole moves back into it.
  void remove(Cell* cell) {
    std::size_t hole = static_cast<std::size_t>(cell - cells_.data());
    for (std::size_t i = (hole + 1) & mask_; cells_[i].id != kEmpty;
         i = (i + 1) & mask_) {
      const std::size_t from_home = (i - home(cells_[i].id)) & mask_;
      if (from_home >= ((i - hole) & mask_)) {
        cells_[hole] = cells_[i];
        hole = i;
      }
    }
    cells_[hole] = Cell{};
    --size_;
  }

  /// Frees every cell; keeps the capacity.
  void reset() {
    std::fill(cells_.begin(), cells_.end(), Cell{});
    size_ = 0;
  }

  /// The cell a probe for `id` starts at; needs a nonzero capacity.
  std::size_t home(std::uint64_t id) const {
    return static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }

 private:

  void grow() {
    std::vector<Cell> old = std::move(cells_);
    const std::size_t cap = old.empty() ? 16 : 2 * old.size();
    cells_.assign(cap, Cell{});
    mask_ = cap - 1;
    shift_ = 64 - static_cast<unsigned>(std::countr_zero(cap));
    for (const Cell& c : old) {
      if (c.id == kEmpty) continue;
      std::size_t i = home(c.id);
      while (cells_[i].id != kEmpty) i = (i + 1) & mask_;
      cells_[i] = c;
    }
  }

  std::vector<Cell> cells_;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
  unsigned shift_ = 0;  // 64 - log2(capacity); unused while there are no cells
};

}  // namespace detail

/// Map from nonzero ids to address-stable, value-initialized records.
template <typename V>
class IdTable {
  struct Cell {
    std::uint64_t id = 0;
    V* rec = nullptr;
  };

  template <bool Const>
  class Iter {
    using CellPtr = std::conditional_t<Const, const Cell*, Cell*>;
    using Ref = std::conditional_t<Const, const V&, V&>;

   public:
    Iter(CellPtr c, CellPtr end) : c_(c), end_(end) { skip(); }
    std::pair<std::uint64_t, Ref> operator*() const { return {c_->id, *c_->rec}; }
    Iter& operator++() {
      ++c_;
      skip();
      return *this;
    }
    bool operator==(const Iter& o) const { return c_ == o.c_; }

   private:
    void skip() {
      while (c_ != end_ && c_->id == 0) ++c_;
    }
    CellPtr c_;
    CellPtr end_;
  };

 public:
  IdTable() = default;
  IdTable(const IdTable&) = delete;
  IdTable& operator=(const IdTable&) = delete;
  ~IdTable() { clear(); }

  std::size_t size() const { return cells_.size(); }
  bool empty() const { return cells_.size() == 0; }

  V* find(std::uint64_t id) {
    Cell* c = cells_.find(id);
    return c == nullptr ? nullptr : c->rec;
  }
  const V* find(std::uint64_t id) const {
    const Cell* c = cells_.find(id);
    return c == nullptr ? nullptr : c->rec;
  }

  /// The record for `id`, value-initialized when absent; `second` is true
  /// when it was inserted. Throws std::invalid_argument for id 0.
  std::pair<V*, bool> try_emplace(std::uint64_t id) {
    auto [c, inserted] = cells_.claim(id);
    if (inserted) c->rec = slab_.make();
    return {c->rec, inserted};
  }
  V& operator[](std::uint64_t id) { return *try_emplace(id).first; }

  /// Destroys the record of `id`, if any; every other record stays put.
  bool erase(std::uint64_t id) {
    Cell* c = cells_.find(id);
    if (c == nullptr) return false;
    V* rec = c->rec;
    cells_.remove(c);
    slab_.destroy(rec);
    return true;
  }

  void clear() {
    for (Cell& c : cells_.cells()) {
      if (c.id != 0) std::destroy_at(c.rec);
    }
    cells_.reset();
    slab_.reset();
  }

  /// Probe-layout introspection for tests: the cell count, the home cell of
  /// `id` (needs a nonzero capacity) and the cell holding `id`, capacity()
  /// when absent.
  std::size_t capacity() const { return cells_.cells().size(); }
  std::size_t home_of(std::uint64_t id) const { return cells_.home(id); }
  std::size_t cell_of(std::uint64_t id) const {
    const Cell* c = cells_.find(id);
    return c == nullptr ? capacity() : static_cast<std::size_t>(c - data());
  }

  /// Iteration visits each live id once, in table order (unspecified):
  /// callers that act on the order must sort.
  Iter<false> begin() { return {data(), data() + cells_.cells().size()}; }
  Iter<false> end() {
    Cell* e = data() + cells_.cells().size();
    return {e, e};
  }
  Iter<true> begin() const { return {data(), data() + cells_.cells().size()}; }
  Iter<true> end() const {
    const Cell* e = data() + cells_.cells().size();
    return {e, e};
  }

 private:
  /// Fixed-size pages of raw record storage plus a free list of vacated
  /// slots. Pages are never released before the table is, so a record's
  /// address is fixed from make() to destroy().
  class Slab {
    static constexpr std::size_t kPageRecords = 256;
    struct alignas(V) Slot {
      std::byte bytes[sizeof(V)];
    };

   public:
    V* make() {
      void* mem;
      if (!free_.empty()) {
        mem = free_.back();
        free_.pop_back();
      } else {
        if (next_ == pages_.size() * kPageRecords) {
          pages_.push_back(std::make_unique_for_overwrite<Slot[]>(kPageRecords));
        }
        mem = &pages_[next_ / kPageRecords][next_ % kPageRecords];
        ++next_;
      }
      return ::new (mem) V();
    }
    void destroy(V* rec) {
      std::destroy_at(rec);
      free_.push_back(rec);
    }
    /// Marks every slot unused; the caller has destroyed the live records.
    void reset() {
      next_ = 0;
      free_.clear();
    }

   private:
    std::vector<std::unique_ptr<Slot[]>> pages_;
    std::size_t next_ = 0;  // slots handed out in page order so far
    std::vector<V*> free_;
  };

  Cell* data() { return cells_.cells().data(); }
  const Cell* data() const { return cells_.cells().data(); }

  detail::ProbeArray<Cell> cells_;
  Slab slab_;
};

/// Set of nonzero ids in one probe array (no records, no erase).
class IdHashSet {
  struct Cell {
    std::uint64_t id = 0;
  };

 public:
  /// True when `id` was not present yet. Throws std::invalid_argument for 0.
  bool insert(std::uint64_t id) { return cells_.claim(id).second; }
  bool contains(std::uint64_t id) const { return cells_.find(id) != nullptr; }
  std::size_t size() const { return cells_.size(); }

 private:
  detail::ProbeArray<Cell> cells_;
};

}  // namespace caesar
