#include "rsm/delivery_log.h"

#include <algorithm>
#include <array>
#include <numeric>
#include <utility>

namespace caesar::rsm {

void DeliveryLog::truncate(std::size_t n) {
  if (n >= sequence_.size()) return;
  drop_order();
  sequence_.resize(n);
  // Ops are in delivery order, so the dropped deliveries' ops are exactly
  // the tail.
  const std::size_t kept = static_cast<std::size_t>(
      std::ranges::lower_bound(touch_at_, n) - touch_at_.begin());
  touch_keys_.resize(kept);
  touch_at_.resize(kept);
}

void DeliveryLog::reset_trimmed() {
  drop_order();
  sequence_.clear();
  touch_keys_.clear();
  touch_at_.clear();
  trimmed_ = true;
}

std::span<const CmdId> DeliveryLog::key_sequence(Key k) const {
  build_order();
  const auto it = std::ranges::lower_bound(run_keys_, k);
  if (it == run_keys_.end() || *it != k) return {};
  return run(static_cast<std::size_t>(it - run_keys_.begin())).ids;
}

void DeliveryLog::sort_order() const {
  // LSD radix sort of the ops by key, a byte per pass, moving 32-bit op
  // indices. Each pass is stable, so every key keeps its delivery order; a
  // byte that all keys share moves nothing and is skipped.
  const std::size_t n = touch_keys_.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("DeliveryLog: too many entries to order");
  }
  std::array<std::array<std::uint32_t, 256>, sizeof(Key)> counts{};
  for (Key k : touch_keys_) {
    for (std::size_t b = 0; b < sizeof(Key); ++b) {
      ++counts[b][(k >> (8 * b)) & 0xFF];
    }
  }
  std::vector<std::uint32_t> order(n);
  std::iota(order.begin(), order.end(), std::uint32_t{0});
  std::vector<std::uint32_t> scratch;
  for (std::size_t b = 0; b < sizeof(Key) && n > 0; ++b) {
    std::array<std::uint32_t, 256>& next = counts[b];
    if (next[(touch_keys_[0] >> (8 * b)) & 0xFF] == n) continue;
    std::uint32_t at = 0;
    for (std::uint32_t& c : next) at += std::exchange(c, at);
    scratch.resize(n);
    for (std::uint32_t i : order) {
      scratch[next[(touch_keys_[i] >> (8 * b)) & 0xFF]++] = i;
    }
    order.swap(scratch);
  }
  key_ids_.resize(n);
  run_keys_.clear();
  run_ends_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    const Key key = touch_keys_[order[i]];
    if (run_keys_.empty() || run_keys_.back() != key) {
      if (!run_keys_.empty()) run_ends_.push_back(i);
      run_keys_.push_back(key);
    }
    key_ids_[i] = sequence_[touch_at_[order[i]]];
  }
  if (n > 0) run_ends_.push_back(n);
  ordered_ = true;
}

namespace {

using Ids = std::span<const CmdId>;

/// Merge-join of two logs' key-sorted runs: calls f(key, a_ids, b_ids) for
/// every key of `a` in ascending order, with `b_ids` empty when `b` never saw
/// the key. Stops at, and returns false on, the first call that returns
/// false.
template <typename F>
bool for_each_key_of(const DeliveryLog& a, const DeliveryLog& b, F f) {
  const auto b_keys = b.per_key();
  auto bi = b_keys.begin();
  for (const auto& [key, ids] : a.per_key()) {
    while (bi != b_keys.end() && (*bi).key < key) ++bi;
    const bool shared = bi != b_keys.end() && (*bi).key == key;
    if (!f(key, ids, shared ? (*bi).ids : Ids{})) return false;
  }
  return true;
}

/// Checks that the elements common to `x` and `y` appear in the same order:
/// `x` filtered to the ids `y` holds equals `y` filtered to the ids `x`
/// holds. Ids may repeat on either side.
bool common_subsequence_ordered(Ids x, Ids y) {
  // Every id of the shared prefix is on both sides, so both filtered
  // sequences open with it; equal sequences end here.
  const std::size_t p = static_cast<std::size_t>(
      std::ranges::mismatch(x, y).in1 - x.begin());
  const Ids tx = x.subspan(p);
  const Ids ty = y.subspan(p);
  if (tx.empty() && ty.empty()) return true;
  // Past the prefix an id survives the filter when the other side holds it:
  // in that side's tail or in the shared prefix.
  std::vector<CmdId> sx(tx.begin(), tx.end());
  std::vector<CmdId> sy(ty.begin(), ty.end());
  std::ranges::sort(sx);
  std::ranges::sort(sy);
  std::vector<CmdId> in_prefix;  // tail ids the shared prefix also holds
  for (CmdId id : x.first(p)) {
    if (std::ranges::binary_search(sx, id) ||
        std::ranges::binary_search(sy, id)) {
      in_prefix.push_back(id);
    }
  }
  std::ranges::sort(in_prefix);
  auto kept = [&in_prefix](CmdId id, const std::vector<CmdId>& other_tail) {
    return std::ranges::binary_search(other_tail, id) ||
           std::ranges::binary_search(in_prefix, id);
  };
  std::size_t i = 0;
  std::size_t j = 0;
  for (;;) {
    while (i < tx.size() && !kept(tx[i], sy)) ++i;
    while (j < ty.size() && !kept(ty[j], sx)) ++j;
    if (i == tx.size() || j == ty.size()) {
      return i == tx.size() && j == ty.size();
    }
    if (tx[i++] != ty[j++]) return false;
  }
}

}  // namespace

bool consistent_key_orders(const DeliveryLog& a, const DeliveryLog& b) {
  return for_each_key_of(a, b, [](Key, Ids x, Ids y) {
    return y.empty() || common_subsequence_ordered(x, y);
  });
}

bool prefix_consistent_key_orders(const DeliveryLog& a, const DeliveryLog& b,
                                  std::string* why) {
  // A key only `b` has seen is trivially prefix-consistent (empty prefix),
  // so walking `a`'s keys covers every shared one.
  return for_each_key_of(a, b, [why](Key key, Ids x, Ids y) {
    const auto [xi, yi] = std::ranges::mismatch(x, y);
    if (xi == x.end() || yi == y.end()) return true;
    if (why != nullptr) {
      *why = "key " + std::to_string(key) + " diverges at position " +
             std::to_string(xi - x.begin()) + ": " + cmd_id_str(*xi) +
             " vs " + cmd_id_str(*yi);
    }
    return false;
  });
}

bool suffix_consistent_key_orders(const DeliveryLog& full,
                                  const DeliveryLog& trimmed,
                                  std::string* why) {
  return for_each_key_of(trimmed, full, [why](Key key, Ids t, Ids f) {
    if (t.size() > f.size()) {
      if (why != nullptr) {
        *why = "key " + std::to_string(key) + ": trimmed log has " +
               std::to_string(t.size()) + " deliveries but full log only " +
               std::to_string(f.size());
      }
      return false;
    }
    const auto [ti, fi] = std::ranges::mismatch(t, f.last(t.size()));
    if (ti == t.end()) return true;
    if (why != nullptr) {
      *why = "key " + std::to_string(key) + " suffix diverges at position " +
             std::to_string(ti - t.begin()) + ": " + cmd_id_str(*ti) + " vs " +
             cmd_id_str(*fi);
    }
    return false;
  });
}

}  // namespace caesar::rsm
