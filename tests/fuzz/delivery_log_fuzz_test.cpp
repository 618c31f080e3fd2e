// Differential fuzz of the delivery-log consistency checks: random pairs of
// logs (multi-key commands, cut-off prefixes, gaps, reorders, duplicate ids,
// foreign ids, truncations, trimmed sides) are checked by rsm's merge-join
// checks and by a reference copy of the per-key hash-map algorithms they
// replaced. Every verdict, and every failure text, must agree. Runs under
// the "fuzz" ctest label; CAESAR_FUZZ_SEEDS raises the seed count.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/rng.h"
#include "fuzz/seed_count.h"
#include "rsm/delivery_log.h"

namespace caesar::rsm {
namespace {

// ---------------------------------------------------------------------------
// Reference: one hash-map entry per key, as DeliveryLog kept it before. Keys
// are visited in ascending order so the failure texts are comparable; no
// verdict depends on the visiting order.
// ---------------------------------------------------------------------------

using RefPerKey = std::unordered_map<Key, std::vector<CmdId>>;

RefPerKey ref_per_key(const std::vector<Command>& delivered) {
  RefPerKey per_key;
  for (const Command& c : delivered) {
    for (const Op& op : c.ops) per_key[op.key].push_back(c.id);
  }
  return per_key;
}

std::vector<Key> sorted_keys(const RefPerKey& per_key) {
  std::vector<Key> keys;
  for (const auto& [key, seq] : per_key) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

const std::vector<CmdId>& ref_key_sequence(const RefPerKey& per_key, Key k) {
  static const std::vector<CmdId> kEmpty;
  auto it = per_key.find(k);
  return it == per_key.end() ? kEmpty : it->second;
}

bool ref_common_subsequence_ordered(const std::vector<CmdId>& x,
                                    const std::vector<CmdId>& y) {
  std::unordered_set<CmdId> in_x(x.begin(), x.end());
  std::unordered_set<CmdId> in_y(y.begin(), y.end());
  std::vector<CmdId> fx, fy;
  for (CmdId id : x)
    if (in_y.count(id) != 0) fx.push_back(id);
  for (CmdId id : y)
    if (in_x.count(id) != 0) fy.push_back(id);
  return fx == fy;
}

bool ref_consistent(const RefPerKey& a, const RefPerKey& b) {
  for (Key key : sorted_keys(a)) {
    const auto& seq_b = ref_key_sequence(b, key);
    if (seq_b.empty()) continue;
    if (!ref_common_subsequence_ordered(a.at(key), seq_b)) return false;
  }
  return true;
}

bool ref_prefix(const RefPerKey& a, const RefPerKey& b, std::string* why) {
  for (Key key : sorted_keys(a)) {
    const auto& seq_a = a.at(key);
    const auto& seq_b = ref_key_sequence(b, key);
    const std::size_t common = std::min(seq_a.size(), seq_b.size());
    for (std::size_t i = 0; i < common; ++i) {
      if (seq_a[i] != seq_b[i]) {
        *why = "key " + std::to_string(key) + " diverges at position " +
               std::to_string(i) + ": " + cmd_id_str(seq_a[i]) + " vs " +
               cmd_id_str(seq_b[i]);
        return false;
      }
    }
  }
  return true;
}

bool ref_suffix(const RefPerKey& full, const RefPerKey& trimmed,
                std::string* why) {
  for (Key key : sorted_keys(trimmed)) {
    const auto& seq_t = trimmed.at(key);
    const auto& seq_f = ref_key_sequence(full, key);
    if (seq_t.size() > seq_f.size()) {
      *why = "key " + std::to_string(key) + ": trimmed log has " +
             std::to_string(seq_t.size()) + " deliveries but full log only " +
             std::to_string(seq_f.size());
      return false;
    }
    const std::size_t off = seq_f.size() - seq_t.size();
    for (std::size_t i = 0; i < seq_t.size(); ++i) {
      if (seq_t[i] != seq_f[off + i]) {
        *why = "key " + std::to_string(key) + " suffix diverges at position " +
               std::to_string(i) + ": " + cmd_id_str(seq_t[i]) + " vs " +
               cmd_id_str(seq_f[off + i]);
        return false;
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Generator.
// ---------------------------------------------------------------------------

/// One replica's log, and the commands it holds for the reference.
struct Side {
  DeliveryLog log;
  std::vector<Command> held;
};

std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(n));
}

/// The keys of one pair's commands: 0 and random values of every magnitude,
/// so keys differ in low bytes, high bytes or both.
std::vector<Key> key_palette(Rng& rng) {
  std::vector<Key> keys{0};
  for (std::uint64_t n = rng.uniform_int(8); n > 0; --n) {
    keys.push_back(rng.next_u64() >> rng.uniform_int(64));
  }
  return keys;
}

Command random_command(Rng& rng, CmdId id, const std::vector<Key>& keys) {
  Command c;
  c.id = id;
  const std::uint64_t ops = 1 + rng.uniform_int(3);
  for (std::uint64_t i = 0; i < ops; ++i) {
    c.ops.push_back(Op{keys[pick(rng, keys.size())], id, 0});
  }
  c.finalize();
  return c;
}

/// The cluster's delivery order that both sides deviate from.
std::vector<Command> cluster_order(Rng& rng, const std::vector<Key>& keys) {
  std::vector<Command> order;
  const std::uint64_t n = rng.uniform_int(40);
  for (CmdId id = 1; id <= n; ++id) {
    order.push_back(random_command(rng, id, keys));
  }
  return order;
}

Side make_side(Rng& rng, const std::vector<Command>& order,
               const std::vector<Key>& keys, CmdId& next_foreign) {
  std::vector<Command> mine = order;
  Side s;
  if (rng.bernoulli(0.25)) {  // joined mid-stream from a store snapshot
    s.log.record(random_command(rng, next_foreign++, keys));
    s.log.reset_trimmed();
    mine.erase(mine.begin(), mine.begin() + static_cast<std::ptrdiff_t>(
                                                 pick(rng, mine.size() + 1)));
  }
  if (rng.bernoulli(0.5)) mine.resize(pick(rng, mine.size() + 1));  // cut off
  if (rng.bernoulli(0.3)) {  // gaps
    std::erase_if(mine, [&rng](const Command&) { return rng.bernoulli(0.15); });
  }
  if (!mine.empty() && rng.bernoulli(0.3)) {  // reorders
    for (std::uint64_t k = 1 + rng.uniform_int(3); k > 0; --k) {
      std::swap(mine[pick(rng, mine.size())], mine[pick(rng, mine.size())]);
    }
  }
  if (!mine.empty() && rng.bernoulli(0.25)) {  // an id delivered twice
    const Command dup = mine[pick(rng, mine.size())];
    mine.insert(mine.begin() + static_cast<std::ptrdiff_t>(
                                   pick(rng, mine.size() + 1)),
                dup);
  }
  if (rng.bernoulli(0.2)) {  // an id the other side never delivers
    mine.insert(mine.begin() + static_cast<std::ptrdiff_t>(
                                   pick(rng, mine.size() + 1)),
                random_command(rng, next_foreign++, keys));
  }
  // Record, building the per-key order part-way and sometimes truncating
  // (a restart from disk keeps a prefix, and recording goes on from there),
  // so the checks read an order rebuilt after mutations.
  const std::size_t build_at = pick(rng, mine.size() + 1);
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (i == build_at) (void)s.log.key_sequence(0);
    s.log.record(mine[i]);
    s.held.push_back(mine[i]);
    if (rng.bernoulli(0.05)) {
      if (rng.bernoulli(0.5)) (void)s.log.key_sequence(0);
      const std::size_t n = pick(rng, s.held.size() + 1);
      s.log.truncate(n);
      s.held.resize(n);
    }
  }
  return s;
}

std::string describe(const Side& s) {
  std::string out = s.log.trimmed() ? "trimmed [" : "[";
  for (const Command& c : s.held) {
    out += " " + std::to_string(c.id) + ":";
    for (const Op& op : c.ops) out += std::to_string(op.key) + ",";
  }
  return out + " ]";
}

void expect_same_per_key(const Side& s) {
  std::map<Key, std::vector<CmdId>> want;
  for (const auto& [key, seq] : ref_per_key(s.held)) want[key] = seq;
  std::map<Key, std::vector<CmdId>> got;
  Key last = 0;
  bool first = true;
  for (const auto& [key, ids] : s.log.per_key()) {
    EXPECT_TRUE(first || key > last) << "per_key() out of key order";
    first = false;
    last = key;
    got[key].assign(ids.begin(), ids.end());
  }
  EXPECT_EQ(got, want);
  std::vector<CmdId> seq;
  for (const Command& c : s.held) seq.push_back(c.id);
  EXPECT_EQ(s.log.sequence(), seq);
}

void check_pair(const Side& a, const Side& b) {
  const RefPerKey ra = ref_per_key(a.held);
  const RefPerKey rb = ref_per_key(b.held);
  EXPECT_EQ(consistent_key_orders(a.log, b.log), ref_consistent(ra, rb));
  EXPECT_EQ(consistent_key_orders(b.log, a.log), ref_consistent(rb, ra));
  std::string why, ref_why;
  EXPECT_EQ(prefix_consistent_key_orders(a.log, b.log, &why),
            ref_prefix(ra, rb, &ref_why));
  EXPECT_EQ(why, ref_why);
  why.clear();
  ref_why.clear();
  EXPECT_EQ(suffix_consistent_key_orders(a.log, b.log, &why),
            ref_suffix(ra, rb, &ref_why));
  EXPECT_EQ(why, ref_why);
  why.clear();
  ref_why.clear();
  EXPECT_EQ(suffix_consistent_key_orders(b.log, a.log, &why),
            ref_suffix(rb, ra, &ref_why));
  EXPECT_EQ(why, ref_why);
}

TEST(DeliveryLogFuzz, MergeJoinChecksMatchPerKeyReference) {
  for (std::uint64_t seed = 1; seed <= fuzz_seed_count(100); ++seed) {
    Rng rng(seed);
    for (int pair = 0; pair < 20; ++pair) {
      const std::vector<Key> keys = key_palette(rng);
      const std::vector<Command> order = cluster_order(rng, keys);
      CmdId next_foreign = 1000;
      const Side a = make_side(rng, order, keys, next_foreign);
      const Side b = make_side(rng, order, keys, next_foreign);
      SCOPED_TRACE("seed " + std::to_string(seed) + " pair " +
                   std::to_string(pair) + "\n  a " + describe(a) + "\n  b " +
                   describe(b));
      expect_same_per_key(a);
      expect_same_per_key(b);
      check_pair(a, b);
      if (::testing::Test::HasFailure()) return;
    }
  }
}

}  // namespace
}  // namespace caesar::rsm
