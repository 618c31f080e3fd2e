// Key-distribution tests: the uniform and Zipfian choosers produce the
// distribution shapes they promise, deterministically in the seed.
#include "workload/key_chooser.h"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace caesar::wl {
namespace {

constexpr std::uint64_t kDraws = 200000;

KeyChooser make(const KeyDistConfig& cfg,
                std::shared_ptr<const ZipfTable> zipf = nullptr) {
  return KeyChooser(cfg, /*conflict_fraction=*/0.1, /*shared_pool_size=*/100,
                    /*global_client_id=*/0, std::move(zipf));
}

TEST(KeyChooserTest, UniformCoversTheKeyspaceEvenly) {
  KeyDistConfig cfg;
  cfg.dist = KeyDist::kUniform;
  cfg.keyspace = 1000;
  KeyChooser chooser = make(cfg);
  Rng rng(42);
  double sum = 0.0;
  std::vector<std::uint32_t> quartile(4, 0);
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const Key k = chooser.next(rng);
    ASSERT_LT(k, cfg.keyspace);
    sum += static_cast<double>(k);
    ++quartile[k / 250];
  }
  const double mean = sum / kDraws;
  EXPECT_NEAR(mean, 499.5, 10.0);
  for (int q = 0; q < 4; ++q) {
    EXPECT_NEAR(static_cast<double>(quartile[q]), kDraws / 4.0, kDraws * 0.02)
        << "quartile " << q;
  }
}

TEST(KeyChooserTest, ZipfianRankFrequenciesDecreaseAndConcentrate) {
  KeyDistConfig cfg;
  cfg.dist = KeyDist::kZipfian;
  cfg.keyspace = 10000;
  cfg.zipf_theta = 0.99;
  auto zipf = std::make_shared<const ZipfTable>(cfg.keyspace, cfg.zipf_theta);
  KeyChooser chooser = make(cfg, zipf);
  Rng rng(42);
  std::map<Key, std::uint64_t> freq;
  for (std::uint64_t i = 0; i < kDraws; ++i) {
    const Key k = chooser.next(rng);
    ASSERT_LT(k, cfg.keyspace);
    ++freq[k];
  }
  // Rank 0 is the hottest, and the head ranks are strictly ordered with a
  // wide margin at theta=0.99 (freq ratio rank0:rank1 ~ 2:1).
  EXPECT_GT(freq[0], freq[1]);
  EXPECT_GT(freq[1], freq[2]);
  EXPECT_GT(freq[0], kDraws / 20);  // rank 0 alone carries >5% of the mass
  // The head dominates: top-10 ranks outweigh what uniform would give
  // (10/10000 = 0.1%) by orders of magnitude.
  std::uint64_t top10 = 0;
  for (Key k = 0; k < 10; ++k) top10 += freq[k];
  EXPECT_GT(top10, kDraws / 5);  // > 20% of all draws
}

TEST(KeyChooserTest, ZipfianIsDeterministicInTheSeed) {
  KeyDistConfig cfg;
  cfg.dist = KeyDist::kZipfian;
  cfg.keyspace = 1000;
  auto zipf = std::make_shared<const ZipfTable>(cfg.keyspace, cfg.zipf_theta);
  KeyChooser a = make(cfg, zipf);
  KeyChooser b = make(cfg, zipf);
  Rng ra(7), rb(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(ra), b.next(rb));
  }
}

TEST(ZipfTableTest, SampleStaysInRangeAndHitsRankZero) {
  ZipfTable table(100, 0.99);
  Rng rng(3);
  bool saw_zero = false;
  for (int i = 0; i < 10000; ++i) {
    const std::uint64_t rank = table.sample(rng);
    ASSERT_LT(rank, 100u);
    saw_zero = saw_zero || rank == 0;
  }
  EXPECT_TRUE(saw_zero);
}

}  // namespace
}  // namespace caesar::wl
