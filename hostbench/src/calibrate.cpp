#include "calibrate.h"

#include <chrono>
#include <queue>
#include <unordered_map>
#include <vector>

namespace hostbench {

namespace {

std::uint64_t splitmix(std::uint64_t& x) {
  std::uint64_t z = (x += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

double calibration_kernel(std::uint64_t& sink) {
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rng = 42;
  std::uint64_t sum = 0;

  // Dependent random reads and writes over a table larger than the caches.
  // The table lives for the whole process so page faults of a fresh
  // allocation never enter the timing.
  static std::vector<std::uint64_t> table(std::size_t{1} << 21);
  for (std::uint64_t& v : table) v = splitmix(rng);
  std::uint64_t at = 0;
  for (int i = 0; i < 300000; ++i) {
    std::uint64_t& v = table[at & (table.size() - 1)];
    v += static_cast<std::uint64_t>(i);
    at = v ^ (v >> 17);
    sum += at;
  }

  // An event-queue-like heap.
  std::priority_queue<std::uint64_t> heap;
  for (int i = 0; i < 200000; ++i) {
    heap.push(splitmix(rng));
    if ((i & 1) != 0) {
      sum += heap.top();
      heap.pop();
    }
  }

  // A hash map with inserts, lookups and erases.
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  for (int i = 0; i < 200000; ++i) {
    const std::uint64_t k = splitmix(rng) % 100000;
    auto [it, fresh] = map.try_emplace(k, static_cast<std::uint64_t>(i));
    if (!fresh) {
      sum += it->second;
      map.erase(it);
    }
  }

  sink += sum + map.size() + heap.size();
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
}

}  // namespace hostbench
