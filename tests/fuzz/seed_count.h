// Seed count shared by the seeded fuzz suites under tests/fuzz/.
#pragma once

#include <cstdint>
#include <cstdlib>

namespace caesar {

/// Seeds per fuzz test: `dflt` by default, raised via CAESAR_FUZZ_SEEDS for
/// CI's extended fuzz job.
inline std::uint64_t fuzz_seed_count(std::uint64_t dflt) {
  const char* env = std::getenv("CAESAR_FUZZ_SEEDS");
  if (env == nullptr || *env == '\0') return dflt;
  const long long v = std::atoll(env);
  return v > 0 ? static_cast<std::uint64_t>(v) : dflt;
}

}  // namespace caesar
