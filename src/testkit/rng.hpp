#pragma once

#include <cstdint>
#include <random>
#include <string>

namespace hybrid::testkit {

/// SplitMix64 step: advances `state` and returns the next output word.
/// This is the canonical seed-expansion function (Steele et al.): adjacent
/// states produce decorrelated outputs, so a single master seed can fan out
/// into independent per-trial and per-purpose streams.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Derives an independent stream seed from (master, salt). Pure function:
/// the same pair always yields the same seed, so any derived stream is
/// reproducible from the master seed plus the salt printed in a log line.
inline std::uint64_t deriveSeed(std::uint64_t master, std::uint64_t salt) {
  std::uint64_t s = master + 0x9E3779B97F4A7C15ull * (salt + 1);
  (void)splitmix64(s);
  return splitmix64(s);
}

/// Master seed for randomized tests: the HYBRID_TEST_SEED environment
/// variable when set, otherwise `pinned`. Tests keep their historical
/// pinned seeds (so expected random streams are unchanged) but gain an env
/// override for exploration.
std::uint64_t testSeed(std::uint64_t pinned);

/// A seeded std::mt19937 that logs "[testkit] rng <name> seed=<s>" to
/// stdout once, so every randomized tier-1 test failure carries the exact
/// seed needed to replay it. The stream is identical to std::mt19937(seed)
/// unless HYBRID_TEST_SEED overrides it.
std::mt19937 loggedRng(const std::string& name, std::uint64_t pinnedSeed);

}  // namespace hybrid::testkit
