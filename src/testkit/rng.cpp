#include "testkit/rng.hpp"

#include <cstdio>
#include <cstdlib>

namespace hybrid::testkit {

std::uint64_t testSeed(std::uint64_t pinned) {
  if (const char* env = std::getenv("HYBRID_TEST_SEED")) {
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 0);
    if (end != env && *end == '\0') return static_cast<std::uint64_t>(v);
  }
  return pinned;
}

std::mt19937 loggedRng(const std::string& name, std::uint64_t pinnedSeed) {
  const std::uint64_t s = testSeed(pinnedSeed);
  std::printf("[testkit] rng %s seed=%llu\n", name.c_str(),
              static_cast<unsigned long long>(s));
  return std::mt19937(static_cast<std::uint32_t>(s));
}

}  // namespace hybrid::testkit
