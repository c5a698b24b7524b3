// Algebraic property fuzzing of the expansion arithmetic: exactness means
// the usual ring axioms hold *exactly*, not approximately.

#include <gtest/gtest.h>

#include <random>

#include "geom/expansion.hpp"
#include "testkit/rng.hpp"

namespace hybrid::geom {
namespace {

Expansion randomExpansion(std::mt19937& rng) {
  std::uniform_real_distribution<double> mag(-1e6, 1e6);
  std::uniform_real_distribution<double> tiny(-1e-10, 1e-10);
  Expansion e = Expansion::twoSum(mag(rng), tiny(rng));
  if (rng() % 2 == 0) e = e + Expansion::twoProduct(mag(rng), tiny(rng));
  return e;
}

class ExpansionFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ExpansionFuzz, RingAxiomsHoldExactly) {
  auto rng = testkit::loggedRng("expansion-ring-axioms",
                                static_cast<unsigned>(GetParam()) * 71 + 9);
  for (int it = 0; it < 200; ++it) {
    const Expansion a = randomExpansion(rng);
    const Expansion b = randomExpansion(rng);
    const Expansion c = randomExpansion(rng);

    // Commutativity and associativity of addition.
    EXPECT_EQ(((a + b) - (b + a)).sign(), 0);
    EXPECT_EQ((((a + b) + c) - (a + (b + c))).sign(), 0);
    // Additive inverse.
    EXPECT_EQ((a - a).sign(), 0);
    EXPECT_EQ(((a + b) - b - a).sign(), 0);
    // Multiplication commutes and distributes.
    EXPECT_EQ(((a * b) - (b * a)).sign(), 0);
    EXPECT_EQ(((a * (b + c)) - (a * b + a * c)).sign(), 0);
    // Scaling is multiplication by a one-term expansion.
    const double s = 3.7;
    EXPECT_EQ((a.scale(s) - a * Expansion(s)).sign(), 0);
    // Sign is consistent with the estimate when the estimate is decisive.
    const double est = a.estimate();
    if (std::abs(est) > 1e-3) {
      EXPECT_EQ(a.sign(), est > 0 ? 1 : -1);
    }
  }
}

TEST_P(ExpansionFuzz, CompressionPreservesValue) {
  auto rng = testkit::loggedRng("expansion-compression",
                                static_cast<unsigned>(GetParam()) * 31 + 5);
  for (int it = 0; it < 200; ++it) {
    const Expansion a = randomExpansion(rng);
    EXPECT_EQ((a - a.compressed()).sign(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpansionFuzz, ::testing::Range(0, 5));

}  // namespace
}  // namespace hybrid::geom
