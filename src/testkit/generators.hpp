#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "scenario/generator.hpp"

namespace hybrid::testkit {

/// One generated fuzz input: the scenario plus the provenance needed to
/// regenerate it bit-identically (`findGenerator(generator)->make(seed)`).
struct GeneratedCase {
  std::string generator;
  std::uint64_t seed = 0;
  scenario::Scenario scenario;
};

/// A seeded adversarial scenario generator. `make` must be a pure function
/// of the seed: the whole differential-testing pipeline (trial replay,
/// shrinking, corpus triage) leans on that reproducibility.
struct Generator {
  const char* name;
  scenario::Scenario (*make)(std::uint64_t seed);
};

/// The registry, in fixed order (trial t uses generators()[t % size]):
///  - random_udg:     connected UDGs at swept densities, random obstacles
///  - maze_comb:      comb/maze obstacle — the paper's lower-bound shape
///  - spiral:         rectangular spiral corridor (worst-case detours)
///  - collinear:      near-degenerate collinear clusters (predicate stress)
///  - cocircular:     exact + perturbed cocircular rings (incircle stress)
///  - hull_tangent:   hole hulls grazing each other (PR 3's failure class)
///  - hull_intersect: interlocked hulls — the paper's unsupported case
const std::vector<Generator>& generators();

/// nullptr when unknown.
const Generator* findGenerator(std::string_view name);

/// Builds generators()[index % size] with `seed`, tagging provenance.
GeneratedCase makeCase(std::size_t index, std::uint64_t seed);

}  // namespace hybrid::testkit
