#include "testkit/harness.hpp"

#include <cstdio>
#include <exception>
#include <sstream>

#include "testkit/rng.hpp"

namespace hybrid::testkit {

namespace {

/// Runs the registry on a built context; fills per-oracle stats and
/// reports the first failure (oracle index, message) if any.
struct CaseVerdict {
  int failedOracle = -1;
  std::string message;
};

CaseVerdict runOracles(const CaseContext& ctx, std::vector<FuzzSummary::OracleStats>* stats) {
  CaseVerdict v;
  const auto& reg = oracles();
  for (std::size_t i = 0; i < reg.size(); ++i) {
    OracleResult r;
    try {
      r = reg[i].check(ctx);
    } catch (const std::exception& e) {
      r.ok = false;
      r.failure = std::string("unhandled exception: ") + e.what();
    }
    if (stats) {
      auto& s = (*stats)[i];
      s.runs += 1;
      if (r.skipped) {
        s.skips += 1;
      } else if (r.ok) {
        s.passes += 1;
      } else {
        s.failures += 1;
      }
    }
    if (!r.ok && !r.skipped) {
      v.failedOracle = static_cast<int>(i);
      v.message = r.failure;
      return v;
    }
  }
  return v;
}

std::string corpusFileName(const FuzzFailure& f) {
  std::ostringstream os;
  os << f.oracle << '_' << f.generator << '_' << f.caseSeed << ".json";
  return os.str();
}

}  // namespace

FuzzSummary runFuzz(const FuzzOptions& opts) {
  FuzzSummary summary;
  const auto& gens = generators();
  const auto& reg = oracles();
  for (const auto& g : gens) summary.perGenerator.emplace_back(g.name, 0);
  summary.perOracle.resize(reg.size());
  for (std::size_t i = 0; i < reg.size(); ++i) summary.perOracle[i].name = reg[i].name;

  for (int trial = 0; trial < opts.trials; ++trial) {
    const std::size_t genIdx = static_cast<std::size_t>(trial) % gens.size();
    const std::uint64_t caseSeed = deriveSeed(opts.seed, static_cast<std::uint64_t>(trial));
    const GeneratedCase gc = makeCase(genIdx, caseSeed);
    summary.perGenerator[genIdx].second += 1;
    summary.trials += 1;

    FuzzFailure failure;
    failure.trial = trial;
    failure.generator = gc.generator;
    failure.caseSeed = caseSeed;
    failure.originalNodes = gc.scenario.points.size();

    int failedOracle = -1;
    try {
      const CaseContext ctx(gc.scenario, caseSeed, opts.threads, opts.bug, opts.routerKind,
                            opts.abstractionMode);
      const CaseVerdict v = runOracles(ctx, &summary.perOracle);
      failedOracle = v.failedOracle;
      if (failedOracle >= 0) {
        failure.oracle = reg[static_cast<std::size_t>(failedOracle)].name;
        failure.message = v.message;
      }
    } catch (const std::exception& e) {
      failedOracle = static_cast<int>(reg.size());  // construction, pre-oracle
      failure.oracle = "construction";
      failure.message = std::string("unhandled exception: ") + e.what();
    }

    if (failedOracle < 0) {
      if (opts.verbose) {
        std::printf("[fuzz] trial %d %s seed=%llu n=%zu ok\n", trial, gc.generator.c_str(),
                    static_cast<unsigned long long>(caseSeed), gc.scenario.points.size());
      }
      continue;
    }

    // Shrink: keep only candidates that fail the same way (same oracle for
    // oracle failures; any pipeline crash for construction failures).
    const auto reproduces = [&](const scenario::Scenario& candidate) {
      if (failure.oracle == "construction") {
        try {
          CaseContext probe(candidate, caseSeed, opts.threads, opts.bug, opts.routerKind,
                            opts.abstractionMode);
          (void)probe;
          return false;
        } catch (...) {
          return true;
        }
      }
      const CaseContext probe(candidate, caseSeed, opts.threads, opts.bug, opts.routerKind,
                              opts.abstractionMode);
      const OracleResult r = reg[static_cast<std::size_t>(failedOracle)].check(probe);
      return !r.ok && !r.skipped;
    };
    scenario::Scenario shrunk = shrinkScenario(gc.scenario, reproduces, opts.shrink).scenario;
    failure.shrunkNodes = shrunk.points.size();

    if (!opts.corpusDir.empty()) {
      CorpusCase cc;
      cc.generator = gc.generator;
      cc.seed = caseSeed;
      cc.oracle = failure.oracle;
      cc.note = failure.message;
      cc.scenario = std::move(shrunk);
      const std::string path = opts.corpusDir + "/" + corpusFileName(failure);
      if (saveCase(path, cc)) failure.corpusPath = path;
    }
    if (opts.verbose) {
      std::printf("[fuzz] trial %d %s seed=%llu FAIL %s (n=%zu -> %zu)\n", trial,
                  gc.generator.c_str(), static_cast<unsigned long long>(caseSeed),
                  failure.oracle.c_str(), failure.originalNodes, failure.shrunkNodes);
    }
    summary.failures.push_back(std::move(failure));
  }
  return summary;
}

std::string FuzzSummary::report() const {
  std::ostringstream os;
  os << "fuzz summary: trials=" << trials << " failures=" << failures.size() << "\n";
  os << "generators:";
  for (const auto& [name, count] : perGenerator) os << ' ' << name << '=' << count;
  os << "\noracles:\n";
  for (const auto& s : perOracle) {
    os << "  " << s.name << ": runs=" << s.runs << " passes=" << s.passes
       << " skips=" << s.skips << " failures=" << s.failures << "\n";
  }
  for (const auto& f : failures) {
    os << "failure: trial=" << f.trial << " generator=" << f.generator
       << " seed=" << f.caseSeed << " oracle=" << f.oracle << " nodes=" << f.originalNodes
       << "->" << f.shrunkNodes;
    if (!f.corpusPath.empty()) os << " corpus=" << f.corpusPath;
    os << "\n  " << f.message << "\n";
  }
  return os.str();
}

std::string replayCase(const CorpusCase& c, int threads) {
  try {
    const CaseContext ctx(c.scenario, c.seed, threads, InjectedBug::None);
    const CaseVerdict v = runOracles(ctx, nullptr);
    if (v.failedOracle < 0) return {};
    return std::string(oracles()[static_cast<std::size_t>(v.failedOracle)].name) + ": " +
           v.message;
  } catch (const std::exception& e) {
    return std::string("construction: unhandled exception: ") + e.what();
  }
}

}  // namespace hybrid::testkit
