// Property-based fuzzing driver for the hybrid-routing pipeline.
//
// Runs N seeded trials; each trial generates an adversarial scenario (one
// of the testkit generators, round-robin), builds the full pipeline and
// checks every differential oracle and paper invariant. Failing cases are
// greedily shrunk and written as replayable JSON into the corpus directory,
// where corpus_regression_test picks them up forever after.
//
// The run is deterministic: `fuzz_router --trials 500 --seed 1` prints the
// same summary on every invocation and at every --threads value (the
// parallel code paths under test are thread-count-invariant — that
// invariance is itself one of the properties checked).
//
// Examples:
//   fuzz_router --trials 500 --seed 1
//   fuzz_router --trials 50 --seed 7 --corpus tests/corpus
//   fuzz_router --trials 25 --inject-bug drop-overlay-waypoint --corpus /tmp/corpus
//   fuzz_router --replay tests/corpus/some_case.json

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "testkit/harness.hpp"

namespace {

void usage() {
  std::printf(
      "usage: fuzz_router [options]\n"
      "  --trials N        number of trials (default 100)\n"
      "  --seed S          master seed; trial t uses deriveSeed(S, t) (default 1)\n"
      "  --threads K       thread count for the parallel paths under test (default 2)\n"
      "  --corpus DIR      shrink + record failing cases as JSON under DIR\n"
      "  --inject-bug B    plant a deliberate defect: drop-overlay-waypoint |\n"
      "                    inflate-overlay-distance | swap-delivery-order |\n"
      "                    drop-label-hub | wrong-next-hop | drop-bbox-corner\n"
      "                    (default none)\n"
      "  --router R        serving engine the batch-serving oracles exercise:\n"
      "                    centralized | stateless (default centralized)\n"
      "  --abstraction A   per-hole abstraction the oracles route through:\n"
      "                    hulls | bbox | auto (default hulls)\n"
      "  --shrink-min N    do not shrink below N nodes (default 8)\n"
      "  --replay FILE     replay one corpus case instead of fuzzing\n"
      "  --metrics FILE    enable observability and write an obs snapshot (JSON)\n"
      "  --list            list generators, oracles and injectable bugs\n"
      "  --verbose         per-trial progress lines\n");
}

int replay(const std::string& path, int threads) {
  const auto c = hybrid::testkit::loadCase(path);
  if (!c) {
    std::fprintf(stderr, "fuzz_router: cannot parse corpus case %s\n", path.c_str());
    return 2;
  }
  const std::string failure = hybrid::testkit::replayCase(*c, threads);
  if (failure.empty()) {
    std::printf("replay %s: pass (generator=%s seed=%llu n=%zu)\n", path.c_str(),
                c->generator.c_str(), static_cast<unsigned long long>(c->seed),
                c->scenario.points.size());
    return 0;
  }
  std::printf("replay %s: FAIL %s\n", path.c_str(), failure.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  hybrid::testkit::FuzzOptions opts;
  std::string replayPath;
  std::string metricsPath;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "fuzz_router: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--trials") {
      opts.trials = std::atoi(value());
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--threads") {
      opts.threads = std::atoi(value());
    } else if (arg == "--corpus") {
      opts.corpusDir = value();
    } else if (arg == "--inject-bug") {
      const char* name = value();
      opts.bug = hybrid::testkit::parseInjectedBug(name);
      if (opts.bug == hybrid::testkit::InjectedBug::None && std::strcmp(name, "none") != 0) {
        std::fprintf(stderr, "fuzz_router: unknown bug '%s'\n", name);
        return 2;
      }
    } else if (arg == "--router") {
      const char* name = value();
      const auto kind = hybrid::testkit::parseRouterKind(name);
      if (!kind) {
        std::fprintf(stderr, "fuzz_router: unknown router '%s'\n", name);
        return 2;
      }
      opts.routerKind = *kind;
    } else if (arg == "--abstraction") {
      const char* name = value();
      const auto mode = hybrid::routing::parseAbstractionMode(name);
      if (!mode) {
        std::fprintf(stderr, "fuzz_router: unknown abstraction '%s'\n", name);
        return 2;
      }
      opts.abstractionMode = *mode;
    } else if (arg == "--shrink-min") {
      opts.shrink.minNodes = static_cast<std::size_t>(std::atoi(value()));
    } else if (arg == "--replay") {
      replayPath = value();
    } else if (arg == "--metrics") {
      metricsPath = value();
    } else if (arg == "--list") {
      std::printf("generators:\n");
      for (const auto& g : hybrid::testkit::generators()) std::printf("  %s\n", g.name);
      std::printf("oracles:\n");
      for (const auto& o : hybrid::testkit::oracles()) std::printf("  %s\n", o.name);
      std::printf(
          "bugs:\n  drop-overlay-waypoint\n  inflate-overlay-distance\n"
          "  swap-delivery-order\n  drop-label-hub\n  wrong-next-hop\n"
          "  drop-bbox-corner\n");
      std::printf("routers:\n  centralized\n  stateless\n");
      std::printf("abstractions:\n  hulls\n  bbox\n  auto\n");
      return 0;
    } else if (arg == "--verbose") {
      opts.verbose = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "fuzz_router: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    }
  }

  if (!metricsPath.empty()) {
    if (!hybrid::obs::kCompiledIn) {
      std::fprintf(stderr,
                   "fuzz_router: --metrics requested but observability was compiled out "
                   "(HYBRID_OBS_DISABLED)\n");
      return 2;
    }
    hybrid::obs::setEnabled(true);
  }

  if (!replayPath.empty()) return replay(replayPath, opts.threads);

  if (!opts.corpusDir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(opts.corpusDir, ec);
    if (ec) {
      std::fprintf(stderr, "fuzz_router: cannot create corpus dir %s: %s\n",
                   opts.corpusDir.c_str(), ec.message().c_str());
      return 2;
    }
  }

  const auto summary = hybrid::testkit::runFuzz(opts);
  std::fputs(summary.report().c_str(), stdout);

  if (!metricsPath.empty()) {
    const auto snap = hybrid::obs::capture();
    if (!hybrid::obs::saveSnapshot(metricsPath, snap)) {
      std::fprintf(stderr, "fuzz_router: cannot write metrics snapshot %s\n",
                   metricsPath.c_str());
      return 2;
    }
    std::printf("metrics snapshot: %s (%zu counters, %zu gauges, %zu histograms, %zu spans)\n",
                metricsPath.c_str(), snap.counters.size(), snap.gauges.size(),
                snap.histograms.size(), snap.spans.size());
  }
  return summary.allPassed() ? 0 : 1;
}
