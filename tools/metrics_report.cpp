// Snapshot diff / perf-regression gate over obs snapshots (schema
// hybrid-obs/1, see src/obs/snapshot.hpp).
//
// Modes:
//   metrics_report diff BASE.json RUN.json [--top N]
//       Human-readable report of the largest relative changes between two
//       snapshots (counters + gauges), plus new/removed metrics.
//   metrics_report --check BASE.json RUN.json [RUN2.json ...]
//                  [--threshold F] [--filter SUBSTR]
//       CI gate. For every baseline gauge whose name contains SUBSTR
//       (default: every gauge), takes the best (max) value across the run
//       snapshots — higher-is-better metrics like queries_per_s or
//       speedup ratios — and fails (exit 1) when best < base * (1 - F).
//       Passing several runs makes the gate best-of-N noise tolerant.
//       Default threshold 0.25.
//   metrics_report --self-test
//       Proves the gate logic catches a synthetic regression and accepts
//       within-threshold noise; exits non-zero if the gate is broken.
//
// Examples:
//   metrics_report diff bench/baselines/e17.json /tmp/e17.json
//   metrics_report --check bench/baselines/e18.json r1.json r2.json r3.json
//                  --filter speedup --threshold 0.25

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"

namespace {

using hybrid::obs::Snapshot;

void usage() {
  std::printf(
      "usage: metrics_report <mode>\n"
      "  diff BASE.json RUN.json [--top N]\n"
      "      top-N relative changes between two snapshots (default N=20)\n"
      "  --check BASE.json RUN.json [RUN2.json ...]\n"
      "          [--threshold F] [--filter SUBSTR]\n"
      "      fail (exit 1) when the best run value of any baseline gauge\n"
      "      matching SUBSTR drops more than F below baseline (default 0.25)\n"
      "  --self-test\n"
      "      verify the gate catches a synthetic regression\n");
}

std::optional<Snapshot> load(const std::string& path) {
  auto snap = hybrid::obs::loadSnapshot(path);
  if (!snap) std::fprintf(stderr, "metrics_report: cannot load snapshot %s\n", path.c_str());
  return snap;
}

struct Change {
  std::string kind;
  std::string name;
  double base = 0.0;
  double run = 0.0;
  double rel = 0.0;  // (run - base) / |base|; +inf for new-from-zero
};

double relChange(double base, double run) {
  if (base == run) return 0.0;
  if (base == 0.0) return run > 0 ? std::numeric_limits<double>::infinity()
                                  : -std::numeric_limits<double>::infinity();
  return (run - base) / std::fabs(base);
}

int runDiff(const Snapshot& base, const Snapshot& run, int top) {
  std::vector<Change> changes;
  std::vector<std::string> added;
  std::vector<std::string> removed;

  const auto collect = [&](const char* kind, const std::map<std::string, double>& b,
                           const std::map<std::string, double>& r) {
    for (const auto& [name, bv] : b) {
      const auto it = r.find(name);
      if (it == r.end()) {
        removed.push_back(std::string(kind) + " " + name);
        continue;
      }
      if (it->second != bv) {
        changes.push_back({kind, name, bv, it->second, relChange(bv, it->second)});
      }
    }
    for (const auto& [name, rv] : r) {
      if (!b.contains(name)) added.push_back(std::string(kind) + " " + name);
      (void)rv;
    }
  };

  const std::map<std::string, double> bc(base.counters.begin(), base.counters.end());
  const std::map<std::string, double> rc(run.counters.begin(), run.counters.end());
  collect("counter", bc, rc);
  const std::map<std::string, double> bg(base.gauges.begin(), base.gauges.end());
  const std::map<std::string, double> rg(run.gauges.begin(), run.gauges.end());
  collect("gauge", bg, rg);

  std::sort(changes.begin(), changes.end(), [](const Change& a, const Change& b2) {
    const double ra = std::fabs(a.rel);
    const double rb = std::fabs(b2.rel);
    if (ra != rb) return ra > rb;
    return a.name < b2.name;
  });

  if (changes.empty() && added.empty() && removed.empty()) {
    std::printf("snapshots identical (%zu counters, %zu gauges)\n", bc.size(),
                base.gauges.size());
    return 0;
  }
  std::printf("%-8s %-52s %14s %14s %9s\n", "kind", "metric", "base", "run", "change");
  int shown = 0;
  for (const Change& c : changes) {
    if (shown++ >= top) {
      std::printf("... %zu more changed metrics (--top %d shown)\n", changes.size(),
                  top);
      break;
    }
    if (std::isinf(c.rel)) {
      std::printf("%-8s %-52s %14.6g %14.6g %9s\n", c.kind.c_str(), c.name.c_str(), c.base,
                  c.run, c.rel > 0 ? "+inf" : "-inf");
    } else {
      std::printf("%-8s %-52s %14.6g %14.6g %+8.1f%%\n", c.kind.c_str(), c.name.c_str(),
                  c.base, c.run, c.rel * 100.0);
    }
  }
  for (const std::string& name : added) std::printf("new      %s\n", name.c_str());
  for (const std::string& name : removed) std::printf("removed  %s\n", name.c_str());
  return 0;
}

struct CheckResult {
  int checked = 0;
  std::vector<Change> regressions;
};

/// Gate core, separated so --self-test can exercise it without files.
CheckResult checkGate(const Snapshot& base, const std::vector<Snapshot>& runs,
                      const std::string& filter, double threshold) {
  CheckResult out;
  std::vector<std::map<std::string, double>> runGauges;
  runGauges.reserve(runs.size());
  for (const Snapshot& run : runs) {
    runGauges.emplace_back(run.gauges.begin(), run.gauges.end());
  }
  for (const auto& [name, baseVal] : base.gauges) {
    if (!filter.empty() && name.find(filter) == std::string::npos) continue;
    double best = -std::numeric_limits<double>::infinity();
    bool found = false;
    for (const auto& gauges : runGauges) {
      const auto it = gauges.find(name);
      if (it == gauges.end()) continue;
      found = true;
      best = std::max(best, it->second);
    }
    if (!found) {
      // A metric that vanished from every run is itself a regression: the
      // bench silently stopped measuring it.
      out.regressions.push_back({"gauge", name, baseVal, 0.0, -1.0});
      ++out.checked;
      continue;
    }
    ++out.checked;
    if (baseVal > 0.0 && best < baseVal * (1.0 - threshold)) {
      out.regressions.push_back({"gauge", name, baseVal, best, relChange(baseVal, best)});
    }
  }
  std::sort(out.regressions.begin(), out.regressions.end(),
            [](const Change& a, const Change& b) { return a.rel < b.rel; });
  return out;
}

int runCheck(const Snapshot& base, const std::vector<Snapshot>& runs,
             const std::string& filter, double threshold) {
  const CheckResult res = checkGate(base, runs, filter, threshold);
  if (res.checked == 0) {
    std::fprintf(stderr,
                 "metrics_report: no baseline gauge matches filter '%s' -- nothing gated\n",
                 filter.c_str());
    return 2;
  }
  if (res.regressions.empty()) {
    std::printf("bench gate PASS: %d metric(s) within %.0f%% of baseline (best of %zu run(s))\n",
                res.checked, threshold * 100.0, runs.size());
    return 0;
  }
  std::printf("bench gate FAIL: %zu of %d metric(s) regressed more than %.0f%%\n",
              res.regressions.size(), res.checked, threshold * 100.0);
  std::printf("%-52s %14s %14s %9s\n", "metric", "base", "best-of-runs", "change");
  for (const Change& c : res.regressions) {
    std::printf("%-52s %14.6g %14.6g %+8.1f%%\n", c.name.c_str(), c.base, c.run,
                c.rel * 100.0);
  }
  return 1;
}

int selfTest() {
  const auto snapWith = [](std::vector<std::pair<std::string, double>> gauges) {
    Snapshot s;
    std::sort(gauges.begin(), gauges.end());
    s.gauges = std::move(gauges);
    return s;
  };
  const Snapshot base = snapWith({{"bench.x.speedup.a", 2.0},
                                  {"bench.x.speedup.b", 1.5},
                                  {"bench.x.items_per_s", 1e6}});

  // Run 1: 'a' regressed 40%, 'b' noisy-low. Run 2: 'b' recovers (best-of).
  const Snapshot run1 = snapWith({{"bench.x.speedup.a", 1.2},
                                  {"bench.x.speedup.b", 1.0},
                                  {"bench.x.items_per_s", 1e6}});
  const Snapshot run2 = snapWith({{"bench.x.speedup.a", 1.1},
                                  {"bench.x.speedup.b", 1.45},
                                  {"bench.x.items_per_s", 1e6}});

  const auto res = checkGate(base, {run1, run2}, "speedup", 0.25);
  if (res.checked != 2) {
    std::fprintf(stderr, "self-test: expected 2 gated metrics, got %d\n", res.checked);
    return 1;
  }
  if (res.regressions.size() != 1 || res.regressions[0].name != "bench.x.speedup.a") {
    std::fprintf(stderr, "self-test: gate missed the injected regression\n");
    return 1;
  }

  // Within-threshold noise must pass.
  const Snapshot noisy = snapWith({{"bench.x.speedup.a", 1.6},  // -20% < 25% threshold
                                   {"bench.x.speedup.b", 1.5},
                                   {"bench.x.items_per_s", 1e6}});
  if (!checkGate(base, {noisy}, "speedup", 0.25).regressions.empty()) {
    std::fprintf(stderr, "self-test: gate false-positived on within-threshold noise\n");
    return 1;
  }

  // A metric missing from every run must fail the gate.
  const Snapshot missing = snapWith({{"bench.x.speedup.b", 1.5}});
  if (checkGate(base, {missing}, "speedup", 0.25).regressions.empty()) {
    std::fprintf(stderr, "self-test: gate ignored a vanished metric\n");
    return 1;
  }

  std::printf("self-test pass: gate catches regressions, tolerates noise\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> positional;
  bool check = false;
  bool diff = false;
  double threshold = 0.25;
  std::string filter;
  int top = 20;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "metrics_report: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--check") {
      check = true;
    } else if (arg == "diff") {
      diff = true;
    } else if (arg == "--self-test") {
      return selfTest();
    } else if (arg == "--threshold") {
      threshold = std::atof(value());
    } else if (arg == "--filter") {
      filter = value();
    } else if (arg == "--top") {
      top = std::atoi(value());
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "metrics_report: unknown option %s\n", arg.c_str());
      usage();
      return 2;
    } else {
      positional.push_back(arg);
    }
  }

  if (diff == check) {  // neither or both
    usage();
    return 2;
  }
  if (diff) {
    if (positional.size() != 2) {
      usage();
      return 2;
    }
    const auto base = load(positional[0]);
    const auto run = load(positional[1]);
    if (!base || !run) return 2;
    return runDiff(*base, *run, top);
  }

  if (positional.size() < 2) {
    usage();
    return 2;
  }
  const auto base = load(positional[0]);
  if (!base) return 2;
  std::vector<Snapshot> runs;
  for (std::size_t i = 1; i < positional.size(); ++i) {
    const auto run = load(positional[i]);
    if (!run) return 2;
    runs.push_back(*run);
  }
  return runCheck(*base, runs, filter, threshold);
}
