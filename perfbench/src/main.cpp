// Repository benchmark: command-line entry point.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--out DIR]
//
// Runs one workload (route_serve, churn_serve, preprocess_lossy) on inputs
// generated from --seed, measures for --seconds, checks every output, and
// prints as its last stdout line one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {name: {value, unit}}}
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones,
// and writes the run's spans plus a hybrid-obs/1 snapshot under --out.
// Exits 1 when any operation failed its correctness check, 2 on bad usage,
// 3 when a declared metric was not measured or the trace files could not
// be written.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "obs/snapshot.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

/// The metric names BENCHMARK.json declares; a run must report each one.
const char* const kEndToEnd[] = {"setup_s", "peak_rss_mb", "throughput_per_s",
                                 "latency_ms_p50", "latency_ms_tail"};
const char* const kPerLayer[] = {
    "routing.route_us_p50", "routing.route_us_p99", "routing.overlay_query_us_p50",
    "routing.overlay_query_us_p99", "routing.chew_us_p50", "routing.locate_us_p50",
    "routing.hops_mean", "routing.case_share.c0", "routing.case_share.c1",
    "routing.case_share.c2", "routing.case_share.c3", "routing.case_share.c4",
    "routing.case_share.c5", "routing.bay_extreme_mean", "routing.fallbacks",
    "routing.fallback_share", "routing.stretch_mean", "routing.stretch_p99",
    "overlay.query.rebuild_share", "overlay.query.direct_share", "overlay.vis_tests_per_query",
    "overlay.table.fallbacks", "overlay.abstraction.fallbacks", "serve.swap_ms_p50",
    "serve.swap_ms_p90", "serve.queue_wait_ms_p90", "serve.other_ms", "serve.epochs_full_share",
    "serve.epochs_incremental_share", "serve.epochs_reused_share", "serve.changed_rings_mean",
    "serve.updates_rejected_share", "serve.pin_us_p99", "delaunay.build_ms", "holes.detect_ms",
    "abstraction.build_ms", "routing.subdivision_ms", "routing.router_build_ms",
    "protocols.ldel_ms", "protocols.rings_ms", "protocols.ds_ms", "sim.rounds.ldel",
    "sim.rounds.rings", "sim.rounds.ds", "sim.messages", "sim.dropped", "sim.msgs_per_s",
    "sim.effective_threads", "arq.retransmissions", "trace.overhead_pct"};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload route_serve|churn_serve|"
               "preprocess_lossy --seed N --seconds S --trace 0|1 [--out DIR]\n",
               why);
  return 2;
}

/// Writes the traced run's per-layer metrics, span self times, the
/// program's own registry and spans, and the benchmark's span tree as one
/// hybrid-obs/1 snapshot, so `metrics_report diff` compares two traced runs.
bool writeTrace(const std::string& dir, const RunConfig& cfg, const Metrics& metrics) {
  const std::string stem = dir + "/" + cfg.workload + "-seed" + std::to_string(cfg.seed);
  auto snap = hybrid::obs::capture();
  for (const auto& m : metrics.list) snap.gauges.emplace_back("perfbench." + m.name, m.value);
  for (const auto& t : trace::selfTimes()) {
    snap.gauges.emplace_back("perfbench.self_ms." + t.name, t.selfMs);
    std::printf("# self_ms %-28s count=%-8llu self=%.3f total=%.3f\n", t.name.c_str(),
                static_cast<unsigned long long>(t.count), t.selfMs, t.totalMs);
  }
  std::sort(snap.gauges.begin(), snap.gauges.end());
  const auto tree = trace::spanTree();
  snap.spans.insert(snap.spans.end(), tree.begin(), tree.end());
  std::printf("# trace files %s.obs.json %s.spans.jsonl\n", stem.c_str(), stem.c_str());
  return hybrid::obs::saveSnapshot(stem + ".obs.json", snap) &&
         trace::writeSpans(stem + ".spans.jsonl");
}

void printValue(double v) {
  if (!std::isfinite(v)) v = 1e300;
  std::printf("%.17g", v);
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig cfg;
  std::string outDir = ".";
  bool haveWorkload = false, haveSeed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      cfg.workload = val;
      haveWorkload = true;
    } else if (key == "--seed") {
      char* end = nullptr;
      cfg.seed = static_cast<unsigned>(std::strtoul(val.c_str(), &end, 10));
      haveSeed = end != val.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), nullptr);
    } else if (key == "--trace") {
      cfg.trace = val == "1";
    } else if (key == "--out") {
      outDir = val;
    } else {
      return usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("arguments come in --key value pairs");
  if (!haveWorkload || !haveSeed) return usage("--workload and a numeric --seed are required");
  if (!(cfg.seconds > 0.0)) return usage("--seconds must be positive");

  RunResult res;
  if (cfg.workload == "route_serve") {
    res = runRouteServe(cfg);
  } else if (cfg.workload == "churn_serve") {
    res = runChurnServe(cfg);
  } else if (cfg.workload == "preprocess_lossy") {
    res = runPreprocessLossy(cfg);
  } else {
    return usage(("unknown workload " + cfg.workload).c_str());
  }

  std::printf("# perfbench workload=%s seed=%u seconds=%g trace=%d build=%s compiler=%s\n",
              cfg.workload.c_str(), cfg.seed, cfg.seconds, cfg.trace ? 1 : 0,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER);
  for (const auto& line : res.info) std::printf("# %s\n", line.c_str());

  bool complete = true;
  Metrics report;
  const auto collect = [&](const auto& names) {
    for (const char* name : names) {
      bool found = false;
      for (const auto& m : res.metrics.list) {
        if (m.name == name) {
          report.list.push_back(m);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "perfbench: metric %s was not measured\n", name);
        complete = false;
      }
    }
  };
  if (cfg.trace) {
    collect(kPerLayer);
    if (!writeTrace(outDir, cfg, report)) {
      std::fprintf(stderr, "perfbench: cannot write trace files under %s\n", outDir.c_str());
      complete = false;
    }
  } else {
    collect(kEndToEnd);
  }
  if (!complete) return 3;

  const bool correct = res.tally.failed == 0 && res.tally.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, \"metrics\": {",
              correct ? "true" : "false", res.tally.attempted, res.tally.failed);
  for (std::size_t i = 0; i < report.list.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", report.list[i].name.c_str());
    printValue(report.list[i].value);
    std::printf(", \"unit\": \"%s\"}", report.list[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return correct ? 0 : 1;
}
