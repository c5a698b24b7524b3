#pragma once

// Point-in-time export of the observability registry + span tree, with a
// stable machine-readable schema ("hybrid-obs/1"):
//
// {
//   "schema": "hybrid-obs/1",
//   "counters":   { "<name>": <uint>, ... },
//   "gauges":     { "<name>": <double>, ... },
//   "histograms": { "<name>": { "bounds": [..], "counts": [..],
//                               "count": <uint>, "sum": <double> }, ... },
//   "spans":      [ { "path": "a/b", "count": <uint>, "ns": <uint> }, ... ]
// }
//
// Keys are emitted in sorted order and doubles with %.17g, so two captures
// of identical metric values serialize byte-identically and round-trip
// through fromJson() without loss. tools/metrics_report diffs and gates on
// these files; bench/baselines/*.json are checked-in instances.

#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace hybrid::obs {

struct SpanData {
  std::string path;
  std::uint64_t count = 0;
  std::uint64_t totalNs = 0;

  bool operator==(const SpanData&) const = default;
};

struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;  ///< Name-sorted.
  std::vector<std::pair<std::string, double>> gauges;           ///< Name-sorted.
  std::vector<std::pair<std::string, HistogramData>> histograms;
  std::vector<SpanData> spans;  ///< Depth-first path order.

  bool operator==(const Snapshot&) const = default;
};

/// Captures the global Registry and Tracer.
Snapshot capture();

std::string toJson(const Snapshot& s);
/// Parses toJson() output (tolerates unknown keys); nullopt when malformed.
std::optional<Snapshot> fromJson(const std::string& json);

bool saveSnapshot(const std::string& path, const Snapshot& s);
std::optional<Snapshot> loadSnapshot(const std::string& path);

}  // namespace hybrid::obs
