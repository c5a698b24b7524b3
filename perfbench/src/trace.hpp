#pragma once

// The benchmark's own span recorder. Spans wrap the public calls the
// benchmark makes into each layer; each holds its name, start, end, parent
// span and an id shared by every span of one query, epoch or pass. Spans
// stay in per-thread memory while a run measures and are only aggregated
// and written out once it ends. Disabled (the default), opening a span
// costs one relaxed atomic load.

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/snapshot.hpp"

namespace perfbench::trace {

void setEnabled(bool on);
bool enabled();

/// RAII span on the calling thread's span stack.
class Span {
 public:
  Span(const char* name, std::uint64_t id);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int index_ = -1;
};

/// Self time of every span name: each span's duration minus the part of
/// it its child spans cover, summed over all spans of that name.
struct SelfTime {
  std::string name;
  std::uint64_t count = 0;
  double selfMs = 0.0;
  double totalMs = 0.0;
};
std::vector<SelfTime> selfTimes();

/// Span tree aggregated by path ("parent/child"), in the shape of the
/// hybrid-obs/1 snapshot's `spans` list.
std::vector<hybrid::obs::SpanData> spanTree();

/// Writes every recorded span as one JSON object per line.
bool writeSpans(const std::string& path);

}  // namespace perfbench::trace
