#include "obs/snapshot.hpp"

#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace hybrid::obs {

namespace json = util::json;

Snapshot capture() {
  Snapshot s;
  s.counters = Registry::global().counterValues();
  s.gauges = Registry::global().gaugeValues();
  s.histograms = Registry::global().histogramValues();
  for (const auto& [path, st] : Tracer::global().spanValues()) {
    s.spans.push_back({path, st.count, st.totalNs});
  }
  return s;
}

std::string toJson(const Snapshot& s) {
  std::string out = "{\n  \"schema\": \"hybrid-obs/1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::appendString(out, name);
    out += ": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::appendString(out, name);
    out += ": ";
    json::appendNumber(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json::appendString(out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      json::appendNumber(out, h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) + ", \"sum\": ";
    json::appendNumber(out, h.sum);
    out += "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": [";
  first = true;
  for (const auto& sp : s.spans) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"path\": ";
    json::appendString(out, sp.path);
    out += ", \"count\": " + std::to_string(sp.count) +
           ", \"ns\": " + std::to_string(sp.totalNs) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

std::optional<Snapshot> fromJson(const std::string& text) {
  json::Reader r(text);
  Snapshot s;
  r.object([&](const std::string& key) {
    if (key == "counters") {
      r.object([&](const std::string& name) { s.counters.emplace_back(name, r.uint64()); });
    } else if (key == "gauges") {
      r.object([&](const std::string& name) { s.gauges.emplace_back(name, r.number()); });
    } else if (key == "histograms") {
      r.object([&](const std::string& name) {
        HistogramData h;
        r.object([&](const std::string& field) {
          if (field == "bounds") {
            r.array([&] { h.bounds.push_back(r.number()); });
          } else if (field == "counts") {
            r.array([&] { h.counts.push_back(r.uint64()); });
          } else if (field == "count") {
            h.count = r.uint64();
          } else if (field == "sum") {
            h.sum = r.number();
          } else {
            r.skip();
          }
        });
        s.histograms.emplace_back(name, std::move(h));
      });
    } else if (key == "spans") {
      r.array([&] {
        SpanData sp;
        r.object([&](const std::string& field) {
          if (field == "path") {
            sp.path = r.string();
          } else if (field == "count") {
            sp.count = r.uint64();
          } else if (field == "ns") {
            sp.totalNs = r.uint64();
          } else {
            r.skip();
          }
        });
        s.spans.push_back(std::move(sp));
      });
    } else {
      r.skip();
    }
  });
  if (!r.ok()) return std::nullopt;
  return s;
}

bool saveSnapshot(const std::string& path, const Snapshot& s) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string text = toJson(s);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  return static_cast<bool>(out);
}

std::optional<Snapshot> loadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return fromJson(ss.str());
}

}  // namespace hybrid::obs
