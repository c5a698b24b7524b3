#include "obs/snapshot.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace hybrid::obs {

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

namespace {

void appendDouble(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  out += buf;
}

void appendQuoted(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

std::string toJson(const Snapshot& s) {
  std::string out = "{\n  \"schema\": \"hybrid-obs/1\",\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : s.counters) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    appendQuoted(out, name);
    out += ": " + std::to_string(v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : s.gauges) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    appendQuoted(out, name);
    out += ": ";
    appendDouble(out, v);
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : s.histograms) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    appendQuoted(out, name);
    out += ": {\"bounds\": [";
    for (std::size_t i = 0; i < h.bounds.size(); ++i) {
      if (i > 0) out += ", ";
      appendDouble(out, h.bounds[i]);
    }
    out += "], \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "], \"count\": " + std::to_string(h.count) + ", \"sum\": ";
    appendDouble(out, h.sum);
    out += "}";
  }
  out += first ? "},\n" : "\n  },\n";
  out += "  \"spans\": [";
  first = true;
  for (const auto& sp : s.spans) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    out += "{\"path\": ";
    appendQuoted(out, sp.path);
    out += ", \"count\": " + std::to_string(sp.count) +
           ", \"ns\": " + std::to_string(sp.totalNs) + "}";
  }
  out += first ? "]\n}\n" : "\n  ]\n}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON reader — just enough for the schema above
// (and tolerant of unknown keys). Numbers parse with strtod, which
// round-trips the %.17g the writer emits.
// ---------------------------------------------------------------------------

namespace {

struct Parser {
  const char* p;
  const char* end;
  bool ok = true;

  void skipWs() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool consume(char c) {
    skipWs();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    ok = false;
    return false;
  }
  bool peek(char c) {
    skipWs();
    return p < end && *p == c;
  }

  std::string parseString() {
    std::string out;
    if (!consume('"')) return out;
    while (p < end && *p != '"') {
      if (*p == '\\' && p + 1 < end) {
        ++p;
        switch (*p) {
          case 'n':
            out += '\n';
            break;
          case 't':
            out += '\t';
            break;
          default:
            out += *p;
        }
      } else {
        out += *p;
      }
      ++p;
    }
    if (p >= end) {
      ok = false;
      return out;
    }
    ++p;  // closing quote
    return out;
  }

  double parseNumber() {
    skipWs();
    char* numEnd = nullptr;
    const double v = std::strtod(p, &numEnd);
    if (numEnd == p) {
      ok = false;
      return 0.0;
    }
    p = numEnd;
    return v;
  }

  /// Exact unsigned parse for counter-like fields: a uint64 above 2^53
  /// would lose its low bits through a double.
  std::uint64_t parseUint() {
    skipWs();
    if (p < end && (std::isdigit(static_cast<unsigned char>(*p)) != 0)) {
      char* numEnd = nullptr;
      const std::uint64_t v = std::strtoull(p, &numEnd, 10);
      // Integer token only; anything like "1.5" or "1e9" falls back to
      // the double path.
      if (numEnd > p && (numEnd >= end || (*numEnd != '.' && *numEnd != 'e' &&
                                           *numEnd != 'E'))) {
        p = numEnd;
        return v;
      }
    }
    return static_cast<std::uint64_t>(parseNumber());
  }

  /// Skips any JSON value (used for unknown keys).
  void skipValue() {
    skipWs();
    if (p >= end) {
      ok = false;
      return;
    }
    if (*p == '"') {
      parseString();
    } else if (*p == '{') {
      ++p;
      skipWs();
      if (peek('}')) {
        consume('}');
        return;
      }
      while (ok) {
        parseString();
        consume(':');
        skipValue();
        if (!peek(',')) break;
        consume(',');
      }
      consume('}');
    } else if (*p == '[') {
      ++p;
      skipWs();
      if (peek(']')) {
        consume(']');
        return;
      }
      while (ok) {
        skipValue();
        if (!peek(',')) break;
        consume(',');
      }
      consume(']');
    } else if (std::strncmp(p, "true", 4) == 0) {
      p += 4;
    } else if (std::strncmp(p, "false", 5) == 0) {
      p += 5;
    } else if (std::strncmp(p, "null", 4) == 0) {
      p += 4;
    } else {
      parseNumber();
    }
  }

  /// Iterates `fn(key)` over an object's members; fn must consume the value.
  template <typename Fn>
  void parseObject(Fn&& fn) {
    if (!consume('{')) return;
    if (peek('}')) {
      consume('}');
      return;
    }
    while (ok) {
      const std::string key = parseString();
      consume(':');
      fn(key);
      if (!peek(',')) break;
      consume(',');
    }
    consume('}');
  }

  /// Iterates `fn()` over an array's elements; fn must consume the value.
  template <typename Fn>
  void parseArray(Fn&& fn) {
    if (!consume('[')) return;
    if (peek(']')) {
      consume(']');
      return;
    }
    while (ok) {
      fn();
      if (!peek(',')) break;
      consume(',');
    }
    consume(']');
  }
};

}  // namespace

std::optional<Snapshot> fromJson(const std::string& json) {
  Parser pr{json.data(), json.data() + json.size()};
  Snapshot s;
  pr.parseObject([&](const std::string& key) {
    if (key == "counters") {
      pr.parseObject([&](const std::string& name) {
        s.counters.emplace_back(name, pr.parseUint());
      });
    } else if (key == "gauges") {
      pr.parseObject(
          [&](const std::string& name) { s.gauges.emplace_back(name, pr.parseNumber()); });
    } else if (key == "histograms") {
      pr.parseObject([&](const std::string& name) {
        HistogramData h;
        pr.parseObject([&](const std::string& field) {
          if (field == "bounds") {
            pr.parseArray([&] { h.bounds.push_back(pr.parseNumber()); });
          } else if (field == "counts") {
            pr.parseArray([&] { h.counts.push_back(pr.parseUint()); });
          } else if (field == "count") {
            h.count = pr.parseUint();
          } else if (field == "sum") {
            h.sum = pr.parseNumber();
          } else {
            pr.skipValue();
          }
        });
        s.histograms.emplace_back(name, std::move(h));
      });
    } else if (key == "spans") {
      pr.parseArray([&] {
        SpanData sp;
        pr.parseObject([&](const std::string& field) {
          if (field == "path") {
            sp.path = pr.parseString();
          } else if (field == "count") {
            sp.count = pr.parseUint();
          } else if (field == "ns") {
            sp.totalNs = pr.parseUint();
          } else {
            pr.skipValue();
          }
        });
        s.spans.push_back(std::move(sp));
      });
    } else {
      pr.skipValue();
    }
  });
  if (!pr.ok) return std::nullopt;
  return s;
}

bool saveSnapshot(const std::string& path, const Snapshot& s) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  const std::string json = toJson(s);
  out.write(json.data(), static_cast<std::streamsize>(json.size()));
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
