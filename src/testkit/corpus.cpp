#include "testkit/corpus.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "util/json.hpp"

namespace hybrid::testkit {

namespace {

namespace json = util::json;

void appendPointList(std::string& out, const std::vector<geom::Vec2>& pts,
                     const char* indent) {
  out += '[';
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i != 0) out += ',';
    out += '\n';
    out += indent;
    out += '[';
    json::appendNumber(out, pts[i].x);
    out += ", ";
    json::appendNumber(out, pts[i].y);
    out += ']';
  }
  out += ']';
}

/// A list of [x, y] pairs; any other element shape fails the reader.
std::vector<geom::Vec2> readPointList(json::Reader& r) {
  std::vector<geom::Vec2> pts;
  r.array([&] {
    geom::Vec2 p;
    r.consume('[');
    p.x = r.number();
    r.consume(',');
    p.y = r.number();
    r.consume(']');
    pts.push_back(p);
  });
  return pts;
}

}  // namespace

std::string toJson(const CorpusCase& c) {
  std::string out = "{\n";
  out += "  \"schema\": \"hybrid-testkit-case-v1\",\n";
  out += "  \"generator\": ";
  json::appendString(out, c.generator);
  out += ",\n  \"seed\": " + std::to_string(c.seed) + ",\n";
  out += "  \"oracle\": ";
  json::appendString(out, c.oracle);
  out += ",\n  \"note\": ";
  json::appendString(out, c.note);
  out += ",\n  \"radius\": ";
  json::appendNumber(out, c.scenario.radius);
  out += ",\n  \"points\": ";
  appendPointList(out, c.scenario.points, "    ");
  out += ",\n  \"obstacles\": [";
  for (std::size_t i = 0; i < c.scenario.obstacles.size(); ++i) {
    if (i != 0) out += ',';
    out += "\n    ";
    appendPointList(out, c.scenario.obstacles[i].vertices(), "      ");
  }
  out += "]\n}\n";
  return out;
}

std::optional<CorpusCase> fromJson(const std::string& text) {
  json::Reader r(text);
  CorpusCase c;
  r.object([&](const std::string& key) {
    if (key == "generator") {
      c.generator = r.string();
    } else if (key == "seed") {
      c.seed = r.uint64();
    } else if (key == "oracle") {
      c.oracle = r.string();
    } else if (key == "note") {
      c.note = r.string();
    } else if (key == "radius") {
      c.scenario.radius = r.number();
    } else if (key == "points") {
      c.scenario.points = readPointList(r);
    } else if (key == "obstacles") {
      r.array([&] { c.scenario.obstacles.emplace_back(readPointList(r)); });
    } else {
      r.skip();
    }
  });
  if (!r.ok()) return std::nullopt;
  if (c.scenario.points.empty() || c.scenario.radius <= 0.0) return std::nullopt;
  return c;
}

bool saveCase(const std::string& path, const CorpusCase& c) {
  std::ofstream os(path);
  if (!os) return false;
  os << toJson(c);
  return static_cast<bool>(os);
}

std::optional<CorpusCase> loadCase(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  std::ostringstream buf;
  buf << is.rdbuf();
  return fromJson(buf.str());
}

std::vector<std::string> listCorpus(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.path().extension() == ".json") out.push_back(entry.path().string());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace hybrid::testkit
