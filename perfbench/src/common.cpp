#include "common.hpp"

#include <sys/resource.h>

#include <cmath>
#include <numeric>

#include "scenario/shapes.hpp"

namespace perfbench {

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

WindowBest bestWindow(const Series& s, double spanS, int windows) {
  const double len = spanS / windows;
  std::vector<std::vector<double>> values(static_cast<std::size_t>(windows));
  std::vector<double> weight(static_cast<std::size_t>(windows), 0.0);
  for (std::size_t i = 0; i < s.atS.size(); ++i) {
    const int w = static_cast<int>(s.atS[i] / len);
    if (w < 0 || w >= windows) continue;
    values[static_cast<std::size_t>(w)].push_back(s.value[i]);
    weight[static_cast<std::size_t>(w)] += s.weight[i];
  }
  WindowBest best;
  bool first = true;
  for (int w = 0; w < windows; ++w) {
    auto& v = values[static_cast<std::size_t>(w)];
    if (v.empty()) continue;
    const double p50 = quantile(v, 0.5);
    best.p50 = first ? p50 : std::min(best.p50, p50);
    best.perS = std::max(best.perS, weight[static_cast<std::size_t>(w)] / len);
    first = false;
  }
  return best;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux.
}

void Metrics::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : list) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  list.push_back({name, value, unit});
}


hybrid::scenario::Scenario convexHolesScenario(std::size_t n, unsigned seed) {
  namespace sc = hybrid::scenario;
  sc::ScenarioParams p = sc::paramsForNodeCount(n + n / 3, seed);
  const double side = p.width;
  p.obstacles.push_back(
      sc::regularPolygonObstacle({0.28 * side, 0.30 * side}, 0.11 * side, 6, 0.3));
  p.obstacles.push_back(
      sc::rectangleObstacle({0.55 * side, 0.55 * side}, {0.80 * side, 0.72 * side}));
  p.obstacles.push_back(
      sc::regularPolygonObstacle({0.72 * side, 0.24 * side}, 0.09 * side, 5, 1.1));
  p.obstacles.push_back(
      sc::regularPolygonObstacle({0.25 * side, 0.72 * side}, 0.10 * side, 8));
  return sc::makeScenario(p);
}

hybrid::delaunay::LDelOptions ldelOptions(double radius, int threads) {
  hybrid::delaunay::LDelOptions opts;
  opts.radius = radius;
  opts.reliableRadius = radius;
  opts.threads = threads;
  return opts;
}

bool validRoute(const hybrid::graph::GeometricGraph& ldel, const hybrid::routing::RouteResult& r,
                hybrid::routing::RoutePair p) {
  if (!r.delivered || r.path.empty()) return false;
  if (r.path.front() != p.source || r.path.back() != p.target) return false;
  for (std::size_t i = 1; i < r.path.size(); ++i) {
    if (!ldel.hasEdge(r.path[i - 1], r.path[i])) return false;
  }
  return true;
}

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream + 0x632BE59BD9B4E019ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace perfbench
