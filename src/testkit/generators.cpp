#include "testkit/generators.hpp"

#include <cmath>
#include <numbers>
#include <random>

#include "scenario/shapes.hpp"
#include "testkit/rng.hpp"

namespace hybrid::testkit {

namespace {

using scenario::finalizeScenario;
using scenario::makeScenario;
using scenario::Scenario;
using scenario::ScenarioParams;

double uniform(std::mt19937_64& rng, double lo, double hi) {
  return std::uniform_real_distribution<double>(lo, hi)(rng);
}

int uniformInt(std::mt19937_64& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

/// Grid scenario with the common testkit sizing: small enough that a fuzz
/// trial (build + all oracles) stays in the low milliseconds, dense enough
/// that holes form around the obstacles.
ScenarioParams baseParams(std::mt19937_64& rng, double side) {
  ScenarioParams p;
  p.width = p.height = side;
  p.spacing = uniform(rng, 0.5, 0.7);
  p.jitter = uniform(rng, 0.2, 0.4);
  p.seed = static_cast<unsigned>(rng());
  return p;
}

Scenario genRandomUdg(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, uniform(rng, 9.0, 13.0));
  // Density sweep: sparse deployments fragment into boundary-heavy graphs,
  // dense ones produce fat interiors with few holes.
  p.spacing = uniform(rng, 0.45, 0.8);
  const int numObstacles = uniformInt(rng, 0, 2);
  for (int i = 0; i < numObstacles; ++i) {
    const geom::Vec2 c{uniform(rng, 3.0, p.width - 3.0),
                       uniform(rng, 3.0, p.height - 3.0)};
    if (uniformInt(rng, 0, 1) == 0) {
      const double w = uniform(rng, 1.2, 2.6);
      const double h = uniform(rng, 1.2, 2.6);
      p.obstacles.push_back(
          scenario::rectangleObstacle({c.x - w / 2, c.y - h / 2}, {c.x + w / 2, c.y + h / 2}));
    } else {
      p.obstacles.push_back(scenario::regularPolygonObstacle(
          c, uniform(rng, 1.0, 1.8), uniformInt(rng, 3, 8), uniform(rng, 0.0, 1.0)));
    }
  }
  return makeScenario(p);
}

Scenario genMazeComb(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, 15.0);
  const int teeth = uniformInt(rng, 2, 4);
  const double toothWidth = uniform(rng, 1.0, 1.8);
  const double gapWidth = uniform(rng, 1.6, 2.4);
  const double depth = uniform(rng, 4.0, 7.0);
  p.obstacles.push_back(scenario::combObstacle(
      {uniform(rng, 1.5, 3.0), uniform(rng, 2.0, 3.5)}, teeth, toothWidth, gapWidth,
      depth, uniform(rng, 0.8, 1.2)));
  return makeScenario(p);
}

Scenario genSpiral(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, 16.0);
  const int turns = 2;
  const double corridor = uniform(rng, 1.5, 2.1);
  const double wall = uniform(rng, 0.7, 1.0);
  for (auto& poly :
       scenario::spiralWalls({p.width * 0.45, p.height * 0.45}, turns, corridor, wall)) {
    p.obstacles.push_back(std::move(poly));
  }
  return makeScenario(p);
}

Scenario genCollinear(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Several long horizontal lines of nodes, closer than the radius so the
  // UDG is connected, with per-point vertical jitter chosen from {exactly
  // collinear, 1e-9, 1e-6}: orientation/incircle predicates must make
  // consistent calls on all three scales.
  const int lines = uniformInt(rng, 3, 6);
  const double dy = uniform(rng, 0.55, 0.9);
  const double dx = uniform(rng, 0.6, 0.9);
  const int perLine = uniformInt(rng, 14, 26);
  const double jitterScales[3] = {0.0, 1e-9, 1e-6};
  std::vector<geom::Vec2> pts;
  for (int l = 0; l < lines; ++l) {
    const double eps = jitterScales[uniformInt(rng, 0, 2)];
    for (int i = 0; i < perLine; ++i) {
      const double wiggle = eps == 0.0 ? 0.0 : uniform(rng, -eps, eps);
      pts.push_back({i * dx, l * dy + wiggle});
    }
  }
  return finalizeScenario(std::move(pts), {}, 1.0);
}

Scenario genCocircular(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  // Concentric rings of exactly cocircular points. With the innermost ring
  // farther than the radius from the center, the middle is a radio hole
  // whose boundary is maximally degenerate for the Delaunay emptiness test.
  const geom::Vec2 c{0.0, 0.0};
  const double r0 = uniform(rng, 1.3, 2.2);
  const double dr = uniform(rng, 0.55, 0.8);
  const int rings = uniformInt(rng, 4, 6);
  const double arc = uniform(rng, 0.55, 0.8);
  std::vector<geom::Vec2> pts;
  for (int k = 0; k < rings; ++k) {
    const double r = r0 + k * dr;
    const int n = std::max(6, static_cast<int>(std::ceil(2.0 * std::numbers::pi * r / arc)));
    const double phase = uniform(rng, 0.0, 1.0);
    for (int i = 0; i < n; ++i) {
      const double a = phase + 2.0 * std::numbers::pi * i / n;
      pts.push_back({c.x + r * std::cos(a), c.y + r * std::sin(a)});
    }
  }
  return finalizeScenario(std::move(pts), {}, 1.0);
}

Scenario genHullTangent(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, 14.0);
  // Two rectangles with aligned horizontal edges and a thin corridor of
  // nodes between them. The resulting hole hulls run parallel and nearly
  // touch, so endpoint-to-site visibility segments graze hull corners —
  // the exact class of configuration PR 3's visible()-orientation fix
  // addressed. Low jitter keeps the node rows (and thus the hulls) nearly
  // aligned with the obstacle edges.
  p.jitter = uniform(rng, 0.04, 0.15);
  const double y0 = uniform(rng, 4.0, 5.0);
  const double y1 = y0 + uniform(rng, 3.0, 4.0);
  const double xa = uniform(rng, 2.0, 3.0);
  const double wa = uniform(rng, 2.0, 3.2);
  // Gap of 2-5 spacings: sometimes one merged hole, sometimes two holes
  // with grazing hulls — both sides of the tangency are exercised.
  const double gap = p.spacing * uniform(rng, 2.0, 5.0);
  const double wb = uniform(rng, 2.0, 3.2);
  p.obstacles.push_back(scenario::rectangleObstacle({xa, y0}, {xa + wa, y1}));
  p.obstacles.push_back(
      scenario::rectangleObstacle({xa + wa + gap, y0}, {xa + wa + gap + wb, y1}));
  return makeScenario(p);
}

Scenario genHullIntersect(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, 15.0);
  // A U-shape whose mouth swallows a separate block: the two holes are
  // disjoint but the block's hull lies inside the U's hull — the paper's
  // unsupported intersecting-hulls case (§7 future work).
  const geom::Vec2 c{p.width / 2.0, p.height / 2.0};
  const double w = uniform(rng, 6.5, 8.5);
  const double h = uniform(rng, 5.5, 7.0);
  const double t = uniform(rng, 1.2, 1.6);
  p.obstacles.push_back(scenario::uShapeObstacle(c, w, h, t));
  const double bw = uniform(rng, 1.0, 1.6);
  p.obstacles.push_back(scenario::rectangleObstacle(
      {c.x - bw, c.y - 0.5}, {c.x + bw, c.y + uniform(rng, 1.0, 1.8)}));
  return makeScenario(p);
}

Scenario genHullChain(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, 17.0);
  // A comb with a hanging block inside every gap: each block's hole hull
  // lies inside the comb hole's hull, so the comb's hull intersects every
  // block's — k interlocked holes across the field rather than
  // hull_intersect's single pair.
  const int teeth = uniformInt(rng, 3, 4);
  const double toothWidth = uniform(rng, 1.0, 1.4);
  const double gapWidth = uniform(rng, 2.8, 3.4);
  const double depth = uniform(rng, 3.5, 5.0);
  const double bar = uniform(rng, 0.8, 1.2);
  const geom::Vec2 o{uniform(rng, 1.5, 2.5), uniform(rng, 2.5, 3.5)};
  p.obstacles.push_back(scenario::combObstacle(o, teeth, toothWidth, gapWidth, depth, bar));
  for (int g = 0; g + 1 < teeth; ++g) {
    // Gap g spans x in [o.x + toothWidth*(g+1) + gapWidth*g, +gapWidth].
    const double gx = o.x + toothWidth * (g + 1) + gapWidth * g;
    const double clearance = std::max(0.6, uniform(rng, 1.0, 1.3));
    const double bx0 = gx + clearance;
    const double bx1 = gx + gapWidth - clearance;
    if (bx1 - bx0 < 0.4) continue;
    const double by0 = o.y + bar + uniform(rng, 1.2, 2.0);
    const double by1 = o.y + bar + depth + uniform(rng, 0.5, 1.5);
    p.obstacles.push_back(scenario::rectangleObstacle({bx0, by0}, {bx1, by1}));
  }
  return makeScenario(p);
}

Scenario genHullNest(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  ScenarioParams p = baseParams(rng, 15.0);
  // An obstacle nested in the bay of a larger U: the inner hole's hull is
  // entirely inside the outer hole's hull (full nesting, not just the
  // partial overlap of hull_intersect), and the nested obstacle sits deep
  // enough that bay routing around it has to cross the outer hull.
  const geom::Vec2 c{p.width / 2.0, p.height / 2.0};
  const double w = uniform(rng, 7.0, 9.0);
  const double h = uniform(rng, 6.0, 7.5);
  const double t = uniform(rng, 1.0, 1.4);
  p.obstacles.push_back(scenario::uShapeObstacle(c, w, h, t));
  // Mouth interior: x in [c.x - w/2 + t, c.x + w/2 - t], y above the floor
  // at c.y - h/2 + t. Keep >= ~2 node spacings of clearance to the walls
  // so the nested hole stays distinct from the U's hole.
  const double innerHalf = w / 2.0 - t;
  const double clear = uniform(rng, 1.2, 1.6);
  if (uniformInt(rng, 0, 1) == 0) {
    const double bw = std::max(0.8, innerHalf - clear);
    p.obstacles.push_back(scenario::rectangleObstacle(
        {c.x - bw, c.y - h / 2.0 + t + clear},
        {c.x + bw, c.y - h / 2.0 + t + clear + uniform(rng, 1.2, 2.2)}));
  } else {
    // Nested same-orientation U: a bay within a bay.
    const double iw = std::max(2.2, 2.0 * (innerHalf - clear));
    const double ih = uniform(rng, 2.2, 3.0);
    const double it = uniform(rng, 0.7, 0.9);
    p.obstacles.push_back(scenario::uShapeObstacle(
        {c.x, c.y - h / 2.0 + t + clear + ih / 2.0}, iw, ih, it));
  }
  return makeScenario(p);
}

}  // namespace

const std::vector<Generator>& generators() {
  // Appended entries keep the historical trial -> generator round-robin
  // mapping of the first seven (makeCase indexes this list).
  static const std::vector<Generator> kGenerators = {
      {"random_udg", genRandomUdg},       {"maze_comb", genMazeComb},
      {"spiral", genSpiral},              {"collinear", genCollinear},
      {"cocircular", genCocircular},      {"hull_tangent", genHullTangent},
      {"hull_intersect", genHullIntersect}, {"hull_chain", genHullChain},
      {"hull_nest", genHullNest},
  };
  return kGenerators;
}

const Generator* findGenerator(std::string_view name) {
  for (const auto& g : generators()) {
    if (name == g.name) return &g;
  }
  return nullptr;
}

GeneratedCase makeCase(std::size_t index, std::uint64_t seed) {
  const Generator& g = generators()[index % generators().size()];
  GeneratedCase out;
  out.generator = g.name;
  out.seed = seed;
  out.scenario = g.make(seed);
  return out;
}

}  // namespace hybrid::testkit
