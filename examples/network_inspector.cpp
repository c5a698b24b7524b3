// network_inspector — a small CLI around the library:
//
//   example_network_inspector generate <out.scn> [--n N] [--seed S] [--holes K]
//   example_network_inspector analyze  <in.scn>
//   example_network_inspector route    <in.scn> <src> <dst> [--router NAME]
//   example_network_inspector svg      <in.scn> <out.svg> [--route s t]
//
// Router names: hull-delaunay (default), hull-visibility,
// boundary-delaunay, boundary-visibility, lch-delaunay, goafr, face,
// greedy.

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "core/hybrid_network.hpp"
#include "io/serialize.hpp"
#include "io/svg_export.hpp"
#include "routing/baselines.hpp"
#include "routing/goafr.hpp"
#include "scenario/generator.hpp"
#include "scenario/shapes.hpp"

using namespace hybrid;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  network_inspector generate <out.scn> [--n N] [--seed S] [--holes K]\n"
               "  network_inspector analyze  <in.scn>\n"
               "  network_inspector route    <in.scn> <src> <dst> [--router NAME]\n"
               "  network_inspector svg      <in.scn> <out.svg> [--route s t]\n");
  return 2;
}

const char* flagValue(int argc, char** argv, const char* flag) {
  for (int i = 0; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

std::unique_ptr<routing::Router> makeNamedRouter(core::HybridNetwork& net,
                                                 const std::string& name) {
  using routing::EdgeMode;
  using routing::SiteMode;
  if (name == "hull-delaunay")
    return net.makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Delaunay});
  if (name == "hull-visibility")
    return net.makeRouter({.sites = SiteMode::HullNodes, .edges = EdgeMode::Visibility});
  if (name == "boundary-delaunay")
    return net.makeRouter({.sites = SiteMode::AllHoleNodes, .edges = EdgeMode::Delaunay});
  if (name == "boundary-visibility")
    return net.makeRouter({.sites = SiteMode::AllHoleNodes, .edges = EdgeMode::Visibility});
  if (name == "lch-delaunay")
    return net.makeRouter({.sites = SiteMode::LocallyConvexHull, .edges = EdgeMode::Delaunay});
  if (name == "goafr")
    return std::make_unique<routing::GoafrRouter>(net.ldel(), net.subdivision());
  if (name == "face")
    return std::make_unique<routing::FaceGreedyRouter>(net.ldel(), net.subdivision(),
                                                       net.holes());
  if (name == "greedy") return std::make_unique<routing::GreedyRouter>(net.ldel());
  return nullptr;
}

int cmdGenerate(int argc, char** argv) {
  if (argc < 1) return usage();
  const char* out = argv[0];
  const std::size_t n = flagValue(argc, argv, "--n") != nullptr
                            ? std::stoul(flagValue(argc, argv, "--n"))
                            : 1500;
  const unsigned seed = flagValue(argc, argv, "--seed") != nullptr
                            ? static_cast<unsigned>(std::stoul(flagValue(argc, argv, "--seed")))
                            : 1;
  const int holes = flagValue(argc, argv, "--holes") != nullptr
                        ? std::stoi(flagValue(argc, argv, "--holes"))
                        : 2;
  auto params = scenario::paramsForNodeCount(n + n / 3, seed);
  const double side = params.width;
  const double positions[][2] = {{0.30, 0.30}, {0.68, 0.62}, {0.70, 0.25}, {0.28, 0.70}};
  for (int h = 0; h < holes && h < 4; ++h) {
    params.obstacles.push_back(scenario::regularPolygonObstacle(
        {positions[h][0] * side, positions[h][1] * side}, 0.10 * side, 5 + h,
        0.3 * h));
  }
  const auto sc = scenario::makeScenario(params);
  if (!io::saveScenario(out, sc)) {
    std::fprintf(stderr, "cannot write %s\n", out);
    return 1;
  }
  std::printf("wrote %s: %zu nodes, %zu obstacles\n", out, sc.points.size(),
              sc.obstacles.size());
  return 0;
}

int cmdAnalyze(int argc, char** argv) {
  if (argc < 1) return usage();
  const auto sc = io::loadScenario(argv[0]);
  if (!sc) {
    std::fprintf(stderr, "cannot read %s\n", argv[0]);
    return 1;
  }
  core::HybridNetwork net(sc->points, sc->radius);
  std::printf("nodes:            %zu\n", net.udg().numNodes());
  std::printf("udg edges:        %zu (max degree %d)\n", net.udg().numEdges(),
              net.udg().maxDegree());
  std::printf("ldel edges:       %zu (planar: %s)\n", net.ldel().numEdges(),
              net.ldel().isPlanarEmbedding() ? "yes" : "no");
  std::printf("radio holes:      %zu (hulls disjoint: %s)\n", net.holes().holes.size(),
              net.convexHullsDisjoint() ? "yes" : "no");
  for (const auto& a : net.abstractions()) {
    const auto& h = net.holes().holes[static_cast<std::size_t>(a.holeIndex)];
    if (h.ring.size() < 8) continue;
    std::printf("  hole %2d: ring %3zu, lch %3zu, hull %3zu, P=%.1f, L=%.1f, bays %zu%s\n",
                a.holeIndex, h.ring.size(), a.locallyConvexHull.size(),
                a.hullNodes.size(), a.perimeter, a.bboxCircumference, a.bays.size(),
                h.outer ? " (outer)" : "");
  }
  const auto rep = net.storageReport();
  std::printf("storage: hull %ld, boundary %ld, other %ld refs\n", rep.maxHullNodeStorage,
              rep.maxBoundaryNodeStorage, rep.maxOtherNodeStorage);
  return 0;
}

int cmdRoute(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto sc = io::loadScenario(argv[0]);
  if (!sc) {
    std::fprintf(stderr, "cannot read %s\n", argv[0]);
    return 1;
  }
  core::HybridNetwork net(sc->points, sc->radius);
  const int s = std::stoi(argv[1]);
  const int t = std::stoi(argv[2]);
  if (s < 0 || t < 0 || s >= static_cast<int>(net.udg().numNodes()) ||
      t >= static_cast<int>(net.udg().numNodes())) {
    std::fprintf(stderr, "node ids out of range (0..%zu)\n", net.udg().numNodes() - 1);
    return 1;
  }
  const char* rn = flagValue(argc, argv, "--router");
  const std::string routerName = rn != nullptr ? rn : "hull-delaunay";
  auto router = makeNamedRouter(net, routerName);
  if (!router) {
    std::fprintf(stderr, "unknown router '%s'\n", routerName.c_str());
    return 1;
  }
  const auto r = router->route(s, t);
  std::printf("router:    %s\n", router->name().c_str());
  std::printf("delivered: %s\n", r.delivered ? "yes" : "no");
  std::printf("hops:      %zu\n", r.hops());
  std::printf("length:    %.3f\n", net.ldel().pathLength(r.path));
  std::printf("optimal:   %.3f\n", net.shortestUdgDistance(s, t));
  std::printf("stretch:   %.3f\n", net.stretch(r, s, t));
  std::printf("fallbacks: %d\n", r.fallbacks);
  std::printf("path:");
  for (graph::NodeId v : r.path) std::printf(" %d", v);
  std::printf("\n");
  return r.delivered ? 0 : 3;
}

int cmdSvg(int argc, char** argv) {
  if (argc < 2) return usage();
  const auto sc = io::loadScenario(argv[0]);
  if (!sc) {
    std::fprintf(stderr, "cannot read %s\n", argv[0]);
    return 1;
  }
  core::HybridNetwork net(sc->points, sc->radius);
  io::SvgExporter svg(net);
  svg.drawObstacles(sc->obstacles).drawNetwork(false).drawHoles().drawAbstractions();
  for (int i = 0; i + 2 < argc; ++i) {
    if (std::strcmp(argv[i], "--route") == 0) {
      const int s = std::stoi(argv[i + 1]);
      const int t = std::stoi(argv[i + 2]);
      svg.drawRoute(net.route(s, t), "#2c8a4b");
    }
  }
  if (!svg.save(argv[1])) {
    std::fprintf(stderr, "cannot write %s\n", argv[1]);
    return 1;
  }
  std::printf("wrote %s\n", argv[1]);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  if (cmd == "generate") return cmdGenerate(argc - 2, argv + 2);
  if (cmd == "analyze") return cmdAnalyze(argc - 2, argv + 2);
  if (cmd == "route") return cmdRoute(argc - 2, argv + 2);
  if (cmd == "svg") return cmdSvg(argc - 2, argv + 2);
  return usage();
}
