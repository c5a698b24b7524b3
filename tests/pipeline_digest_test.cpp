#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "../bench/bench_util.hpp"
#include "core/hybrid_network.hpp"
#include "routing/goafr.hpp"
#include "testkit/generators.hpp"

// Pins the integer outputs of the pipeline (node ids and flags only) on
// fixed inputs, so a change that is meant to keep outputs bit-identical can
// be checked against the commit before it. The other oracles compare paths
// within one build; this one compares builds.
//
// The expected digests were recorded from the code. When a change alters
// outputs on purpose, the failure message prints every actual digest; copy
// only the entries that change was meant to alter.

namespace hybrid {
namespace {

/// FNV-1a over the bytes of 64-bit words.
class Digest {
 public:
  void add(std::int64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= static_cast<std::uint64_t>(v >> (8 * i)) & 0xFFu;
      h_ *= 0x100000001B3ULL;
    }
  }
  template <typename Range>
  void addAll(const Range& xs) {
    add(static_cast<std::int64_t>(std::size(xs)));
    for (const auto x : xs) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xCBF29CE484222325ULL;
};

struct Digests {
  /// UDG and LDel^2 adjacency lists in stored order, triangles, Gabriel
  /// edges and the planarizer's removal count.
  std::uint64_t ldel = 0;
  std::uint64_t holes = 0;   ///< Hole rings, flags, outer boundary, holesOfNode.
  std::uint64_t faces = 0;   ///< Subdivision faces and their adjacency.
  std::uint64_t routes = 0;  ///< Six routers on 24 fixed pairs.
  /// AllHoleNodes and LocallyConvexHull routers, each with a Delaunay and a
  /// visibility overlay, on the same pairs.
  std::uint64_t siteModes = 0;
  bool operator==(const Digests&) const = default;
};

Digests digestOf(const scenario::Scenario& sc) {
  const core::HybridNetwork net(sc.points, sc.radius);
  Digests out;

  Digest ldel;
  const auto& built = net.ldelResult();
  for (const graph::GeometricGraph* g : {&built.udg, &built.graph}) {
    for (graph::NodeId v = 0; v < static_cast<graph::NodeId>(g->numNodes()); ++v) {
      ldel.addAll(g->neighbors(v));
    }
  }
  ldel.add(static_cast<std::int64_t>(built.triangles.size()));
  for (const auto& t : built.triangles) ldel.addAll(t);
  ldel.add(static_cast<std::int64_t>(built.gabrielEdges.size()));
  for (const auto& [u, v] : built.gabrielEdges) {
    ldel.add(u);
    ldel.add(v);
  }
  ldel.add(built.removedCrossings);
  out.ldel = ldel.value();

  Digest holes;
  const auto& analysis = net.holes();
  for (const auto& h : analysis.holes) {
    holes.addAll(h.ring);
    holes.add(h.outer);
  }
  holes.addAll(analysis.outerBoundary);
  for (const auto& list : analysis.holesOfNode) holes.addAll(list);
  out.holes = holes.value();

  Digest faces;
  const auto& sub = net.subdivision();
  for (int f = 0; f < sub.faces().numFaces(); ++f) {
    const auto cycle = sub.faces().cycle(f);
    faces.addAll(cycle);
    faces.add(sub.isOuterFace(f));
    faces.add(sub.isWalkable(f));
    faces.add(sub.holeOfFace(f));
    for (std::size_t i = 0; i < cycle.size(); ++i) {
      const graph::NodeId a = cycle[i];
      const graph::NodeId b = cycle[(i + 1) % cycle.size()];
      faces.add(sub.faceLeftOf(a, b));
      faces.add(sub.faceLeftOf(b, a));
    }
  }
  out.faces = faces.value();

  const int n = static_cast<int>(sc.points.size());
  std::vector<routing::RoutePair> pairs;
  std::mt19937_64 rng(0x5EED);
  while (n >= 2 && pairs.size() < 24) {
    const int s = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    const int t = static_cast<int>(rng() % static_cast<std::uint64_t>(n));
    if (s != t) pairs.push_back({s, t});
  }
  routing::HybridOptions visOptions;
  visOptions.edges = routing::EdgeMode::Visibility;
  routing::HybridOptions bboxOptions;
  bboxOptions.abstraction = routing::AbstractionMode::BBox;
  const auto vis = net.makeRouter(visOptions);
  const auto bbox = net.makeRouter(bboxOptions);
  const routing::ChewRouter chew(net.ldel(), net.subdivision());
  const routing::FaceGreedyRouter face(net.ldel(), net.subdivision(), net.holes());
  const routing::GoafrRouter goafr(net.ldel(), net.subdivision());
  const routing::Router* routers[] = {&net.router(), vis.get(), bbox.get(), &chew, &face, &goafr};
  const auto addRoutes = [&](Digest& d, const routing::Router& router) {
    for (const auto& p : pairs) {
      const auto r = router.route(p.source, p.target);
      d.addAll(r.path);
      d.add(r.delivered);
      d.add(r.fallbacks);
      d.add(r.blockedHole);
      d.add(r.protocolCase);
      d.add(r.bayExtremePoints);
    }
  };
  Digest routes;
  for (const routing::Router* router : routers) addRoutes(routes, *router);
  out.routes = routes.value();

  Digest siteModes;
  for (const auto sites : {routing::SiteMode::AllHoleNodes, routing::SiteMode::LocallyConvexHull}) {
    for (const auto edges : {routing::EdgeMode::Delaunay, routing::EdgeMode::Visibility}) {
      routing::HybridOptions options;
      options.sites = sites;
      options.edges = edges;
      addRoutes(siteModes, *net.makeRouter(options));
    }
  }
  out.siteModes = siteModes.value();
  return out;
}

/// One row of kRecorded, ready to paste.
std::string recordRow(const std::string& name, const Digests& d) {
  std::string row = "    {\"" + name + "\", {";
  for (const std::uint64_t v : {d.ldel, d.holes, d.faces, d.routes, d.siteModes}) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "0x%016llxULL, ", static_cast<unsigned long long>(v));
    row += hex;
  }
  row.resize(row.size() - 2);
  return row + "}},\n";
}

struct Entry {
  std::string name;
  Digests expected;
};

// clang-format off
const std::vector<Entry> kRecorded = {
    {"random_udg/1", {0x5cff717f357247a2ULL, 0x89d7df1e7c814521ULL, 0xe8bb01c09be0da79ULL, 0xe8dd3215932c88faULL, 0xb99eacfb2b5a4e4dULL}},
    {"random_udg/2", {0x088191f9408e9f4fULL, 0x7a292c3d94e8918aULL, 0xc174ec4d4f2182d9ULL, 0xad0e2a8c9f703f94ULL, 0x66f03ae36bf3c3ddULL}},
    {"random_udg/3", {0xacca8978c0133ef2ULL, 0xcab1d611d94ff98fULL, 0x38b8a7c5981d5c7fULL, 0x48628aa902459b1aULL, 0xd119c73b189302e5ULL}},
    {"maze_comb/1", {0xd7399347662c9f90ULL, 0x0053f7231333624aULL, 0xd9e16e6c8422ef6cULL, 0x213c2b09f84eeeadULL, 0xb8ca720ce34a46e9ULL}},
    {"maze_comb/2", {0x1ebb1fc13f50581aULL, 0x2b547d744caf7334ULL, 0xfbec6deb81395795ULL, 0x2595488a69f32fbeULL, 0x20e3779c24060dadULL}},
    {"maze_comb/3", {0xe88c39d935e09491ULL, 0x26c09b75158ec1c7ULL, 0xf39bfde74bf1f812ULL, 0x578fc9cd962e8f47ULL, 0x36044aa9d2cb8285ULL}},
    {"spiral/1", {0x6a790b7f1411855cULL, 0x42bcf88c7ff49950ULL, 0x0e7c157e873ce80aULL, 0xc95cc60bb1a86ca1ULL, 0xe21cfd75106f86b5ULL}},
    {"spiral/2", {0x5c967418a9f2c44aULL, 0xc3f8fc0a0492bd24ULL, 0x2c318061275625f1ULL, 0xb0e9a45881354382ULL, 0x9ad9ed2006e6604aULL}},
    {"spiral/3", {0x3320b1657910fa87ULL, 0xc9e7fd2854e7566dULL, 0x1820214284b9c5d5ULL, 0x87483f6887e221adULL, 0x9f10b82fa1f36b19ULL}},
    {"collinear/1", {0x730101cfd0a69dfdULL, 0x7504f8c352f524acULL, 0x60fd232deb419d04ULL, 0xa9d0977a2c178a82ULL, 0xe265faecaa4820e5ULL}},
    {"collinear/2", {0x43704fea3703fd6aULL, 0xc13640458d5c7061ULL, 0x2a2eec03b2a9b5c4ULL, 0x7a10280c3d9271f9ULL, 0x33eaa5da94ac94e5ULL}},
    {"collinear/3", {0x190de21afe1f794bULL, 0xbdd476a6a76a9a6cULL, 0x5968de758f10984aULL, 0x79b007936af619b9ULL, 0x4bb4a0ec09a78925ULL}},
    {"cocircular/1", {0x5d91d1f24cac9a30ULL, 0xeca2cf3cc59d12e9ULL, 0x099e7b96448121fbULL, 0x9249c701b6b12e0aULL, 0x4799c6a854445345ULL}},
    {"cocircular/2", {0xd6501e4fddc278eeULL, 0xdc0c7449938ce586ULL, 0x982a13fb3a01a141ULL, 0x18255d3d916b6b96ULL, 0x90fef087f0f1aee5ULL}},
    {"cocircular/3", {0x2b27d909374508b0ULL, 0x0806820be9e8abc1ULL, 0xbc484e7e564fc4ecULL, 0x260b8bf5d1cf925dULL, 0xcefa26b958a03ea5ULL}},
    {"hull_tangent/1", {0x15ea5f9a93035518ULL, 0xd2fb4a8e4a6c08ceULL, 0xe068d8507beffe3dULL, 0x7dd9581458f1ae7bULL, 0x4f75b269665eeee5ULL}},
    {"hull_tangent/2", {0x6e6ddb7564b60433ULL, 0x82392031ff9663a4ULL, 0x54739578b631365bULL, 0x0266856f21bb6771ULL, 0xcef51c2af35c03e5ULL}},
    {"hull_tangent/3", {0xa8a248b09f8e0ce3ULL, 0x6bb40dec2be5a1c5ULL, 0xc29d77ca16fb7d35ULL, 0xbf16489ca2039862ULL, 0x532ac848f3ddde1dULL}},
    {"hull_intersect/1", {0x4381653a028dd6b2ULL, 0x4928ad73351328d3ULL, 0x081e71d5000116c6ULL, 0xc99004dfd95d370fULL, 0x76ba21f5ba516438ULL}},
    {"hull_intersect/2", {0xc85084fa5a397da0ULL, 0x734c2972c32e2c9cULL, 0x3756f0d365647a5aULL, 0xbbc02589e5e849d2ULL, 0x79cdee2ff9e83365ULL}},
    {"hull_intersect/3", {0xc4c26f492ef96488ULL, 0x66497f3d2583b966ULL, 0x41d9f067e00756d7ULL, 0x6f6b850a25971770ULL, 0x716e361fd2bd8cc1ULL}},
    {"hull_chain/1", {0x4fa4b0b06d99de81ULL, 0xc05bc10b4dd1ff7bULL, 0x3eb346a100e45e5fULL, 0x359d00f91461dd2bULL, 0x966771f48bd18d25ULL}},
    {"hull_chain/2", {0xca76415abbceea3dULL, 0x9b7535dd7f0a7059ULL, 0xce9861c1d8d41f6aULL, 0x974e0f9124474701ULL, 0x008357c2a2c17695ULL}},
    {"hull_chain/3", {0x1e429f9be2460130ULL, 0xdb722e80ba2209fcULL, 0x5f6eac0c7fec4864ULL, 0xd325493ca577e077ULL, 0x3fc95d1a0c9cbec9ULL}},
    {"hull_nest/1", {0x7f55161a878775faULL, 0x2effbede4a8c1165ULL, 0xfefdbf7eb09ec3cbULL, 0x28de0a87f6099e98ULL, 0x96d692daf62fe281ULL}},
    {"hull_nest/2", {0x4550eda1fb312f5fULL, 0x2780a992aca58f01ULL, 0xd2390c67bfab9ca2ULL, 0xc1d4f9ea9ec35bbdULL, 0xc83c488f1a4f0cadULL}},
    {"hull_nest/3", {0x654e0a612c94082eULL, 0x6f9dd4a7234e0837ULL, 0x09e472275caf8cd3ULL, 0x1f26d1508b99530dULL, 0x434403c1483218a5ULL}},
    {"convex_holes_700/1", {0xaea9786e3b1dd6d8ULL, 0x3fa974d71f2df734ULL, 0x8a67f65ecadd73e8ULL, 0x4ff5d57bff5cd26cULL, 0xf4ab015b0481f594ULL}},
};
// clang-format on

std::vector<std::pair<std::string, scenario::Scenario>> inputs() {
  std::vector<std::pair<std::string, scenario::Scenario>> out;
  for (std::size_t g = 0; g < testkit::generators().size(); ++g) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      auto c = testkit::makeCase(g, seed);
      out.emplace_back(c.generator + "/" + std::to_string(seed), std::move(c.scenario));
    }
  }
  out.emplace_back("convex_holes_700/1", bench::convexHolesScenario(700, 1));
  return out;
}

// The collinear case keeps the digest's ldel column covering the
// planarizer's removal order: strict-interior Gabriel and circumcircle
// tests let both diagonals of a cocircular quad survive there.
TEST(PipelineDigest, CollinearCaseExercisesThePlanarizer) {
  const auto sc = testkit::findGenerator("collinear")->make(1);
  const core::HybridNetwork net(sc.points, sc.radius);
  EXPECT_GT(net.ldelResult().removedCrossings, 0);
}

TEST(PipelineDigest, MatchesRecordedOutputs) {
  const auto cases = inputs();
  EXPECT_EQ(cases.size(), kRecorded.size());
  bool allMatch = cases.size() == kRecorded.size();
  std::string actual;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const Digests d = digestOf(cases[i].second);
    actual += recordRow(cases[i].first, d);
    const bool match = i < kRecorded.size() && kRecorded[i].name == cases[i].first &&
                       kRecorded[i].expected == d;
    EXPECT_TRUE(match) << "digest mismatch on " << cases[i].first;
    allMatch = allMatch && match;
  }
  if (!allMatch) std::printf("Actual digests:\n%s", actual.c_str());
}

}  // namespace
}  // namespace hybrid
