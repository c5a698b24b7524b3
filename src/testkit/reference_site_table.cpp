// The dense site-pair table: one Dijkstra per site into flat h x h distance
// and predecessor slabs. It is the ground truth label_parity and
// OverlayParity check the overlay's hub labels against, and e19's dense
// side.

#include "graph/dijkstra_workspace.hpp"
#include "testkit/oracles.hpp"
#include "util/parallel.hpp"

namespace hybrid::testkit {

SiteTable referenceSiteTable(const graph::CsrAdjacency& csr, unsigned threads) {
  SiteTable t;
  t.h = csr.numNodes();
  const std::size_t h = t.h;
  t.dist.resize(h * h);
  t.pred.resize(h * h);
  // Rows are independent, so the parallel fill is deterministic at any
  // thread count.
  util::parallelTasks(h, threads, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    graph::DijkstraWorkspace ws;
    for (std::size_t s = begin; s < end; ++s) {
      ws.run(csr, static_cast<graph::NodeId>(s));
      double* drow = t.dist.data() + s * h;
      std::int32_t* prow = t.pred.data() + s * h;
      for (std::size_t v = 0; v < h; ++v) {
        drow[v] = ws.dist(static_cast<graph::NodeId>(v));
        prow[v] = ws.pred(static_cast<graph::NodeId>(v));
      }
    }
  });
  return t;
}

}  // namespace hybrid::testkit
