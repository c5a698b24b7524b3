#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "graph/csr.hpp"

namespace hybrid::routing {

/// Pruned hub-label distance oracle over a CSR site graph.
///
/// Serves the site pairs of every visibility overlay: instead of a dense
/// h×h table of O(h^2) distances, every site u keeps a sorted label L(u) of
/// (hub, dist, pred) entries such that for any pair (s, t) some hub on a
/// shortest s-t path appears in both labels — so
/// d(s, t) = min over common hubs of d(s, w) + d(w, t), computed by one
/// O(|L(s)| + |L(t)|) sorted merge.
///
/// Build: sites are ranked by centrality (degree descending; ties broken
/// by a deterministic hash of the id so grid/ring graphs do not degenerate
/// into monotone rank runs with Θ(h) labels). For each hub w a rank-pruned
/// Dijkstra (DijkstraWorkspace::runRankPruned) stops expanding at any node
/// more central than w; every settled node v then receives the entry
/// (hub=w, dist, pred=v's tree parent toward w). Cover property: the most
/// central node w* on a shortest s-t path is never pruned from its own
/// search along that path, so both s and t hold exact entries for w*.
/// Entries whose shortest path would cross a more central node may store a
/// longer (pruned-subgraph) path length — never an underestimate — so the
/// merge minimum stays exact while such entries lose ties.
///
/// Determinism: per-hub searches are independent and the flat slab is
/// ordered by (site, hub) — a total order independent of chunk boundaries
/// — so the build is byte-identical at any thread count.
class HubLabelOracle {
 public:
  /// One label entry of its owner site. 16 bytes; labels are sorted by hub.
  struct Entry {
    std::int32_t hub;   ///< Hub site id.
    std::int32_t pred;  ///< Owner's neighbor toward the hub (-1 on the self entry).
    double dist;        ///< Shortest owner<->hub distance (pruned-tree path length).

    bool operator==(const Entry&) const = default;
  };

  /// (Re)builds the labels for `g`. Byte-identical at any `threads`.
  void build(const graph::CsrAdjacency& g, unsigned threads);

  bool built() const { return !offsets_.empty(); }
  std::size_t numSites() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  std::span<const Entry> label(int u) const {
    const auto b = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]);
    const auto e = static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u) + 1]);
    return {entries_.data() + b, e - b};
  }

  /// Shortest s-t distance by sorted label merge; +inf when no common hub
  /// (disconnected sites).
  double distance(int s, int t) const {
    const auto ls = label(s);
    const auto lt = label(t);
    double best = std::numeric_limits<double>::infinity();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < ls.size() && j < lt.size()) {
      const std::int32_t hs = ls[i].hub;
      const std::int32_t ht = lt[j].hub;
      if (hs < ht) {
        ++i;
      } else if (ht < hs) {
        ++j;
      } else {
        const double c = ls[i].dist + lt[j].dist;
        if (c < best) best = c;
        ++i;
        ++j;
      }
    }
    return best;
  }

  /// Appends the site path s..t (inclusive) realizing distance(s, t) by
  /// walking pred pointers toward the best common hub; every step's hub
  /// entry exists by construction (tree ancestors share the hub). Returns
  /// false when disconnected or the labels are corrupt (`out` unchanged).
  bool path(int s, int t, std::vector<int>& out) const;

  /// Reusable scratch for distanceMany(): per-hub buckets, generation
  /// stamped so a batch never pays an O(numSites) clear. One workspace
  /// must not be shared between concurrent batches.
  class MergeWorkspace {
   private:
    friend class HubLabelOracle;
    std::vector<double> hubDist_;
    std::vector<std::uint64_t> stamp_;
    std::uint64_t gen_ = 0;
  };

  /// One-source many-targets distances: d(s, targets[k]) into out[k].
  /// Stamps s's label into per-hub buckets once, then completes each
  /// target label against the buckets — O(|L(s)| + sum |L(t)|) for the
  /// whole batch instead of one full two-pointer merge per pair.
  /// Each value equals distance(s, targets[k]) exactly (same candidate
  /// set, and min over doubles is order-independent). Alloc-free once the
  /// workspace has grown to numSites().
  void distanceMany(int s, std::span<const int> targets, MergeWorkspace& ws,
                    std::span<double> out) const;

  // --- Stats (obs gauges, benches). ---
  std::size_t numEntries() const { return entries_.size(); }
  std::size_t labelBytes() const {
    return entries_.size() * sizeof(Entry) + offsets_.size() * sizeof(offsets_[0]);
  }
  std::size_t maxLabelSize() const { return maxLabel_; }
  /// Rank position per site (0 = most central); the pruning order.
  const std::vector<std::uint32_t>& ranks() const { return rank_; }
  /// Edge relaxations / heap pops summed over the build's pruned searches
  /// (observability only; zero when obs is compiled out).
  std::uint64_t buildRelaxations() const { return relaxations_; }
  std::uint64_t buildHeapPops() const { return heapPops_; }

  // --- Exact-equality introspection (thread-invariance tests). ---
  const std::vector<Entry>& entries() const { return entries_; }
  const std::vector<std::int64_t>& offsets() const { return offsets_; }

  /// Test-only corruption hook for the injected drop-label-hub bug: starting
  /// at `startSite` (wrapping), removes one non-self entry from the first
  /// label that has one, so some pair's merge loses its covering hub.
  struct DroppedHub {
    int site = -1;
    int hub = -1;
  };
  DroppedHub corruptDropHubForTest(int startSite);

 private:
  const Entry* findEntry(int u, std::int32_t hub) const;
  /// Best common hub of (s, t) with its two entries; nullptr entries when
  /// there is none. Ties resolve to the lowest hub id (strict < merge).
  bool meet(int s, int t, const Entry** es, const Entry** et) const;

  std::vector<std::int64_t> offsets_;  ///< size numSites()+1, into entries_.
  std::vector<Entry> entries_;         ///< Flat slab, (site, hub)-sorted.
  std::vector<std::uint32_t> rank_;
  std::size_t maxLabel_ = 0;
  std::uint64_t relaxations_ = 0;
  std::uint64_t heapPops_ = 0;
};

}  // namespace hybrid::routing
