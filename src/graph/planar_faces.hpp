#pragma once

#include <span>
#include <vector>

#include "graph/graph.hpp"

namespace hybrid::graph {

/// Sorts `nbrs` counter-clockwise by their direction from `at`: the one
/// angular order that the face table, its face walks and the distributed
/// LDel^2 boundary test share.
void sortCcw(const GeometricGraph& g, NodeId at, std::span<NodeId> nbrs);

/// Half-edge face table of a plane straight-line graph augmented with the
/// convex-hull edges longer than a radius (paper Def. 2.5), so that every
/// point inside the hull of V lies in a bounded face. Everything is an
/// array indexed by half-edge or face id.
///
/// The half-edges leaving node v are out(v) .. out(v + 1) - 1, in
/// counter-clockwise order; each is flagged as a graph edge or a hull
/// edge. Faces are the boundary walks with the face on the left, found in
/// a fixed order: nodes ascending, then each node's adjacency order with
/// hull edges last. A walk of non-positive signed area is an outer face:
/// the unbounded face, or the walk around a tree component, which bounds
/// no region. Vertices repeat along a walk through a cut vertex.
///
/// The augmented graph must be a planar embedding; otherwise the walks are
/// meaningless.
class PlanarFaces {
 public:
  /// Faces of `g` plus the hull edges longer than `hullRadius` that `g`
  /// lacks; pass +infinity for the faces of `g` alone.
  PlanarFaces(const GeometricGraph& g, double hullRadius);

  int numFaces() const { return static_cast<int>(faceStart_.size()) - 1; }
  int numHalfEdges() const { return static_cast<int>(head_.size()); }

  /// Boundary walk of face f; cycle(f)[i] is the tail of halfEdges(f)[i].
  std::span<const NodeId> cycle(int f) const {
    const auto i = static_cast<std::size_t>(f);
    return {walkNodes_.data() + faceStart_[i], walkNodes_.data() + faceStart_[i + 1]};
  }
  std::span<const int> halfEdges(int f) const {
    const auto i = static_cast<std::size_t>(f);
    return {walk_.data() + faceStart_[i], walk_.data() + faceStart_[i + 1]};
  }
  bool isOuter(int f) const { return outer_[static_cast<std::size_t>(f)] != 0; }
  /// True when the walk of f uses a hull edge.
  bool touchesHull(int f) const { return hullFace_[static_cast<std::size_t>(f)] != 0; }

  int out(NodeId v) const { return start_[static_cast<std::size_t>(v)]; }
  NodeId head(int h) const { return head_[static_cast<std::size_t>(h)]; }
  NodeId tail(int h) const { return head(twin(h)); }
  int twin(int h) const { return twin_[static_cast<std::size_t>(h)]; }
  bool isHull(int h) const { return hull_[static_cast<std::size_t>(h)] != 0; }
  int faceOf(int h) const { return face_[static_cast<std::size_t>(h)]; }
  /// The half-edge after h clockwise around tail(h).
  int cw(int h) const { return h == out(tail(h)) ? out(tail(h) + 1) - 1 : h - 1; }
  /// The half-edge after h counter-clockwise around tail(h).
  int ccw(int h) const { return h == out(tail(h) + 1) - 1 ? out(tail(h)) : h + 1; }
  /// The half-edge after h along the face on its left.
  int next(int h) const { return cw(twin(h)); }
  /// The half-edge u -> v, or -1.
  int find(NodeId u, NodeId v) const;

 private:
  // Per half-edge; those leaving v are [start_[v], start_[v + 1]).
  std::vector<int> start_;
  std::vector<NodeId> head_;
  std::vector<int> twin_;
  std::vector<char> hull_;
  std::vector<int> face_;
  // Per face; its walk is [faceStart_[f], faceStart_[f + 1]) of walk_ (the
  // half-edges) and walkNodes_ (their tails).
  std::vector<int> faceStart_;
  std::vector<int> walk_;
  std::vector<NodeId> walkNodes_;
  std::vector<char> outer_;
  std::vector<char> hullFace_;
};

}  // namespace hybrid::graph
