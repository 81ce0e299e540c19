#pragma once

// Combinatorial planar embeddings (rotation systems).
//
// An EmbeddedGraph stores, for every vertex, the cyclic *clockwise* order of
// its incident darts — the t_v ordering of the paper (§2). Each undirected
// edge e is represented by two darts 2e (u→v) and 2e+1 (v→u); rev flips the
// low bit. Faces, duals and region classification build on this structure
// (face_structure.hpp, region.hpp).
//
// Embeddings come either from explicit rotations, or from straight-line
// coordinates (neighbors angularly sorted). The paper's Proposition 1
// computes embeddings distributively in Õ(D) rounds; we treat that prior
// work as a black box and account its cost in the separator engine's
// precomputation phase (see DESIGN.md, substitution 2).

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace plansep::planar {

using NodeId = std::int32_t;
using EdgeId = std::int32_t;
using DartId = std::int32_t;

inline constexpr NodeId kNoNode = -1;
inline constexpr EdgeId kNoEdge = -1;
inline constexpr DartId kNoDart = -1;

/// 2D point for straight-line embeddings; used by generators and geometric
/// validation only — algorithms consume the rotation system exclusively.
struct Point {
  double x = 0;
  double y = 0;
};

class EmbeddedGraph {
 public:
  /// Empty graph with n isolated vertices.
  explicit EmbeddedGraph(NodeId n = 0);

  /// Builds an embedding from vertex coordinates: each vertex's incident
  /// darts are sorted clockwise by angle. Edges must not repeat; self-loops
  /// are rejected. Coordinates are retained for geometric validation.
  static EmbeddedGraph from_coordinates(
      const std::vector<Point>& coords,
      const std::vector<std::pair<NodeId, NodeId>>& edges);

  /// Builds from explicit clockwise rotations: rotations[v] lists the
  /// neighbors of v in clockwise order. The implied edge set must be
  /// symmetric. O(n + m).
  static EmbeddedGraph from_rotations(
      const std::vector<std::vector<NodeId>>& rotations);

  NodeId num_nodes() const { return static_cast<NodeId>(rot_.size()); }
  EdgeId num_edges() const { return static_cast<EdgeId>(edge_u_.size()); }
  DartId num_darts() const { return static_cast<DartId>(2 * edge_u_.size()); }

  NodeId tail(DartId d) const { return (d & 1) ? edge_v_[d >> 1] : edge_u_[d >> 1]; }
  NodeId head(DartId d) const { return (d & 1) ? edge_u_[d >> 1] : edge_v_[d >> 1]; }
  static DartId rev(DartId d) { return d ^ 1; }
  static EdgeId edge_of(DartId d) { return d >> 1; }
  /// The dart of edge e leaving endpoint `from` (which must be an endpoint).
  DartId dart_from(EdgeId e, NodeId from) const;

  NodeId edge_u(EdgeId e) const { return edge_u_[e]; }
  NodeId edge_v(EdgeId e) const { return edge_v_[e]; }

  int degree(NodeId v) const { return static_cast<int>(rot_[v].size()); }

  /// Clockwise rotation of v: the darts with tail v, in clockwise order.
  std::span<const DartId> rotation(NodeId v) const { return rot_[v]; }

  /// Index of dart d within rotation(tail(d)).
  int position(DartId d) const { return pos_[d]; }

  /// Next/previous dart clockwise around tail(d).
  DartId rot_next(DartId d) const;
  DartId rot_prev(DartId d) const;

  /// First dart u→v if the edge exists, else kNoDart. O(deg(u)).
  DartId find_dart(NodeId u, NodeId v) const;
  bool has_edge(NodeId u, NodeId v) const { return find_dart(u, v) != kNoDart; }

  /// Inserts edge {u,v}; its dart at u is placed at rotation index pos_u
  /// (existing entries at >= pos_u shift right), likewise at v. Returns the
  /// new edge id. Positions must be in [0, degree]. O(deg(u)+deg(v)).
  EdgeId add_edge(NodeId u, NodeId v, int pos_u, int pos_v);

  /// Appends edge {u,v} at the end of both rotations (only meaningful while
  /// constructing a graph whose rotation order is fixed afterwards).
  EdgeId add_edge_back(NodeId u, NodeId v);

  /// Adds a fresh isolated vertex, returning its id.
  NodeId add_node();

  bool has_coordinates() const { return !coords_.empty(); }
  const std::vector<Point>& coordinates() const { return coords_; }
  /// One point per node; an empty vector drops the coordinates (used when a
  /// mutation invalidates the straight-line embedding).
  void set_coordinates(std::vector<Point> coords);

  /// Neighbors of v in rotation order (convenience; allocates).
  std::vector<NodeId> neighbors(NodeId v) const;

  /// Number of connected components.
  int num_components() const;

  std::string debug_string() const;

 private:
  void check_node(NodeId v) const;

  // rot_[v]: darts with tail v, clockwise. pos_[d]: index of d in rot_[tail].
  std::vector<std::vector<DartId>> rot_;
  std::vector<int> pos_;
  std::vector<NodeId> edge_u_;
  std::vector<NodeId> edge_v_;
  std::vector<Point> coords_;
};

}  // namespace plansep::planar
