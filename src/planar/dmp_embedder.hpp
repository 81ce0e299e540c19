#pragma once

// Planarity testing + combinatorial embedding from an edge list — the
// left-right planarity test (de Fraysseix–Rosenstiehl, in Brandes'
// formulation), O(n + m). The header keeps its historical name: this
// module used to run Demoucron–Malgrange–Pertuiset (DMP), O(n²), which now
// lives in the test library as the cross-check oracle
// (testing/dmp_oracle.hpp).
//
// The paper assumes a planar combinatorial embedding is available
// (Proposition 1, computed distributively by Ghaffari–Haeupler in Õ(D)
// rounds). Our generators build embeddings directly; this module provides
// the general entry point: given any graph as an edge list, produce a
// genus-0 rotation system or report non-planarity. It is the admission
// gate for external graphs (ingest), so it must stay linear and
// stack-safe on attacker input: every pass is iterative and every table is
// a flat array.
//
// Method: decompose into biconnected blocks (iterative Hopcroft–Tarjan);
// embed each block by the left-right test — a DFS orientation computing
// lowpoints and nesting depths, a second DFS in nesting order that builds
// the left-right constraints on a stack of conflict pairs, then a third
// that inserts the back edges into the rotations by their resolved sides.
// Adjacency is ordered by (nesting depth, edge id) with a counting sort, so
// the embedding is a pure function of the edge list. Blocks are glued at
// the articulation vertices (any interleaving of block rotations at a
// shared vertex is planar), and the result is certified by its face count
// (Euler genus 0). A block whose constraints are unsatisfiable is
// non-planar.

#include <optional>
#include <utility>
#include <vector>

#include "planar/embedded_graph.hpp"

namespace plansep::planar {

/// Result of a planarity check. Exactly one of the two members is
/// populated: a successful check carries the embedding and an empty
/// witness; a failed check carries a non-planarity witness — the edge
/// list of an offending subgraph (the first biconnected block, in
/// Hopcroft–Tarjan closing order, that could not be embedded, normalised
/// (min, max) and sorted; by Kuratowski it contains a K5 or K3,3
/// subdivision; for the global Euler-bound rejection, the whole edge set).
struct PlanarityResult {
  std::optional<EmbeddedGraph> embedding;
  std::vector<std::pair<NodeId, NodeId>> witness;

  bool planar() const { return embedding.has_value(); }
};

/// Computes a planar combinatorial embedding of the simple graph given by
/// (n, edges), or a non-planarity witness if the graph is not planar.
/// Self-loops are rejected; duplicate edges are an error. The graph need
/// not be connected. O(n + m) time and memory.
PlanarityResult planar_embedding_with_witness(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges);

/// Embedding-or-nullopt convenience wrapper (drops the witness).
std::optional<EmbeddedGraph> planar_embedding(
    NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges);

/// True iff the graph is planar (convenience wrapper).
bool is_planar(NodeId n, const std::vector<std::pair<NodeId, NodeId>>& edges);

}  // namespace plansep::planar
