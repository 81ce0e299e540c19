#pragma once

/// \file
/// The Demoucron–Malgrange–Pertuiset (DMP) planarity test and embedder,
/// kept as an independent O(n²) oracle for the linear-time left-right
/// embedder on the admission path (planar/dmp_embedder.hpp).

// Method: decompose into biconnected blocks; embed each block by DMP
// (start from a cycle, repeatedly compute the bridges/fragments of the
// embedded subgraph, place a fragment with the fewest admissible faces by
// routing one of its paths through such a face); glue the blocks at the
// articulation vertices (any interleaving of block rotations at a shared
// vertex is planar). A fragment with no admissible face certifies
// non-planarity.
//
// Same contract as planar::planar_embedding_with_witness: the verdict and
// the witness (the whole edge set on an Euler overflow, else the first
// non-planar block in Hopcroft–Tarjan order, normalised (min, max) and
// sorted) must agree byte for byte; only the rotation system differs.
// Linked into plansep_testing only; no production binary uses it.

#include <utility>
#include <vector>

#include "planar/dmp_embedder.hpp"

namespace plansep::testing {

/// DMP planarity check of the simple graph (n, edges): the embedding on a
/// planar input, else the non-planarity witness. Quadratic; tests only.
planar::PlanarityResult dmp_planar_embedding_with_witness(
    planar::NodeId n,
    const std::vector<std::pair<planar::NodeId, planar::NodeId>>& edges);

}  // namespace plansep::testing
