#pragma once

// plansep — deterministic distributed DFS via cycle separators in planar
// graphs (Jauregui, Montealegre, Rapaport; PODC 2025).
//
// Umbrella header and convenience facade. The underlying modules:
//   planar/     rotation systems, faces, regions, generators
//   tree/       rooted spanning trees, DFS orders
//   congest/    message-level CONGEST simulator, BFS
//   shortcuts/  part-wise aggregation (low-congestion-shortcut substitute)
//   subroutines/ Borůvka forests, part contexts, components
//   faces/      Definition 2 weights, Remark 1 membership, augmentations
//   separator/  Theorem 1 (cycle separators)
//   dfs/        Theorem 2 (DFS construction), DFS validation
//   baselines/  Awerbuch DFS, randomized-estimate separator
//
// Quickstart:
//   auto gg = plansep::planar::grid(16, 16);
//   auto run = plansep::compute_cycle_separator(gg.graph, gg.root_hint);
//   auto dfs = plansep::compute_dfs_tree(gg.graph, gg.root_hint);

#include "baselines/awerbuch.hpp"
#include "baselines/randomized_separator.hpp"
#include "congest/bfs_tree.hpp"
#include "congest/network.hpp"
#include "dfs/builder.hpp"
#include "dfs/validate.hpp"
#include "faces/augmentation.hpp"
#include "faces/containment.hpp"
#include "faces/fundamental.hpp"
#include "faces/hidden.hpp"
#include "faces/membership.hpp"
#include "faces/weight_oracle.hpp"
#include "faces/weights.hpp"
#include "planar/dmp_embedder.hpp"
#include "planar/embedded_graph.hpp"
#include "planar/face_structure.hpp"
#include "planar/generators.hpp"
#include "planar/planarity.hpp"
#include "planar/region.hpp"
#include "separator/engine.hpp"
#include "separator/hierarchy.hpp"
#include "separator/validate.hpp"
#include "shortcuts/partwise.hpp"
#include "subroutines/components.hpp"
#include "subroutines/part_context.hpp"
#include "subroutines/spanning_forest.hpp"
#include "tree/rooted_tree.hpp"

namespace plansep {

/// One-call cycle separator of a whole (connected, embedded) planar graph.
struct SeparatorRun {
  separator::PartSeparator separator;
  separator::SeparatorCheck check;
  shortcuts::RoundCost cost;  // includes representation setup
  int diameter_bound = 0;
};

SeparatorRun compute_cycle_separator(const planar::EmbeddedGraph& g,
                                     planar::NodeId root);

/// The same separator over a prepared engine (its graph, rooted at its
/// global tree's root). The result, setup cost included, is identical to
/// the (g, root) call; a caller that also builds a DFS tree shares one
/// engine between the two.
SeparatorRun compute_cycle_separator(shortcuts::PartwiseEngine& engine);

/// One-call DFS tree (Theorem 2) with validation.
struct DfsRun {
  dfs::DfsBuildResult build;
  dfs::DfsCheck check;
  int diameter_bound = 0;
};

DfsRun compute_dfs_tree(const planar::EmbeddedGraph& g, planar::NodeId root);

/// The same DFS tree over a prepared engine (see the separator overload).
DfsRun compute_dfs_tree(shortcuts::PartwiseEngine& engine);

}  // namespace plansep
