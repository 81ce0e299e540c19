// Tests for the public planarity test + embedder (planar/dmp_embedder.hpp,
// the left-right embedder; planarity_test.cpp cross-checks it against the
// DMP oracle): planar inputs (all generator families, stripped to edge
// lists) must embed with genus 0 and the exact same edge set; non-planar
// inputs (K5, K3,3, and random supergraphs thereof) must be rejected; the
// library pipeline (separator, DFS) must work end-to-end on the produced
// embeddings.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/plansep.hpp"
#include "planar/dmp_embedder.hpp"

namespace plansep::planar {
namespace {

std::vector<std::pair<NodeId, NodeId>> edge_list(const EmbeddedGraph& g) {
  std::vector<std::pair<NodeId, NodeId>> out;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    out.emplace_back(std::min(g.edge_u(e), g.edge_v(e)),
                     std::max(g.edge_u(e), g.edge_v(e)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(Dmp, EmbedsAllGeneratorFamilies) {
  for (Family f : all_families()) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const GeneratedGraph gg = make_instance(f, 60, seed);
      const auto edges = edge_list(gg.graph);
      const auto embedded = planar_embedding(gg.graph.num_nodes(), edges);
      ASSERT_TRUE(embedded.has_value()) << family_name(f) << " seed=" << seed;
      EXPECT_TRUE(validate_embedding(*embedded)) << family_name(f);
      EXPECT_EQ(edge_list(*embedded), edges) << family_name(f);
    }
  }
}

TEST(Dmp, RejectsK5AndK33) {
  std::vector<std::pair<NodeId, NodeId>> k5;
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = a + 1; b < 5; ++b) k5.emplace_back(a, b);
  }
  EXPECT_FALSE(is_planar(5, k5));

  std::vector<std::pair<NodeId, NodeId>> k33;
  for (NodeId a = 0; a < 3; ++a) {
    for (NodeId b = 3; b < 6; ++b) k33.emplace_back(a, b);
  }
  EXPECT_FALSE(is_planar(6, k33));

  // K5 minus any edge is planar; K3,3 minus any edge is planar.
  for (std::size_t drop = 0; drop < k5.size(); ++drop) {
    auto e = k5;
    e.erase(e.begin() + static_cast<long>(drop));
    EXPECT_TRUE(is_planar(5, e)) << "K5 - edge " << drop;
  }
  for (std::size_t drop = 0; drop < k33.size(); ++drop) {
    auto e = k33;
    e.erase(e.begin() + static_cast<long>(drop));
    EXPECT_TRUE(is_planar(6, e)) << "K3,3 - edge " << drop;
  }
}

TEST(Dmp, RejectsPetersenGraph) {
  // The Petersen graph contains a K3,3 minor.
  std::vector<std::pair<NodeId, NodeId>> e;
  for (NodeId i = 0; i < 5; ++i) {
    e.emplace_back(i, (i + 1) % 5);          // outer cycle
    e.emplace_back(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    e.emplace_back(i, 5 + i);                // spokes
  }
  EXPECT_FALSE(is_planar(10, e));
}

TEST(Dmp, RejectsSubdividedK5) {
  // Subdivide every K5 edge once: still non-planar (Kuratowski).
  std::vector<std::pair<NodeId, NodeId>> e;
  NodeId next = 5;
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = a + 1; b < 5; ++b) {
      e.emplace_back(a, next);
      e.emplace_back(next, b);
      ++next;
    }
  }
  EXPECT_FALSE(is_planar(next, e));
}

TEST(Dmp, PlanarPlusCrossingEdgeDetected) {
  // A triangulation is maximally planar: adding any missing edge makes it
  // non-planar.
  Rng rng(5);
  const GeneratedGraph gg = stacked_triangulation(30, rng);
  auto edges = edge_list(gg.graph);
  std::set<std::pair<NodeId, NodeId>> have(edges.begin(), edges.end());
  int tested = 0;
  for (NodeId a = 0; a < gg.graph.num_nodes() && tested < 5; ++a) {
    for (NodeId b = a + 1; b < gg.graph.num_nodes() && tested < 5; ++b) {
      if (have.count({a, b})) continue;
      auto plus = edges;
      plus.emplace_back(a, b);
      EXPECT_FALSE(is_planar(gg.graph.num_nodes(), plus))
          << "added {" << a << "," << b << "}";
      ++tested;
    }
  }
  EXPECT_GT(tested, 0);
}

TEST(Dmp, DisconnectedAndTreeInputs) {
  // Forest spread over two components plus an isolated vertex.
  std::vector<std::pair<NodeId, NodeId>> e{{0, 1}, {1, 2}, {4, 5}, {5, 6}};
  const auto emb = planar_embedding(8, e);
  ASSERT_TRUE(emb.has_value());
  EXPECT_EQ(emb->num_edges(), 4);
  EXPECT_EQ(emb->degree(7), 0);
  EXPECT_TRUE(validate_embedding(*emb));
}

TEST(Dmp, PipelineRunsOnDmpEmbeddings) {
  // Strip a generated graph to its edge list, re-embed it (the
  // rotation system will generally differ), and run the full pipeline.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const GeneratedGraph gg =
        make_instance(Family::kRandomPlanar, 120, seed);
    const auto emb = planar_embedding(gg.graph.num_nodes(), edge_list(gg.graph));
    ASSERT_TRUE(emb.has_value());
    const auto sep = compute_cycle_separator(*emb, 0);
    EXPECT_TRUE(sep.check.ok()) << "seed=" << seed;
    const auto dfs = compute_dfs_tree(*emb, 0);
    EXPECT_TRUE(dfs.check.ok()) << "seed=" << seed;
  }
}

TEST(Dmp, LargeGridRoundTrip) {
  const GeneratedGraph gg = grid(20, 20);
  const auto emb = planar_embedding(gg.graph.num_nodes(), edge_list(gg.graph));
  ASSERT_TRUE(emb.has_value());
  planar::FaceStructure fs(*emb);
  // A quadrangulation: same face count as the coordinate embedding.
  EXPECT_EQ(fs.num_faces(), 19 * 19 + 1);
}

// ---------------------------------------------------- witness contract ----

TEST(Dmp, WitnessIsEmptyOnPlanarInputs) {
  const GeneratedGraph gg = grid(4, 4);
  const auto res =
      planar_embedding_with_witness(gg.graph.num_nodes(), edge_list(gg.graph));
  EXPECT_TRUE(res.planar());
  EXPECT_TRUE(res.witness.empty());
}

TEST(Dmp, WitnessIsolatesTheNonPlanarBlock) {
  // K5 on nodes 0..4 glued by a cut vertex to a planar tail 4-5-6-7 plus
  // a planar 4-cycle block 5-6-8-9. The witness must be exactly the K5
  // block: itself non-planar, and no bystander edges dragged in.
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<std::pair<NodeId, NodeId>> k5;
  for (NodeId a = 0; a < 5; ++a) {
    for (NodeId b = a + 1; b < 5; ++b) k5.emplace_back(a, b);
  }
  edges = k5;
  edges.emplace_back(4, 5);
  edges.emplace_back(5, 6);
  edges.emplace_back(6, 7);
  edges.emplace_back(5, 8);
  edges.emplace_back(8, 9);
  edges.emplace_back(9, 6);

  const auto res = planar_embedding_with_witness(10, edges);
  ASSERT_FALSE(res.planar());
  auto witness = res.witness;
  std::sort(witness.begin(), witness.end());
  EXPECT_EQ(witness, k5);

  // The witness certifies non-planarity on its own...
  NodeId wn = 0;
  for (const auto& [u, v] : witness) wn = std::max({wn, u, v});
  EXPECT_FALSE(is_planar(wn + 1, witness));
  // ...and is a subset of the input.
  const std::set<std::pair<NodeId, NodeId>> input(edges.begin(), edges.end());
  for (const auto& e : witness) {
    EXPECT_TRUE(input.count(e)) << "{" << e.first << "," << e.second << "}";
  }
}

TEST(Dmp, WitnessOnEulerOverflowIsTheWholeEdgeSet) {
  // 7 nodes, 16 edges > 3n-6 = 15: rejected before any embedding work,
  // witnessed by the full edge set (the global count is the certificate).
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId a = 0; a < 7; ++a) {
    for (NodeId b = a + 1; b < 7 && edges.size() < 16; ++b) {
      edges.emplace_back(a, b);
    }
  }
  ASSERT_EQ(edges.size(), 16u);
  const auto res = planar_embedding_with_witness(7, edges);
  ASSERT_FALSE(res.planar());
  EXPECT_EQ(res.witness.size(), edges.size());
}

}  // namespace
}  // namespace plansep::planar
