// Unit and property tests for the planar substrate: rotation systems, face
// tracing, Euler validation, region classification and generators.

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <numeric>
#include <set>

#include "planar/embedded_graph.hpp"
#include "planar/face_structure.hpp"
#include "planar/generators.hpp"
#include "planar/planarity.hpp"
#include "planar/region.hpp"
#include "util/rng.hpp"

namespace plansep::planar {
namespace {

TEST(EmbeddedGraph, TriangleBasics) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  EXPECT_EQ(g.num_nodes(), 3);
  EXPECT_EQ(g.num_edges(), 3);
  EXPECT_EQ(g.degree(0), 2);
  const DartId d01 = g.find_dart(0, 1);
  ASSERT_NE(d01, kNoDart);
  EXPECT_EQ(g.tail(d01), 0);
  EXPECT_EQ(g.head(d01), 1);
  EXPECT_EQ(g.head(EmbeddedGraph::rev(d01)), 0);
  EXPECT_TRUE(g.has_edge(2, 1));
  EXPECT_FALSE(g.has_edge(0, 0 + 0));  // no self loop
}

TEST(EmbeddedGraph, RotNextWraps) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  const DartId d01 = g.find_dart(0, 1);
  const DartId d02 = g.find_dart(0, 2);
  EXPECT_EQ(g.rot_next(d01), d02);
  EXPECT_EQ(g.rot_next(d02), d01);
  EXPECT_EQ(g.rot_prev(d01), d02);
}

TEST(EmbeddedGraph, AddEdgePositions) {
  EmbeddedGraph g(4);
  g.add_edge_back(0, 1);
  g.add_edge_back(0, 2);
  const EdgeId e = g.add_edge(0, 3, 1, 0);
  EXPECT_EQ(g.position(g.dart_from(e, 0)), 1);
  auto nb = g.neighbors(0);
  ASSERT_EQ(nb.size(), 3u);
  EXPECT_EQ(nb[0], 1);
  EXPECT_EQ(nb[1], 3);
  EXPECT_EQ(nb[2], 2);
}

TEST(FaceStructure, TriangleHasTwoFaces) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1, 2}, {2, 0}, {0, 1}});
  FaceStructure fs(g);
  EXPECT_EQ(fs.num_faces(), 2);
  EXPECT_EQ(fs.euler_genus(g), 0);
  // Each face walk visits 3 darts.
  EXPECT_EQ(fs.walk(0).size(), 3u);
  EXPECT_EQ(fs.walk(1).size(), 3u);
}

TEST(FaceStructure, TreeHasOneFace) {
  EmbeddedGraph g = EmbeddedGraph::from_rotations({{1}, {0, 2, 3}, {1}, {1}});
  FaceStructure fs(g);
  EXPECT_EQ(fs.num_faces(), 1);
  EXPECT_EQ(fs.euler_genus(g), 0);
  EXPECT_EQ(fs.walk(0).size(), 6u);  // each edge traversed twice
}

TEST(FaceStructure, K4RotationsCanHavePositiveGenus) {
  // K4 with a "bad" rotation system embeds on the torus, not the plane.
  EmbeddedGraph planar_k4 = EmbeddedGraph::from_rotations(
      {{1, 2, 3}, {2, 0, 3}, {0, 1, 3}, {0, 2, 1}});
  EXPECT_EQ(FaceStructure(planar_k4).euler_genus(planar_k4), 0);
  EmbeddedGraph toroidal_k4 = EmbeddedGraph::from_rotations(
      {{1, 2, 3}, {2, 0, 3}, {0, 1, 3}, {0, 1, 2}});
  EXPECT_GT(FaceStructure(toroidal_k4).euler_genus(toroidal_k4), 0);
}

TEST(FaceStructure, GridFaceCount) {
  const GeneratedGraph gg = grid(4, 5);
  FaceStructure fs(gg.graph);
  // 3x4 = 12 inner faces + outer.
  EXPECT_EQ(fs.num_faces(), 13);
  EXPECT_EQ(fs.euler_genus(gg.graph), 0);
  const FaceId outer = fs.outer_face(gg.graph);
  EXPECT_EQ(fs.walk(outer).size(), 2u * (4 + 5) - 4);
}

TEST(Region, GridUnitSquare) {
  // Classify the unit square (0,1,6,5) in a 5-wide grid; node ids r*5+c.
  const GeneratedGraph gg = grid(4, 5);
  const EmbeddedGraph& g = gg.graph;
  FaceStructure fs(g);
  const FaceId outer = fs.outer_face(g);
  const auto cycle = darts_of_node_cycle(g, {0, 1, 6, 5});
  const RegionClassification rc = classify_cycle_region(g, fs, cycle, outer);
  int inside = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rc.node_side[v] == Side::kInside) ++inside;
  }
  EXPECT_EQ(inside, 0);  // unit face has no interior nodes
  EXPECT_EQ(rc.node_side[0], Side::kOnCycle);
  EXPECT_EQ(rc.node_side[7], Side::kOutside);
}

TEST(Region, GridBigCycle) {
  // The outer boundary of the whole 4x5 grid: everything else is inside.
  const GeneratedGraph gg = grid(4, 5);
  const EmbeddedGraph& g = gg.graph;
  FaceStructure fs(g);
  const FaceId outer = fs.outer_face(g);
  std::vector<NodeId> boundary;
  for (int c = 0; c < 5; ++c) boundary.push_back(c);
  for (int r = 1; r < 4; ++r) boundary.push_back(r * 5 + 4);
  for (int c = 3; c >= 0; --c) boundary.push_back(3 * 5 + c);
  for (int r = 2; r >= 1; --r) boundary.push_back(r * 5);
  const auto cycle = darts_of_node_cycle(g, boundary);
  const RegionClassification rc = classify_cycle_region(g, fs, cycle, outer);
  int inside = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rc.node_side[v] == Side::kInside) ++inside;
  }
  EXPECT_EQ(inside, (4 - 2) * (5 - 2));
}

struct FamilyCase {
  Family family;
  int n;
};

class GeneratorProperty : public ::testing::TestWithParam<FamilyCase> {};

TEST_P(GeneratorProperty, ValidPlanarEmbedding) {
  const auto& p = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const GeneratedGraph gg = make_instance(p.family, p.n, seed);
    const EmbeddedGraph& g = gg.graph;
    EXPECT_GE(g.num_nodes(), 1);
    EXPECT_EQ(g.num_components(), 1) << family_name(p.family);
    EXPECT_TRUE(validate_embedding(g)) << family_name(p.family);
    // Planar edge bound.
    EXPECT_LE(g.num_edges(), std::max(1, 3 * g.num_nodes() - 6));
    if (gg.outer_dart != kNoDart) {
      EXPECT_GE(gg.outer_dart, 0);
      EXPECT_LT(gg.outer_dart, g.num_darts());
    }
    EXPECT_GE(gg.root_hint, 0);
    EXPECT_LT(gg.root_hint, g.num_nodes());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, GeneratorProperty,
    ::testing::Values(FamilyCase{Family::kGrid, 30},
                      FamilyCase{Family::kGridDiagonals, 30},
                      FamilyCase{Family::kCylinder, 30},
                      FamilyCase{Family::kTriangulation, 40},
                      FamilyCase{Family::kRandomPlanar, 40},
                      FamilyCase{Family::kOuterplanar, 30},
                      FamilyCase{Family::kCycle, 20},
                      FamilyCase{Family::kRandomTree, 25},
                      FamilyCase{Family::kStar, 15},
                      FamilyCase{Family::kWheel, 16}),
    [](const ::testing::TestParamInfo<FamilyCase>& info) {
      std::string s = family_name(info.param.family);
      for (char& c : s) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return s;
    });

TEST(Generators, CoordinateFamiliesAreStraightLinePlanar) {
  Rng rng(7);
  EXPECT_TRUE(validate_straight_line(grid(5, 6).graph));
  EXPECT_TRUE(validate_straight_line(cylinder(3, 8).graph));
  EXPECT_TRUE(validate_straight_line(wheel(12).graph));
  EXPECT_TRUE(validate_straight_line(outerplanar(14, 5, rng).graph));
  EXPECT_TRUE(validate_straight_line(grid_with_diagonals(5, 5, 0.7, rng).graph));
}

TEST(Generators, TriangulationIsMaximalPlanar) {
  Rng rng(3);
  const GeneratedGraph gg = stacked_triangulation(25, rng);
  EXPECT_EQ(gg.graph.num_nodes(), 25);
  EXPECT_EQ(gg.graph.num_edges(), 3 * 25 - 6);
  FaceStructure fs(gg.graph);
  EXPECT_EQ(fs.euler_genus(gg.graph), 0);
  // All faces are triangles.
  for (FaceId f = 0; f < fs.num_faces(); ++f) {
    EXPECT_EQ(fs.walk(f).size(), 3u);
  }
  // The recorded outer dart lies on the initial triangle.
  ASSERT_NE(gg.outer_dart, kNoDart);
  EXPECT_EQ(fs.walk(fs.face_of(gg.outer_dart)).size(), 3u);
}

TEST(Generators, RandomPlanarHitsTargetEdgeCount) {
  Rng rng(11);
  const GeneratedGraph gg = random_planar(40, 60, rng);
  EXPECT_EQ(gg.graph.num_nodes(), 40);
  EXPECT_EQ(gg.graph.num_edges(), 60);
  EXPECT_EQ(gg.graph.num_components(), 1);
}

// Reference random_planar: the same edge order, with each bridge test
// answered by a BFS from one endpoint to the other over the alive edges.
std::vector<std::vector<NodeId>> bfs_bridge_random_planar(int n, int m,
                                                          Rng& rng) {
  const GeneratedGraph tri = stacked_triangulation(n, rng);
  const EmbeddedGraph& g = tri.graph;
  const int max_m = g.num_edges();
  m = std::clamp(m, n - 1, max_m);
  std::vector<char> alive(static_cast<std::size_t>(max_m), 1);
  std::vector<EdgeId> order(static_cast<std::size_t>(max_m));
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const auto is_bridge = [&](EdgeId e) {
    const NodeId t = g.edge_v(e);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::deque<NodeId> queue{g.edge_u(e)};
    seen[static_cast<std::size_t>(g.edge_u(e))] = 1;
    while (!queue.empty()) {
      const NodeId v = queue.front();
      queue.pop_front();
      if (v == t) return false;
      for (DartId d : g.rotation(v)) {
        const EdgeId de = EmbeddedGraph::edge_of(d);
        const NodeId w = g.head(d);
        if (de == e || !alive[static_cast<std::size_t>(de)] ||
            seen[static_cast<std::size_t>(w)]) {
          continue;
        }
        seen[static_cast<std::size_t>(w)] = 1;
        queue.push_back(w);
      }
    }
    return true;
  };
  int remaining = max_m;
  for (EdgeId e : order) {
    if (remaining <= m) break;
    if (is_bridge(e)) continue;
    alive[static_cast<std::size_t>(e)] = 0;
    --remaining;
  }
  std::vector<std::vector<NodeId>> rot(static_cast<std::size_t>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (DartId d : g.rotation(v)) {
      if (alive[static_cast<std::size_t>(EmbeddedGraph::edge_of(d))]) {
        rot[static_cast<std::size_t>(v)].push_back(g.head(d));
      }
    }
  }
  return rot;
}

TEST(Generators, RandomPlanarMatchesBfsBridgeOracle) {
  for (const int n : {100, 1000, 10000}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      const int m = (3 * n) / 2;
      Rng rng(seed);
      const GeneratedGraph gg = random_planar(n, m, rng);
      Rng ref_rng(seed);
      const auto want = bfs_bridge_random_planar(n, m, ref_rng);
      ASSERT_EQ(gg.graph.num_nodes(), n);
      for (NodeId v = 0; v < n; ++v) {
        std::vector<NodeId> got;
        for (DartId d : gg.graph.rotation(v)) got.push_back(gg.graph.head(d));
        ASSERT_EQ(got, want[static_cast<std::size_t>(v)])
            << "n=" << n << " seed=" << seed << " v=" << v;
      }
      // Both consumed the same random stream.
      EXPECT_EQ(rng.next_u64(), ref_rng.next_u64());
    }
  }
}

TEST(Generators, DeterministicForFixedSeed) {
  const GeneratedGraph a = make_instance(Family::kTriangulation, 30, 42);
  const GeneratedGraph b = make_instance(Family::kTriangulation, 30, 42);
  EXPECT_EQ(a.graph.debug_string(), b.graph.debug_string());
}

}  // namespace
}  // namespace plansep::planar
