// plansep_cli — run the library on your own graph.
//
//   plansep_cli separator < edges.txt      cycle separator (JSON)
//   plansep_cli dfs       < edges.txt      DFS tree (JSON)
//   plansep_cli dot       < edges.txt      Graphviz DOT with the separator
//   plansep_cli check     < edges.txt      planarity verdict only
//
// Input: one "u v" edge per line ('#' comments allowed); arbitrary
// non-negative ids. The graph must be planar (checked by the built-in
// linear-time left-right embedder) and connected for separator/dfs.

#include <cstdio>
#include <cstring>
#include <iostream>

#include "core/plansep.hpp"
#include "io/text.hpp"

int main(int argc, char** argv) {
  using namespace plansep;
  const std::string mode = argc > 1 ? argv[1] : "separator";

  const io::EdgeListInput input = io::read_edge_list(std::cin);
  if (input.num_nodes == 0) {
    std::fprintf(stderr, "no input edges\n");
    return 2;
  }
  const auto embedded = planar::planar_embedding(input.num_nodes, input.edges);
  if (mode == "check") {
    std::printf("{\"planar\":%s,\"n\":%d,\"m\":%zu}\n",
                embedded.has_value() ? "true" : "false", input.num_nodes,
                input.edges.size());
    return embedded.has_value() ? 0 : 1;
  }
  if (!embedded.has_value()) {
    std::fprintf(stderr, "input graph is not planar\n");
    return 1;
  }
  if (embedded->num_components() != 1) {
    std::fprintf(stderr, "input graph must be connected for %s\n",
                 mode.c_str());
    return 1;
  }

  if (mode == "separator" || mode == "dot") {
    const SeparatorRun run = compute_cycle_separator(*embedded, 0);
    if (mode == "dot") {
      std::vector<char> mark(embedded->num_nodes(), 0);
      for (planar::NodeId v : run.separator.path) mark[v] = 1;
      std::fputs(io::to_dot(*embedded, mark).c_str(), stdout);
      return 0;
    }
    std::printf(
        "{\"separator\":%s,\"balance\":%.4f,\"phase\":%d,"
        "\"rounds_measured\":%lld,\"rounds_charged\":%lld,\"diameter\":%d}\n",
        io::nodes_to_json(run.separator.path).c_str(), run.check.balance,
        run.separator.phase, run.cost.measured, run.cost.charged,
        run.diameter_bound);
    return run.check.ok() ? 0 : 1;
  }
  if (mode == "dfs") {
    const DfsRun run = compute_dfs_tree(*embedded, 0);
    std::printf("%s\n", io::dfs_to_json(run.build.tree).c_str());
    return run.check.ok() ? 0 : 1;
  }
  std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
  return 2;
}
