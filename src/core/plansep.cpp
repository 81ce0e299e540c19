#include "core/plansep.hpp"

#include "util/check.hpp"

namespace plansep {

SeparatorRun compute_cycle_separator(const planar::EmbeddedGraph& g,
                                     planar::NodeId root) {
  PLANSEP_CHECK_MSG(g.num_components() == 1, "graph must be connected");
  shortcuts::PartwiseEngine engine(g, root);
  return compute_cycle_separator(engine);
}

SeparatorRun compute_cycle_separator(shortcuts::PartwiseEngine& engine) {
  const planar::EmbeddedGraph& g = engine.graph();
  std::vector<int> part(static_cast<std::size_t>(g.num_nodes()), 0);
  sub::PartSet ps =
      sub::build_part_set(g, part, 1, engine, {engine.global_tree().root});
  separator::SeparatorEngine sep(engine);
  separator::SeparatorResult res = sep.compute(ps);
  SeparatorRun out;
  out.separator = res.parts.at(0);
  out.check = separator::check_separator(ps, 0, res.parts.at(0));
  out.cost = engine.setup_cost();
  out.cost += ps.cost;
  out.cost += res.cost;
  out.diameter_bound = engine.diameter_bound();
  return out;
}

DfsRun compute_dfs_tree(const planar::EmbeddedGraph& g, planar::NodeId root) {
  PLANSEP_CHECK_MSG(g.num_components() == 1, "graph must be connected");
  shortcuts::PartwiseEngine engine(g, root);
  return compute_dfs_tree(engine);
}

DfsRun compute_dfs_tree(shortcuts::PartwiseEngine& engine) {
  const planar::EmbeddedGraph& g = engine.graph();
  DfsRun out{dfs::build_dfs_tree(g, engine.global_tree().root, engine),
             dfs::DfsCheck{},
             engine.diameter_bound()};
  out.check = dfs::check_dfs_tree(g, out.build.tree);
  return out;
}

}  // namespace plansep
