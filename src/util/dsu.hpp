#pragma once

// Disjoint-set union over the ids 0..n-1, with path halving. Used by the
// Borůvka spanning forest and by random_planar's bridge test over faces.

#include <numeric>
#include <vector>

namespace plansep {

struct Dsu {
  std::vector<int> parent;

  /// n singleton sets {0}, ..., {n - 1}.
  explicit Dsu(int n) : parent(static_cast<std::size_t>(n)) {
    std::iota(parent.begin(), parent.end(), 0);
  }

  /// The representative of x's set.
  int find(int x) {
    while (parent[static_cast<std::size_t>(x)] != x) {
      parent[static_cast<std::size_t>(x)] =
          parent[static_cast<std::size_t>(parent[static_cast<std::size_t>(x)])];
      x = parent[static_cast<std::size_t>(x)];
    }
    return x;
  }

  /// Merges the sets of a and b.
  void unite(int a, int b) { parent[static_cast<std::size_t>(find(a))] = find(b); }
};

}  // namespace plansep
