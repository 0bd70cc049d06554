#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "graph/builder.hpp"
#include "util/rng.hpp"

namespace probgraph::gen {

using util::Xoshiro256;

CsrGraph kronecker(unsigned scale, double edge_factor, std::uint64_t seed,
                   double a, double b, double c) {
  if (scale > 30) throw std::invalid_argument("kronecker: scale too large");
  const double d = 1.0 - a - b - c;
  if (d < 0.0) throw std::invalid_argument("kronecker: partition must sum to <= 1");
  const VertexId n = VertexId{1} << scale;
  const auto target = static_cast<EdgeId>(edge_factor * static_cast<double>(n));

  // One stream, drawn in edge order: the graph depends on the arguments
  // alone, never on the OpenMP team.
  Xoshiro256 rng(seed ^ 0x9e3779b97f4a7c15ULL);
  const double ab = a + b;
  const double abc = ab + c;
  std::vector<Edge> edges(target);
  for (Edge& edge : edges) {
    VertexId u = 0, v = 0;
    for (unsigned level = 0; level < scale; ++level) {
      // Quadrant r < a ? (0,0) : r < a+b ? (0,1) : r < a+b+c ? (1,0) : (1,1),
      // from the same three comparisons but without branches: u's bit is set
      // in the last two quadrants, v's in the second and the last.
      const double r = rng.uniform();
      const VertexId lt_a = r < a, lt_ab = r < ab, lt_abc = r < abc;
      u = (u << 1) | ((lt_a | lt_ab) ^ 1);
      v = (v << 1) | ((lt_a ^ 1) & (lt_ab | (lt_abc ^ 1)));
    }
    edge = {u, v};
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph erdos_renyi(VertexId n, double p, std::uint64_t seed) {
  if (p < 0.0 || p > 1.0) throw std::invalid_argument("erdos_renyi: p must be in [0,1]");
  std::vector<Edge> edges;
  Xoshiro256 rng(seed);
  if (p > 0.0) {
    // Geometric skipping: visit each candidate pair with probability p
    // without testing all C(n,2) pairs individually when p is small.
    const double log1mp = std::log1p(-p);
    const auto total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    std::uint64_t idx = 0;
    auto skip = [&]() -> std::uint64_t {
      if (p >= 1.0) return 1;
      const double u = std::max(rng.uniform(), 1e-300);
      return 1 + static_cast<std::uint64_t>(std::floor(std::log(u) / log1mp));
    };
    for (idx = skip() - 1; idx < total; idx += skip()) {
      // Map linear pair index -> (u, v), u < v, row-major over the strict
      // upper triangle.
      const double nd = static_cast<double>(n);
      const double i = std::floor(nd - 0.5 - std::sqrt((nd - 0.5) * (nd - 0.5) -
                                                       2.0 * static_cast<double>(idx)));
      auto u = static_cast<VertexId>(i);
      auto row_start = static_cast<std::uint64_t>(u) * n - static_cast<std::uint64_t>(u) * (u + 1) / 2;
      while (row_start > idx) {  // guard against float rounding
        --u;
        row_start = static_cast<std::uint64_t>(u) * n - static_cast<std::uint64_t>(u) * (u + 1) / 2;
      }
      while (row_start + (n - u - 1) <= idx) {
        row_start += n - u - 1;
        ++u;
      }
      const auto v = static_cast<VertexId>(u + 1 + (idx - row_start));
      edges.emplace_back(u, v);
    }
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph erdos_renyi_m(VertexId n, EdgeId m, std::uint64_t seed) {
  std::vector<Edge> edges;
  edges.reserve(m);
  Xoshiro256 rng(seed);
  for (EdgeId i = 0; i < m; ++i) {
    const auto u = static_cast<VertexId>(rng.bounded(n));
    const auto v = static_cast<VertexId>(rng.bounded(n));
    edges.emplace_back(u, v);  // self-loops/dups removed by the builder
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph barabasi_albert(VertexId n, VertexId attach, std::uint64_t seed) {
  if (n < attach + 1) throw std::invalid_argument("barabasi_albert: n must exceed attach");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  // Repeated-endpoints list: sampling a uniform entry is sampling
  // proportionally to degree.
  std::vector<VertexId> endpoints;
  // Seed with a small clique on `attach + 1` vertices.
  for (VertexId u = 0; u <= attach; ++u) {
    for (VertexId v = u + 1; v <= attach; ++v) {
      edges.emplace_back(u, v);
      endpoints.push_back(u);
      endpoints.push_back(v);
    }
  }
  for (VertexId v = attach + 1; v < n; ++v) {
    for (VertexId j = 0; j < attach; ++j) {
      const VertexId target = endpoints[rng.bounded(endpoints.size())];
      edges.emplace_back(v, target);
      endpoints.push_back(v);
      endpoints.push_back(target);
    }
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph watts_strogatz(VertexId n, VertexId k, double beta, std::uint64_t seed) {
  if (n < 2 * k + 1) throw std::invalid_argument("watts_strogatz: n must exceed 2k");
  Xoshiro256 rng(seed);
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * k);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId j = 1; j <= k; ++j) {
      VertexId v = (u + j) % n;
      if (rng.bernoulli(beta)) {
        v = static_cast<VertexId>(rng.bounded(n));
      }
      edges.emplace_back(u, v);
    }
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph complete(VertexId n) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(n) * (n - 1) / 2);
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.emplace_back(u, v);
  }
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph star(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 1; v < n; ++v) edges.emplace_back(0, v);
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph path(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph cycle(VertexId n) {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.emplace_back(v, v + 1);
  if (n > 2) edges.emplace_back(n - 1, 0);
  return GraphBuilder::from_edges(std::move(edges), n);
}

CsrGraph complete_bipartite(VertexId a, VertexId b) {
  std::vector<Edge> edges;
  edges.reserve(static_cast<std::size_t>(a) * b);
  for (VertexId u = 0; u < a; ++u) {
    for (VertexId v = 0; v < b; ++v) edges.emplace_back(u, a + v);
  }
  return GraphBuilder::from_edges(std::move(edges), a + b);
}

CsrGraph clique_chain(VertexId groups, VertexId clique_size) {
  std::vector<Edge> edges;
  for (VertexId g = 0; g < groups; ++g) {
    const VertexId base = g * clique_size;
    for (VertexId u = 0; u < clique_size; ++u) {
      for (VertexId v = u + 1; v < clique_size; ++v) {
        edges.emplace_back(base + u, base + v);
      }
    }
  }
  return GraphBuilder::from_edges(std::move(edges), groups * clique_size);
}

}  // namespace probgraph::gen
