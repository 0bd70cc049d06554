// Synthetic graph generators.
//
// The paper's synthetic workloads are Kronecker graphs [119] "with
// power-law degree distribution", used for the tradeoff panels (Fig. 4/5
// bottom) and the scaling studies (Fig. 8/9) because they allow changing a
// single property (n, m, m/n) at a time. Since the offline environment has
// no access to SNAP/KONECT downloads, the remaining generators provide
// density/skew-matched proxies for the real-graph categories of Table VIII
// (see DESIGN.md §2) plus structured graphs with closed-form pattern counts
// for tests.
#pragma once

#include <cstdint>

#include "graph/csr_graph.hpp"
#include "util/types.hpp"

namespace probgraph::gen {

/// R-MAT/Kronecker generator (the recursive-matrix formulation of [119]).
/// Produces an undirected simple graph with 2^scale vertices and about
/// edge_factor * 2^scale edges (duplicates/self-loops removed).
/// Defaults follow the Graph500 partition (a,b,c) = (.57,.19,.19).
/// The graph depends on the arguments alone, not on the OpenMP team size:
/// every edge is drawn, in order, from one stream seeded by `seed`.
CsrGraph kronecker(unsigned scale, double edge_factor, std::uint64_t seed,
                   double a = 0.57, double b = 0.19, double c = 0.19);

/// Erdős–Rényi G(n, p).
CsrGraph erdos_renyi(VertexId n, double p, std::uint64_t seed);

/// Erdős–Rényi with a target edge count, G(n, m).
CsrGraph erdos_renyi_m(VertexId n, EdgeId m, std::uint64_t seed);

/// Barabási–Albert preferential attachment: each new vertex attaches to
/// `attach` existing vertices. Heavy-tailed degrees, high clustering of
/// early vertices — a proxy for citation/interaction networks.
CsrGraph barabasi_albert(VertexId n, VertexId attach, std::uint64_t seed);

/// Watts–Strogatz small world: ring lattice with 2*k neighbors, rewiring
/// probability beta. High clustering coefficient — a proxy for the dense
/// biological/chemistry graphs of Table VIII.
CsrGraph watts_strogatz(VertexId n, VertexId k, double beta, std::uint64_t seed);

// --- Structured graphs with closed-form counts (test oracles). ---

/// Complete graph K_n: TC = C(n,3), 4-cliques = C(n,4).
CsrGraph complete(VertexId n);

/// Star S_n (one hub, n-1 leaves): triangle-free.
CsrGraph star(VertexId n);

/// Simple path P_n: triangle-free, n-1 edges.
CsrGraph path(VertexId n);

/// Cycle C_n: triangle-free for n > 3.
CsrGraph cycle(VertexId n);

/// Complete bipartite K_{a,b}: triangle-free, a*b edges.
CsrGraph complete_bipartite(VertexId a, VertexId b);

/// Disjoint union of `groups` cliques of size `clique_size` — a planted
/// clustering with a known component structure.
CsrGraph clique_chain(VertexId groups, VertexId clique_size);

}  // namespace probgraph::gen
