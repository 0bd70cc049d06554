#include "algorithms/clique_count.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/backends.hpp"
#include "core/bloom_filter.hpp"
#include "core/estimators.hpp"
#include "core/intersect.hpp"
#include "core/kernels/kernels.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"

namespace probgraph::algo {

std::uint64_t four_clique_count_exact_oriented(const CsrGraph& dag) {
  const VertexId n = dag.num_vertices();
  std::uint64_t total = 0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<VertexId> c3;  // per-thread scratch for C3 = N+u ∩ N+v
#pragma omp for schedule(dynamic, 32)
    for (std::int64_t u = 0; u < static_cast<std::int64_t>(n); ++u) {
      const auto nu = dag.neighbors(static_cast<VertexId>(u));
      for (const VertexId v : nu) {
        c3.clear();
        intersect_into(nu, dag.neighbors(v), c3);
        for (const VertexId w : c3) {
          total += intersect_size_merge(dag.neighbors(w), {c3.data(), c3.size()});
        }
      }
    }
  }
  return total;
}

std::uint64_t four_clique_count_exact(const CsrGraph& g) {
  return four_clique_count_exact_oriented(degree_orient(g));
}

namespace {

template <typename Backend>
double four_clique_bf(const CsrGraph& dag, const Backend be) {
  const VertexId n = dag.num_vertices();
  // Per-sweep tables, freed on return: every vertex's bit positions and the
  // AND estimate of every popcount, so the loops below neither hash nor call
  // log1p. Same positions and doubles as the direct calls: bit-identical.
  const BloomProbeTable probes(n, be.bits, be.hashes, be.family);
  const std::vector<double> est =
      est::bf_intersection_and_table(be.words_per_vertex, be.bits, be.hashes);
  double total = 0.0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<VertexId> c3;
    std::vector<std::uint64_t> uv;      // B_u AND B_v, materialized once per (u, v)
    std::vector<std::uint64_t> counts;  // batched and3 popcounts over C3
#pragma omp for schedule(dynamic, 32)
    for (std::int64_t u = 0; u < static_cast<std::int64_t>(n); ++u) {
      const auto wu = be.words(static_cast<VertexId>(u));
      for (const VertexId v : dag.neighbors(static_cast<VertexId>(u))) {
        // Approximate C3 membership list: elements of N+v inside BF(N+u).
        // Every x is written and the count advances only on a hit, so a
        // hard-to-predict hit costs no branch.
        const auto nv = dag.neighbors(v);
        c3.resize(nv.size());
        std::size_t hits = 0;
        for (const VertexId x : nv) {
          c3[hits] = x;
          hits += probes.contains(wu, x);
        }
        c3.resize(hits);
        if (c3.empty()) continue;
        // popcount(B_u & B_v & B_w) over all w ∈ C3 as one batched sweep:
        // the (u, v) AND is hoisted out of the w loop — it was recomputed
        // |C3| times inside and3_popcount — and the candidate filters
        // stream against the hot uv row. Integer popcounts: bit-identical.
        const auto wv = be.words(v);
        uv.resize(wu.size());
        for (std::size_t i = 0; i < wu.size(); ++i) uv[i] = wu[i] & wv[i];
        counts.resize(c3.size());
        kernels::and_popcount_batch(uv, be.arena, be.words_per_vertex, c3,
                                    counts.data());
        for (const std::uint64_t ones : counts) total += est[ones];
      }
    }
  }
  return total;
}

template <typename Backend>
double four_clique_mh(const CsrGraph& dag, const Backend be) {
  const VertexId n = dag.num_vertices();
  double total = 0.0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<VertexId> c3s;
#pragma omp for schedule(dynamic, 32)
    for (std::int64_t u = 0; u < static_cast<std::int64_t>(n); ++u) {
      for (const VertexId v : dag.neighbors(static_cast<VertexId>(u))) {
        const double est_c3 = be.sampled_intersection(static_cast<VertexId>(u), v, c3s);
        if (c3s.empty() || est_c3 <= 0.0) continue;
        // Inverse sampling fraction; C3s can exceed the estimate on small
        // sets, in which case the sample is effectively exhaustive.
        const double inv_p =
            std::max(1.0, est_c3 / static_cast<double>(c3s.size()));
        double inner = 0.0;
        for (const VertexId w : c3s) {
          inner += static_cast<double>(
              intersect_size_merge(dag.neighbors(w), {c3s.data(), c3s.size()}));
        }
        total += inv_p * inv_p * inner;
      }
    }
  }
  return total;
}

}  // namespace

double four_clique_count_probgraph(const ProbGraph& pg) {
  return pg.visit_backend([&](const auto& be) -> double {
    using Backend = std::decay_t<decltype(be)>;
    if constexpr (Backend::kKind == SketchKind::kBloomFilter) {
      return four_clique_bf(pg.graph(), be);
    } else if constexpr (Backend::kKind == SketchKind::kKHash ||
                         Backend::kKind == SketchKind::kOneHash) {
      return four_clique_mh(pg.graph(), be);
    } else {
      throw std::invalid_argument(
          "four_clique_count_probgraph: KMV sketches cannot enumerate C3 "
          "(store hash values, not elements); use BF or MinHash");
    }
  });
}

}  // namespace probgraph::algo
