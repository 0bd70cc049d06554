#include "algorithms/kclique.hpp"

#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/backends.hpp"
#include "core/bloom_filter.hpp"
#include "core/estimators.hpp"
#include "core/intersect.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"

namespace probgraph::algo {

namespace {

/// Exact recursion: `cand` holds the common out-neighbors of all chosen
/// vertices; `remaining` counts how many vertices are still to be chosen
/// before the closing cardinality is added.
std::uint64_t exact_rec(const CsrGraph& dag, std::span<const VertexId> cand,
                        unsigned remaining, std::vector<std::vector<VertexId>>& scratch,
                        unsigned depth) {
  if (remaining == 0) return cand.size();
  std::uint64_t total = 0;
  auto& next = scratch[depth];
  for (const VertexId u : cand) {
    next.clear();
    intersect_into(cand, dag.neighbors(u), next);
    // Pruning: completing the clique needs `remaining - 1` further choices
    // plus a non-empty closing candidate set.
    if (next.size() < remaining) continue;
    total += exact_rec(dag, next, remaining - 1, scratch, depth + 1);
  }
  return total;
}

}  // namespace

std::uint64_t kclique_count_exact_oriented(const CsrGraph& dag, unsigned k) {
  if (k < 3) throw std::invalid_argument("kclique_count: k must be at least 3");
  const VertexId n = dag.num_vertices();
  std::uint64_t total = 0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<std::vector<VertexId>> scratch(k);
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      // v is v1; k-2 more vertices to choose before the closing count.
      total += exact_rec(dag, dag.neighbors(static_cast<VertexId>(v)), k - 2, scratch, 0);
    }
  }
  return total;
}

std::uint64_t kclique_count_exact(const CsrGraph& g, unsigned k) {
  return kclique_count_exact_oriented(degree_orient(g), k);
}

namespace {

/// BF recursion: `cand` is the approximate common-neighbor list (membership
/// filtered), `and_words` the running bitwise AND of the chosen filters.
/// Monomorphic in the bloom backend; the closing estimate is always the AND
/// estimator (the chained popcount *is* the AND statistic — Limit/OR have
/// no chained analogue), read from `est` by popcount.
template <typename Backend>
double bf_rec(const Backend& be, const BloomProbeTable& probes, std::span<const double> est,
              std::span<const VertexId> cand, std::span<const std::uint64_t> and_words,
              unsigned remaining, std::vector<std::vector<VertexId>>& cand_scratch,
              std::vector<std::vector<std::uint64_t>>& word_scratch, unsigned depth) {
  if (remaining == 0) return est[util::popcount(and_words)];
  double total = 0.0;
  auto& next_cand = cand_scratch[depth];
  auto& next_words = word_scratch[depth];
  for (const VertexId u : cand) {
    const auto wu = be.words(u);
    // Fold u's filter into the running AND.
    next_words.assign(and_words.begin(), and_words.end());
    for (std::size_t i = 0; i < next_words.size(); ++i) next_words[i] &= wu[i];
    // Approximate candidate refinement via membership in the chain so far:
    // x stays iff its bits are set in the AND (i.e. x "in" every chosen BF).
    // Every x is written and the count advances when it stays: no branch.
    next_cand.resize(cand.size());
    std::size_t kept = 0;
    for (const VertexId x : cand) {
      const bool in_chain = probes.contains(next_words, x);
      next_cand[kept] = x;
      kept += static_cast<std::size_t>(in_chain && x != u);
    }
    next_cand.resize(kept);
    if (next_cand.empty() && remaining > 1) continue;
    total += bf_rec(be, probes, est, next_cand, next_words, remaining - 1, cand_scratch,
                    word_scratch, depth + 1);
  }
  return total;
}

template <typename Backend>
double kclique_bf(const Backend be, const CsrGraph& dag, unsigned k) {
  const VertexId n = dag.num_vertices();
  // Per-sweep tables, freed on return (see four_clique_bf): bit positions of
  // every vertex and the AND estimate of every popcount.
  const BloomProbeTable probes(n, be.bits, be.hashes, be.family);
  const std::vector<double> est =
      est::bf_intersection_and_table(be.words_per_vertex, be.bits, be.hashes);
  double total = 0.0;
#pragma omp parallel reduction(+ : total)
  {
    std::vector<std::vector<VertexId>> cand_scratch(k);
    std::vector<std::vector<std::uint64_t>> word_scratch(k);
#pragma omp for schedule(dynamic, 16)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      const auto nv = dag.neighbors(static_cast<VertexId>(v));
      if (nv.empty()) continue;
      total += bf_rec(be, probes, est, nv, be.words(static_cast<VertexId>(v)), k - 2,
                      cand_scratch, word_scratch, 0);
    }
  }
  return total;
}

}  // namespace

double kclique_count_probgraph(const ProbGraph& pg, unsigned k) {
  if (k < 3) throw std::invalid_argument("kclique_count: k must be at least 3");
  return pg.visit_backend([&](const auto& be) -> double {
    using Backend = std::decay_t<decltype(be)>;
    if constexpr (Backend::kKind == SketchKind::kBloomFilter) {
      return kclique_bf(be, pg.graph(), k);
    } else {
      throw std::invalid_argument(
          "kclique_count_probgraph: only Bloom-filter ProbGraphs support chained "
          "intersection for general k (use four_clique_count_probgraph for MinHash)");
    }
  });
}

}  // namespace probgraph::algo
