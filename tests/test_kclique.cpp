#include "algorithms/kclique.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "algorithms/clique_count.hpp"
#include "algorithms/triangle_count.hpp"
#include "core/backends.hpp"
#include "core/estimators.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"
#include "util/threading.hpp"

namespace probgraph::algo {
namespace {

std::uint64_t choose(std::uint64_t n, std::uint64_t k) {
  if (k > n) return 0;
  std::uint64_t result = 1;
  for (std::uint64_t i = 0; i < k; ++i) result = result * (n - i) / (i + 1);
  return result;
}

/// The Bloom-filter k-clique recursion without per-sweep tables, kept as the
/// reference: membership through a BloomFilterView over the running AND and
/// one est::bf_intersection_and per closing popcount, summed in the
/// sweep's order.
double kclique_bf_oracle_rec(const ProbGraph& pg, std::span<const VertexId> cand,
                             std::span<const std::uint64_t> and_words, unsigned remaining) {
  const std::uint32_t b = pg.config().bf_hashes;
  if (remaining == 0) {
    return est::bf_intersection_and(util::popcount(and_words), pg.bf_bits(), b);
  }
  double total = 0.0;
  for (const VertexId u : cand) {
    std::vector<std::uint64_t> words(and_words.begin(), and_words.end());
    const auto wu = pg.bf_words(u);
    for (std::size_t i = 0; i < words.size(); ++i) words[i] &= wu[i];
    const BloomFilterView chain(words, pg.bf_bits(), b, pg.backend<BloomAndBackend>().family);
    std::vector<VertexId> next;
    for (const VertexId x : cand) {
      if (x != u && chain.contains(x)) next.push_back(x);
    }
    if (next.empty() && remaining > 1) continue;
    total += kclique_bf_oracle_rec(pg, next, words, remaining - 1);
  }
  return total;
}

double kclique_bf_oracle(const ProbGraph& pg, unsigned k) {
  const CsrGraph& dag = pg.graph();
  double total = 0.0;
  for (VertexId v = 0; v < dag.num_vertices(); ++v) {
    if (dag.neighbors(v).empty()) continue;
    total += kclique_bf_oracle_rec(pg, dag.neighbors(v), pg.bf_words(v), k - 2);
  }
  return total;
}

TEST(KCliqueExact, RejectsSmallK) {
  const CsrGraph g = gen::complete(5);
  EXPECT_THROW((void)kclique_count_exact(g, 2), std::invalid_argument);
}

TEST(KCliqueExact, CompleteGraphClosedForms) {
  const CsrGraph g = gen::complete(12);
  for (unsigned k = 3; k <= 7; ++k) {
    EXPECT_EQ(kclique_count_exact(g, k), choose(12, k)) << "k=" << k;
  }
}

TEST(KCliqueExact, DegeneratesToTriangleAndFourCliqueCounting) {
  const CsrGraph g = gen::kronecker(10, 16.0, 3);
  EXPECT_EQ(kclique_count_exact(g, 3), triangle_count_exact(g));
  EXPECT_EQ(kclique_count_exact(g, 4), four_clique_count_exact(g));
}

TEST(KCliqueExact, CliqueChainClosedForm) {
  // 6 disjoint K_7s: 6·C(7,5) five-cliques.
  const CsrGraph g = gen::clique_chain(6, 7);
  EXPECT_EQ(kclique_count_exact(g, 5), 6 * choose(7, 5));
  EXPECT_EQ(kclique_count_exact(g, 7), 6u);
  EXPECT_EQ(kclique_count_exact(g, 8), 0u);
}

TEST(KCliqueExact, TriangleFreeGraphsHaveNoCliques) {
  for (unsigned k = 3; k <= 5; ++k) {
    EXPECT_EQ(kclique_count_exact(gen::complete_bipartite(10, 10), k), 0u);
    EXPECT_EQ(kclique_count_exact(gen::cycle(30), k), 0u);
  }
}

TEST(KCliqueProbGraph, RejectsNonBloom) {
  const CsrGraph dag = degree_orient(gen::complete(8));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  const ProbGraph pg(dag, cfg);
  EXPECT_THROW((void)kclique_count_probgraph(pg, 4), std::invalid_argument);
}

TEST(KCliqueProbGraph, MatchesTriangleEstimatorAtK3) {
  const CsrGraph dag = degree_orient(gen::kronecker(9, 12.0, 7));
  ProbGraphConfig cfg;
  cfg.bf_bits = 2048;
  cfg.bf_hashes = 2;
  cfg.seed = 5;
  const ProbGraph pg(dag, cfg);
  const double via_kclique = kclique_count_probgraph(pg, 3);
  const double via_tc = triangle_count_probgraph(pg, TcMode::kOriented);
  EXPECT_NEAR(via_kclique, via_tc, std::abs(via_tc) * 1e-9 + 1e-6);
}

TEST(KCliqueProbGraph, BloomSweepEqualsPerTestOracle) {
  const CsrGraph dag = degree_orient(gen::kronecker(9, 16.0, 23));
  for (const std::uint32_t b : {1u, 2u, 3u}) {
    ProbGraphConfig cfg;
    cfg.bf_bits = 192;
    cfg.bf_hashes = b;
    cfg.seed = 29;
    const ProbGraph pg(dag, cfg);
    for (unsigned k = 3; k <= 5; ++k) {
      double oracle = 0.0;
      double one_thread = 0.0;
      {
        const util::ThreadScope scope(1);
        oracle = kclique_bf_oracle(pg, k);
        one_thread = kclique_count_probgraph(pg, k);
      }
      ASSERT_GT(oracle, 0.0) << "b=" << b << " k=" << k;
      EXPECT_EQ(one_thread, oracle) << "b=" << b << " k=" << k;
      // Any other team size sums the same terms in another order.
      EXPECT_NEAR(kclique_count_probgraph(pg, k), oracle, oracle * 1e-12)
          << "b=" << b << " k=" << k;
    }
  }
}

class KCliqueSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(KCliqueSweep, BloomEstimateTracksExactOnDenseGraph) {
  const unsigned k = GetParam();
  const CsrGraph g = gen::clique_chain(8, 12);  // plenty of k-cliques, k <= 12
  const CsrGraph dag = degree_orient(g);
  const auto exact = static_cast<double>(kclique_count_exact_oriented(dag, k));
  ASSERT_GT(exact, 0.0);
  ProbGraphConfig cfg;
  cfg.bf_bits = 4096;  // generous width: chained ANDs compound FP noise
  cfg.bf_hashes = 2;
  cfg.seed = 3;
  const ProbGraph pg(dag, cfg);
  const double est = kclique_count_probgraph(pg, k);
  EXPECT_NEAR(est / exact, 1.0, 0.35) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(Ks, KCliqueSweep, ::testing::Values(3u, 4u, 5u));

}  // namespace
}  // namespace probgraph::algo
