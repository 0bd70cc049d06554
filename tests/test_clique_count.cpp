#include "algorithms/clique_count.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>

#include "core/backends.hpp"
#include "core/estimators.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/orientation.hpp"
#include "util/bitvector.hpp"
#include "util/threading.hpp"

namespace probgraph::algo {
namespace {

/// O(n⁴) oracle for small graphs.
std::uint64_t brute_force_4cc(const CsrGraph& g) {
  std::uint64_t count = 0;
  const VertexId n = g.num_vertices();
  for (VertexId a = 0; a < n; ++a)
    for (VertexId b = a + 1; b < n; ++b) {
      if (!g.has_edge(a, b)) continue;
      for (VertexId c = b + 1; c < n; ++c) {
        if (!g.has_edge(a, c) || !g.has_edge(b, c)) continue;
        for (VertexId d = c + 1; d < n; ++d) {
          if (g.has_edge(a, d) && g.has_edge(b, d) && g.has_edge(c, d)) ++count;
        }
      }
    }
  return count;
}

/// The Bloom-filter 4-clique sweep without per-sweep tables, kept as the
/// reference: one BloomFilterView::contains per C3 test and one
/// est::bf_intersection_and per C3 element, summed in the sweep's order.
double four_clique_bf_oracle(const ProbGraph& pg) {
  const CsrGraph& dag = pg.graph();
  double total = 0.0;
  for (VertexId u = 0; u < dag.num_vertices(); ++u) {
    const BloomFilterView bf_u = pg.bf(u);
    for (const VertexId v : dag.neighbors(u)) {
      for (const VertexId w : dag.neighbors(v)) {
        if (!bf_u.contains(w)) continue;
        const std::uint64_t ones =
            util::and3_popcount(pg.bf_words(u), pg.bf_words(v), pg.bf_words(w));
        total += est::bf_intersection_and(ones, pg.bf_bits(), pg.config().bf_hashes);
      }
    }
  }
  return total;
}

ProbGraph bloom_over(const CsrGraph& dag, std::uint64_t bits, std::uint32_t hashes) {
  ProbGraphConfig cfg;
  cfg.bf_bits = bits;
  cfg.bf_hashes = hashes;
  cfg.seed = 17;
  return ProbGraph(dag, cfg);
}

TEST(BloomProbeTable, AgreesWithViewContainsForEveryFilterAndElement) {
  const CsrGraph dag = degree_orient(gen::kronecker(8, 12.0, 13));
  const VertexId n = dag.num_vertices();
  for (const std::uint64_t bits : {64u, 192u, 4096u}) {
    for (const std::uint32_t b : {1u, 2u, 3u}) {
      const ProbGraph pg = bloom_over(dag, bits, b);
      ASSERT_EQ(pg.bf_bits(), bits);
      const util::HashFamily family = pg.backend<BloomAndBackend>().family;
      for (int threads = 1; threads <= 4; ++threads) {
        const util::ThreadScope scope(threads);
        const BloomProbeTable probes(n, bits, b, family);
        std::uint64_t hits = 0;
        std::uint64_t mismatches = 0;
        for (VertexId v = 0; v < n; ++v) {
          const BloomFilterView view = pg.bf(v);
          for (VertexId x = 0; x < n; ++x) {
            const bool member = view.contains(x);
            hits += member ? 1 : 0;
            mismatches += probes.contains(view.words(), x) != member ? 1 : 0;
          }
        }
        EXPECT_EQ(mismatches, 0u) << "B=" << bits << " b=" << b << " threads=" << threads;
        EXPECT_GT(hits, 0u) << "B=" << bits << " b=" << b;
      }
    }
  }
}

TEST(BloomProbeTable, RejectsWidthsBeyondThirtyTwoBitPositions) {
  const util::HashFamily family(7);
  // n·b positions here exceed what a std::vector can hold, so allocating
  // first would throw std::length_error: invalid_argument shows that the
  // width is checked before anything is allocated.
  EXPECT_THROW(BloomProbeTable(std::numeric_limits<VertexId>::max(), std::uint64_t{1} << 32,
                               std::uint32_t{1} << 30, family),
               std::invalid_argument);
  EXPECT_THROW(BloomProbeTable(4, 0, 2, family), std::invalid_argument);
  EXPECT_NO_THROW(BloomProbeTable(4, (std::uint64_t{1} << 32) - 1, 2, family));
}

TEST(FourCliqueProbGraph, BloomSweepEqualsPerTestOracle) {
  const CsrGraph dag = degree_orient(gen::kronecker(10, 16.0, 21));
  for (const std::uint32_t b : {1u, 2u, 3u}) {
    const ProbGraph pg = bloom_over(dag, 192, b);
    double oracle = 0.0;
    double one_thread = 0.0;
    {
      const util::ThreadScope scope(1);
      oracle = four_clique_bf_oracle(pg);
      one_thread = four_clique_count_probgraph(pg);
    }
    ASSERT_GT(oracle, 0.0) << "b=" << b;
    EXPECT_EQ(one_thread, oracle) << "b=" << b;
    // Any other team size sums the same terms in another order.
    EXPECT_NEAR(four_clique_count_probgraph(pg), oracle, oracle * 1e-12) << "b=" << b;
  }
}

TEST(FourCliqueExact, ClosedFormOracles) {
  EXPECT_EQ(four_clique_count_exact(gen::complete(6)), 15u);   // C(6,4)
  EXPECT_EQ(four_clique_count_exact(gen::complete(10)), 210u); // C(10,4)
  EXPECT_EQ(four_clique_count_exact(gen::complete(4)), 1u);
  EXPECT_EQ(four_clique_count_exact(gen::complete(3)), 0u);
  EXPECT_EQ(four_clique_count_exact(gen::star(30)), 0u);
  EXPECT_EQ(four_clique_count_exact(gen::complete_bipartite(8, 8)), 0u);
  // 4 disjoint K_5s: 4 · C(5,4) = 20.
  EXPECT_EQ(four_clique_count_exact(gen::clique_chain(4, 5)), 20u);
}

TEST(FourCliqueExact, MatchesBruteForceOnRandomGraphs) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const CsrGraph g = gen::erdos_renyi(40, 0.25, seed);
    EXPECT_EQ(four_clique_count_exact(g), brute_force_4cc(g)) << "seed " << seed;
  }
}

TEST(FourCliqueExact, OrientedEntryPointMatches) {
  const CsrGraph g = gen::kronecker(8, 10.0, 3);
  EXPECT_EQ(four_clique_count_exact(g),
            four_clique_count_exact_oriented(degree_orient(g)));
}

TEST(FourCliqueProbGraph, RejectsKmv) {
  const CsrGraph dag = degree_orient(gen::complete(8));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kKmv;
  const ProbGraph pg(dag, cfg);
  EXPECT_THROW((void)four_clique_count_probgraph(pg), std::invalid_argument);
}

TEST(FourCliqueProbGraph, BloomTracksExactOnDenseGraph) {
  const CsrGraph g = gen::kronecker(10, 24.0, 5);
  const auto exact = static_cast<double>(four_clique_count_exact(g));
  ASSERT_GT(exact, 0.0);
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg;
  cfg.storage_budget = 0.33;
  cfg.budget_reference_bytes = g.memory_bytes();
  cfg.bf_hashes = 1;
  cfg.seed = 11;
  const ProbGraph pg(dag, cfg);
  const double est = four_clique_count_probgraph(pg);
  // 4CC compounds three approximations (C3 membership, chained AND, and the
  // w-loop), so the band is wide; Fig. 5 similarly scatters up to ~1.5×.
  EXPECT_NEAR(est / exact, 1.0, 1.0);
}

TEST(FourCliqueProbGraph, OneHashIsFiniteAndPositiveOnCliques) {
  const CsrGraph dag = degree_orient(gen::clique_chain(6, 8));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 16;
  const ProbGraph pg(dag, cfg);
  const double est = four_clique_count_probgraph(pg);
  EXPECT_GT(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(FourCliqueProbGraph, SaturatedOneHashIsNearExact) {
  // k larger than every out-degree: sketches hold whole neighborhoods.
  const CsrGraph g = gen::complete(16);
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 32;
  const ProbGraph pg(dag, cfg);
  EXPECT_NEAR(four_clique_count_probgraph(pg), 1820.0, 1820.0 * 0.05);  // C(16,4)
}

TEST(FourCliqueProbGraph, KHashRunsOnRandomGraph) {
  const CsrGraph dag = degree_orient(gen::kronecker(9, 10.0, 9));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kKHash;
  cfg.minhash_k = 16;
  const ProbGraph pg(dag, cfg);
  const double est = four_clique_count_probgraph(pg);
  EXPECT_GE(est, 0.0);
  EXPECT_TRUE(std::isfinite(est));
}

TEST(FourCliqueProbGraph, ZeroOnTriangleFreeGraphs) {
  const CsrGraph dag = degree_orient(gen::cycle(64));
  ProbGraphConfig cfg;
  cfg.kind = SketchKind::kOneHash;
  cfg.minhash_k = 8;
  const ProbGraph pg(dag, cfg);
  EXPECT_DOUBLE_EQ(four_clique_count_probgraph(pg), 0.0);
}

}  // namespace
}  // namespace probgraph::algo
