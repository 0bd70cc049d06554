#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>

#include "algorithms/connected_components.hpp"
#include "util/threading.hpp"

namespace probgraph::gen {
namespace {

TEST(Complete, EdgeAndDegreeCounts) {
  const CsrGraph g = complete(6);
  EXPECT_EQ(g.num_vertices(), 6u);
  EXPECT_EQ(g.num_edges(), 15u);
  for (VertexId v = 0; v < 6; ++v) EXPECT_EQ(g.degree(v), 5u);
}

TEST(Star, HubAndLeaves) {
  const CsrGraph g = star(10);
  EXPECT_EQ(g.num_edges(), 9u);
  EXPECT_EQ(g.degree(0), 9u);
  for (VertexId v = 1; v < 10; ++v) EXPECT_EQ(g.degree(v), 1u);
}

TEST(PathAndCycle, EdgeCounts) {
  EXPECT_EQ(path(10).num_edges(), 9u);
  EXPECT_EQ(cycle(10).num_edges(), 10u);
  EXPECT_EQ(cycle(10).degree(0), 2u);
}

TEST(CompleteBipartite, Structure) {
  const CsrGraph g = complete_bipartite(3, 4);
  EXPECT_EQ(g.num_vertices(), 7u);
  EXPECT_EQ(g.num_edges(), 12u);
  for (VertexId v = 0; v < 3; ++v) EXPECT_EQ(g.degree(v), 4u);
  for (VertexId v = 3; v < 7; ++v) EXPECT_EQ(g.degree(v), 3u);
  // No intra-side edges.
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_FALSE(g.has_edge(3, 4));
}

TEST(CliqueChain, ComponentStructure) {
  const CsrGraph g = clique_chain(5, 4);
  EXPECT_EQ(g.num_vertices(), 20u);
  EXPECT_EQ(g.num_edges(), 5u * 6u);
  std::size_t num_components = 0;
  (void)algo::connected_components(g, &num_components);
  EXPECT_EQ(num_components, 5u);
}

TEST(Kronecker, SizeAndSimplicity) {
  const CsrGraph g = kronecker(10, 8.0, 42);
  EXPECT_EQ(g.num_vertices(), 1024u);
  EXPECT_GT(g.num_edges(), 1000u);      // duplicates removed, so below target
  EXPECT_LE(g.num_edges(), 8192u);
  EXPECT_NO_THROW(g.validate());
  EXPECT_FALSE(g.has_edge(0, 0));
}

TEST(Kronecker, DeterministicUnderSeed) {
  const CsrGraph a = kronecker(8, 4.0, 7);
  const CsrGraph b = kronecker(8, 4.0, 7);
  EXPECT_EQ(a.num_edges(), b.num_edges());
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v));
  }
}

// The graph depends on the arguments alone: building it under another
// OpenMP team size must not move a single edge.
TEST(Kronecker, SameGraphAtEveryTeamSize) {
  struct Partition {
    double a, b, c;
  };
  for (const Partition p : {Partition{0.57, 0.19, 0.19}, Partition{0.45, 0.15, 0.15}}) {
    SCOPED_TRACE(testing::Message() << "partition " << p.a << "," << p.b << "," << p.c);
    const auto build = [&](int team) {
      util::ThreadScope scope(team);
      return kronecker(9, 24.0, 123, p.a, p.b, p.c);
    };
    const CsrGraph reference = build(1);
    for (int team = 2; team <= 4; ++team) {
      SCOPED_TRACE(testing::Message() << "team " << team);
      const CsrGraph g = build(team);
      ASSERT_EQ(g.num_vertices(), reference.num_vertices());
      ASSERT_EQ(g.num_edges(), reference.num_edges());
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        const auto got = g.neighbors(v);
        const auto want = reference.neighbors(v);
        ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
            << "vertex " << v;
      }
    }
  }
}

TEST(Kronecker, SkewedPartitionProducesSkewedDegrees) {
  const CsrGraph g = kronecker(12, 16.0, 3);
  // A power-law-ish graph has max degree well above the average.
  EXPECT_GT(static_cast<double>(g.max_degree()), 4.0 * g.avg_degree());
}

TEST(Kronecker, RejectsBadParameters) {
  EXPECT_THROW(kronecker(31, 4.0, 1), std::invalid_argument);
  EXPECT_THROW(kronecker(8, 4.0, 1, 0.5, 0.4, 0.3), std::invalid_argument);
}

TEST(ErdosRenyi, EdgeCountMatchesExpectation) {
  const VertexId n = 300;
  const double p = 0.1;
  const CsrGraph g = erdos_renyi(n, p, 11);
  const double expected = p * n * (n - 1) / 2.0;
  EXPECT_NEAR(static_cast<double>(g.num_edges()), expected, 5.0 * std::sqrt(expected));
  EXPECT_NO_THROW(g.validate());
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  EXPECT_EQ(erdos_renyi(20, 0.0, 1).num_edges(), 0u);
  EXPECT_EQ(erdos_renyi(20, 1.0, 1).num_edges(), 190u);
  EXPECT_THROW(erdos_renyi(10, 1.5, 1), std::invalid_argument);
}

TEST(ErdosRenyiM, ApproximatesTargetEdges) {
  const CsrGraph g = erdos_renyi_m(1000, 5000, 13);
  // Collisions/self-loops lose a few edges.
  EXPECT_GT(g.num_edges(), 4800u);
  EXPECT_LE(g.num_edges(), 5000u);
}

TEST(BarabasiAlbert, DegreesAndSkew) {
  const CsrGraph g = barabasi_albert(2000, 4, 17);
  EXPECT_EQ(g.num_vertices(), 2000u);
  EXPECT_NO_THROW(g.validate());
  // Preferential attachment: max degree far above attach count.
  EXPECT_GT(g.max_degree(), 40u);
  EXPECT_THROW(barabasi_albert(3, 4, 1), std::invalid_argument);
}

TEST(WattsStrogatz, RegularWhenNoRewiring) {
  const CsrGraph g = watts_strogatz(100, 3, 0.0, 19);
  for (VertexId v = 0; v < 100; ++v) EXPECT_EQ(g.degree(v), 6u);
  EXPECT_THROW(watts_strogatz(5, 3, 0.0, 1), std::invalid_argument);
}

TEST(WattsStrogatz, RewiringKeepsValidity) {
  const CsrGraph g = watts_strogatz(200, 4, 0.3, 23);
  EXPECT_NO_THROW(g.validate());
  EXPECT_GT(g.num_edges(), 600u);  // some rewires collide and are dropped
}

}  // namespace
}  // namespace probgraph::gen
