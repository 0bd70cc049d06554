// Driving the query engine (src/engine/) as a library, without pgtool.
//
// Build sketches over a graph, hand the graph to an Engine, and run typed
// queries against it: a batched PairEstimate with its deviation bound, a
// triangle count with the Theorem-VII.1 bound, top-k link prediction, and
// graph stats. The same Engine also loads .pgs snapshots
// (Engine::from_snapshot) and answers the identical queries zero-copy —
// that path is what `pgtool serve` wraps in a line protocol.
//
// The closing section saves a MULTI-SUBSTRATE .pgs (BF + KMV sketches in
// both orientations — format v2) and routes queries per substrate through
// one zero-copy mapping, the library shape of
// `pgtool build --kinds bf,kmv --orient both` + `serve`.
//
//   $ ./example_engine_api
#include <cstdio>
#include <filesystem>

#include "engine/engine.hpp"
#include "engine/protocol.hpp"
#include "engine/query.hpp"
#include "graph/generators.hpp"
#include "io/snapshot.hpp"

using namespace probgraph;

int main() {
  // A small-world graph with dense neighborhoods (~20K vertices).
  CsrGraph g = gen::watts_strogatz(/*n=*/20000, /*k=*/24, /*beta=*/0.2, /*seed=*/7);
  std::printf("graph: n=%u, m=%llu\n", g.num_vertices(),
              static_cast<unsigned long long>(g.num_edges()));

  // One Engine answers every query type. Its constructor builds this
  // configuration's sketches over the graph and over its degree-oriented
  // DAG up front (MinHash here, so every estimate carries the
  // Props.-IV.2/IV.3 exponential deviation bound); queries never build.
  ProbGraphConfig config;
  config.kind = SketchKind::kKHash;
  config.storage_budget = 0.25;
  engine::Engine e(std::move(g), config);

  // --- Batched per-pair estimates, with the union deviation bound. ---
  engine::PairEstimate batch;
  batch.kind = engine::EstimateKind::kIntersection;
  batch.pairs = {{1, 2}, {10, 11}, {100, 250}, {4000, 4001}};
  const engine::QueryResult pairs = e.run(batch);
  std::printf("\nbatched |N_u ∩ N_v| estimates (%s sketches, relmem %.2f):\n",
              to_string(pairs.sketch.kind), pairs.sketch.relative_memory);
  for (const engine::PairValue& p : pairs.pairs) {
    std::printf("  est(%u, %u) = %s\n", p.u, p.v,
                engine::format_estimate(p.value).c_str());
  }
  if (pairs.bound) {
    std::printf("  all within ±%s of the truth except with probability <= %s  [%s]\n",
                engine::format_estimate(pairs.bound->t).c_str(),
                engine::format_estimate(pairs.bound->probability).c_str(),
                pairs.bound->name);
  }

  // --- Triangle count: over the DAG sketches the constructor built. ---
  const engine::QueryResult tc = e.run(engine::TriangleCount{});
  const engine::QueryResult tc_exact = e.run(engine::TriangleCount{.exact = true});
  std::printf("\ntriangle count: estimate %.0f vs exact %.0f (%.4fs vs %.4fs)\n",
              tc.value, tc_exact.value, tc.elapsed_seconds, tc_exact.elapsed_seconds);
  if (tc.bound) {
    std::printf("  P(|TC - est| >= %s) <= %s  [%s]\n",
                engine::format_estimate(tc.bound->t).c_str(),
                engine::format_estimate(tc.bound->probability).c_str(), tc.bound->name);
  }

  // --- Top-k link prediction over the same sketches. ---
  const engine::QueryResult lp =
      e.run(engine::LinkPredict{5, algo::SimilarityMeasure::kCommonNeighbors, false});
  std::printf("\ntop-%zu predicted links by common neighbors:\n", lp.pairs.size());
  for (const engine::PairValue& p : lp.pairs) {
    std::printf("  %u -- %u  score %s\n", p.u, p.v,
                engine::format_estimate(p.value).c_str());
  }

  // --- Graph stats never touch the sketches. ---
  const engine::QueryResult stats = e.run(engine::GraphStats{});
  std::printf("\nstats: dmax=%llu, sum d^2 = %.3e, CSR %.2f MB\n",
              static_cast<unsigned long long>(stats.stats->max_degree),
              stats.stats->degree_moment2,
              static_cast<double>(stats.stats->csr_bytes) / 1e6);

  // --- A multi-substrate snapshot: one file, every query class. ---
  // Pack BF and KMV sketches of BOTH the symmetric graph and its
  // degree-oriented DAG, then route per query: tc answers from a DAG
  // substrate, pair from a symmetric one, and Query::sketch (the serve
  // protocol's kind=) picks the sketch family.
  const std::string path =
      (std::filesystem::temp_directory_path() / "engine_api_multi.pgs").string();
  {
    const CsrGraph base = gen::watts_strogatz(4000, 16, 0.2, 7);
    const SketchKind kinds[] = {SketchKind::kBloomFilter, SketchKind::kKmv};
    const io::SubstrateSet set =
        io::build_substrates(base, kinds, /*symmetric=*/true, /*degree_oriented=*/true);
    io::save_snapshot(path, set.substrates);
  }
  engine::Engine served = engine::Engine::from_snapshot(path);
  std::printf("\nmulti-substrate snapshot serves: %s\n",
              io::describe_substrates(served.snapshot().info().substrates).c_str());
  const double tc_bf = served.run(engine::TriangleCount{}).value;  // BF/dag (primary kind)
  const double tc_kmv =
      served.run(engine::TriangleCount{.sketch = SketchKind::kKmv}).value;  // KMV/dag
  engine::PairEstimate routed;
  routed.kind = engine::EstimateKind::kJaccard;
  routed.pairs = {{1, 2}};
  routed.sketch = SketchKind::kKmv;  // KMV/sym
  const double jac_kmv = served.run(routed).pairs[0].value;
  std::printf("tc via BF/dag = %.0f, via KMV/dag = %.0f; jaccard(1,2) via KMV/sym = %s\n",
              tc_bf, tc_kmv, engine::format_estimate(jac_kmv).c_str());
  std::filesystem::remove(path);
  return 0;
}
