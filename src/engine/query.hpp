// The typed query surface of the serving engine (src/engine/).
//
// ProbGraph's public API used to be a scatter of free functions — one per
// algorithm family, each with its own argument conventions — which every
// front end (pgtool, benches, examples) re-plumbed by hand. A `Query` is a
// tagged request covering all of them; a `QueryResult` carries the
// estimate value(s) together with everything a serving layer wants to
// report alongside: a deviation bound where core/bounds provides one, the
// query's wall time, and the sketch/backend metadata that produced it.
//
// Queries are plain data: front ends (the pgtool command registry, the
// `pgtool serve` line protocol, library callers) construct them, the
// Engine (engine.hpp) executes them. Adding a query type means adding a
// struct here, a runner in engine.cpp, and (optionally) a parser clause in
// protocol.cpp — no new argv plumbing.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <variant>
#include <vector>

#include "algorithms/vertex_similarity.hpp"
#include "core/prob_graph.hpp"
#include "util/types.hpp"

namespace probgraph::engine {

/// Which per-pair estimate a PairEstimate query asks for. Mirrors the
/// `ProbGraph::est_*` wrapper family one-to-one (kIntersection and
/// kCommonNeighbors are the same number; both spellings are kept because
/// both wrappers exist).
enum class EstimateKind : std::uint8_t {
  kIntersection,     ///< est_intersection — |N_u ∩ N_v|
  kJaccard,          ///< est_jaccard
  kOverlap,          ///< est_overlap
  kCommonNeighbors,  ///< est_common_neighbors
  kTotalNeighbors,   ///< est_total_neighbors
};

[[nodiscard]] const char* to_string(EstimateKind kind) noexcept;
/// Accepts the protocol spellings ("intersection", "jaccard", "overlap",
/// "common", "total"), case-insensitively. nullopt on anything else.
[[nodiscard]] std::optional<EstimateKind> parse_estimate_kind(std::string_view s) noexcept;

struct VertexPair {
  VertexId u = 0;
  VertexId v = 0;
};

// --- The query variants. `exact = true` bypasses the sketches and runs the
// --- exact baseline (pgtool's `--sketch exact`); it needs no ProbGraph.
// --- `sketch` routes the query to a specific sketch substrate (the
// --- protocol's `kind=` clause): a multi-substrate .pgs snapshot can carry
// --- several sketch kinds per orientation, and nullopt means "the file's
// --- primary substrate" (see engine.hpp for the full routing rules).

/// Triangle count. Sketch-based runs use the degree-oriented estimator
/// (Listing 1) when oriented sketches are available or buildable, and fall
/// back to the Theorem-VII.1 full-graph estimator TĈ = ⅓·Σ_E est(u,v) when
/// serving a snapshot without a DAG substrate of the routed kind.
struct TriangleCount {
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// 4-clique count (Listing 2). Sketch-based runs need oriented sketches.
struct FourCliqueCount {
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// k-clique count, k ≥ 3. Sketch-based runs need oriented BF sketches.
struct KCliqueCount {
  unsigned k = 5;
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// Global clustering coefficient 3·TC/#wedges over the symmetric graph.
struct ClusteringCoeff {
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// Jarvis–Patrick clustering (Listing 4) over the symmetric graph.
struct Cluster {
  algo::SimilarityMeasure measure = algo::SimilarityMeasure::kJaccard;
  double tau = 0.1;
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// Batched per-pair estimates over the symmetric graph's neighborhoods:
/// one value per requested (u, v).
struct PairEstimate {
  EstimateKind kind = EstimateKind::kIntersection;
  std::vector<VertexPair> pairs;
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// Serving-shaped link prediction: score every distance-2 non-adjacent
/// pair of the symmetric graph under `measure`, return the `topk`
/// highest-scored candidate links.
struct LinkPredict {
  std::uint32_t topk = 10;
  algo::SimilarityMeasure measure = algo::SimilarityMeasure::kCommonNeighbors;
  bool exact = false;
  std::optional<SketchKind> sketch;
};

/// Basic facts about the loaded graph; never touches the sketches.
struct GraphStats {};

using Query = std::variant<TriangleCount, FourCliqueCount, KCliqueCount, ClusteringCoeff,
                           Cluster, PairEstimate, LinkPredict, GraphStats>;

/// Stable short tag of a query variant ("tc", "4cc", "kclique", "cc",
/// "cluster", "pair", "lp", "stats") — the protocol's request keyword and
/// the first reply field.
[[nodiscard]] const char* query_name(const Query& q) noexcept;

// --- Result payloads. ---

/// A deviation bound from core/bounds evaluated for this query:
/// P(|estimate − truth| ≥ t) ≤ probability. For batched PairEstimate the
/// probability is a union bound over the batch (per-pair threshold 10% of
/// each estimate, floored at 1) and `t` is the largest per-pair threshold.
struct BoundInfo {
  const char* name = "";       ///< which paper bound ("Thm VII.1 (BF-AND)", ...)
  double t = 0.0;              ///< deviation threshold the bound is evaluated at
  double probability = 0.0;    ///< RHS of the bound, capped at 1
};

struct PairValue {
  VertexId u = 0;
  VertexId v = 0;
  double value = 0.0;
};

struct ClusterInfo {
  std::size_t num_clusters = 0;
  std::uint64_t kept_edges = 0;
};

/// Stats describe the symmetric graph whenever the source carries it.
/// Only for a DAG-only (--orient) snapshot is the stored graph the DAG:
/// num_edges then counts its arcs (= the original m), and the degree
/// fields are out-degrees.
struct GraphStatsInfo {
  VertexId num_vertices = 0;
  EdgeId num_edges = 0;           ///< undirected m
  EdgeId num_directed_edges = 0;
  EdgeId max_degree = 0;
  double avg_degree = 0.0;
  double degree_moment2 = 0.0;    ///< Σ_v d_v²
  double degree_moment3 = 0.0;    ///< Σ_v d_v³
  std::size_t csr_bytes = 0;
  bool mapped = false;            ///< served out of an mmap'ed snapshot
};

/// Which sketches answered the query (meaningless when `used` is false,
/// i.e. for exact runs and GraphStats).
struct SketchMeta {
  bool used = false;
  SketchKind kind = SketchKind::kBloomFilter;
  BfEstimator bf_estimator = BfEstimator::kAnd;
  std::uint64_t bf_bits = 0;
  std::uint32_t bf_hashes = 0;
  std::uint32_t minhash_k = 0;
  double relative_memory = 0.0;
  double construction_seconds = 0.0;  ///< 0 when served from a snapshot's arenas
  bool mapped = false;                ///< arenas view an mmap'ed snapshot
  bool degree_oriented = false;       ///< sketches cover N+ (the counting DAG)
};

struct QueryResult {
  const char* name = "";            ///< query_name of the executed query
  bool exact = false;               ///< ran the exact baseline, not sketches
  double value = 0.0;               ///< scalar payload (tc, 4cc, kclique, cc)
  std::vector<PairValue> pairs;     ///< PairEstimate / LinkPredict payload
  std::optional<ClusterInfo> cluster;
  std::optional<GraphStatsInfo> stats;
  std::optional<BoundInfo> bound;
  double elapsed_seconds = 0.0;     ///< the algorithm's own time, excluding routing
  SketchMeta sketch;
};

}  // namespace probgraph::engine
