#include "engine/engine.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "algorithms/clique_count.hpp"
#include "algorithms/clustering.hpp"
#include "algorithms/clustering_coefficient.hpp"
#include "algorithms/kclique.hpp"
#include "algorithms/link_prediction.hpp"
#include "algorithms/similarity_kernels.hpp"
#include "algorithms/triangle_count.hpp"
#include "algorithms/vertex_similarity.hpp"
#include "core/backends.hpp"
#include "core/bounds.hpp"
#include "graph/orientation.hpp"
#include "obs/metrics.hpp"
#include "util/timer.hpp"

namespace probgraph::engine {

namespace {

// --- Engine instrumentation (see obs/metrics.hpp). All instruments are
// resolved ONCE (registry mutex, first run() in the process) and cached as
// raw pointers, so the per-query cost is a handful of relaxed atomic adds
// — the lock-free hot-path contract of engine.hpp extends to these.

/// Protocol keyword per Query variant index (the variant order in
/// query.hpp is the source of truth; query_name() agrees).
constexpr std::size_t kNumFamilies = std::variant_size_v<Query>;
constexpr const char* kFamilyNames[kNumFamilies] = {
    "tc", "4cc", "kclique", "cc", "cluster", "pair", "lp", "stats"};

/// Routing labels in protocol `kind=` spelling, indexed by SketchKind.
constexpr const char* kKindLabels[4] = {"bf", "kh", "1h", "kmv"};

struct EngineMetrics {
  obs::Counter* queries[kNumFamilies][3];  // [family][mode]
  obs::Counter* errors[kNumFamilies];
  obs::Histogram* latency[kNumFamilies];
  obs::Histogram* bound_width[kNumFamilies];
  obs::Counter* substrate[4][2];  // [SketchKind][degree_oriented]

  static constexpr const char* kModeLabels[3] = {"sketch", "exact", "plain"};

  EngineMetrics() {
    auto& reg = obs::Registry::global();
    for (std::size_t f = 0; f < kNumFamilies; ++f) {
      const std::string type = kFamilyNames[f];
      for (std::size_t m = 0; m < 3; ++m) {
        queries[f][m] = &reg.counter(
            "probgraph_queries_total",
            "Queries answered, by query type and execution mode "
            "(sketch estimator, exact baseline, or plain/no-sketch)",
            {{"type", type}, {"mode", kModeLabels[m]}});
      }
      errors[f] = &reg.counter(
          "probgraph_query_errors_total",
          "Queries that raised (bad arguments, routing failures)",
          {{"type", type}});
      latency[f] = &reg.histogram(
          "probgraph_query_latency_seconds",
          "End-to-end Engine::run latency, routing and bound evaluation included",
          {{"type", type}});
      bound_width[f] = &reg.histogram(
          "probgraph_bound_rel_width",
          "Relative deviation-bound width 2t/|value| of sketch answers "
          "(the paper's accuracy knob, observed per query)",
          {{"type", type}});
    }
    for (std::size_t k = 0; k < 4; ++k) {
      for (std::size_t o = 0; o < 2; ++o) {
        substrate[k][o] = &reg.counter(
            "probgraph_query_substrate_total",
            "Sketch substrate that answered, by kind and orientation",
            {{"kind", kKindLabels[k]}, {"orientation", o ? "dag" : "sym"}});
      }
    }
  }
};

EngineMetrics& engine_metrics() {
  static EngineMetrics m;
  return m;
}

/// Map an EstimateKind to the SimilarityMeasure computing the same number
/// exactly (kIntersection and kCommonNeighbors coincide).
algo::SimilarityMeasure exact_measure(EstimateKind kind) noexcept {
  switch (kind) {
    case EstimateKind::kIntersection:
    case EstimateKind::kCommonNeighbors: return algo::SimilarityMeasure::kCommonNeighbors;
    case EstimateKind::kJaccard: return algo::SimilarityMeasure::kJaccard;
    case EstimateKind::kOverlap: return algo::SimilarityMeasure::kOverlap;
    case EstimateKind::kTotalNeighbors: return algo::SimilarityMeasure::kTotalNeighbors;
  }
  return algo::SimilarityMeasure::kCommonNeighbors;
}

/// Batched PairEstimate sweep under a concrete backend: consecutive pairs
/// sharing a left vertex are scored through one similarity_backend_batch
/// call (cache-blocked batched estimators on the Bloom backends), so a
/// serving client streaming {u, v1}, {u, v2}, ... gets the batch path
/// automatically. EstimateKind maps onto SimilarityMeasure exactly
/// (exact_measure above), and the batch is bit-identical to the per-pair
/// loop, so replies match ProbGraph::est_* bit for bit.
template <typename Backend>
void pair_sweep_backend(const Backend& be, std::span<const VertexPair> pairs,
                        EstimateKind kind, QueryResult& r) {
  const algo::SimilarityMeasure m = exact_measure(kind);
  std::vector<VertexId> run_vs;
  std::vector<double> run_scores;
  std::size_t i = 0;
  while (i < pairs.size()) {
    const VertexId u = pairs[i].u;
    std::size_t j = i;
    run_vs.clear();
    while (j < pairs.size() && pairs[j].u == u) run_vs.push_back(pairs[j++].v);
    run_scores.resize(run_vs.size());
    algo::similarity_backend_batch(be, u, {run_vs.data(), run_vs.size()}, m,
                                   run_scores.data());
    for (std::size_t t = 0; t < run_vs.size(); ++t) {
      r.pairs.push_back({u, run_vs[t], run_scores[t]});
    }
    i = j;
  }
}

/// Theorem VII.1 deviation bound for a triangle-count estimate, evaluated
/// at t = 10% of the estimate (floored at one triangle). `num_edges` is
/// the m of the estimator's sum (DAG arcs for the oriented mode, |E| for
/// the full mode). nullopt where the paper provides no bound (KMV, the
/// non-AND BF estimators, or outside the BF bound's applicability range).
std::optional<BoundInfo> tc_bound(const ProbGraph& pg, double num_edges, double est) {
  const CsrGraph& g = pg.graph();
  const double t = std::max(1.0, 0.10 * std::abs(est));
  switch (pg.kind()) {
    case SketchKind::kBloomFilter: {
      if (pg.config().bf_estimator != BfEstimator::kAnd) return std::nullopt;
      const double bits = static_cast<double>(pg.bf_bits());
      const double b = pg.config().bf_hashes;
      const double delta = static_cast<double>(g.max_degree());
      if (!bounds::bf_and_bound_applicable(delta, bits, b)) return std::nullopt;
      const double p = bounds::tc_bf_deviation_bound(num_edges, delta, bits, b, t);
      return BoundInfo{"Thm VII.1 (BF-AND)", t, std::min(1.0, p)};
    }
    case SketchKind::kKHash:
    case SketchKind::kOneHash: {
      const double p = bounds::tc_mh_deviation_bound(g.degree_moment(2), pg.minhash_k(), t);
      return BoundInfo{"Thm VII.1 (MinHash)", t, std::min(1.0, p)};
    }
    case SketchKind::kKmv: return std::nullopt;
  }
  return std::nullopt;
}

/// Per-pair intersection deviation bound (§IV / Appendix A) at threshold
/// t = 10% of the estimate, floored at 1.
std::optional<double> pair_bound_probability(const ProbGraph& pg, VertexId u, VertexId v,
                                             double est) {
  const CsrGraph& g = pg.graph();
  const double t = std::max(1.0, 0.10 * std::abs(est));
  const double du = static_cast<double>(g.degree(u));
  const double dv = static_cast<double>(g.degree(v));
  switch (pg.kind()) {
    case SketchKind::kBloomFilter: {
      if (pg.config().bf_estimator != BfEstimator::kAnd) return std::nullopt;
      const double bits = static_cast<double>(pg.bf_bits());
      const double b = pg.config().bf_hashes;
      if (!bounds::bf_and_bound_applicable(est, bits, b)) return std::nullopt;
      return bounds::bf_and_deviation_bound(est, bits, b, t);
    }
    case SketchKind::kKHash:
    case SketchKind::kOneHash:
      return bounds::mh_deviation_bound(du, dv, pg.minhash_k(), t);
    case SketchKind::kKmv:
      return bounds::kmv_intersection_deviation_bound(
          du, dv, std::max(1.0, du + dv - est), pg.minhash_k(), t);
  }
  return std::nullopt;
}

}  // namespace

Engine::Engine(CsrGraph g, ProbGraphConfig config)
    : snap_(io::build_snapshot(std::move(g), {&config.kind, 1}, /*symmetric=*/true,
                               /*degree_oriented=*/true, config)) {}

Engine Engine::from_snapshot(const std::string& path) {
  return Engine(io::load_snapshot(path));
}

const CsrGraph& Engine::symmetric_graph() const {
  if (const CsrGraph* g = snap_.graph_for(/*degree_oriented=*/false)) return *g;
  // As in fail_routing: no `pgtool build` flag reaches an Engine built in code.
  const bool built = snap_.info().version == 0;
  throw std::runtime_error(
      "snapshot sketches only the degree-oriented DAG (it serves " +
      io::describe_substrates(snap_.info().substrates) +
      "); this query needs the symmetric graph (" +
      (built ? "build the Engine with the symmetric graph)"
             : "rebuild without --orient, or with --orient both)"));
}

const CsrGraph& Engine::dag(std::optional<CsrGraph>& scratch) const {
  if (const CsrGraph* d = snap_.graph_for(/*degree_oriented=*/true)) return *d;
  return scratch.emplace(degree_orient(symmetric_graph()));
}

const ProbGraph* Engine::try_snapshot_pg(std::optional<SketchKind> kind,
                                         bool oriented) const {
  if (kind) return snap_.find_substrate(*kind, oriented);
  if (const ProbGraph* pg = snap_.find_substrate(snap_.info().kind, oriented)) {
    return pg;
  }
  return snap_.sole_substrate(oriented);
}

bool Engine::snapshot_carries_orientation(bool oriented) const {
  for (const io::SubstrateInfo& s : snap_.info().substrates) {
    if (s.degree_oriented == oriented) return true;
  }
  return false;
}

void Engine::fail_routing(std::optional<SketchKind> kind, bool oriented) const {
  const std::string carried = io::describe_substrates(snap_.info().substrates);
  const char* orientation =
      oriented ? "the degree-oriented DAG" : "the symmetric graph";
  // Only suggest kind= when a kind can actually work (some substrate of
  // the needed orientation exists); otherwise only a rebuild helps.
  const bool any_of_orientation = snapshot_carries_orientation(oriented);
  // A snapshot built in memory (io::build_snapshot) came from no `pgtool
  // build` command line: its remedy is an Engine built with the missing
  // substrate, not a flag.
  const bool built = snap_.info().version == 0;
  std::string msg;
  if (kind) {
    // The actionable rebuild for a missing kind is --kinds (plus the
    // orientation flag only when that whole orientation is absent) — not
    // an --orient change, which would reproduce the same error.
    msg = std::string("snapshot carries no ") + to_string(*kind) +
          (oriented ? "/dag substrate" : "/sym substrate") + " (it serves " + carried +
          "); ";
    if (built) {
      msg += std::string("build the Engine with ") + to_string(*kind) + " sketches of " +
             orientation;
    } else {
      msg += std::string("rebuild with --kinds including ") + to_string(*kind);
      if (!any_of_orientation) {
        msg += oriented ? " and --orient (or --orient both)"
                        : " and without --orient (or with --orient both)";
      }
    }
    if (any_of_orientation) msg += ", or route to a carried kind with kind=";
    throw std::runtime_error(msg);
  }
  // Default route: distinguish "nothing of this orientation" from
  // "several substrates of it, none matching the primary kind" — the
  // latter is an ambiguity the caller resolves with kind=, not a rebuild.
  if (any_of_orientation) {
    msg = std::string("snapshot carries several sketches of ") + orientation +
          " but none of the primary kind (" + to_string(snap_.info().kind) +
          ") — it serves " + carried + "; pick one with kind=";
  } else {
    msg = std::string("snapshot carries no sketches of ") + orientation +
          " (it serves " + carried + "); ";
    if (built) {
      msg += std::string("build the Engine with sketches of ") + orientation;
    } else {
      msg += oriented ? "rebuild with --orient or --orient both"
                      : "rebuild without --orient, or with --orient both";
    }
  }
  throw std::runtime_error(msg);
}

const ProbGraph& Engine::routed_pg(std::optional<SketchKind> kind, bool oriented) const {
  if (const ProbGraph* pg = try_snapshot_pg(kind, oriented)) return *pg;
  fail_routing(kind, oriented);
}

void Engine::check_vertex(VertexId v) const {
  if (v >= graph().num_vertices()) {
    throw std::invalid_argument("vertex " + std::to_string(v) + " out of range (n = " +
                                std::to_string(graph().num_vertices()) + ")");
  }
}

void Engine::fill_sketch_meta(QueryResult& r, const ProbGraph& pg,
                              bool degree_oriented) const {
  r.sketch.used = true;
  r.sketch.kind = pg.kind();
  r.sketch.bf_estimator = pg.config().bf_estimator;
  r.sketch.bf_bits = pg.bf_bits();
  r.sketch.bf_hashes = pg.config().bf_hashes;
  r.sketch.minhash_k = pg.minhash_k();
  r.sketch.relative_memory = pg.relative_memory();
  r.sketch.construction_seconds = pg.construction_seconds();
  r.sketch.mapped = pg.is_mapped();
  r.sketch.degree_oriented = degree_oriented;
}

QueryResult Engine::run(const Query& query) const {
  EngineMetrics& m = engine_metrics();
  const std::size_t fam = query.index();
  util::Timer timer;
  try {
    QueryResult r = std::visit([this](const auto& q) { return exec(q); }, query);
    // r.elapsed_seconds times the algorithm alone (it is part of the
    // reply); the latency histogram records the full run() wall time,
    // which is what a serving operator sees.
    m.latency[fam]->observe(timer.seconds());
    const std::size_t mode = r.exact ? 1 : (r.sketch.used ? 0 : 2);
    m.queries[fam][mode]->add();
    if (r.sketch.used) {
      m.substrate[static_cast<std::size_t>(r.sketch.kind) & 3u]
                 [r.sketch.degree_oriented ? 1 : 0]
          ->add();
    }
    if (r.bound && std::abs(r.value) > 0) {
      m.bound_width[fam]->observe(2.0 * r.bound->t / std::abs(r.value));
    }
    return r;
  } catch (...) {
    m.errors[fam]->add();
    m.latency[fam]->observe(timer.seconds());
    throw;
  }
}

std::vector<BatchItem> Engine::run_batch(std::span<const Query> queries) const {
  std::vector<BatchItem> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    BatchItem& item = out[i];
    util::Timer wall;
    try {
      item.result = run(queries[i]);
    } catch (const std::invalid_argument& e) {
      item.error = e.what();
      item.invalid_argument = true;
    } catch (const std::exception& e) {
      item.error = e.what();
    }
    item.wall_seconds = wall.seconds();
  }
  return out;
}

QueryResult Engine::exec(const TriangleCount& q) const {
  QueryResult r;
  r.name = "tc";
  r.exact = q.exact;
  if (q.exact) {
    std::optional<CsrGraph> scratch;
    const CsrGraph& d = dag(scratch);
    util::Timer timer;
    r.value = static_cast<double>(algo::triangle_count_exact_oriented(d));
    r.elapsed_seconds = timer.seconds();
    return r;
  }
  // Oriented sketches when the snapshot carries them; without a matching
  // DAG substrate, the full-graph Thm-VII.1 estimator on the symmetric
  // sketches.
  const ProbGraph* pg = try_snapshot_pg(q.sketch, /*oriented=*/true);
  bool full_mode = false;
  if (pg == nullptr) {
    // Fall back to the full-mode estimator only when the DAG route is
    // truly absent. A default route that failed because SEVERAL
    // non-primary DAG substrates are carried is an ambiguity — error with
    // "pick one with kind=" rather than silently answering with the
    // weaker full-graph estimator.
    if (!q.sketch && snapshot_carries_orientation(/*oriented=*/true)) {
      fail_routing(q.sketch, /*oriented=*/true);
    }
    pg = try_snapshot_pg(q.sketch, /*oriented=*/false);
    full_mode = true;
  }
  if (pg == nullptr) fail_routing(q.sketch, /*oriented=*/true);
  fill_sketch_meta(r, *pg, !full_mode);
  util::Timer timer;
  r.value = algo::triangle_count_probgraph(
      *pg, full_mode ? algo::TcMode::kFull : algo::TcMode::kOriented);
  r.elapsed_seconds = timer.seconds();
  const double m = full_mode ? static_cast<double>(pg->graph().num_edges())
                             : static_cast<double>(pg->graph().num_directed_edges());
  r.bound = tc_bound(*pg, m, r.value);
  return r;
}

QueryResult Engine::exec(const FourCliqueCount& q) const {
  QueryResult r;
  r.name = "4cc";
  r.exact = q.exact;
  if (q.exact) {
    std::optional<CsrGraph> scratch;
    const CsrGraph& d = dag(scratch);
    util::Timer timer;
    r.value = static_cast<double>(algo::four_clique_count_exact_oriented(d));
    r.elapsed_seconds = timer.seconds();
    return r;
  }
  const ProbGraph& pg = routed_pg(q.sketch, /*oriented=*/true);
  fill_sketch_meta(r, pg, true);
  util::Timer timer;
  r.value = algo::four_clique_count_probgraph(pg);
  r.elapsed_seconds = timer.seconds();
  return r;
}

QueryResult Engine::exec(const KCliqueCount& q) const {
  if (q.k < 3) {
    throw std::invalid_argument("kclique needs k >= 3 (got " + std::to_string(q.k) + ")");
  }
  QueryResult r;
  r.name = "kclique";
  r.exact = q.exact;
  r.value = 0.0;
  if (q.exact) {
    std::optional<CsrGraph> scratch;
    const CsrGraph& d = dag(scratch);
    util::Timer timer;
    r.value = static_cast<double>(algo::kclique_count_exact_oriented(d, q.k));
    r.elapsed_seconds = timer.seconds();
    return r;
  }
  const ProbGraph& pg = routed_pg(q.sketch, /*oriented=*/true);
  fill_sketch_meta(r, pg, true);
  util::Timer timer;
  r.value = algo::kclique_count_probgraph(pg, q.k);
  r.elapsed_seconds = timer.seconds();
  return r;
}

QueryResult Engine::exec(const ClusteringCoeff& q) const {
  const CsrGraph& g = symmetric_graph();  // wedge counts need true degrees
  QueryResult r;
  r.name = "cc";
  r.exact = q.exact;
  if (q.exact) {
    std::optional<CsrGraph> scratch;
    const CsrGraph& d = dag(scratch);
    util::Timer timer;
    const double tc = static_cast<double>(algo::triangle_count_exact_oriented(d));
    r.value = algo::global_clustering_coefficient(g, tc);
    r.elapsed_seconds = timer.seconds();
    return r;
  }
  const ProbGraph& pg = routed_pg(q.sketch, /*oriented=*/false);
  fill_sketch_meta(r, pg, false);
  util::Timer timer;
  const double tc = algo::triangle_count_probgraph(pg, algo::TcMode::kFull);
  r.value = algo::global_clustering_coefficient(g, tc);
  r.elapsed_seconds = timer.seconds();
  // cc = 3·TC/W is a fixed rescaling of TĈ, so the Thm-VII.1 bound carries
  // over with its threshold mapped onto the coefficient scale.
  const double wedges = (g.degree_moment(2) - static_cast<double>(g.num_directed_edges())) / 2.0;
  if (wedges > 0.0) {
    if (auto b = tc_bound(pg, static_cast<double>(g.num_edges()), tc)) {
      r.bound = BoundInfo{b->name, 3.0 * b->t / wedges, b->probability};
    }
  }
  return r;
}

QueryResult Engine::exec(const Cluster& q) const {
  // A non-finite threshold (a protocol "cluster jaccard nan") would make
  // every similarity comparison false and come back as a plausible "ok"
  // reply; reject it at the engine so every front end is covered.
  if (!std::isfinite(q.tau)) {
    throw std::invalid_argument("cluster TAU must be a finite number");
  }
  const CsrGraph& g = symmetric_graph();
  QueryResult r;
  r.name = "cluster";
  r.exact = q.exact;
  if (q.exact) {
    util::Timer timer;
    const auto res = algo::jarvis_patrick_exact(g, q.measure, q.tau);
    r.elapsed_seconds = timer.seconds();
    r.cluster = ClusterInfo{res.num_clusters, res.kept_edges};
    r.value = static_cast<double>(res.num_clusters);
    return r;
  }
  const ProbGraph& pg = routed_pg(q.sketch, /*oriented=*/false);
  fill_sketch_meta(r, pg, false);
  util::Timer timer;
  const auto res = algo::jarvis_patrick_probgraph(pg, q.measure, q.tau);
  r.elapsed_seconds = timer.seconds();
  r.cluster = ClusterInfo{res.num_clusters, res.kept_edges};
  r.value = static_cast<double>(res.num_clusters);
  return r;
}

QueryResult Engine::exec(const PairEstimate& q) const {
  if (q.pairs.empty()) {
    throw std::invalid_argument("pair query needs at least one (u, v) pair");
  }
  for (const VertexPair& p : q.pairs) {
    check_vertex(p.u);
    check_vertex(p.v);
  }
  QueryResult r;
  r.name = "pair";
  r.exact = q.exact;
  r.pairs.reserve(q.pairs.size());
  if (q.exact) {
    const CsrGraph& g = symmetric_graph();
    const algo::SimilarityMeasure m = exact_measure(q.kind);
    util::Timer timer;
    for (const VertexPair& p : q.pairs) {
      r.pairs.push_back({p.u, p.v, algo::similarity_exact(g, p.u, p.v, m)});
    }
    r.elapsed_seconds = timer.seconds();
    return r;
  }
  // Pair estimates are defined over full neighborhoods (|N_u ∩ N_v|), so
  // like cc/cluster/lp they refuse an --orient snapshot: N+ intersections
  // are a different quantity and must not come back as an "ok" reply.
  const ProbGraph& pg = routed_pg(q.sketch, /*oriented=*/false);
  fill_sketch_meta(r, pg, false);
  util::Timer timer;
  pg.visit_backend([&](const auto& be) {
    pair_sweep_backend(be, {q.pairs.data(), q.pairs.size()}, q.kind, r);
  });
  r.elapsed_seconds = timer.seconds();
  // Deviation-bound metadata for the cardinality kinds: a union bound over
  // the batch, each pair at 10% of its own estimate.
  if (q.kind == EstimateKind::kIntersection || q.kind == EstimateKind::kCommonNeighbors) {
    double total_p = 0.0;
    double max_t = 0.0;
    bool have_all = true;
    const char* name = nullptr;
    for (const PairValue& pv : r.pairs) {
      const auto p = pair_bound_probability(pg, pv.u, pv.v, pv.value);
      if (!p) {
        have_all = false;
        break;
      }
      total_p += *p;
      max_t = std::max(max_t, std::max(1.0, 0.10 * std::abs(pv.value)));
    }
    switch (pg.kind()) {
      case SketchKind::kBloomFilter: name = "Eq. (3) union bound"; break;
      case SketchKind::kKHash:
      case SketchKind::kOneHash: name = "Prop. IV.2/IV.3 union bound"; break;
      case SketchKind::kKmv: name = "Prop. A.8 union bound"; break;
    }
    if (have_all && name != nullptr) {
      r.bound = BoundInfo{name, max_t, std::min(1.0, total_p)};
    }
  }
  return r;
}

QueryResult Engine::exec(const LinkPredict& q) const {
  QueryResult r;
  r.name = "lp";
  r.exact = q.exact;
  if (q.exact) {
    const CsrGraph& g = symmetric_graph();
    util::Timer timer;
    const auto links = algo::top_k_links_exact(g, q.measure, q.topk);
    r.elapsed_seconds = timer.seconds();
    for (const auto& l : links) r.pairs.push_back({l.u, l.v, l.score});
    return r;
  }
  const ProbGraph& pg = routed_pg(q.sketch, /*oriented=*/false);
  fill_sketch_meta(r, pg, false);
  util::Timer timer;
  const auto links = algo::top_k_links_probgraph(pg, q.measure, q.topk);
  r.elapsed_seconds = timer.seconds();
  for (const auto& l : links) r.pairs.push_back({l.u, l.v, l.score});
  return r;
}

QueryResult Engine::exec(const GraphStats&) const {
  QueryResult r;
  r.name = "stats";
  util::Timer timer;
  // Stats describe the symmetric graph whenever the source carries it —
  // even in a dag-primary multi-substrate file, where graph() is the DAG
  // but the neighborhood queries of the same session answer over the
  // carried symmetric CSR. Only a DAG-only snapshot reports DAG
  // (out-degree) statistics.
  const CsrGraph* src = snap_.graph_for(/*degree_oriented=*/false);
  const bool dag_stats = src == nullptr;
  if (dag_stats) src = snap_.graph_for(/*degree_oriented=*/true);
  GraphStatsInfo s;
  s.num_vertices = src->num_vertices();
  // num_edges() halves the adjacency length, which is only right for a
  // symmetric CSR; in a DAG-only snapshot every DAG arc IS one
  // undirected edge of the original graph.
  s.num_edges = dag_stats ? src->num_directed_edges() : src->num_edges();
  s.num_directed_edges = src->num_directed_edges();
  s.max_degree = src->max_degree();
  s.avg_degree = src->avg_degree();
  s.degree_moment2 = src->degree_moment(2);
  s.degree_moment3 = src->degree_moment(3);
  s.csr_bytes = src->memory_bytes();
  s.mapped = src->is_mapped();
  r.stats = s;
  r.elapsed_seconds = timer.seconds();
  return r;
}

}  // namespace probgraph::engine
