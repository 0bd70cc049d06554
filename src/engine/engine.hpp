// The query engine: one substrate portfolio, many typed queries.
//
// An Engine serves exactly one io::Snapshot (io/snapshot.hpp) and executes
// `Query` requests against it (query.hpp). The snapshot is either mapped
// zero-copy from a .pgs file (from_snapshot) or built up front in memory
// (the CsrGraph constructor, or io::build_snapshot); both are the same
// immutable object, so every query takes the one routing path below
// whatever is behind it. The Engine resolves everything a query needs
// exactly once:
//
//   * sketches are built before the Engine exists and never after. A
//     snapshot can carry MULTIPLE substrates — sketch kinds × orientations
//     — and every query is routed per the rules below; queries whose
//     substrate the snapshot does not carry fail with a descriptive
//     std::runtime_error naming what it serves (triangle counting is the
//     exception: without a DAG substrate it falls back to the
//     Theorem-VII.1 full-graph estimator over the symmetric sketches);
//   * exact counting runs over the carried DAG CSR, or, when the snapshot
//     carries none (a default `pgtool build`), over a DAG oriented from
//     the symmetric graph for that one call;
//   * the sketch-kind/estimator dispatch is hoisted per query via
//     ProbGraph::visit_backend, so batched queries (PairEstimate,
//     LinkPredict) score every pair through a monomorphic call chain.
//
// Substrate routing (the `sketch` field of a Query, the protocol's `kind=`
// clause): the query type fixes the orientation it needs — tc/4cc/kclique
// run on DAG sketches, cc/cluster/pair/lp on symmetric ones. Within that
// orientation:
//
//   1. an explicit kind routes to exactly (kind, orientation) — carried or
//      error;
//   2. no kind defaults to the snapshot's PRIMARY substrate's kind at the
//      needed orientation;
//   3. if the primary kind is not carried at that orientation but exactly
//      ONE substrate of it exists, that one answers (the unambiguous
//      fallback that keeps v1 single-substrate files working unchanged);
//   4. otherwise the query fails, naming the carried substrates.
//
// This is the substrate of `pgtool serve`: map the snapshot once, run an
// Engine over it, answer arbitrarily many queries with zero per-query
// setup. The one-shot pgtool commands build the substrate their query
// reads and run the same Engine, so one-shot and served results are
// bit-identical.
//
// Thread safety (the contract the serving layer, src/net/, relies on —
// every session shares ONE Engine). An Engine never changes after
// construction: run() and run_batch() are const, and the serving layers
// hold `const Engine&`, so the compiler states what this comment explains.
//
//   * concurrent run()/run_batch() calls from any number of threads are
//     safe and take no lock: each only reads the immutable snapshot and
//     builds its own QueryResult.
//   * construction, moves, and destruction are NOT thread-safe — create
//     the Engine before spawning sessions and destroy it after joining
//     them, exactly what net::Server does.
//   * the contract is thread-AGNOSTIC on the caller side: net::Server
//     gives every session its own thread, and any other driver may share
//     the Engine the same way, because the Engine keeps no per-thread or
//     per-session state.
//   * instrumentation adds no locks to this picture. Every run() records
//     into process-global obs:: instruments (src/obs/instruments.hpp)
//     whose writes are relaxed atomics on per-thread-sharded cache lines,
//     and a concurrent metrics scrape only reads them. The instrument
//     registry's mutex is taken once per process (the first run()
//     resolves the instrument pointers), not per query.
//
// Generations (the live-update layer, engine/generation.hpp): a live
// server holds MANY Engines over time, one per sealed snapshot
// generation, and swaps between them RCU-style. Because an Engine is
// immutable, the swap replaces a whole answer source and nothing of one
// generation can describe another's graph (pinned by tests/test_live.cpp).
// Sessions must pin a generation (LiveEngine::Reader::Pin) for each run()
// call and must not hold the returned references across queries; the
// writer retires an old generation — destroying its Engine and unmapping
// its file — only after every pinned reader drains.
//
// The algorithms underneath parallelize with OpenMP as before; nested
// parallel regions issued from distinct session threads get independent
// teams.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/prob_graph.hpp"
#include "engine/query.hpp"
#include "graph/csr_graph.hpp"
#include "io/snapshot.hpp"

namespace probgraph::engine {

/// One query's outcome in Engine::run_batch — exactly what the same
/// run() call would have produced: either its QueryResult or the error it
/// would have thrown, so a serving session can turn a pipelined batch
/// into the identical reply lines (including err replies, in order).
struct BatchItem {
  std::optional<QueryResult> result;  ///< set iff the query succeeded
  std::string error;                  ///< the exception text otherwise
  bool invalid_argument = false;      ///< std::invalid_argument (client bug)
                                      ///< vs anything else (engine/routing)
  double wall_seconds = 0.0;          ///< full run() wall time incl. routing
};

class Engine {
 public:
  /// Serve an in-memory graph (edge list, generator, ...), treated as
  /// symmetric. Builds `config.kind`'s sketches over G and over its
  /// degree-oriented DAG (budget-referenced to G's CSR, §V-A) up front.
  /// Throws std::invalid_argument on an empty graph ("ProbGraph: empty
  /// graph").
  explicit Engine(CsrGraph g, ProbGraphConfig config = {});

  /// Serve a snapshot, built in memory (io::build_snapshot) or loaded.
  explicit Engine(io::Snapshot snapshot) noexcept : snap_(std::move(snapshot)) {}

  /// Serve zero-copy from a .pgs snapshot: the file is mmap'ed and
  /// validated once, its prebuilt sketches answer every query with no
  /// per-query setup. Throws std::runtime_error on a rejected file.
  [[nodiscard]] static Engine from_snapshot(const std::string& path);

  Engine(Engine&&) = default;
  Engine& operator=(Engine&&) = default;

  /// Execute one query. Throws std::invalid_argument on malformed requests
  /// (out-of-range vertices, k < 3, empty pair batch) and
  /// std::runtime_error when the source cannot answer the query (e.g. a
  /// counting estimate over a snapshot of the symmetric graph).
  [[nodiscard]] QueryResult run(const Query& query) const;

  /// Execute a pipelined batch in request order, capturing each query's
  /// outcome instead of throwing (one bad query must not eat the replies
  /// behind it in the pipeline): run() per query, so results are
  /// BIT-IDENTICAL to calling it directly — same values, same error text,
  /// same instrumentation. Thread-safe like run().
  [[nodiscard]] std::vector<BatchItem> run_batch(std::span<const Query> queries) const;

  /// The primary substrate's graph: the symmetric graph, unless the
  /// primary sketches the degree-oriented DAG (an `--orient` snapshot).
  [[nodiscard]] const CsrGraph& graph() const noexcept { return snap_.graph(); }

  /// The snapshot served. The live layer (engine/generation.hpp) applies
  /// delta batches against it.
  [[nodiscard]] const io::Snapshot& snapshot() const noexcept { return snap_; }

  /// True when the source carries only the degree-oriented DAG (an
  /// `--orient` snapshot with no symmetric substrate): neighborhood
  /// queries are unanswerable.
  [[nodiscard]] bool source_oriented() const noexcept {
    return snap_.graph_for(/*degree_oriented=*/false) == nullptr;
  }

 private:
  QueryResult exec(const TriangleCount& q) const;
  QueryResult exec(const FourCliqueCount& q) const;
  QueryResult exec(const KCliqueCount& q) const;
  QueryResult exec(const ClusteringCoeff& q) const;
  QueryResult exec(const Cluster& q) const;
  QueryResult exec(const PairEstimate& q) const;
  QueryResult exec(const LinkPredict& q) const;
  QueryResult exec(const GraphStats& q) const;

  /// The symmetric graph; throws when the snapshot carries no symmetric
  /// substrate.
  const CsrGraph& symmetric_graph() const;
  /// The degree-oriented DAG for an exact count: the snapshot's DAG CSR
  /// when it carries one, else `scratch`, oriented from the symmetric
  /// graph for this call.
  const CsrGraph& dag(std::optional<CsrGraph>& scratch) const;
  /// Substrate lookup per the routing rules above (explicit kind, else
  /// primary kind, else sole-of-orientation). nullptr when the snapshot
  /// does not carry a match.
  const ProbGraph* try_snapshot_pg(std::optional<SketchKind> kind, bool oriented) const;
  /// True when the snapshot carries at least one substrate of the given
  /// orientation.
  bool snapshot_carries_orientation(bool oriented) const;
  /// The routing-failure error: names the missing substrate and what the
  /// snapshot actually serves.
  [[noreturn]] void fail_routing(std::optional<SketchKind> kind, bool oriented) const;
  /// try_snapshot_pg, throwing the routing error when nothing matches.
  const ProbGraph& routed_pg(std::optional<SketchKind> kind, bool oriented) const;

  void check_vertex(VertexId v) const;
  void fill_sketch_meta(QueryResult& r, const ProbGraph& pg, bool degree_oriented) const;

  io::Snapshot snap_;
};

}  // namespace probgraph::engine
