// Sketch snapshot persistence: the .pgs format.
//
// ProbGraph's premise is cheap queries over non-trivially-built sketches
// (Table V), yet a fresh process had to re-read the edge list and re-hash
// every neighborhood before answering its first query. A .pgs snapshot
// persists fully-built ProbGraphs — CSR graph(s), configuration, derived
// parameters, and every sketch arena — in one versioned, checksummed
// binary file whose payload sections are 64-byte aligned, so that:
//
//   * save_snapshot writes the file once after an expensive build, and
//   * load_snapshot mmaps it and serves estimates **zero-copy**: the
//     returned CsrGraphs and ProbGraphs hold ArenaRef views straight into
//     the mapping, no deserialization pass, warm-up limited to page faults.
//
// A version-2 file can pack MULTIPLE sketch substrates — any subset of
// {BF, k-hash, 1-hash, KMV} × {symmetric, degree-oriented DAG} — so one
// served mapping answers counting queries from the DAG sketches and
// neighborhood queries from the symmetric ones (the paper's central §IV–§V
// trade-off, chosen per query instead of per file). The serving-layer
// analogue of sketch-portfolio stores like Apache DataSketches: one stored
// summary family, many query classes.
//
// Format (all integers little-endian, native IEEE-754 doubles):
//
//   [FileHeader]      fixed-size POD: magic "PGSNAP01", version, endianness
//                     tag, total size, file checksum (a block-parallel
//                     word-wise hash over the ENTIRE file with the checksum
//                     field read as zero, padding included, so header
//                     corruption is rejected too — see snapshot.cpp;
//                     verifying it is the load critical path, so it is
//                     built to saturate memory bandwidth), flags, graph
//                     shape, the PRIMARY substrate's full ProbGraphConfig
//                     and derived parameters
//   [SectionEntry×N]  id, element size, absolute offset, byte length
//   [payload]         the section bytes, each section 64-byte aligned,
//                     zero padding between sections
//
// Version 1 (N = 7): CSR offsets, CSR adjacency, the four sketch arenas +
// per-vertex fill sizes (unused arenas have zero length) — exactly one
// substrate, described by the header.
//
// Version 2 (N >= 8): the same 7 sections describe the primary substrate,
// section index 7 is the SUBSTRATE DIRECTORY — an array of SubstrateEntry
// PODs, one per carried substrate (the primary included as entry 0), each
// holding that substrate's config/derived parameters plus the section-table
// indices of its CSR and arena sections. Substrates of one orientation
// share one CSR; the second orientation (if present) adds its own
// offsets/adjacency sections after the directory, followed by each extra
// substrate's arena sections. The v1 read path is a strict subset: a
// version-1 file keeps loading unchanged.
//
// Loads reject wrong magic/version/endianness, size mismatches (truncation)
// and checksum mismatches (corruption) with descriptive std::runtime_error.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/prob_graph.hpp"
#include "graph/csr_graph.hpp"

namespace probgraph::io {

/// Current .pgs format version — what save_snapshot writes. The loader
/// additionally accepts version 1 (single-substrate) files and refuses
/// anything else outright.
inline constexpr std::uint32_t kSnapshotVersion = 2;

/// Caller-provided provenance recorded for a substrate.
struct SnapshotMeta {
  /// True when the sketched graph is the degree-oriented DAG (the counting
  /// algorithms' substrate) rather than the symmetric input graph.
  bool degree_oriented = false;
};

/// One sketch substrate to persist: a fully-built ProbGraph plus its
/// orientation. All substrates of the same orientation must have been
/// built over the SAME CsrGraph instance (they share one CSR section).
struct SnapshotSubstrate {
  const ProbGraph* pg = nullptr;
  bool degree_oriented = false;
};

/// One carried substrate as surfaced to callers (banners, stats, errors).
struct SubstrateInfo {
  SketchKind kind = SketchKind::kBloomFilter;
  bool degree_oriented = false;
  double construction_seconds = 0.0;
};

/// Header facts surfaced to callers (pgtool prints these; tests pin them).
/// The scalar fields describe the PRIMARY substrate (entry 0);
/// `substrates` enumerates everything the file carries, primary first.
struct SnapshotInfo {
  std::uint32_t version = 0;
  bool degree_oriented = false;
  VertexId num_vertices = 0;
  EdgeId num_directed_edges = 0;
  SketchKind kind = SketchKind::kBloomFilter;
  double construction_seconds = 0.0;  // of the primary's sketch build
  std::size_t file_bytes = 0;
  std::vector<SubstrateInfo> substrates;
};

/// "BF/sym, BF/dag, KMV/sym" — the human-readable substrate list used by
/// serve banners, `stats`, and routing error messages, so what a file
/// actually serves is always named explicitly.
[[nodiscard]] std::string describe_substrates(std::span<const SubstrateInfo> subs);

/// Serialize one substrate (and the graph it was built over) to `path`.
/// Throws std::runtime_error on I/O failure.
void save_snapshot(const std::string& path, const ProbGraph& pg, SnapshotMeta meta = {});

/// Serialize a multi-substrate snapshot. `substrates[0]` is the primary
/// (the default routing target when a query names no sketch kind). Throws
/// std::invalid_argument on an empty list, a duplicate (kind, orientation)
/// pair, same-orientation substrates built over different graphs, or a
/// DAG graph whose shape cannot be an orientation of the symmetric one,
/// and std::runtime_error on I/O failure.
void save_snapshot(const std::string& path, std::span<const SnapshotSubstrate> substrates);

/// A built substrate portfolio: the sketches `build_substrates` produced
/// plus the SnapshotSubstrate views over them, ready for save_snapshot.
/// Movable (the DAG lives behind a stable heap pointer); the input graph
/// must outlive it.
struct SubstrateSet {
  std::unique_ptr<const CsrGraph> dag;  // null when no DAG substrate was asked for
  std::vector<ProbGraph> sketches;
  std::vector<SnapshotSubstrate> substrates;  // views into `sketches`, primary first
};

/// Build one substrate per requested (kind, orientation) over `g` —
/// kind-major, symmetric before DAG, so `kinds[0]`'s first orientation is
/// the primary. The DAG is oriented whenever `degree_oriented` is asked
/// for, even with no kinds. DAG substrates are budget-referenced to g's
/// CSR bytes (the §V-A meaning of "additional memory on top of the CSR of
/// G"), which is the invariant that keeps every substrate bit-identical to
/// the equivalent single-substrate `pgtool build`. `base_config`'s kind
/// field is ignored; its other parameters apply to every substrate.
[[nodiscard]] SubstrateSet build_substrates(const CsrGraph& g,
                                            std::span<const SketchKind> kinds,
                                            bool symmetric, bool degree_oriented,
                                            ProbGraphConfig base_config = {});

/// A substrate portfolio ready to serve: CSR graph(s) plus the sketches
/// over them. Either mapped from a .pgs file (load_snapshot) or built in
/// memory with no file behind it (build_snapshot); both answer every
/// accessor alike, and neither changes after construction. Movable; keep
/// it alive as long as estimates are being served.
class Snapshot {
 public:
  /// The primary substrate's graph (entry 0 — for a v1 file, the only
  /// substrate). Without substrates: the one CSR carried, the symmetric
  /// one if both are.
  [[nodiscard]] const CsrGraph& graph() const noexcept {
    return *(info_.degree_oriented ? dag_graph_ : sym_graph_);
  }
  /// The primary substrate's sketches. Requires at least one substrate.
  [[nodiscard]] const ProbGraph& prob_graph() const noexcept { return *subs_.front().pg; }
  /// For a built snapshot, `version` and `file_bytes` are 0 (no file).
  [[nodiscard]] const SnapshotInfo& info() const noexcept { return info_; }

  [[nodiscard]] std::size_t num_substrates() const noexcept { return subs_.size(); }

  /// The substrate of exactly (kind, orientation), or nullptr when the
  /// file does not carry it.
  [[nodiscard]] const ProbGraph* find_substrate(SketchKind kind,
                                                bool degree_oriented) const noexcept;

  /// The file's single substrate of `degree_oriented` orientation, or
  /// nullptr when it carries zero or several — the unambiguous-fallback
  /// rule of the Engine's default routing.
  [[nodiscard]] const ProbGraph* sole_substrate(bool degree_oriented) const noexcept;

  /// The CSR of the given orientation (shared by every substrate of that
  /// orientation), or nullptr when the snapshot does not carry it.
  [[nodiscard]] const CsrGraph* graph_for(bool degree_oriented) const noexcept {
    return degree_oriented ? dag_graph_.get() : sym_graph_.get();
  }

 private:
  friend Snapshot load_snapshot(const std::string& path);
  friend Snapshot build_snapshot(CsrGraph g, std::span<const SketchKind> kinds,
                                 bool symmetric, bool degree_oriented,
                                 ProbGraphConfig base_config);
  Snapshot() = default;

  struct Substrate {
    SketchKind kind = SketchKind::kBloomFilter;
    bool degree_oriented = false;
    // unique_ptr members give each ProbGraph a stable address while
    // keeping Snapshot movable.
    std::unique_ptr<const ProbGraph> pg;
  };

  SnapshotInfo info_{};
  std::shared_ptr<const void> file_;  // the MappedFile keepalive; null when built
  // At most one CSR per orientation; unique_ptr for address stability (the
  // ProbGraphs hold pointers to them).
  std::unique_ptr<const CsrGraph> sym_graph_;
  std::unique_ptr<const CsrGraph> dag_graph_;
  std::vector<Substrate> subs_;  // primary first
};

/// Map `path` and validate magic, version, endianness, size, and payload
/// checksum. Throws std::runtime_error naming the failed check.
[[nodiscard]] Snapshot load_snapshot(const std::string& path);

/// The in-memory twin of load_snapshot(save_snapshot(build_substrates(g,
/// ...))): builds the same portfolio and moves `g`, the DAG and the
/// sketches into a Snapshot with no file behind it, copying no arena. `g`
/// is kept only when `symmetric` is asked for. An empty `kinds` carries
/// the requested CSRs and no substrate (no file can hold that). Throws
/// what build_substrates throws.
[[nodiscard]] Snapshot build_snapshot(CsrGraph g, std::span<const SketchKind> kinds,
                                      bool symmetric, bool degree_oriented,
                                      ProbGraphConfig base_config = {});

}  // namespace probgraph::io
