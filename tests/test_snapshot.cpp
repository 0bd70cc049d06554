// The .pgs snapshot subsystem (src/io/).
//
// Five guarantees under test:
//   1. Round trip: for every SketchKind, a loaded snapshot serves
//      est_intersection / est_jaccard BIT-IDENTICAL to the in-memory build
//      it was saved from, zero-copy out of the mapping.
//   2. Integrity: wrong magic, wrong version, wrong endianness tag,
//      truncation, and payload corruption are all rejected with a
//      descriptive error naming the failed check.
//   3. Format stability: tests/data/golden.pgs (a frozen VERSION-1 file
//      built from tests/data/golden.el with the default config) must keep
//      loading under the v2 reader with pinned header bytes and unchanged
//      estimates, and tests/data/golden_v2.pgs (a multi-substrate
//      version-2 file — see GoldenFixtureV2.MatchesFreshBuild for the
//      regeneration command) pins the v2 layout the same way.
//   4. Multi-substrate: a v2 file packing several sketch kinds × both
//      orientations serves EVERY substrate bit-identical to the
//      single-substrate build it came from, and malformed substrate
//      combinations are rejected at save time.
//   5. Built snapshots: io::build_snapshot carries the same substrate
//      list, CSRs and arenas as the saved-and-loaded portfolio, owned in
//      memory with no file behind it.
#include "io/snapshot.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/orientation.hpp"

namespace probgraph {
namespace {

namespace fs = std::filesystem;

/// Self-deleting temp file path, unique per test.
struct TempFile {
  explicit TempFile(const std::string& tag)
      : path((fs::temp_directory_path() / ("probgraph_test_" + tag + ".pgs")).string()) {}
  ~TempFile() { std::error_code ec; fs::remove(path, ec); }
  std::string path;
};

CsrGraph test_graph() { return gen::kronecker(8, 8.0, 3); }

ProbGraphConfig config_for(SketchKind kind) {
  ProbGraphConfig cfg;
  cfg.kind = kind;
  cfg.storage_budget = 0.3;
  cfg.bf_hashes = 2;
  cfg.seed = 42;
  return cfg;
}

std::vector<std::byte> read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::vector<std::byte> bytes(static_cast<std::size_t>(in.tellg()));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()), static_cast<std::streamsize>(bytes.size()));
  return bytes;
}

void write_bytes(const std::string& path, const std::vector<std::byte>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

void expect_load_fails_with(const std::string& path, const std::string& substr) {
  try {
    (void)io::load_snapshot(path);
    FAIL() << "expected load_snapshot(" << path << ") to throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(substr), std::string::npos)
        << "error message '" << e.what() << "' does not mention '" << substr << "'";
  }
}

void expect_bit_identical(const CsrGraph& g, const ProbGraph& built,
                          const ProbGraph& loaded) {
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (const VertexId v : g.neighbors(u)) {
      ASSERT_EQ(built.est_intersection(u, v), loaded.est_intersection(u, v))
          << "est_intersection diverges at edge (" << u << ", " << v << ")";
      ASSERT_EQ(built.est_jaccard(u, v), loaded.est_jaccard(u, v))
          << "est_jaccard diverges at edge (" << u << ", " << v << ")";
    }
  }
}

class SnapshotRoundTrip : public ::testing::TestWithParam<SketchKind> {};

TEST_P(SnapshotRoundTrip, ServesBitIdenticalEstimatesZeroCopy) {
  const CsrGraph g = test_graph();
  const ProbGraph built(g, config_for(GetParam()));
  TempFile file(std::string("roundtrip_") + to_string(GetParam()));
  io::save_snapshot(file.path, built);

  const io::Snapshot snap = io::load_snapshot(file.path);
  const ProbGraph& loaded = snap.prob_graph();

  // The served graph and sketches view the mapping, not copies.
  EXPECT_TRUE(snap.graph().is_mapped());
  EXPECT_TRUE(loaded.is_mapped());

  // Structure round-trips exactly.
  ASSERT_EQ(snap.graph().num_vertices(), g.num_vertices());
  ASSERT_TRUE(std::equal(g.offsets().begin(), g.offsets().end(),
                         snap.graph().offsets().begin(), snap.graph().offsets().end()));
  ASSERT_TRUE(std::equal(g.adjacency().begin(), g.adjacency().end(),
                         snap.graph().adjacency().begin(),
                         snap.graph().adjacency().end()));
  EXPECT_EQ(loaded.kind(), built.kind());
  EXPECT_EQ(loaded.bf_bits(), built.bf_bits());
  EXPECT_EQ(loaded.minhash_k(), built.minhash_k());
  EXPECT_EQ(loaded.memory_bytes(), built.memory_bytes());
  EXPECT_EQ(loaded.config().seed, built.config().seed);
  EXPECT_EQ(snap.info().kind, GetParam());
  EXPECT_EQ(snap.info().version, io::kSnapshotVersion);
  EXPECT_FALSE(snap.info().degree_oriented);

  // A single-substrate v2 file still enumerates itself.
  ASSERT_EQ(snap.num_substrates(), 1u);
  ASSERT_EQ(snap.info().substrates.size(), 1u);
  EXPECT_EQ(snap.info().substrates[0].kind, GetParam());
  EXPECT_FALSE(snap.info().substrates[0].degree_oriented);
  EXPECT_EQ(snap.find_substrate(GetParam(), false), &loaded);
  EXPECT_EQ(snap.find_substrate(GetParam(), true), nullptr);
  EXPECT_EQ(snap.sole_substrate(false), &loaded);
  EXPECT_EQ(snap.graph_for(true), nullptr);

  expect_bit_identical(g, built, loaded);
}

INSTANTIATE_TEST_SUITE_P(AllKinds, SnapshotRoundTrip,
                         ::testing::Values(SketchKind::kBloomFilter, SketchKind::kKHash,
                                           SketchKind::kOneHash, SketchKind::kKmv),
                         [](const auto& info) { return std::string(to_string(info.param)); });

TEST(Snapshot, DegreeOrientedFlagRoundTrips) {
  const CsrGraph g = test_graph();
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig cfg = config_for(SketchKind::kBloomFilter);
  cfg.budget_reference_bytes = g.memory_bytes();
  const ProbGraph built(dag, cfg);
  TempFile file("oriented");
  io::save_snapshot(file.path, built, {.degree_oriented = true});

  const io::Snapshot snap = io::load_snapshot(file.path);
  EXPECT_TRUE(snap.info().degree_oriented);
  EXPECT_EQ(snap.prob_graph().config().budget_reference_bytes, g.memory_bytes());
  expect_bit_identical(dag, built, snap.prob_graph());
}

TEST(Snapshot, RelativeMemoryMatchesAfterLoad) {
  const CsrGraph g = test_graph();
  const ProbGraph built(g, config_for(SketchKind::kOneHash));
  TempFile file("relmem");
  io::save_snapshot(file.path, built);
  const io::Snapshot snap = io::load_snapshot(file.path);
  EXPECT_EQ(snap.prob_graph().relative_memory(), built.relative_memory());
}

// --- Integrity rejection. All mutations start from a freshly saved file. ---

class SnapshotIntegrity : public ::testing::Test {
 protected:
  void SetUp() override {
    const CsrGraph g = test_graph();
    const ProbGraph pg(g, config_for(SketchKind::kBloomFilter));
    io::save_snapshot(source_.path, pg);
    bytes_ = read_bytes(source_.path);
    ASSERT_GT(bytes_.size(), 320u);
  }

  TempFile source_{"integrity_source"};
  TempFile mutated_{"integrity_mutated"};
  std::vector<std::byte> bytes_;
};

TEST_F(SnapshotIntegrity, AcceptsThePristineFile) {
  EXPECT_NO_THROW((void)io::load_snapshot(source_.path));
}

TEST_F(SnapshotIntegrity, RejectsBadMagic) {
  bytes_[0] = std::byte{'X'};
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "magic");
}

TEST_F(SnapshotIntegrity, RejectsUnknownVersion) {
  bytes_[8] = std::byte{0x7f};  // version u32 lives at offset 8
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "version");
}

TEST_F(SnapshotIntegrity, RejectsForeignEndianness) {
  std::swap(bytes_[12], bytes_[15]);  // endianness tag u32 lives at offset 12
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "endianness");
}

TEST_F(SnapshotIntegrity, RejectsTruncation) {
  bytes_.resize(bytes_.size() - 64);
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "size mismatch");
}

TEST_F(SnapshotIntegrity, RejectsTruncationBelowHeader) {
  bytes_.resize(32);
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "truncated");
}

TEST_F(SnapshotIntegrity, RejectsPayloadCorruption) {
  bytes_.back() = bytes_.back() ^ std::byte{0x01};  // flip one payload bit
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "checksum");
}

TEST_F(SnapshotIntegrity, RejectsHeaderCorruption) {
  // The checksum covers the header too: a flipped degree_oriented flag
  // (flags u32 at offset 44) must be rejected, not silently served.
  bytes_[44] = bytes_[44] ^ std::byte{0x01};
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "checksum");
}

TEST_F(SnapshotIntegrity, RejectsSeedCorruption) {
  bytes_[96] = bytes_[96] ^ std::byte{0x01};  // seed u64 lives at offset 96
  write_bytes(mutated_.path, bytes_);
  expect_load_fails_with(mutated_.path, "checksum");
}

TEST_F(SnapshotIntegrity, RejectsEmptyFile) {
  write_bytes(mutated_.path, {});
  EXPECT_THROW((void)io::load_snapshot(mutated_.path), std::runtime_error);
}

TEST(Snapshot, RejectsMissingFile) {
  EXPECT_THROW((void)io::load_snapshot("/nonexistent/probgraph.pgs"), std::runtime_error);
}

// --- Multi-substrate v2 files. ---

constexpr SketchKind kAllKinds[] = {SketchKind::kBloomFilter, SketchKind::kKHash,
                                    SketchKind::kOneHash, SketchKind::kKmv};

/// Every (kind, orientation) substrate a `--kinds bf,kh,1h,kmv --orient
/// both` build would pack, via the same io::build_substrates helper
/// pgtool uses (kind-major, symmetric first, DAG budget-referenced to
/// the symmetric CSR).
io::SubstrateSet all_substrates(const CsrGraph& g) {
  return io::build_substrates(g, kAllKinds, /*symmetric=*/true, /*degree_oriented=*/true,
                              config_for(SketchKind::kBloomFilter));
}

TEST(MultiSubstrate, RoundTripIsBitIdenticalPerKindAndOrientation) {
  const CsrGraph g = test_graph();
  const io::SubstrateSet all = all_substrates(g);
  TempFile file("multi_all");
  io::save_snapshot(file.path, all.substrates);

  const io::Snapshot snap = io::load_snapshot(file.path);
  EXPECT_EQ(snap.info().version, io::kSnapshotVersion);
  ASSERT_EQ(snap.num_substrates(), all.substrates.size());
  ASSERT_EQ(snap.info().substrates.size(), all.substrates.size());
  ASSERT_NE(snap.graph_for(false), nullptr);
  ASSERT_NE(snap.graph_for(true), nullptr);
  // One shared CSR per orientation, both zero-copy views of the mapping.
  EXPECT_TRUE(snap.graph_for(false)->is_mapped());
  EXPECT_TRUE(snap.graph_for(true)->is_mapped());
  ASSERT_EQ(snap.graph_for(true)->num_directed_edges(), all.dag->num_directed_edges());

  for (std::size_t i = 0; i < all.substrates.size(); ++i) {
    const SketchKind kind = all.substrates[i].pg->kind();
    const bool oriented = all.substrates[i].degree_oriented;
    EXPECT_EQ(snap.info().substrates[i].kind, kind);
    EXPECT_EQ(snap.info().substrates[i].degree_oriented, oriented);
    const ProbGraph* loaded = snap.find_substrate(kind, oriented);
    ASSERT_NE(loaded, nullptr) << to_string(kind) << (oriented ? "/dag" : "/sym");
    EXPECT_TRUE(loaded->is_mapped());
    expect_bit_identical(oriented ? *all.dag : g, *all.substrates[i].pg, *loaded);
  }
  // The primary substrate is the first one listed.
  EXPECT_EQ(&snap.prob_graph(), snap.find_substrate(SketchKind::kBloomFilter, false));
  EXPECT_EQ(snap.info().kind, SketchKind::kBloomFilter);
  EXPECT_FALSE(snap.info().degree_oriented);
  // With four kinds per orientation there is no sole substrate.
  EXPECT_EQ(snap.sole_substrate(false), nullptr);
  EXPECT_EQ(snap.sole_substrate(true), nullptr);
}

TEST(MultiSubstrate, DescribeSubstratesNamesEveryCarriedOne) {
  const CsrGraph g = test_graph();
  const io::SubstrateSet all = all_substrates(g);
  TempFile file("multi_describe");
  io::save_snapshot(file.path, all.substrates);
  const io::Snapshot snap = io::load_snapshot(file.path);
  EXPECT_EQ(io::describe_substrates(snap.info().substrates),
            "BF/sym, BF/dag, kH/sym, kH/dag, 1H/sym, 1H/dag, KMV/sym, KMV/dag");
}

TEST(MultiSubstrate, OrientedPrimaryPlusSymmetricSecondary) {
  // Primary = DAG substrate (a `--kinds ... --orient` build shape): the
  // header flags say degree-oriented while the file still carries and
  // serves the symmetric substrate.
  const CsrGraph g = test_graph();
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig dag_cfg = config_for(SketchKind::kBloomFilter);
  dag_cfg.budget_reference_bytes = g.memory_bytes();
  const ProbGraph dag_pg(dag, dag_cfg);
  const ProbGraph sym_pg(g, config_for(SketchKind::kKmv));
  const io::SnapshotSubstrate subs[] = {{&dag_pg, true}, {&sym_pg, false}};
  TempFile file("multi_oriented_primary");
  io::save_snapshot(file.path, subs);

  const io::Snapshot snap = io::load_snapshot(file.path);
  EXPECT_TRUE(snap.info().degree_oriented);
  EXPECT_EQ(&snap.graph(), snap.graph_for(true));
  ASSERT_NE(snap.find_substrate(SketchKind::kKmv, false), nullptr);
  expect_bit_identical(g, sym_pg, *snap.find_substrate(SketchKind::kKmv, false));
  expect_bit_identical(dag, dag_pg, snap.prob_graph());
  EXPECT_EQ(snap.sole_substrate(false), snap.find_substrate(SketchKind::kKmv, false));
}

TEST(MultiSubstrate, SaveRejectsMalformedSubstrateLists) {
  const CsrGraph g = test_graph();
  const ProbGraph a(g, config_for(SketchKind::kBloomFilter));
  const ProbGraph b(g, config_for(SketchKind::kBloomFilter));
  const CsrGraph g2 = test_graph();
  const ProbGraph c(g2, config_for(SketchKind::kKmv));
  TempFile file("multi_reject");

  EXPECT_THROW(io::save_snapshot(file.path, std::span<const io::SnapshotSubstrate>{}),
               std::invalid_argument);
  {
    // Duplicate (kind, orientation).
    const io::SnapshotSubstrate subs[] = {{&a, false}, {&b, false}};
    EXPECT_THROW(io::save_snapshot(file.path, subs), std::invalid_argument);
  }
  {
    // Same orientation over two different graph instances.
    const io::SnapshotSubstrate subs[] = {{&a, false}, {&c, false}};
    EXPECT_THROW(io::save_snapshot(file.path, subs), std::invalid_argument);
  }
  {
    // A "DAG" that is not an orientation of the symmetric graph (here:
    // the DAG of a different same-size graph — the edge counts disagree).
    // Without this check the writer could emit a file whose exact counts
    // come from an unrelated graph.
    const CsrGraph other = gen::kronecker(8, 4.0, 3);
    ASSERT_EQ(other.num_vertices(), g.num_vertices());
    const CsrGraph other_dag = degree_orient(other);
    ProbGraphConfig cfg = config_for(SketchKind::kBloomFilter);
    cfg.budget_reference_bytes = other.memory_bytes();
    const ProbGraph wrong_dag(other_dag, cfg);
    const io::SnapshotSubstrate subs[] = {{&a, false}, {&wrong_dag, true}};
    EXPECT_THROW(io::save_snapshot(file.path, subs), std::invalid_argument);
  }
}

TEST(MultiSubstrate, DirectoryCorruptionIsRejectedByTheChecksum) {
  const CsrGraph g = test_graph();
  const ProbGraph sym(g, config_for(SketchKind::kBloomFilter));
  const CsrGraph dag = degree_orient(g);
  ProbGraphConfig dag_cfg = config_for(SketchKind::kBloomFilter);
  dag_cfg.budget_reference_bytes = g.memory_bytes();
  const ProbGraph dag_pg(dag, dag_cfg);
  const io::SnapshotSubstrate subs[] = {{&sym, false}, {&dag_pg, true}};
  TempFile source("multi_corrupt_src");
  TempFile mutated("multi_corrupt_mut");
  io::save_snapshot(source.path, subs);

  std::vector<std::byte> bytes = read_bytes(source.path);
  // The substrate directory is section index 7; its table entry starts at
  // 136 + 7*24 and the offset field sits 8 bytes in. Flipping a byte of
  // the directory payload itself must be caught by the whole-file
  // checksum; corrupting its table entry likewise.
  std::uint64_t dir_offset = 0;
  std::memcpy(&dir_offset, bytes.data() + 136 + 7 * 24 + 8, sizeof dir_offset);
  ASSERT_LT(dir_offset, bytes.size());
  bytes[dir_offset] = bytes[dir_offset] ^ std::byte{0x01};
  write_bytes(mutated.path, bytes);
  expect_load_fails_with(mutated.path, "checksum");
}

// --- Golden fixtures: pin the on-disk formats across refactors. ---

std::string data_path(const char* name) {
  return std::string(PROBGRAPH_TEST_DATA_DIR) + "/" + name;
}

TEST(GoldenFixture, HeaderBytesArePinned) {
  const std::vector<std::byte> bytes = read_bytes(data_path("golden.pgs"));
  ASSERT_GE(bytes.size(), 16u);
  EXPECT_EQ(std::memcmp(bytes.data(), "PGSNAP01", 8), 0);
  const unsigned char version_le[4] = {1, 0, 0, 0};
  EXPECT_EQ(std::memcmp(bytes.data() + 8, version_le, 4), 0);
  const unsigned char endian_le[4] = {0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(std::memcmp(bytes.data() + 12, endian_le, 4), 0);
}

TEST(GoldenFixture, MatchesFreshBuild) {
  // tests/data/golden.pgs is a FROZEN version-1 file (BF sketches, budget
  // 0.25, b = 2, seed 42, written by the PR-2 writer) — it is never
  // regenerated; it pins the v1 read path of the v2 loader.
  const io::Snapshot snap = io::load_snapshot(data_path("golden.pgs"));
  EXPECT_EQ(snap.info().version, 1u);
  EXPECT_EQ(snap.info().kind, SketchKind::kBloomFilter);
  EXPECT_FALSE(snap.info().degree_oriented);
  ASSERT_EQ(snap.info().substrates.size(), 1u);
  EXPECT_EQ(snap.info().substrates[0].kind, SketchKind::kBloomFilter);
  EXPECT_FALSE(snap.info().substrates[0].degree_oriented);

  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  ASSERT_EQ(snap.graph().num_vertices(), g.num_vertices());
  ASSERT_EQ(snap.graph().num_directed_edges(), g.num_directed_edges());
  const ProbGraph fresh(g, ProbGraphConfig{});
  expect_bit_identical(g, fresh, snap.prob_graph());
}

TEST(GoldenFixtureV2, HeaderBytesArePinned) {
  const std::vector<std::byte> bytes = read_bytes(data_path("golden_v2.pgs"));
  ASSERT_GE(bytes.size(), 16u);
  EXPECT_EQ(std::memcmp(bytes.data(), "PGSNAP01", 8), 0);
  const unsigned char version_le[4] = {2, 0, 0, 0};
  EXPECT_EQ(std::memcmp(bytes.data() + 8, version_le, 4), 0);
  const unsigned char endian_le[4] = {0x04, 0x03, 0x02, 0x01};
  EXPECT_EQ(std::memcmp(bytes.data() + 12, endian_le, 4), 0);
}

TEST(GoldenFixtureV2, MatchesFreshBuild) {
  // Regenerate (only on a deliberate format bump) with:
  //   pgtool build tests/data/golden.el --kinds bf,kmv --orient both
  //     -o tests/data/golden_v2.pgs
  // i.e. default parameters (budget 0.25, b = 2, seed 42) for all four
  // substrates: BF/sym (primary), BF/dag, KMV/sym, KMV/dag.
  const io::Snapshot snap = io::load_snapshot(data_path("golden_v2.pgs"));
  EXPECT_EQ(snap.info().version, 2u);
  EXPECT_EQ(snap.info().kind, SketchKind::kBloomFilter);
  EXPECT_FALSE(snap.info().degree_oriented);
  EXPECT_EQ(io::describe_substrates(snap.info().substrates),
            "BF/sym, BF/dag, KMV/sym, KMV/dag");

  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  const CsrGraph dag = degree_orient(g);
  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKmv}) {
    ProbGraphConfig cfg;
    cfg.kind = kind;
    const ProbGraph fresh_sym(g, cfg);
    ASSERT_NE(snap.find_substrate(kind, false), nullptr);
    expect_bit_identical(g, fresh_sym, *snap.find_substrate(kind, false));

    cfg.budget_reference_bytes = g.memory_bytes();
    const ProbGraph fresh_dag(dag, cfg);
    ASSERT_NE(snap.find_substrate(kind, true), nullptr);
    expect_bit_identical(dag, fresh_dag, *snap.find_substrate(kind, true));
  }
}

// --- Built snapshots: the same portfolio, no file behind it. ---

void expect_same_csr(const CsrGraph& a, const CsrGraph& b) {
  EXPECT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  EXPECT_TRUE(std::ranges::equal(a.adjacency(), b.adjacency()));
}

void expect_same_arenas(const ProbGraph& a, const ProbGraph& b) {
  EXPECT_TRUE(std::ranges::equal(a.bf_arena(), b.bf_arena()));
  EXPECT_TRUE(std::ranges::equal(a.kh_arena(), b.kh_arena()));
  EXPECT_TRUE(std::ranges::equal(a.oh_arena(), b.oh_arena()));
  EXPECT_TRUE(std::ranges::equal(a.kmv_arena(), b.kmv_arena()));
  EXPECT_TRUE(std::ranges::equal(a.sketch_sizes(), b.sketch_sizes()));
}

TEST(BuiltSnapshot, AnswersLikeTheSavedAndLoadedPortfolio) {
  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  const std::span<const SketchKind> all(kAllKinds);
  for (const std::span<const SketchKind> kinds : {all, all.subspan(3)}) {
    for (const auto& [symmetric, oriented] : {std::pair{true, false}, std::pair{false, true},
                                              std::pair{true, true}}) {
      SCOPED_TRACE(std::to_string(kinds.size()) + " kinds, symmetric " +
                   std::to_string(symmetric) + ", oriented " + std::to_string(oriented));
      const ProbGraphConfig cfg = config_for(SketchKind::kBloomFilter);
      const io::SubstrateSet set = io::build_substrates(g, kinds, symmetric, oriented, cfg);
      TempFile file("built_vs_loaded");
      io::save_snapshot(file.path, set.substrates);
      const io::Snapshot loaded = io::load_snapshot(file.path);
      const io::Snapshot built = io::build_snapshot(CsrGraph(g), kinds, symmetric, oriented, cfg);

      ASSERT_EQ(built.num_substrates(), loaded.num_substrates());
      ASSERT_EQ(built.info().substrates.size(), loaded.info().substrates.size());
      for (std::size_t i = 0; i < loaded.info().substrates.size(); ++i) {
        EXPECT_EQ(built.info().substrates[i].kind, loaded.info().substrates[i].kind);
        EXPECT_EQ(built.info().substrates[i].degree_oriented,
                  loaded.info().substrates[i].degree_oriented);
      }
      EXPECT_EQ(built.info().kind, loaded.info().kind);
      EXPECT_EQ(built.info().degree_oriented, loaded.info().degree_oriented);
      EXPECT_EQ(built.info().num_vertices, loaded.info().num_vertices);
      EXPECT_EQ(built.info().num_directed_edges, loaded.info().num_directed_edges);
      EXPECT_EQ(built.info().file_bytes, 0u);
      expect_same_csr(built.graph(), loaded.graph());
      EXPECT_EQ(&built.prob_graph().graph(), &built.graph());
      expect_same_arenas(built.prob_graph(), loaded.prob_graph());

      for (const bool o : {false, true}) {
        ASSERT_EQ(built.graph_for(o) == nullptr, loaded.graph_for(o) == nullptr);
        if (built.graph_for(o) != nullptr) {
          EXPECT_FALSE(built.graph_for(o)->is_mapped());
          expect_same_csr(*built.graph_for(o), *loaded.graph_for(o));
        }
        EXPECT_EQ(built.sole_substrate(o) == nullptr, loaded.sole_substrate(o) == nullptr);
        for (const SketchKind kind : kAllKinds) {
          const ProbGraph* b = built.find_substrate(kind, o);
          const ProbGraph* l = loaded.find_substrate(kind, o);
          ASSERT_EQ(b == nullptr, l == nullptr) << to_string(kind) << (o ? "/dag" : "/sym");
          if (b == nullptr) continue;
          EXPECT_FALSE(b->is_mapped());
          EXPECT_EQ(&b->graph(), built.graph_for(o));
          expect_same_arenas(*b, *l);
          expect_bit_identical(b->graph(), *l, *b);
        }
      }
    }
  }
}

TEST(BuiltSnapshot, EmptyKindListCarriesTheRequestedCsrsOnly) {
  const CsrGraph g = io::read_edge_list(data_path("golden.el"));
  const CsrGraph dag = degree_orient(g);
  const io::SubstrateSet set = io::build_substrates(g, {}, true, true);
  EXPECT_TRUE(set.sketches.empty());
  ASSERT_NE(set.dag, nullptr);
  expect_same_csr(*set.dag, dag);

  for (const auto& [symmetric, oriented] : {std::pair{true, false}, std::pair{false, true},
                                            std::pair{true, true}}) {
    const io::Snapshot snap = io::build_snapshot(CsrGraph(g), {}, symmetric, oriented);
    EXPECT_EQ(snap.num_substrates(), 0u);
    EXPECT_TRUE(snap.info().substrates.empty());
    EXPECT_EQ(snap.sole_substrate(false), nullptr);
    EXPECT_EQ(snap.sole_substrate(true), nullptr);
    ASSERT_EQ(snap.graph_for(false) != nullptr, symmetric);
    ASSERT_EQ(snap.graph_for(true) != nullptr, oriented);
    if (symmetric) expect_same_csr(*snap.graph_for(false), g);
    if (oriented) expect_same_csr(*snap.graph_for(true), dag);
    // graph() is the requested CSR, the symmetric one when both are.
    EXPECT_EQ(&snap.graph(), snap.graph_for(!symmetric));
    EXPECT_EQ(snap.info().degree_oriented, !symmetric);
  }
  // No file can hold a portfolio without substrates.
  TempFile file("no_substrates");
  EXPECT_THROW(io::save_snapshot(file.path, std::span<const io::SnapshotSubstrate>{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace probgraph
