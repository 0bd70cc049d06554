#include "io/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/orientation.hpp"
#include "io/mmap_file.hpp"
#include "io/snapshot_format.hpp"
#include "util/hash.hpp"

namespace probgraph::io {

// The on-disk structs and format constants live in snapshot_format.hpp,
// where their layout is pinned byte-by-byte; this file is only the
// reader/writer logic over them.
using namespace snapshot_format;

namespace {

constexpr std::size_t align_up(std::size_t x) {
  return (x + kSectionAlign - 1) / kSectionAlign * kSectionAlign;
}

// --- File checksum: block-parallel word-wise mixing. ---
//
// Loads must checksum the whole file before serving, so the checksum IS
// the load critical path — a byte-at-a-time FNV would cap loading at under
// a GB/s and erase the mmap win. Version 1 therefore fixes the checksum to:
// hash each 1 MiB block independently (8 bytes per fmix64 step, so the
// blocks parallelize across cores and saturate memory bandwidth), then mix
// the block digests together in order. The hashed stream is the file with
// the header's file_checksum field read as zero, so every header bit is
// covered as well. Any flipped bit changes its block's digest and thus the
// total. Not cryptographic — this guards against truncation and bit rot,
// not adversaries. Version 2 keeps the same checksum (it covers the
// substrate directory and every extra section for free: the hashed stream
// is simply the whole file).

constexpr std::size_t kChecksumBlock = std::size_t{1} << 20;

std::uint64_t hash_block(const std::byte* p, std::size_t n) noexcept {
  // Four independent lanes, 32 bytes per step: a single xor-multiply chain
  // is serially dependent on the multiply latency and caps out near 2 GB/s
  // on one core, while independent lanes pipeline to memory bandwidth.
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;  // the FNV-1a prime
  std::uint64_t lane[4] = {0x9e3779b97f4a7c15ULL ^ n, 0xbf58476d1ce4e5b9ULL,
                           0x94d049bb133111ebULL, 0x2545f4914f6cdd1dULL};
  std::size_t i = 0;
  for (; i + 32 <= n; i += 32) {
    std::uint64_t w[4];
    std::memcpy(w, p + i, 32);
    lane[0] = (lane[0] ^ w[0]) * kPrime;
    lane[1] = (lane[1] ^ w[1]) * kPrime;
    lane[2] = (lane[2] ^ w[2]) * kPrime;
    lane[3] = (lane[3] ^ w[3]) * kPrime;
  }
  std::uint64_t h = util::murmur3_fmix64(lane[0]) ^ util::murmur3_fmix64(lane[1]) ^
                    util::murmur3_fmix64(lane[2]) ^ util::murmur3_fmix64(lane[3]);
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w;
    std::memcpy(&w, p + i, 8);
    h = util::murmur3_fmix64(h ^ w);
  }
  if (i < n) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, n - i);
    h = util::murmur3_fmix64(h ^ w);
  }
  return h;
}

std::uint64_t combine_digests(const std::vector<std::uint64_t>& digests, std::size_t n) {
  std::uint64_t h = 0x27d4eb2f165667c5ULL ^ n;
  for (const std::uint64_t d : digests) h = util::murmur3_fmix64(h ^ d);
  return h;
}

/// Load-side checksum: hash a mapped file whose first sizeof(FileHeader)
/// bytes are replaced by `patched` (the header with file_checksum zeroed).
/// Only block 0 needs staging for the patch; every later block hashes
/// straight from the mapping, in parallel.
std::uint64_t checksum_mapped_file(const FileHeader& patched, const std::byte* base,
                                   std::size_t size) {
  const std::size_t blocks = (size + kChecksumBlock - 1) / kChecksumBlock;
  std::vector<std::uint64_t> digests(blocks);
  {
    const std::size_t len = std::min(kChecksumBlock, size);
    std::vector<std::byte> staged(len);
    std::memcpy(staged.data(), base, len);
    std::memcpy(staged.data(), &patched, sizeof patched);
    digests[0] = hash_block(staged.data(), len);
  }
#pragma omp parallel for schedule(static)
  for (std::int64_t b = 1; b < static_cast<std::int64_t>(blocks); ++b) {
    const std::size_t off = static_cast<std::size_t>(b) * kChecksumBlock;
    digests[static_cast<std::size_t>(b)] =
        hash_block(base + off, std::min(kChecksumBlock, size - off));
  }
  return combine_digests(digests, size);
}

/// Save-side incremental producer of the same checksum over the bytes fed
/// to update(). Full aligned blocks hash straight from the source; only
/// chunks straddling a block boundary go through the 1 MiB staging buffer,
/// so streaming arbitrarily large payloads needs no second copy.
class BlockChecksum {
 public:
  void update(const std::byte* p, std::size_t n) {
    total_ += n;
    while (n > 0) {
      if (fill_ == 0 && n >= kChecksumBlock) {
        digests_.push_back(hash_block(p, kChecksumBlock));
        p += kChecksumBlock;
        n -= kChecksumBlock;
        continue;
      }
      const std::size_t take = std::min(n, kChecksumBlock - fill_);
      std::memcpy(buf_.data() + fill_, p, take);
      fill_ += take;
      p += take;
      n -= take;
      if (fill_ == kChecksumBlock) {
        digests_.push_back(hash_block(buf_.data(), kChecksumBlock));
        fill_ = 0;
      }
    }
  }

  [[nodiscard]] std::uint64_t finish() {
    if (fill_ > 0) digests_.push_back(hash_block(buf_.data(), fill_));
    fill_ = 0;
    return combine_digests(digests_, total_);
  }

 private:
  std::vector<std::byte> buf_ = std::vector<std::byte>(kChecksumBlock);
  std::size_t fill_ = 0;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> digests_;
};

struct SectionSource {
  std::uint32_t id;
  std::uint32_t elem_bytes;
  const std::byte* data;  // null for the re-packed 1-hash sections
  std::uint64_t bytes;
  const ProbGraph* oh_source = nullptr;  // set for 1-hash sections
};

/// Stream the 1-hash arena re-serialized with its struct padding zeroed
/// (layout: hash u64, element u32, zero pad — so written bytes, and thus
/// checksums and golden fixtures, are deterministic) in bounded chunks,
/// never materializing a packed copy of the whole arena.
template <typename Sink>
void emit_packed_oh(std::span<const BottomKEntry> entries, Sink&& sink) {
  constexpr std::size_t kChunkEntries = 4096;
  // The pad bytes stay zero across chunk reuses: entry writes below touch
  // only the hash and element fields.
  std::vector<std::byte> chunk(
      std::min(kChunkEntries, entries.size()) * sizeof(BottomKEntry), std::byte{0});
  for (std::size_t i = 0; i < entries.size();) {
    const std::size_t take = std::min(kChunkEntries, entries.size() - i);
    std::byte* p = chunk.data();
    for (std::size_t j = 0; j < take; ++j, p += sizeof(BottomKEntry)) {
      const BottomKEntry& e = entries[i + j];
      std::memcpy(p, &e.hash, sizeof e.hash);
      std::memcpy(p + sizeof e.hash, &e.element, sizeof e.element);
    }
    sink(chunk.data(), take * sizeof(BottomKEntry));
    i += take;
  }
}

[[noreturn]] void fail(const std::string& path, const std::string& why) {
  throw std::runtime_error("snapshot " + path + ": " + why);
}

const char* orient_tag(bool degree_oriented) noexcept {
  return degree_oriented ? "dag" : "sym";
}

}  // namespace

std::string describe_substrates(std::span<const SubstrateInfo> subs) {
  std::string out;
  for (const SubstrateInfo& s : subs) {
    if (!out.empty()) out += ", ";
    out += to_string(s.kind);
    out += '/';
    out += orient_tag(s.degree_oriented);
  }
  return out;
}

const ProbGraph* Snapshot::find_substrate(SketchKind kind,
                                          bool degree_oriented) const noexcept {
  for (const Substrate& s : subs_) {
    if (s.kind == kind && s.degree_oriented == degree_oriented) return s.pg.get();
  }
  return nullptr;
}

const ProbGraph* Snapshot::sole_substrate(bool degree_oriented) const noexcept {
  const ProbGraph* found = nullptr;
  for (const Substrate& s : subs_) {
    if (s.degree_oriented != degree_oriented) continue;
    if (found != nullptr) return nullptr;  // ambiguous
    found = s.pg.get();
  }
  return found;
}

void save_snapshot(const std::string& path, const ProbGraph& pg, SnapshotMeta meta) {
  const SnapshotSubstrate sub{&pg, meta.degree_oriented};
  save_snapshot(path, std::span<const SnapshotSubstrate>(&sub, 1));
}

void save_snapshot(const std::string& path,
                   std::span<const SnapshotSubstrate> substrates) {
  if (substrates.empty()) {
    throw std::invalid_argument("snapshot: at least one substrate is required");
  }
  // One CSR per orientation: every substrate of an orientation must have
  // been built over the same graph instance, and (kind, orientation) must
  // be unique or later directory lookups would be ambiguous.
  const CsrGraph* csr_of[2] = {nullptr, nullptr};
  for (std::size_t i = 0; i < substrates.size(); ++i) {
    const SnapshotSubstrate& s = substrates[i];
    if (s.pg == nullptr) throw std::invalid_argument("snapshot: null substrate");
    const CsrGraph*& slot = csr_of[s.degree_oriented ? 1 : 0];
    if (slot == nullptr) {
      slot = &s.pg->graph();
    } else if (slot != &s.pg->graph()) {
      throw std::invalid_argument(
          "snapshot: substrates of the same orientation must sketch the same graph");
    }
    for (std::size_t j = 0; j < i; ++j) {
      if (substrates[j].pg->kind() == s.pg->kind() &&
          substrates[j].degree_oriented == s.degree_oriented) {
        throw std::invalid_argument(
            std::string("snapshot: duplicate substrate ") + to_string(s.pg->kind()) +
            "/" + orient_tag(s.degree_oriented));
      }
    }
  }
  // The DAG must be an orientation of the SAME graph the symmetric
  // substrates sketch: any orientation of G keeps its vertex set and has
  // exactly one arc per undirected edge. Violations would either write a
  // file the loader rejects (different n) or, worse, serve exact counts
  // of an unrelated graph (same n, different edges) — fail at the API
  // boundary instead.
  if (csr_of[0] != nullptr && csr_of[1] != nullptr &&
      (csr_of[0]->num_vertices() != csr_of[1]->num_vertices() ||
       csr_of[0]->num_directed_edges() != 2 * csr_of[1]->num_directed_edges())) {
    throw std::invalid_argument(
        "snapshot: the degree-oriented substrates do not orient the graph the "
        "symmetric substrates sketch (vertex/edge counts disagree)");
  }

  const auto bytes_of = [](const auto& span) {
    return reinterpret_cast<const std::byte*>(span.data());
  };
  std::vector<SectionSource> sections;
  const auto add = [&sections](std::uint32_t id, std::uint32_t elem_bytes,
                               const std::byte* data, std::uint64_t bytes,
                               const ProbGraph* oh = nullptr) {
    sections.push_back({id, elem_bytes, data, bytes, oh});
    return static_cast<std::uint32_t>(sections.size() - 1);
  };
  const auto add_csr = [&](const CsrGraph& g) -> std::array<std::uint32_t, 2> {
    return {add(kSecCsrOffsets, sizeof(EdgeId), bytes_of(g.offsets()),
                g.offsets().size_bytes()),
            add(kSecCsrAdjacency, sizeof(VertexId), bytes_of(g.adjacency()),
                g.adjacency().size_bytes())};
  };
  const auto add_arenas = [&](const ProbGraph& pg) -> std::array<std::uint32_t, 5> {
    return {add(kSecBfArena, sizeof(std::uint64_t), bytes_of(pg.bf_arena()),
                pg.bf_arena().size_bytes()),
            add(kSecKhArena, sizeof(std::uint64_t), bytes_of(pg.kh_arena()),
                pg.kh_arena().size_bytes()),
            add(kSecOhArena, sizeof(BottomKEntry), nullptr, pg.oh_arena().size_bytes(),
                &pg),
            add(kSecKmvArena, sizeof(double), bytes_of(pg.kmv_arena()),
                pg.kmv_arena().size_bytes()),
            add(kSecSketchSizes, sizeof(std::uint32_t), bytes_of(pg.sketch_sizes()),
                pg.sketch_sizes().size_bytes())};
  };
  const auto fill_entry = [](const SnapshotSubstrate& s,
                             const std::array<std::uint32_t, 2>& csr_idx,
                             const std::array<std::uint32_t, 5>& arena_idx) {
    const ProbGraph& pg = *s.pg;
    const ProbGraphConfig& cfg = pg.config();
    SubstrateEntry e;
    std::memset(&e, 0, sizeof e);  // deterministic bytes incl. reserved fields
    e.kind = static_cast<std::uint8_t>(cfg.kind);
    e.bf_estimator = static_cast<std::uint8_t>(cfg.bf_estimator);
    e.degree_oriented = s.degree_oriented ? 1 : 0;
    e.bf_hashes = cfg.bf_hashes;
    e.storage_budget = cfg.storage_budget;
    e.cfg_bf_bits = cfg.bf_bits;
    e.budget_reference_bytes = cfg.budget_reference_bytes;
    e.seed = cfg.seed;
    e.cfg_minhash_k = cfg.minhash_k;
    e.minhash_k = pg.minhash_k();
    e.bf_bits = pg.bf_bits();
    e.bf_words_per_vertex =
        pg.bf_bits() == 0 ? 0 : pg.bf_arena().size() / pg.graph().num_vertices();
    e.construction_seconds = pg.construction_seconds();
    e.sec[0] = csr_idx[0];
    e.sec[1] = csr_idx[1];
    for (std::size_t i = 0; i < arena_idx.size(); ++i) e.sec[2 + i] = arena_idx[i];
    return e;
  };

  // The primary substrate occupies sections 0–6 in the v1 role order; the
  // substrate directory is section 7; the second orientation's CSR (if
  // any) and the extra substrates' arenas follow.
  const SnapshotSubstrate& primary = substrates[0];
  const CsrGraph& g = primary.pg->graph();
  std::array<std::uint32_t, 2> csr_idx[2];
  csr_idx[primary.degree_oriented ? 1 : 0] = add_csr(g);
  std::vector<std::array<std::uint32_t, 5>> arena_idx(substrates.size());
  arena_idx[0] = add_arenas(*primary.pg);
  std::vector<SubstrateEntry> directory(substrates.size());
  const std::uint32_t dir_index =
      add(kSecSubstrateDir, sizeof(SubstrateEntry), nullptr,
          substrates.size() * sizeof(SubstrateEntry));
  const int other = primary.degree_oriented ? 0 : 1;
  if (csr_of[other] != nullptr) csr_idx[other] = add_csr(*csr_of[other]);
  for (std::size_t i = 1; i < substrates.size(); ++i) {
    arena_idx[i] = add_arenas(*substrates[i].pg);
  }
  for (std::size_t i = 0; i < substrates.size(); ++i) {
    directory[i] = fill_entry(substrates[i], csr_idx[substrates[i].degree_oriented ? 1 : 0],
                              arena_idx[i]);
  }
  sections[dir_index].data = reinterpret_cast<const std::byte*>(directory.data());

  // Lay out the payload: every section starts kSectionAlign-aligned and is
  // followed by zero padding up to the next boundary (EOF included, so the
  // checksummed range is exactly [payload_offset, file_bytes)).
  const std::uint32_t section_count = static_cast<std::uint32_t>(sections.size());
  const std::uint64_t payload_offset =
      align_up(sizeof(FileHeader) + section_count * sizeof(SectionEntry));
  std::vector<SectionEntry> table(section_count);
  std::uint64_t cursor = payload_offset;
  for (std::uint32_t i = 0; i < section_count; ++i) {
    table[i] = {sections[i].id, sections[i].elem_bytes, cursor, sections[i].bytes};
    cursor = align_up(cursor + sections[i].bytes);
  }
  const std::uint64_t file_bytes = cursor;

  const ProbGraphConfig& cfg = primary.pg->config();
  FileHeader h;
  std::memset(&h, 0, sizeof h);  // deterministic bytes incl. struct padding
  std::memcpy(h.magic, kMagic, sizeof kMagic);
  h.version = kSnapshotVersion;
  h.endian_tag = kEndianTag;
  h.file_bytes = file_bytes;
  h.payload_offset = payload_offset;
  h.section_count = section_count;
  h.flags = primary.degree_oriented ? kFlagDegreeOriented : 0;
  h.num_vertices = g.num_vertices();
  h.bf_hashes = cfg.bf_hashes;
  h.num_directed_edges = g.num_directed_edges();
  h.kind = static_cast<std::uint8_t>(cfg.kind);
  h.bf_estimator = static_cast<std::uint8_t>(cfg.bf_estimator);
  h.storage_budget = cfg.storage_budget;
  h.cfg_bf_bits = cfg.bf_bits;
  h.budget_reference_bytes = cfg.budget_reference_bytes;
  h.seed = cfg.seed;
  h.cfg_minhash_k = cfg.minhash_k;
  h.minhash_k = primary.pg->minhash_k();
  h.bf_bits = primary.pg->bf_bits();
  h.bf_words_per_vertex =
      primary.pg->bf_bits() == 0 ? 0 : primary.pg->bf_arena().size() / g.num_vertices();
  h.construction_seconds = primary.pg->construction_seconds();

  // Stream header + table + payload twice — once into the checksum (with
  // h.file_checksum still zero, matching how loads re-hash the file), once
  // into the file — so saving never materializes a second arena-sized
  // buffer. Padding is zeros (deterministic bytes, included in the
  // checksum).
  static constexpr std::byte kZeros[kSectionAlign] = {};
  const auto emit_file = [&](auto&& sink) {
    sink(reinterpret_cast<const std::byte*>(&h), sizeof h);
    sink(reinterpret_cast<const std::byte*>(table.data()),
         table.size() * sizeof(SectionEntry));
    sink(kZeros, payload_offset - sizeof h - table.size() * sizeof(SectionEntry));
    for (std::uint32_t i = 0; i < section_count; ++i) {
      if (sections[i].oh_source != nullptr) {
        emit_packed_oh(sections[i].oh_source->oh_arena(), sink);
      } else if (sections[i].bytes > 0) {  // unused arenas have no data pointer
        sink(sections[i].data, sections[i].bytes);
      }
      const std::uint64_t end = table[i].offset + table[i].bytes;
      sink(kZeros, align_up(end) - end);
    }
  };
  BlockChecksum streamed;
  emit_file([&](const std::byte* p, std::size_t n) { streamed.update(p, n); });
  h.file_checksum = streamed.finish();

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(path, "cannot open for writing");
  emit_file([&](const std::byte* p, std::size_t n) {
    out.write(reinterpret_cast<const char*>(p), static_cast<std::streamsize>(n));
  });
  if (!out) fail(path, "write failed");
}

SubstrateSet build_substrates(const CsrGraph& g, std::span<const SketchKind> kinds,
                              bool symmetric, bool degree_oriented,
                              ProbGraphConfig base_config) {
  if (!symmetric && !degree_oriented) {
    throw std::invalid_argument("snapshot: at least one orientation");
  }
  SubstrateSet set;
  if (degree_oriented) set.dag = std::make_unique<const CsrGraph>(degree_orient(g));
  set.sketches.reserve(kinds.size() * (static_cast<std::size_t>(symmetric) +
                                       static_cast<std::size_t>(degree_oriented)));
  for (const SketchKind kind : kinds) {
    if (symmetric) {
      ProbGraphConfig cfg = base_config;
      cfg.kind = kind;
      set.sketches.emplace_back(g, cfg);
      set.substrates.push_back({&set.sketches.back(), false});
    }
    if (degree_oriented) {
      ProbGraphConfig cfg = base_config;
      cfg.kind = kind;
      cfg.budget_reference_bytes = g.memory_bytes();
      set.sketches.emplace_back(*set.dag, cfg);
      set.substrates.push_back({&set.sketches.back(), true});
    }
  }
  return set;
}

Snapshot build_snapshot(CsrGraph g, std::span<const SketchKind> kinds, bool symmetric,
                        bool degree_oriented, ProbGraphConfig base_config) {
  // The graph goes behind a stable heap pointer BEFORE sketching, so the
  // ProbGraphs' graph pointers survive every later move.
  auto sym = std::make_unique<const CsrGraph>(std::move(g));
  SubstrateSet set = build_substrates(*sym, kinds, symmetric, degree_oriented, base_config);
  Snapshot snap;
  if (symmetric) snap.sym_graph_ = std::move(sym);
  snap.dag_graph_ = std::move(set.dag);
  for (std::size_t i = 0; i < set.sketches.size(); ++i) {
    ProbGraph& pg = set.sketches[i];
    const bool oriented = set.substrates[i].degree_oriented;
    snap.info_.substrates.push_back({pg.kind(), oriented, pg.construction_seconds()});
    snap.subs_.push_back(
        {pg.kind(), oriented, std::make_unique<const ProbGraph>(std::move(pg))});
  }
  snap.info_.degree_oriented = !symmetric;
  snap.info_.num_vertices = snap.graph().num_vertices();
  snap.info_.num_directed_edges = snap.graph().num_directed_edges();
  if (!snap.subs_.empty()) {
    snap.info_.kind = snap.subs_.front().kind;
    snap.info_.construction_seconds = snap.info_.substrates.front().construction_seconds;
  }
  return snap;
}

Snapshot load_snapshot(const std::string& path) {
  std::shared_ptr<const MappedFile> file = MappedFile::open(path);
  const std::byte* base = file->data();
  const std::size_t size = file->size();

  if (size < sizeof(FileHeader)) fail(path, "truncated (smaller than the header)");
  FileHeader h;
  std::memcpy(&h, base, sizeof h);
  if (std::memcmp(h.magic, kMagic, sizeof kMagic) != 0) {
    fail(path, "bad magic (not a .pgs snapshot)");
  }
  if (h.endian_tag != kEndianTag) fail(path, "endianness mismatch");
  if (h.version != 1 && h.version != kSnapshotVersion) {
    fail(path, "unsupported format version " + std::to_string(h.version) +
                   " (expected 1 or " + std::to_string(kSnapshotVersion) + ")");
  }
  if (h.file_bytes != size) {
    fail(path, "size mismatch: header says " + std::to_string(h.file_bytes) +
                   " bytes, file has " + std::to_string(size) + " (truncated?)");
  }
  if (h.version == 1 ? h.section_count != kPrimarySectionCount
                     : h.section_count < kPrimarySectionCount + 1) {
    fail(path, "unexpected section count");
  }
  const std::uint64_t table_end =
      sizeof(FileHeader) + std::uint64_t{h.section_count} * sizeof(SectionEntry);
  if (table_end > size || h.payload_offset < table_end || h.payload_offset > size ||
      h.payload_offset % kSectionAlign != 0) {
    fail(path, "invalid payload offset");
  }

  FileHeader patched = h;
  patched.file_checksum = 0;
  if (checksum_mapped_file(patched, base, size) != h.file_checksum) {
    fail(path, "checksum mismatch (corrupted file)");
  }

  // Sections: validated offsets, typed zero-copy views resolved by table
  // index with an expected role id.
  std::vector<SectionEntry> table(h.section_count);
  std::memcpy(table.data(), base + sizeof(FileHeader),
              table.size() * sizeof(SectionEntry));
  const auto section = [&](std::uint32_t index, SectionId id,
                           std::uint32_t elem_bytes) -> std::span<const std::byte> {
    if (index >= table.size()) {
      fail(path, "section index " + std::to_string(index) + " out of range");
    }
    const SectionEntry& e = table[index];
    if (e.id != id) {
      fail(path, "section role mismatch at index " + std::to_string(index) +
                     " (id " + std::to_string(e.id) + ", expected " + std::to_string(id) +
                     ")");
    }
    if (e.elem_bytes != elem_bytes) {
      fail(path, "section element size mismatch (id " + std::to_string(id) + ")");
    }
    if (e.offset % kSectionAlign != 0 || e.offset < h.payload_offset || e.offset > size ||
        e.bytes > size - e.offset || e.bytes % elem_bytes != 0) {
      fail(path, "section out of bounds (id " + std::to_string(id) + ")");
    }
    return {base + e.offset, e.bytes};
  };
  const auto typed = [&]<typename T>(std::span<const std::byte> raw,
                                     std::type_identity<T>) -> std::span<const T> {
    return {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)};
  };

  // The substrate list: synthesized from the header for a v1 file, read
  // from the directory section for v2 (entry 0 must restate the header).
  std::vector<SubstrateEntry> entries;
  if (h.version == 1) {
    SubstrateEntry e;
    std::memset(&e, 0, sizeof e);
    e.kind = h.kind;
    e.bf_estimator = h.bf_estimator;
    e.degree_oriented = (h.flags & kFlagDegreeOriented) != 0 ? 1 : 0;
    e.bf_hashes = h.bf_hashes;
    e.storage_budget = h.storage_budget;
    e.cfg_bf_bits = h.cfg_bf_bits;
    e.budget_reference_bytes = h.budget_reference_bytes;
    e.seed = h.seed;
    e.cfg_minhash_k = h.cfg_minhash_k;
    e.minhash_k = h.minhash_k;
    e.bf_bits = h.bf_bits;
    e.bf_words_per_vertex = h.bf_words_per_vertex;
    e.construction_seconds = h.construction_seconds;
    for (std::uint32_t i = 0; i < kPrimarySectionCount; ++i) e.sec[i] = i;
    entries.push_back(e);
  } else {
    const auto raw =
        section(kPrimarySectionCount, kSecSubstrateDir, sizeof(SubstrateEntry));
    const std::size_t count = raw.size() / sizeof(SubstrateEntry);
    if (count == 0) fail(path, "empty substrate directory");
    entries.resize(count);
    std::memcpy(entries.data(), raw.data(), raw.size());
    bool primary_matches = entries[0].kind == h.kind &&
                           entries[0].bf_estimator == h.bf_estimator &&
                           (entries[0].degree_oriented != 0) ==
                               ((h.flags & kFlagDegreeOriented) != 0);
    for (std::uint32_t i = 0; i < kPrimarySectionCount; ++i) {
      primary_matches = primary_matches && entries[0].sec[i] == i;
    }
    if (!primary_matches) fail(path, "substrate directory disagrees with the header");
  }
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const SubstrateEntry& e = entries[i];
    if (e.kind > static_cast<std::uint8_t>(SketchKind::kKmv)) {
      fail(path, "invalid sketch kind " + std::to_string(e.kind));
    }
    if (e.bf_estimator > static_cast<std::uint8_t>(BfEstimator::kOr)) {
      fail(path, "invalid BF estimator " + std::to_string(e.bf_estimator));
    }
    if (e.degree_oriented > 1) fail(path, "invalid substrate orientation");
    for (std::size_t j = 0; j < i; ++j) {
      if (entries[j].kind == e.kind && entries[j].degree_oriented == e.degree_oriented) {
        fail(path, std::string("duplicate substrate ") +
                       to_string(static_cast<SketchKind>(e.kind)) + "/" +
                       orient_tag(e.degree_oriented != 0));
      }
    }
  }

  // Every substrate of one orientation must reference the SAME CSR
  // sections (one graph per orientation, like the writer emits).
  std::array<std::uint32_t, 2> csr_sec[2];
  bool have_csr[2] = {false, false};
  for (const SubstrateEntry& e : entries) {
    const int o = e.degree_oriented != 0 ? 1 : 0;
    if (!have_csr[o]) {
      csr_sec[o] = {e.sec[0], e.sec[1]};
      have_csr[o] = true;
    } else if (csr_sec[o][0] != e.sec[0] || csr_sec[o][1] != e.sec[1]) {
      fail(path, "substrates of one orientation reference different CSR sections");
    }
  }

  Snapshot snap;
  snap.file_ = file;

  // Graph shape checks — cheap O(n + m) guards so a consistent-but-wrong
  // header cannot send algorithm kernels out of an adjacency section. The
  // primary CSR must additionally match the header's shape fields.
  const auto load_csr = [&](const std::array<std::uint32_t, 2>& idx,
                            bool is_primary) -> std::unique_ptr<const CsrGraph> {
    const auto offsets = typed(section(idx[0], kSecCsrOffsets, sizeof(EdgeId)),
                               std::type_identity<EdgeId>{});
    const auto adjacency = typed(section(idx[1], kSecCsrAdjacency, sizeof(VertexId)),
                                 std::type_identity<VertexId>{});
    if (offsets.size() != static_cast<std::size_t>(h.num_vertices) + 1) {
      fail(path, "offset section does not match the vertex count");
    }
    if (is_primary && adjacency.size() != h.num_directed_edges) {
      fail(path, "adjacency section does not match the edge count");
    }
    if (offsets.front() != 0 || offsets.back() != adjacency.size()) {
      fail(path, "CSR offsets do not span the adjacency section");
    }
    for (std::size_t v = 1; v < offsets.size(); ++v) {
      if (offsets[v - 1] > offsets[v]) fail(path, "CSR offsets not monotone");
    }
    if (!adjacency.empty()) {
      // Branch-free max-reduction in four independent accumulators: a
      // single max chain is serially dependent and this scan covers most
      // of the file a second time, so it must run at memory bandwidth like
      // the checksum.
      VertexId m0 = 0, m1 = 0, m2 = 0, m3 = 0;
      std::size_t i = 0;
      for (; i + 4 <= adjacency.size(); i += 4) {
        m0 = std::max(m0, adjacency[i]);
        m1 = std::max(m1, adjacency[i + 1]);
        m2 = std::max(m2, adjacency[i + 2]);
        m3 = std::max(m3, adjacency[i + 3]);
      }
      for (; i < adjacency.size(); ++i) m0 = std::max(m0, adjacency[i]);
      if (std::max(std::max(m0, m1), std::max(m2, m3)) >= h.num_vertices) {
        fail(path, "adjacency entry out of vertex range");
      }
    }
    return std::make_unique<const CsrGraph>(util::ArenaRef<EdgeId>(offsets, file),
                                            util::ArenaRef<VertexId>(adjacency, file));
  };
  const bool primary_oriented = entries[0].degree_oriented != 0;
  if (have_csr[0]) snap.sym_graph_ = load_csr(csr_sec[0], !primary_oriented);
  if (have_csr[1]) snap.dag_graph_ = load_csr(csr_sec[1], primary_oriented);
  // When both orientations are present, the DAG must have exactly one arc
  // per undirected edge of the symmetric graph (any orientation does).
  if (snap.sym_graph_ && snap.dag_graph_ &&
      snap.sym_graph_->num_directed_edges() != 2 * snap.dag_graph_->num_directed_edges()) {
    fail(path, "symmetric and DAG sections disagree on the edge count");
  }

  for (const SubstrateEntry& e : entries) {
    const bool oriented = e.degree_oriented != 0;
    const CsrGraph* g = oriented ? snap.dag_graph_.get() : snap.sym_graph_.get();
    const auto bf = typed(section(e.sec[2], kSecBfArena, sizeof(std::uint64_t)),
                          std::type_identity<std::uint64_t>{});
    const auto kh = typed(section(e.sec[3], kSecKhArena, sizeof(std::uint64_t)),
                          std::type_identity<std::uint64_t>{});
    const auto oh = typed(section(e.sec[4], kSecOhArena, sizeof(BottomKEntry)),
                          std::type_identity<BottomKEntry>{});
    const auto kmv = typed(section(e.sec[5], kSecKmvArena, sizeof(double)),
                           std::type_identity<double>{});
    const auto sizes = typed(section(e.sec[6], kSecSketchSizes, sizeof(std::uint32_t)),
                             std::type_identity<std::uint32_t>{});
    ProbGraphParts parts;
    parts.config.kind = static_cast<SketchKind>(e.kind);
    parts.config.bf_estimator = static_cast<BfEstimator>(e.bf_estimator);
    parts.config.storage_budget = e.storage_budget;
    parts.config.bf_hashes = e.bf_hashes;
    parts.config.bf_bits = e.cfg_bf_bits;
    parts.config.minhash_k = e.cfg_minhash_k;
    parts.config.budget_reference_bytes = e.budget_reference_bytes;
    parts.config.seed = e.seed;
    parts.bf_bits = e.bf_bits;
    parts.bf_words_per_vertex = e.bf_words_per_vertex;
    parts.minhash_k = e.minhash_k;
    parts.bf_arena = util::ArenaRef<std::uint64_t>(bf, file);
    parts.kh_arena = util::ArenaRef<std::uint64_t>(kh, file);
    parts.oh_arena = util::ArenaRef<BottomKEntry>(oh, file);
    parts.kmv_arena = util::ArenaRef<double>(kmv, file);
    parts.sketch_sizes = util::ArenaRef<std::uint32_t>(sizes, file);
    parts.construction_seconds = e.construction_seconds;
    Snapshot::Substrate sub;
    sub.kind = static_cast<SketchKind>(e.kind);
    sub.degree_oriented = oriented;
    try {
      sub.pg = std::make_unique<const ProbGraph>(ProbGraph::from_parts(*g, std::move(parts)));
    } catch (const std::invalid_argument& ex) {
      fail(path, ex.what());
    }
    snap.subs_.push_back(std::move(sub));
    snap.info_.substrates.push_back({static_cast<SketchKind>(e.kind), oriented,
                                     e.construction_seconds});
  }

  snap.info_.version = h.version;
  snap.info_.degree_oriented = (h.flags & kFlagDegreeOriented) != 0;
  snap.info_.num_vertices = h.num_vertices;
  snap.info_.num_directed_edges = h.num_directed_edges;
  snap.info_.kind = static_cast<SketchKind>(h.kind);
  snap.info_.construction_seconds = h.construction_seconds;
  snap.info_.file_bytes = size;
  return snap;
}

}  // namespace probgraph::io
