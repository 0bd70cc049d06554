#include "core/incremental.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/bloom_filter.hpp"
#include "util/arena_ref.hpp"
#include "util/bitvector.hpp"

namespace probgraph {

DerivedSketchParams derive_sketch_params(const ProbGraphConfig& config, VertexId n,
                                         std::size_t graph_memory_bytes) {
  if (config.storage_budget <= 0.0 && config.bf_bits == 0 && config.minhash_k == 0) {
    throw std::invalid_argument("derive_sketch_params: storage budget must be positive");
  }
  if (n == 0) throw std::invalid_argument("derive_sketch_params: empty graph");

  // Same double math as the ProbGraph constructor, term for term.
  const double base_bytes = config.budget_reference_bytes != 0
                                ? static_cast<double>(config.budget_reference_bytes)
                                : static_cast<double>(graph_memory_bytes);
  const double budget_bytes = config.storage_budget * base_bytes;

  DerivedSketchParams p;
  switch (config.kind) {
    case SketchKind::kBloomFilter: {
      if (config.bf_hashes == 0) {
        throw std::invalid_argument("derive_sketch_params: bf_hashes must be positive");
      }
      std::uint64_t bits = config.bf_bits;
      if (bits == 0) {
        bits = static_cast<std::uint64_t>(budget_bytes * 8.0 / static_cast<double>(n));
      }
      p.bf_bits = std::max<std::uint64_t>(kWordBits, bits / kWordBits * kWordBits);
      p.bf_words_per_vertex = util::words_for_bits(p.bf_bits);
      break;
    }
    case SketchKind::kKHash:
      p.k = config.minhash_k != 0
                ? config.minhash_k
                : std::max<std::uint32_t>(
                      1, static_cast<std::uint32_t>(
                             budget_bytes / (static_cast<double>(n) * sizeof(std::uint64_t))));
      break;
    case SketchKind::kOneHash:
      p.k = config.minhash_k != 0
                ? config.minhash_k
                : std::max<std::uint32_t>(
                      1, static_cast<std::uint32_t>(
                             budget_bytes / (static_cast<double>(n) * sizeof(BottomKEntry))));
      break;
    case SketchKind::kKmv:
      p.k = config.minhash_k != 0
                ? config.minhash_k
                : std::max<std::uint32_t>(
                      2, static_cast<std::uint32_t>(
                             budget_bytes / (static_cast<double>(n) * sizeof(double))));
      p.k = std::max<std::uint32_t>(2, p.k);
      break;
  }
  return p;
}

DerivedSketchParams sketch_params_of(const ProbGraph& pg) noexcept {
  DerivedSketchParams p;
  p.bf_bits = pg.bf_bits();
  p.bf_words_per_vertex = util::words_for_bits(pg.bf_bits());
  if (pg.kind() != SketchKind::kBloomFilter) p.bf_words_per_vertex = 0;
  p.k = pg.minhash_k();
  return p;
}

SketchUpdater::SketchUpdater(const ProbGraph& base, VertexId new_n)
    : kind_(base.kind()),
      family_(base.config().seed),
      bf_hashes_(base.config().bf_hashes),
      params_(sketch_params_of(base)),
      n_(new_n) {
  const auto old_n = static_cast<std::size_t>(base.graph().num_vertices());
  const auto n = static_cast<std::size_t>(new_n);
  if (n < old_n) {
    throw std::invalid_argument("SketchUpdater: vertex count cannot shrink");
  }
  // Copy the base arenas (possibly mmap-backed) into owned storage, with
  // the tail for new vertices initialized to the empty-sketch state the
  // cold build paths start from.
  switch (kind_) {
    case SketchKind::kBloomFilter: {
      const auto old = base.bf_arena();
      bf_.assign(n * params_.bf_words_per_vertex, 0);
      std::copy(old.begin(), old.end(), bf_.begin());
      break;
    }
    case SketchKind::kKHash: {
      const auto old = base.kh_arena();
      kh_.assign(n * params_.k, kEmptySlot);
      std::copy(old.begin(), old.end(), kh_.begin());
      break;
    }
    case SketchKind::kOneHash: {
      const auto old = base.oh_arena();
      oh_.assign(n * params_.k, BottomKEntry{~std::uint64_t{0}, 0});
      std::copy(old.begin(), old.end(), oh_.begin());
      sizes_.assign(n, 0);
      const auto old_sizes = base.sketch_sizes();
      std::copy(old_sizes.begin(), old_sizes.end(), sizes_.begin());
      break;
    }
    case SketchKind::kKmv: {
      const auto old = base.kmv_arena();
      kmv_.assign(n * params_.k, 2.0);
      std::copy(old.begin(), old.end(), kmv_.begin());
      sizes_.assign(n, 0);
      const auto old_sizes = base.sketch_sizes();
      std::copy(old_sizes.begin(), old_sizes.end(), sizes_.begin());
      break;
    }
  }
}

void SketchUpdater::reset_vertex(VertexId v) {
  assert(v < n_);
  switch (kind_) {
    case SketchKind::kBloomFilter:
      std::fill_n(bf_.begin() + static_cast<std::size_t>(v) * params_.bf_words_per_vertex,
                  params_.bf_words_per_vertex, std::uint64_t{0});
      break;
    case SketchKind::kKHash:
      std::fill_n(kh_.begin() + static_cast<std::size_t>(v) * params_.k, params_.k, kEmptySlot);
      break;
    case SketchKind::kOneHash:
      std::fill_n(oh_.begin() + static_cast<std::size_t>(v) * params_.k, params_.k,
                  BottomKEntry{~std::uint64_t{0}, 0});
      sizes_[v] = 0;
      break;
    case SketchKind::kKmv:
      std::fill_n(kmv_.begin() + static_cast<std::size_t>(v) * params_.k, params_.k, 2.0);
      sizes_[v] = 0;
      break;
  }
}

void SketchUpdater::apply_insert(VertexId v, VertexId x) {
  assert(v < n_);
  switch (kind_) {
    case SketchKind::kBloomFilter: {
      std::uint64_t* words =
          bf_.data() + static_cast<std::size_t>(v) * params_.bf_words_per_vertex;
      for (std::uint32_t i = 0; i < bf_hashes_; ++i) {
        const std::uint64_t pos = bloom_position(family_, i, x, params_.bf_bits);
        words[pos / kWordBits] |= (std::uint64_t{1} << (pos % kWordBits));
      }
      break;
    }
    case SketchKind::kKHash: {
      // Slot i holds the argmin vertex; the incumbent's hash is recomputed
      // on demand (kEmptySlot never collides with a 32-bit vertex id).
      // Strict < replicates the cold build: an incoming h == ~0 never
      // claims an empty slot there either.
      std::uint64_t* slots = kh_.data() + static_cast<std::size_t>(v) * params_.k;
      for (std::uint32_t i = 0; i < params_.k; ++i) {
        const std::uint64_t h = family_(i, x);
        const std::uint64_t best = slots[i] == kEmptySlot ? ~std::uint64_t{0}
                                                          : family_(i, slots[i]);
        if (h < best) slots[i] = x;
      }
      break;
    }
    case SketchKind::kOneHash: {
      // Maintain the sorted bottom-k directly (the cold build heaps then
      // sorts; the unique set of k smallest entries is order-independent,
      // so sorted insertion lands on the identical arena).
      BottomKEntry* entries = oh_.data() + static_cast<std::size_t>(v) * params_.k;
      const std::uint32_t fill = sizes_[v];
      const BottomKEntry e{family_(0, x), x};
      if (fill < params_.k) {
        BottomKEntry* pos = std::upper_bound(entries, entries + fill, e);
        std::move_backward(pos, entries + fill, entries + fill + 1);
        *pos = e;
        sizes_[v] = fill + 1;
      } else if (e < entries[fill - 1]) {
        BottomKEntry* pos = std::upper_bound(entries, entries + fill - 1, e);
        std::move_backward(pos, entries + fill - 1, entries + fill);
        *pos = e;
      }
      break;
    }
    case SketchKind::kKmv: {
      double* values = kmv_.data() + static_cast<std::size_t>(v) * params_.k;
      const std::uint32_t fill = sizes_[v];
      const double h = util::hash_to_unit(family_(0, x));
      if (fill < params_.k) {
        double* pos = std::upper_bound(values, values + fill, h);
        std::move_backward(pos, values + fill, values + fill + 1);
        *pos = h;
        sizes_[v] = fill + 1;
      } else if (h < values[fill - 1]) {
        // Strict <, like the cold build's heap-max test: at a tie the
        // incumbent stays (equal doubles are interchangeable anyway).
        double* pos = std::upper_bound(values, values + fill - 1, h);
        std::move_backward(pos, values + fill - 1, values + fill);
        *pos = h;
      }
      break;
    }
  }
}

void SketchUpdater::rebuild_vertex(VertexId v, std::span<const VertexId> neighbors) {
  reset_vertex(v);
  for (const VertexId x : neighbors) apply_insert(v, x);
}

ProbGraph SketchUpdater::seal(const CsrGraph& g, ProbGraphConfig config,
                              double construction_seconds) && {
  ProbGraphParts parts;
  parts.config = config;
  parts.construction_seconds = construction_seconds;
  switch (kind_) {
    case SketchKind::kBloomFilter:
      parts.bf_bits = params_.bf_bits;
      parts.bf_words_per_vertex = params_.bf_words_per_vertex;
      parts.bf_arena = util::ArenaRef<std::uint64_t>(std::move(bf_));
      break;
    case SketchKind::kKHash:
      parts.minhash_k = params_.k;
      parts.kh_arena = util::ArenaRef<std::uint64_t>(std::move(kh_));
      break;
    case SketchKind::kOneHash:
      parts.minhash_k = params_.k;
      parts.oh_arena = util::ArenaRef<BottomKEntry>(std::move(oh_));
      parts.sketch_sizes = util::ArenaRef<std::uint32_t>(std::move(sizes_));
      break;
    case SketchKind::kKmv:
      parts.minhash_k = params_.k;
      parts.kmv_arena = util::ArenaRef<double>(std::move(kmv_));
      parts.sketch_sizes = util::ArenaRef<std::uint32_t>(std::move(sizes_));
      break;
  }
  return ProbGraph::from_parts(g, std::move(parts));
}

}  // namespace probgraph
