#include "core/prob_graph.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/backends.hpp"
#include "core/estimators.hpp"
#include "core/kmv.hpp"
#include "util/ascii.hpp"
#include "util/bitvector.hpp"
#include "util/timer.hpp"

namespace probgraph {

const char* to_string(SketchKind kind) noexcept {
  switch (kind) {
    case SketchKind::kBloomFilter: return "BF";
    case SketchKind::kKHash: return "kH";
    case SketchKind::kOneHash: return "1H";
    case SketchKind::kKmv: return "KMV";
  }
  return "invalid(SketchKind)";
}

const char* to_string(BfEstimator e) noexcept {
  switch (e) {
    case BfEstimator::kAnd: return "AND";
    case BfEstimator::kLimit: return "L";
    case BfEstimator::kOr: return "OR";
  }
  return "invalid(BfEstimator)";
}

using util::iequals;

std::optional<SketchKind> parse_sketch_kind(std::string_view s) noexcept {
  for (const SketchKind kind : {SketchKind::kBloomFilter, SketchKind::kKHash,
                                SketchKind::kOneHash, SketchKind::kKmv}) {
    if (iequals(s, to_string(kind))) return kind;
  }
  // Long-form aliases; the short CLI spellings ("bf", "kh", "1h", "kmv")
  // already match the to_string loop above case-insensitively.
  if (iequals(s, "bloom")) return SketchKind::kBloomFilter;
  if (iequals(s, "khash") || iequals(s, "k-hash")) return SketchKind::kKHash;
  if (iequals(s, "onehash") || iequals(s, "1-hash")) return SketchKind::kOneHash;
  return std::nullopt;
}

std::optional<BfEstimator> parse_bf_estimator(std::string_view s) noexcept {
  for (const BfEstimator e : {BfEstimator::kAnd, BfEstimator::kLimit, BfEstimator::kOr}) {
    if (iequals(s, to_string(e))) return e;
  }
  if (iequals(s, "limit")) return BfEstimator::kLimit;
  return std::nullopt;
}

ProbGraph::ProbGraph(const CsrGraph& g, ProbGraphConfig config)
    : graph_(&g), config_(config), family_(config.seed) {
  if (config_.storage_budget <= 0.0 && config_.bf_bits == 0 && config_.minhash_k == 0) {
    throw std::invalid_argument("ProbGraph: storage budget must be positive");
  }
  const VertexId n = g.num_vertices();
  if (n == 0) throw std::invalid_argument("ProbGraph: empty graph");

  const double base_bytes = config_.budget_reference_bytes != 0
                                ? static_cast<double>(config_.budget_reference_bytes)
                                : static_cast<double>(g.memory_bytes());
  const double budget_bytes = config_.storage_budget * base_bytes;

  util::Timer timer;
  switch (config_.kind) {
    case SketchKind::kBloomFilter: {
      if (config_.bf_hashes == 0) {
        throw std::invalid_argument("ProbGraph: bf_hashes must be positive");
      }
      std::uint64_t bits = config_.bf_bits;
      if (bits == 0) {
        bits = static_cast<std::uint64_t>(budget_bytes * 8.0 / static_cast<double>(n));
      }
      // Uniform width, multiple of the word size, at least one word.
      bf_bits_ = std::max<std::uint64_t>(kWordBits, bits / kWordBits * kWordBits);
      bf_words_per_vertex_ = util::words_for_bits(bf_bits_);
      build_bloom();
      break;
    }
    case SketchKind::kKHash: {
      k_ = config_.minhash_k != 0
               ? config_.minhash_k
               : std::max<std::uint32_t>(
                     1, static_cast<std::uint32_t>(
                            budget_bytes / (static_cast<double>(n) * sizeof(std::uint64_t))));
      build_khash();
      break;
    }
    case SketchKind::kOneHash: {
      k_ = config_.minhash_k != 0
               ? config_.minhash_k
               : std::max<std::uint32_t>(
                     1, static_cast<std::uint32_t>(
                            budget_bytes / (static_cast<double>(n) * sizeof(BottomKEntry))));
      build_onehash();
      break;
    }
    case SketchKind::kKmv: {
      k_ = config_.minhash_k != 0
               ? config_.minhash_k
               : std::max<std::uint32_t>(
                     2, static_cast<std::uint32_t>(
                            budget_bytes / (static_cast<double>(n) * sizeof(double))));
      k_ = std::max<std::uint32_t>(2, k_);
      build_kmv();
      break;
    }
  }
  construction_seconds_ = timer.seconds();
}

ProbGraph ProbGraph::from_parts(const CsrGraph& g, ProbGraphParts parts) {
  ProbGraph pg;
  pg.graph_ = &g;
  pg.config_ = parts.config;
  pg.family_ = util::HashFamily(parts.config.seed);
  pg.bf_bits_ = parts.bf_bits;
  pg.bf_words_per_vertex_ = parts.bf_words_per_vertex;
  pg.k_ = parts.minhash_k;
  pg.bf_arena_ = std::move(parts.bf_arena);
  pg.kh_arena_ = std::move(parts.kh_arena);
  pg.oh_arena_ = std::move(parts.oh_arena);
  pg.kmv_arena_ = std::move(parts.kmv_arena);
  pg.sketch_sizes_ = std::move(parts.sketch_sizes);
  pg.construction_seconds_ = parts.construction_seconds;
  const auto n = static_cast<std::size_t>(g.num_vertices());
  if (n == 0) throw std::invalid_argument("ProbGraph: empty graph");
  const auto expect = [](std::size_t got, std::size_t want, const char* what) {
    if (got != want) {
      throw std::invalid_argument(std::string("ProbGraph: ") + what +
                                  " arena size mismatch: got " + std::to_string(got) +
                                  ", expected " + std::to_string(want));
    }
  };
  // Per-vertex fills index the arenas as `v * k + sizes[v]`; a fill beyond
  // k would send the span accessors past the arena (or the mapping behind
  // it), so reject it here rather than trusting the producer.
  const auto check_fills = [&] {
    for (std::size_t v = 0; v < n; ++v) {
      if (pg.sketch_sizes_[v] > pg.k_) {
        throw std::invalid_argument("ProbGraph: sketch size exceeds k at vertex " +
                                    std::to_string(v));
      }
    }
  };
  switch (pg.config_.kind) {
    case SketchKind::kBloomFilter:
      if (pg.bf_bits_ == 0 || pg.config_.bf_hashes == 0 ||
          pg.bf_words_per_vertex_ != util::words_for_bits(pg.bf_bits_)) {
        throw std::invalid_argument("ProbGraph: invalid Bloom-filter parameters");
      }
      expect(pg.bf_arena_.size(), n * pg.bf_words_per_vertex_, "Bloom-filter");
      break;
    case SketchKind::kKHash:
      if (pg.k_ == 0) throw std::invalid_argument("ProbGraph: invalid k-hash k");
      expect(pg.kh_arena_.size(), n * pg.k_, "k-hash");
      break;
    case SketchKind::kOneHash:
      if (pg.k_ == 0) throw std::invalid_argument("ProbGraph: invalid 1-hash k");
      expect(pg.oh_arena_.size(), n * pg.k_, "1-hash");
      expect(pg.sketch_sizes_.size(), n, "sketch-size");
      check_fills();
      break;
    case SketchKind::kKmv:
      if (pg.k_ < 2) throw std::invalid_argument("ProbGraph: invalid KMV k");
      expect(pg.kmv_arena_.size(), n * pg.k_, "KMV");
      expect(pg.sketch_sizes_.size(), n, "sketch-size");
      check_fills();
      break;
  }
  return pg;
}

void ProbGraph::build_bloom() {
  const CsrGraph& g = *graph_;
  const VertexId n = g.num_vertices();
  bf_arena_.assign(static_cast<std::size_t>(n) * bf_words_per_vertex_, 0);
  const std::uint32_t b = config_.bf_hashes;
  std::uint64_t* const arena = bf_arena_.mutable_data();
#pragma omp parallel for schedule(dynamic, 128)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    std::uint64_t* words = arena + static_cast<std::size_t>(v) * bf_words_per_vertex_;
    for (const VertexId x : g.neighbors(static_cast<VertexId>(v))) {
      for (std::uint32_t i = 0; i < b; ++i) {
        const std::uint64_t pos = bloom_position(family_, i, x, bf_bits_);
        words[pos / kWordBits] |= (std::uint64_t{1} << (pos % kWordBits));
      }
    }
  }
}

void ProbGraph::build_khash() {
  const CsrGraph& g = *graph_;
  const VertexId n = g.num_vertices();
  kh_arena_.assign(static_cast<std::size_t>(n) * k_, kEmptySlot);
  std::uint64_t* const arena = kh_arena_.mutable_data();
#pragma omp parallel
  {
    std::vector<std::uint64_t> best(k_);
#pragma omp for schedule(dynamic, 128)
    for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
      std::uint64_t* slots = arena + static_cast<std::size_t>(v) * k_;
      std::fill(best.begin(), best.end(), ~std::uint64_t{0});
      for (const VertexId x : g.neighbors(static_cast<VertexId>(v))) {
        for (std::uint32_t i = 0; i < k_; ++i) {
          const std::uint64_t h = family_(i, x);
          if (h < best[i]) {
            best[i] = h;
            slots[i] = x;
          }
        }
      }
    }
  }
}

void ProbGraph::build_onehash() {
  const CsrGraph& g = *graph_;
  const VertexId n = g.num_vertices();
  oh_arena_.assign(static_cast<std::size_t>(n) * k_, BottomKEntry{~std::uint64_t{0}, 0});
  sketch_sizes_.assign(n, 0);
  BottomKEntry* const arena = oh_arena_.mutable_data();
  std::uint32_t* const sizes = sketch_sizes_.mutable_data();
#pragma omp parallel for schedule(dynamic, 128)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    BottomKEntry* entries = arena + static_cast<std::size_t>(v) * k_;
    const auto nv = g.neighbors(static_cast<VertexId>(v));
    std::uint32_t fill = 0;
    auto heap_cmp = [](const BottomKEntry& a, const BottomKEntry& b) { return a < b; };
    for (const VertexId x : nv) {
      const BottomKEntry e{family_(0, x), x};
      if (fill < k_) {
        entries[fill++] = e;
        std::push_heap(entries, entries + fill, heap_cmp);
      } else if (e < entries[0]) {
        std::pop_heap(entries, entries + fill, heap_cmp);
        entries[fill - 1] = e;
        std::push_heap(entries, entries + fill, heap_cmp);
      }
    }
    std::sort(entries, entries + fill);
    sizes[v] = fill;
  }
}

void ProbGraph::build_kmv() {
  const CsrGraph& g = *graph_;
  const VertexId n = g.num_vertices();
  kmv_arena_.assign(static_cast<std::size_t>(n) * k_, 2.0);
  sketch_sizes_.assign(n, 0);
  double* const arena = kmv_arena_.mutable_data();
  std::uint32_t* const sizes = sketch_sizes_.mutable_data();
#pragma omp parallel for schedule(dynamic, 128)
  for (std::int64_t v = 0; v < static_cast<std::int64_t>(n); ++v) {
    double* values = arena + static_cast<std::size_t>(v) * k_;
    std::uint32_t fill = 0;
    for (const VertexId x : g.neighbors(static_cast<VertexId>(v))) {
      const double h = util::hash_to_unit(family_(0, x));
      if (fill < k_) {
        values[fill++] = h;
        std::push_heap(values, values + fill);
      } else if (h < values[0]) {
        std::pop_heap(values, values + fill);
        values[fill - 1] = h;
        std::push_heap(values, values + fill);
      }
    }
    std::sort(values, values + fill);
    sizes[v] = fill;
  }
}

// The est_* public API is a thin per-call wrapper over the static-dispatch
// visitor. Each call pays the kind/estimator switch once; hot loops should
// instead visit once and reuse the concrete backend (core/backends.hpp).

double ProbGraph::est_intersection(VertexId u, VertexId v) const noexcept {
  return visit_backend([&](const auto& be) { return be.est_intersection(u, v); });
}

double ProbGraph::est_jaccard(VertexId u, VertexId v) const noexcept {
  // MinHash backends estimate J directly; BF/KMV go through the clamped
  // |X∩Y| and the identity J = |X∩Y| / (|X| + |Y| − |X∩Y|) of Listing 6.
  return visit_backend([&](const auto& be) { return be.est_jaccard(u, v); });
}

double ProbGraph::est_overlap(VertexId u, VertexId v) const noexcept {
  return visit_backend([&](const auto& be) { return be.est_overlap(u, v); });
}

double ProbGraph::est_total_neighbors(VertexId u, VertexId v) const noexcept {
  return visit_backend([&](const auto& be) { return be.est_total_neighbors(u, v); });
}

std::size_t ProbGraph::memory_bytes() const noexcept {
  return bf_arena_.size() * sizeof(std::uint64_t) + kh_arena_.size() * sizeof(std::uint64_t) +
         oh_arena_.size() * sizeof(BottomKEntry) + kmv_arena_.size() * sizeof(double) +
         sketch_sizes_.size() * sizeof(std::uint32_t);
}

double ProbGraph::relative_memory() const noexcept {
  const double base = config_.budget_reference_bytes != 0
                          ? static_cast<double>(config_.budget_reference_bytes)
                          : static_cast<double>(graph_->memory_bytes());
  return static_cast<double>(memory_bytes()) / base;
}

}  // namespace probgraph
