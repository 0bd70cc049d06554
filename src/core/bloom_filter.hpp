// Bloom filters (paper §II-D).
//
// A Bloom filter B_X for a set X is an l-bit vector plus b hash functions
// h_1..h_b; inserting x sets bits B_X[h_i(x)], membership tests check that
// all b bits are set (false positives possible, false negatives not).
//
// Two flavors are provided:
//   * BloomFilter      — an owning filter over its own BitVector (public
//                        API, tests, examples),
//   * BloomFilterView  — a non-owning view into the ProbGraph arena, where
//                        all n per-vertex filters share one allocation and
//                        one width (the load-balancing property of Fig. 1
//                        panel 5),
//   * BloomProbeTable  — the bit positions of every vertex id, computed
//                        once so that a sweep testing millions of
//                        memberships loads them instead of re-hashing.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvector.hpp"
#include "util/hash.hpp"
#include "util/types.hpp"

namespace probgraph {

/// Bit position h_i(x) mod B of element x under hash i in a filter of
/// `bits` bits: the one definition every insert and membership test uses.
[[nodiscard]] inline std::uint64_t bloom_position(const util::HashFamily& family,
                                                  std::uint32_t i, std::uint64_t x,
                                                  std::uint64_t bits) noexcept {
  return family(i, x) % bits;
}

/// Non-owning Bloom filter over a word span inside a sketch arena.
class BloomFilterView {
 public:
  BloomFilterView(std::span<const std::uint64_t> words, std::uint64_t bits,
                  std::uint32_t num_hashes, util::HashFamily family) noexcept
      : words_(words), bits_(bits), num_hashes_(num_hashes), family_(family) {}

  /// Filter width in bits (the paper's B_X).
  [[nodiscard]] std::uint64_t size_bits() const noexcept { return bits_; }
  /// Number of hash functions b.
  [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
  [[nodiscard]] std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Number of set bits B_{X,1}.
  [[nodiscard]] std::uint64_t count_ones() const noexcept { return util::popcount(words_); }

  /// Membership query: true iff all b bit positions for x are set.
  [[nodiscard]] bool contains(std::uint64_t x) const noexcept {
    for (std::uint32_t i = 0; i < num_hashes_; ++i) {
      const std::uint64_t pos = bloom_position(family_, i, x, bits_);
      if (!((words_[pos / kWordBits] >> (pos % kWordBits)) & 1U)) return false;
    }
    return true;
  }

  /// B_{X∩Y,1} approximated as popcount(B_X AND B_Y) — the practical scheme
  /// of §IV-B ("In practice, we use B_{X∩Y} ≈ B_X AND B_Y").
  [[nodiscard]] std::uint64_t and_ones(const BloomFilterView& other) const noexcept {
    return util::and_popcount(words_, other.words_);
  }

  /// popcount(B_X OR B_Y), the B_{X∪Y,1} of the OR estimator.
  [[nodiscard]] std::uint64_t or_ones(const BloomFilterView& other) const noexcept {
    return util::or_popcount(words_, other.words_);
  }

 private:
  std::span<const std::uint64_t> words_;
  std::uint64_t bits_;
  std::uint32_t num_hashes_;
  util::HashFamily family_;
};

/// The b bit positions of every element x < n for one filter width and hash
/// family, stored as 32-bit words (x * b + i holds bloom_position(family, i,
/// x, bits)). A clique sweep builds one when it starts and tests every
/// membership against it: b loads and bit tests, no hashing, no division.
class BloomProbeTable {
 public:
  /// Computes the n * num_hashes positions in parallel. Throws
  /// std::invalid_argument, before allocating, unless 0 < bits < 2^32.
  BloomProbeTable(VertexId n, std::uint64_t bits, std::uint32_t num_hashes,
                  util::HashFamily family);

  /// Same answer as BloomFilterView::contains(x) for a filter `words` of this
  /// width and family; all b bits are tested, so the caller can append on
  /// the result without a branch.
  [[nodiscard]] bool contains(std::span<const std::uint64_t> words,
                              VertexId x) const noexcept {
    const std::uint32_t* pos = positions_.data() + std::size_t{x} * num_hashes_;
    std::uint64_t all = 1;
    for (std::uint32_t i = 0; i < num_hashes_; ++i) {
      all &= words[pos[i] / kWordBits] >> (pos[i] % kWordBits);
    }
    return (all & 1U) != 0;
  }

 private:
  std::vector<std::uint32_t> positions_;
  std::uint32_t num_hashes_;
};

/// Owning Bloom filter.
class BloomFilter {
 public:
  BloomFilter() = default;

  /// An all-zero filter of `bits` bits with `num_hashes` hash functions
  /// drawn from the family seeded by `seed`.
  BloomFilter(std::uint64_t bits, std::uint32_t num_hashes, std::uint64_t seed = 0);

  /// Insert one element.
  void insert(std::uint64_t x) noexcept;

  /// Insert a batch of elements (e.g. a vertex neighborhood).
  void insert(std::span<const VertexId> xs) noexcept;

  [[nodiscard]] bool contains(std::uint64_t x) const noexcept { return view().contains(x); }

  [[nodiscard]] std::uint64_t size_bits() const noexcept { return bits_.size_bits(); }
  [[nodiscard]] std::uint32_t num_hashes() const noexcept { return num_hashes_; }
  [[nodiscard]] std::uint64_t count_ones() const noexcept { return bits_.count_ones(); }

  /// Empirical false-positive probability for the current fill:
  /// p_f = (B_{X,1} / B_X)^b.
  [[nodiscard]] double false_positive_rate() const noexcept;

  [[nodiscard]] BloomFilterView view() const noexcept {
    return {bits_.words(), bits_.size_bits(), num_hashes_, family_};
  }

  [[nodiscard]] const util::BitVector& bits() const noexcept { return bits_; }

 private:
  util::BitVector bits_;
  std::uint32_t num_hashes_ = 1;
  util::HashFamily family_;
};

}  // namespace probgraph
