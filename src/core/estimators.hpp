// Cardinality estimators for |X| and |X ∩ Y| (paper §IV).
//
// All estimators are pure functions of sketch statistics (bit counts,
// matching slots, ...) so that they can be unit-tested against closed
// forms and reused by both the owning sketch classes and the arena-backed
// ProbGraph fast paths.
//
// Implemented estimators and their paper references:
//   bf_size_swamidass      Eq. (1)   — −(B/b)·log(1 − B₁/B)          [59]
//   bf_size_papapetrou     §VIII-A   — −log(1 − B₁/B)/(b·log(1−1/B)) [110]
//   bf_intersection_and    Eq. (2)   — Eq. (1) applied to B_X AND B_Y (new)
//   bf_intersection_limit  Eq. (4)   — B_{X∩Y,1}/b, the B→∞ limit     (new)
//   bf_intersection_or     Eq. (29)  — |X|+|Y| + (B/b)·log(1 − B∪₁/B) [59]
//   mh_intersection        Eq. (5)   — Ĵ/(1+Ĵ)·(|X|+|Y|), Ĵ = matches/k
//   (KMV intersection lives in KmvSketch::estimate_intersection, Eq. (41))
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/bloom_filter.hpp"
#include "core/minhash.hpp"

namespace probgraph::est {

/// Eq. (1), with the divergence fix of Appendix C-3: when every bit is set
/// (B₁ = B) the raw estimator diverges, so B₁ is replaced by B₁ − 1.
[[nodiscard]] double bf_size_swamidass(std::uint64_t ones, std::uint64_t bits,
                                       std::uint32_t b) noexcept;

/// The pre-existing BF cardinality estimator of Papapetrou et al. [110],
/// used as a comparison baseline in §VIII-A.
[[nodiscard]] double bf_size_papapetrou(std::uint64_t ones, std::uint64_t bits,
                                        std::uint32_t b) noexcept;

/// Eq. (2): the AND estimator, i.e. Eq. (1) evaluated on popcount(B_X AND B_Y).
[[nodiscard]] inline double bf_intersection_and(std::uint64_t and_ones, std::uint64_t bits,
                                                std::uint32_t b) noexcept {
  return bf_size_swamidass(and_ones, bits, b);
}

/// bf_intersection_and(k, bits, b) for every popcount k that a row of
/// `words` words can hold (0 … 64·words, which is 0 … B for every filter
/// ProbGraph builds). A sweep that closes millions of AND estimates reads
/// this table instead of calling log1p per estimate; the doubles are the same.
[[nodiscard]] std::vector<double> bf_intersection_and_table(std::size_t words,
                                                            std::uint64_t bits,
                                                            std::uint32_t b);

/// Eq. (4): the limiting estimator |X∩Y|_L = B_{X∩Y,1}/b.
[[nodiscard]] inline double bf_intersection_limit(std::uint64_t and_ones,
                                                  std::uint32_t b) noexcept {
  return static_cast<double>(and_ones) / static_cast<double>(b);
}

/// Eq. (29): the OR estimator, which needs the exact input sizes.
[[nodiscard]] double bf_intersection_or(double size_x, double size_y, std::uint64_t or_ones,
                                        std::uint64_t bits, std::uint32_t b) noexcept;

/// Eq. (5) (k-hash) and §IV-D (1-hash): from a Jaccard estimate Ĵ and exact
/// input sizes, |X∩Y| = Ĵ/(1+Ĵ)·(|X|+|Y|). Note that J/(1+J) = |X∩Y|/(|X|+|Y|).
[[nodiscard]] inline double mh_intersection(double jaccard_hat, double size_x,
                                            double size_y) noexcept {
  return jaccard_hat / (1.0 + jaccard_hat) * (size_x + size_y);
}

/// Convenience overloads over owning sketches (used by tests/examples; the
/// ProbGraph hot paths inline the arithmetic over arena spans).
[[nodiscard]] double intersection(const BloomFilter& x, const BloomFilter& y) noexcept;
[[nodiscard]] double intersection(const KHashSketch& x, const KHashSketch& y, double size_x,
                                  double size_y) noexcept;
[[nodiscard]] double intersection(const OneHashSketch& x, const OneHashSketch& y,
                                  double size_x, double size_y) noexcept;

}  // namespace probgraph::est
