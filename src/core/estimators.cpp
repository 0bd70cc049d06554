#include "core/estimators.hpp"

#include <algorithm>
#include <cmath>

namespace probgraph::est {

double bf_size_swamidass(std::uint64_t ones, std::uint64_t bits, std::uint32_t b) noexcept {
  if (bits == 0 || b == 0) return 0.0;
  // Divergence fix (Appendix C-3): B̃₁ = B₁ − 1[B₁ = B].
  const std::uint64_t clamped = (ones == bits) ? ones - 1 : ones;
  const double fill = static_cast<double>(clamped) / static_cast<double>(bits);
  return -static_cast<double>(bits) / static_cast<double>(b) * std::log1p(-fill);
}

double bf_size_papapetrou(std::uint64_t ones, std::uint64_t bits, std::uint32_t b) noexcept {
  if (bits == 0 || b == 0) return 0.0;
  const std::uint64_t clamped = (ones == bits) ? ones - 1 : ones;
  const double fill = static_cast<double>(clamped) / static_cast<double>(bits);
  const double denom =
      static_cast<double>(b) * std::log1p(-1.0 / static_cast<double>(bits));
  return std::log1p(-fill) / denom;
}

std::vector<double> bf_intersection_and_table(std::size_t words, std::uint64_t bits,
                                              std::uint32_t b) {
  std::vector<double> table(words * kWordBits + 1);
  for (std::size_t k = 0; k < table.size(); ++k) table[k] = bf_intersection_and(k, bits, b);
  return table;
}

double bf_intersection_or(double size_x, double size_y, std::uint64_t or_ones,
                          std::uint64_t bits, std::uint32_t b) noexcept {
  if (bits == 0 || b == 0) return 0.0;
  const std::uint64_t clamped = (or_ones == bits) ? or_ones - 1 : or_ones;
  const double fill = static_cast<double>(clamped) / static_cast<double>(bits);
  const double est_union =
      -static_cast<double>(bits) / static_cast<double>(b) * std::log1p(-fill);
  return std::max(0.0, size_x + size_y - est_union);
}

double intersection(const BloomFilter& x, const BloomFilter& y) noexcept {
  return bf_intersection_and(x.view().and_ones(y.view()), x.size_bits(), x.num_hashes());
}

double intersection(const KHashSketch& x, const KHashSketch& y, double size_x,
                    double size_y) noexcept {
  return mh_intersection(x.jaccard(y), size_x, size_y);
}

double intersection(const OneHashSketch& x, const OneHashSketch& y, double size_x,
                    double size_y) noexcept {
  return mh_intersection(x.jaccard(y), size_x, size_y);
}

}  // namespace probgraph::est
