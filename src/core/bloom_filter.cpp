#include "core/bloom_filter.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace probgraph {

BloomFilter::BloomFilter(std::uint64_t bits, std::uint32_t num_hashes, std::uint64_t seed)
    : bits_(bits), num_hashes_(num_hashes), family_(seed) {
  if (bits == 0) throw std::invalid_argument("BloomFilter: width must be positive");
  if (num_hashes == 0) throw std::invalid_argument("BloomFilter: need at least one hash");
}

void BloomFilter::insert(std::uint64_t x) noexcept {
  for (std::uint32_t i = 0; i < num_hashes_; ++i) {
    bits_.set(bloom_position(family_, i, x, bits_.size_bits()));
  }
}

void BloomFilter::insert(std::span<const VertexId> xs) noexcept {
  for (const VertexId x : xs) insert(x);
}

BloomProbeTable::BloomProbeTable(VertexId n, std::uint64_t bits, std::uint32_t num_hashes,
                                 util::HashFamily family)
    : num_hashes_(num_hashes) {
  if (bits == 0 || bits > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("BloomProbeTable: width must be in [1, 2^32) bits");
  }
  positions_.resize(std::size_t{n} * num_hashes);
  std::uint32_t* const out = positions_.data();
#pragma omp parallel for schedule(static)
  for (std::int64_t x = 0; x < static_cast<std::int64_t>(n); ++x) {
    for (std::uint32_t i = 0; i < num_hashes; ++i) {
      out[static_cast<std::size_t>(x) * num_hashes + i] = static_cast<std::uint32_t>(
          bloom_position(family, i, static_cast<std::uint64_t>(x), bits));
    }
  }
}

double BloomFilter::false_positive_rate() const noexcept {
  const double fill =
      static_cast<double>(count_ones()) / static_cast<double>(bits_.size_bits());
  return std::pow(fill, static_cast<double>(num_hashes_));
}

}  // namespace probgraph
