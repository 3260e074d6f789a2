#include "util/hyperloglog.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>

#include "util/hashing.h"

namespace sigsetdb {

namespace {

// Bias-correction constant alpha_m for m registers.
double Alpha(size_t m) {
  switch (m) {
    case 16:
      return 0.673;
    case 32:
      return 0.697;
    case 64:
      return 0.709;
    default:
      return 0.7213 / (1.0 + 1.079 / static_cast<double>(m));
  }
}

// 2^-r for the highest histogram slot; doubling it walks down the ranks.
constexpr double kTopRankWeight =
    1.0 / static_cast<double>(uint64_t{1} << (HyperLogLog::kRankSlots - 1));

}  // namespace

HyperLogLog::HyperLogLog(int precision) : precision_(precision) {
  assert(precision >= 4 && precision <= 16);
  registers_.assign(size_t{1} << precision_, 0);
  rank_counts_[0] = static_cast<uint32_t>(registers_.size());
}

void HyperLogLog::Add(uint64_t value) {
  uint64_t h = Mix64(value ^ 0x9e3779b97f4a7c15ULL);
  size_t idx = static_cast<size_t>(h >> (64 - precision_));
  uint64_t rest = h << precision_;
  // Rank: position of the leftmost 1 bit in the remaining stream (1-based);
  // an all-zero remainder ranks as its full width + 1.
  uint8_t rank = rest == 0 ? MaxRank()
                           : static_cast<uint8_t>(std::countl_zero(rest) + 1);
  uint8_t& reg = registers_[idx];
  if (rank > reg) {
    --rank_counts_[reg];
    ++rank_counts_[rank];
    reg = rank;
  }
}

double HyperLogLog::Estimate() const {
  const double m = static_cast<double>(registers_.size());
  // Σ_j 2^-register[j], grouped by rank as Σ_r count[r]·2^-r, smallest
  // terms first.  Every term and partial sum is a multiple of 2^-R (R the
  // highest rank present) no larger than m = 2^precision, so while
  // R ≤ 53 − precision each is exact in a double and the result does not
  // depend on summation order: it equals the register-by-register scan bit
  // for bit.  Reaching R = 42 at precision 12 takes ~2^41 distinct values.
  double inverse_sum = 0.0;
  double weight = kTopRankWeight;
  for (size_t r = kRankSlots; r-- > 0;) {
    inverse_sum += static_cast<double>(rank_counts_[r]) * weight;
    weight *= 2.0;
  }
  const size_t zeros = rank_counts_[0];
  double raw = Alpha(registers_.size()) * m * m / inverse_sum;
  // Small-range correction: linear counting while registers remain empty.
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

void HyperLogLog::Merge(const HyperLogLog& other) {
  assert(precision_ == other.precision_);
  for (size_t i = 0; i < registers_.size(); ++i) {
    registers_[i] = std::max(registers_[i], other.registers_[i]);
  }
  RebuildRankCounts();
}

void HyperLogLog::Clear() {
  std::fill(registers_.begin(), registers_.end(), 0);
  RebuildRankCounts();
}

bool HyperLogLog::LoadRegisters(const uint8_t* data, size_t len) {
  if (len != registers_.size()) return false;
  // A value Add can never store would index past the histogram.
  const uint8_t max_rank = MaxRank();
  if (std::any_of(data, data + len,
                  [max_rank](uint8_t r) { return r > max_rank; })) {
    return false;
  }
  registers_.assign(data, data + len);
  RebuildRankCounts();
  return true;
}

void HyperLogLog::RebuildRankCounts() {
  rank_counts_.fill(0);
  for (uint8_t r : registers_) ++rank_counts_[r];
}

}  // namespace sigsetdb
