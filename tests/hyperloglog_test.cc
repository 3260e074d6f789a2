#include "util/hyperloglog.h"

#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sigsetdb {
namespace {

// The estimate as the sketch computed it before it kept a rank histogram:
// one 2^-register term per register, summed in register order.  Estimate()
// must equal it bit for bit.
double ScanEstimate(const HyperLogLog& hll) {
  const std::vector<uint8_t>& registers = hll.registers();
  const double m = static_cast<double>(registers.size());
  double inverse_sum = 0.0;
  size_t zeros = 0;
  for (uint8_t r : registers) {
    inverse_sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double alpha = 0.7213 / (1.0 + 1.079 / m);
  if (registers.size() == 16) alpha = 0.673;
  if (registers.size() == 32) alpha = 0.697;
  if (registers.size() == 64) alpha = 0.709;
  double raw = alpha * m * m / inverse_sum;
  if (raw <= 2.5 * m && zeros > 0) {
    return m * std::log(m / static_cast<double>(zeros));
  }
  return raw;
}

// Estimate() against the scan oracle (memcmp of the doubles, so -0.0 vs 0.0
// or a last-bit difference fails), and the histogram against a recount of
// the registers.
void ExpectMatchesScan(const HyperLogLog& hll, const std::string& where) {
  SCOPED_TRACE(where);
  const double fast = hll.Estimate();
  const double scan = ScanEstimate(hll);
  EXPECT_EQ(std::memcmp(&fast, &scan, sizeof(double)), 0)
      << "estimate " << fast << " vs scan " << scan;
  const auto& counts = hll.rank_counts();
  EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
            hll.num_registers());
  std::vector<uint32_t> recount(HyperLogLog::kRankSlots, 0);
  for (uint8_t r : hll.registers()) ++recount[r];
  EXPECT_TRUE(std::equal(counts.begin(), counts.end(), recount.begin()));
}

TEST(HyperLogLogTest, EmptyEstimatesZero) {
  HyperLogLog hll(12);
  EXPECT_DOUBLE_EQ(hll.Estimate(), 0.0);
}

TEST(HyperLogLogTest, SmallCardinalitiesExactViaLinearCounting) {
  HyperLogLog hll(12);
  for (uint64_t v = 0; v < 50; ++v) hll.Add(v * 977 + 13);
  EXPECT_NEAR(hll.Estimate(), 50.0, 3.0);
}

TEST(HyperLogLogTest, DuplicatesDoNotInflate) {
  HyperLogLog hll(12);
  for (int round = 0; round < 100; ++round) {
    for (uint64_t v = 0; v < 200; ++v) hll.Add(v);
  }
  EXPECT_NEAR(hll.Estimate(), 200.0, 10.0);
}

// Accuracy sweep: relative error must stay within ~5 sigma of the HLL bound
// 1.04/sqrt(m) across magnitudes.
class HllAccuracyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HllAccuracyTest, RelativeErrorWithinBound) {
  const uint64_t n = GetParam();
  HyperLogLog hll(12);
  Rng rng(n);
  for (uint64_t i = 0; i < n; ++i) hll.Add(rng.Next());
  // rng.Next() collisions are negligible at these sizes.
  double error = std::abs(hll.Estimate() - static_cast<double>(n)) /
                 static_cast<double>(n);
  double bound = 1.04 / std::sqrt(4096.0);  // ≈ 1.6 %
  EXPECT_LT(error, 5 * bound) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Magnitudes, HllAccuracyTest,
                         ::testing::Values(1000, 13000, 100000, 1000000));

TEST(HyperLogLogTest, PaperDomainCardinality) {
  // The paper's V = 13,000 dense domain ids.
  HyperLogLog hll(12);
  for (uint64_t v = 0; v < 13000; ++v) hll.Add(v);
  EXPECT_NEAR(hll.Estimate(), 13000.0, 13000.0 * 0.08);
}

TEST(HyperLogLogTest, MergeEqualsUnion) {
  HyperLogLog a(10), b(10), u(10);
  for (uint64_t v = 0; v < 5000; ++v) {
    a.Add(v);
    u.Add(v);
  }
  for (uint64_t v = 2500; v < 9000; ++v) {
    b.Add(v);
    u.Add(v);
  }
  a.Merge(b);
  EXPECT_DOUBLE_EQ(a.Estimate(), u.Estimate());
}

TEST(HyperLogLogTest, ClearResets) {
  HyperLogLog hll(8);
  for (uint64_t v = 0; v < 1000; ++v) hll.Add(v);
  hll.Clear();
  EXPECT_DOUBLE_EQ(hll.Estimate(), 0.0);
}

TEST(HyperLogLogTest, RegisterRoundTrip) {
  HyperLogLog a(12);
  for (uint64_t v = 0; v < 7777; ++v) a.Add(v * 31 + 1);
  HyperLogLog b(12);
  ASSERT_TRUE(b.LoadRegisters(a.registers().data(), a.registers().size()));
  EXPECT_DOUBLE_EQ(b.Estimate(), a.Estimate());
  // Size mismatch rejected.
  HyperLogLog c(10);
  EXPECT_FALSE(c.LoadRegisters(a.registers().data(), a.registers().size()));
}

TEST(HyperLogLogTest, PrecisionTradesStateForAccuracy) {
  Rng rng(5);
  std::vector<uint64_t> values;
  for (int i = 0; i < 50000; ++i) values.push_back(rng.Next());
  HyperLogLog coarse(6), fine(14);
  for (uint64_t v : values) {
    coarse.Add(v);
    fine.Add(v);
  }
  double coarse_err = std::abs(coarse.Estimate() - 50000.0) / 50000.0;
  double fine_err = std::abs(fine.Estimate() - 50000.0) / 50000.0;
  EXPECT_LT(fine_err, 0.05);
  EXPECT_LT(coarse_err, 0.6);
  EXPECT_EQ(coarse.num_registers(), 64u);
  EXPECT_EQ(fine.num_registers(), 16384u);
}

// Bitwise equality with the full-register scan after random Add streams,
// Merge, LoadRegisters and Clear, at every precision.  Stream lengths grow
// geometrically to 4x the register count, so both the linear-counting and
// the raw regime are checked.  Loaded registers stay within 53 - precision,
// the range where the rank-grouped sum is exact.
class HllEquivalenceTest : public ::testing::TestWithParam<int> {};

TEST_P(HllEquivalenceTest, EstimateEqualsRegisterScanBitwise) {
  const int p = GetParam();
  const size_t m = size_t{1} << p;
  const uint64_t exact_max_rank = static_cast<uint64_t>(53 - p);
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    Rng rng(seed * 1000 + static_cast<uint64_t>(p));
    HyperLogLog hll(p);
    ExpectMatchesScan(hll, "empty");
    size_t added = 0;
    for (size_t chunk = 1; added < 4 * m; chunk *= 2) {
      for (size_t i = 0; i < chunk; ++i) hll.Add(rng.Next());
      added += chunk;
      ExpectMatchesScan(hll, "after " + std::to_string(added) + " adds");
    }
    // Re-adding a value seen before moves nothing.
    HyperLogLog again = hll;
    Rng replay(seed * 1000 + static_cast<uint64_t>(p));
    for (size_t i = 0; i < 64; ++i) again.Add(replay.Next());
    EXPECT_EQ(again.registers(), hll.registers());
    EXPECT_EQ(again.rank_counts(), hll.rank_counts());

    HyperLogLog other(p);
    const size_t other_adds = rng.NextBelow(3 * m) + 1;
    for (size_t i = 0; i < other_adds; ++i) other.Add(rng.Next());
    hll.Merge(other);
    ExpectMatchesScan(hll, "after Merge");

    std::vector<uint8_t> saved(m);
    for (uint8_t& r : saved) {
      r = static_cast<uint8_t>(rng.NextBelow(exact_max_rank + 1));
    }
    HyperLogLog loaded(p);
    ASSERT_TRUE(loaded.LoadRegisters(saved.data(), saved.size()));
    ExpectMatchesScan(loaded, "after LoadRegisters");
    // Adds on top of loaded registers keep the histogram in step.
    for (size_t i = 0; i < m; ++i) loaded.Add(rng.Next());
    ExpectMatchesScan(loaded, "after LoadRegisters + adds");
    // A sparse load: most registers empty, so linear counting applies.
    std::vector<uint8_t> sparse(m, 0);
    for (size_t i = 0; i < m / 8; ++i) {
      sparse[rng.NextBelow(m)] =
          static_cast<uint8_t>(1 + rng.NextBelow(exact_max_rank));
    }
    ASSERT_TRUE(loaded.LoadRegisters(sparse.data(), sparse.size()));
    ExpectMatchesScan(loaded, "after sparse LoadRegisters");

    hll.Clear();
    ExpectMatchesScan(hll, "after Clear");
    EXPECT_EQ(hll.rank_counts()[0], m);
    for (size_t i = 0; i < m / 2; ++i) hll.Add(rng.Next());
    ExpectMatchesScan(hll, "after Clear + adds");
  }
}

INSTANTIATE_TEST_SUITE_P(Precisions, HllEquivalenceTest,
                         ::testing::Range(4, 17));

TEST(HyperLogLogTest, LoadRegistersRejectsUnreachableRanks) {
  HyperLogLog hll(12);
  for (uint64_t v = 0; v < 3000; ++v) hll.Add(v);
  const std::vector<uint8_t> before = hll.registers();
  const double estimate = hll.Estimate();
  // 64 - 12 + 1 = 53 is the largest rank at precision 12.
  std::vector<uint8_t> corrupt(hll.num_registers(), 3);
  corrupt[17] = 54;
  EXPECT_FALSE(hll.LoadRegisters(corrupt.data(), corrupt.size()));
  EXPECT_EQ(hll.registers(), before);
  EXPECT_DOUBLE_EQ(hll.Estimate(), estimate);
  corrupt[17] = 53;
  EXPECT_TRUE(hll.LoadRegisters(corrupt.data(), corrupt.size()));
  EXPECT_EQ(hll.rank_counts()[53], 1u);
  EXPECT_EQ(hll.rank_counts()[3], hll.num_registers() - 1);
}

}  // namespace
}  // namespace sigsetdb
