// IoStats snapshot/delta semantics: the tracing layer diffs value snapshots
// of live counters, so operator- must saturate at zero (a delta taken across
// a Reset, or between snapshots racing concurrent increments, must never
// underflow into an astronomically large page count) and deltas taken at
// quiescent points must be exact.

#include "storage/io_stats.h"

#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <thread>
#include <vector>

namespace sigsetdb {
namespace {

TEST(IoStatsTest, DeltaOfIncrements) {
  IoStats live;
  IoStats before = live;  // value snapshot, not a view
  live.AddRead(3);
  live.AddWrite(2);
  IoStats delta = IoStats(live) - before;
  EXPECT_EQ(delta.reads(), 3u);
  EXPECT_EQ(delta.writes(), 2u);
  EXPECT_EQ(delta.total(), 5u);
  // The snapshot did not move with the live counters.
  EXPECT_EQ(before.reads(), 0u);
}

TEST(IoStatsTest, SubtractionSaturatesAtZero) {
  IoStats small{5, 3};
  IoStats big{7, 9};
  IoStats delta = small - big;
  EXPECT_EQ(delta.reads(), 0u);
  EXPECT_EQ(delta.writes(), 0u);
  // Saturation is per counter, not all-or-nothing.
  IoStats mixed = IoStats{10, 2} - IoStats{4, 5};
  EXPECT_EQ(mixed.reads(), 6u);
  EXPECT_EQ(mixed.writes(), 0u);
}

TEST(IoStatsTest, DeltaAcrossResetSaturates) {
  IoStats live;
  live.AddRead(100);
  IoStats before = live;
  live.Reset();
  live.AddRead(4);
  IoStats delta = IoStats(live) - before;
  EXPECT_EQ(delta.reads(), 0u);  // 4 - 100 saturates, not wraps
  EXPECT_EQ(delta.writes(), 0u);
}

// The positional constructor, the named accessors and counts() all follow
// the counter table's order.
TEST(IoStatsTest, PositionalConstructorAndAccessorsFollowTheTable) {
  const IoStats stats{1, 2, 3, 4, 5};
  EXPECT_EQ(stats.reads(), 1u);
  EXPECT_EQ(stats.writes(), 2u);
  EXPECT_EQ(stats.skips(), 3u);
  EXPECT_EQ(stats.cows(), 4u);
  EXPECT_EQ(stats.hots(), 5u);
  EXPECT_EQ(stats.total(), 3u);
  const PageCounts counts = stats.counts();
  for (size_t i = 0; i < std::size(kPageCounters); ++i) {
    EXPECT_EQ(counts.*kPageCounters[i].field, i + 1) << kPageCounters[i].name;
  }
}

// Walks the counter table: copy, assignment, +=, saturating - and Reset
// each carry every counter on its own, and total() counts exactly the rows
// marked in_total.  A counter one of them forgets fails here by name.
TEST(IoStatsTest, EveryCounterCopiesSumsSubtractsAndResets) {
  const auto& live = kPageCountersOf<std::atomic<uint64_t>>;
  for (size_t i = 0; i < std::size(kPageCounters); ++i) {
    SCOPED_TRACE(kPageCounters[i].name);
    // Checks that counter i reads `v` and every other counter reads zero.
    const auto expect_only = [i](const IoStats& stats, uint64_t v) {
      const PageCounts counts = stats.counts();
      for (size_t j = 0; j < std::size(kPageCounters); ++j) {
        EXPECT_EQ(counts.*kPageCounters[j].field, j == i ? v : 0u)
            << kPageCounters[j].name;
      }
    };
    IoStats seven;
    (seven.*live[i].field).store(7);
    expect_only(seven, 7);
    EXPECT_EQ(seven.total(), kPageCounters[i].in_total ? 7u : 0u);

    const IoStats copy(seven);
    expect_only(copy, 7);
    IoStats sum;
    sum = seven;
    expect_only(sum, 7);
    sum += seven;
    expect_only(sum, 14);
    expect_only(sum - seven, 7);
    expect_only(seven - sum, 0);  // saturates, not wraps
    sum.Reset();
    expect_only(sum, 0);
  }
}

// Snapshots racing concurrent increments: every delta must be sane (no
// underflow) and bounded by what was actually added, and the final total
// must be exact.  Run under TSan by tools/run_sanitizers.sh.
TEST(IoStatsTest, SnapshotDeltaUnderConcurrentIncrements) {
  IoStats live;
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 50000;
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&live] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        live.AddRead();
        if (i % 8 == 0) live.AddWrite();
      }
    });
  }
  constexpr uint64_t kMaxReads = kWriters * kPerWriter;
  constexpr uint64_t kMaxWrites = kWriters * ((kPerWriter + 7) / 8);
  uint64_t last_total = 0;
  for (int i = 0; i < 1000; ++i) {
    IoStats before = live;
    IoStats after = live;
    IoStats delta = after - before;
    // Counters are monotonic while writers run, so after >= before and the
    // delta is bounded by everything that could have been added.
    EXPECT_LE(delta.reads(), kMaxReads);
    EXPECT_LE(delta.writes(), kMaxWrites);
    EXPECT_GE(after.total(), last_total);
    last_total = after.total();
  }
  for (auto& writer : writers) writer.join();
  EXPECT_EQ(live.reads(), kMaxReads);
  EXPECT_EQ(live.writes(), kMaxWrites);
}

}  // namespace
}  // namespace sigsetdb
