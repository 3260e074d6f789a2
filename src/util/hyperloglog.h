// HyperLogLog cardinality sketch.
//
// The cost model needs V, the number of distinct elements in the indexed
// domain (it drives every actual-drop estimate).  Rather than asking the
// user for it, SetIndex/Database feed every inserted element through this
// sketch and hand the advisor a live estimate.  Standard HLL (Flajolet et
// al. 2007) with the usual small-range linear-counting correction;
// 2^precision byte registers give ~1.04/√(2^precision) relative error
// (~1.6 % at the default precision 12 = 4 KiB of state).
//
// The planner reads the estimate on every query, so the sketch also keeps a
// histogram of register values (how many registers hold each rank).  Add
// moves one count when a register rises, and Estimate sums over the ranks
// instead of over the 2^precision registers.

#ifndef SIGSET_UTIL_HYPERLOGLOG_H_
#define SIGSET_UTIL_HYPERLOGLOG_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace sigsetdb {

// Streaming distinct-count estimator over 64-bit values.
class HyperLogLog {
 public:
  // Histogram slots: rank 0 (empty register) up to 64 - 4 + 1, the largest
  // rank a register can hold at the smallest precision.
  static constexpr size_t kRankSlots = 64 - 4 + 2;

  // `precision` in [4, 16]: 2^precision single-byte registers.
  explicit HyperLogLog(int precision = 12);

  // Observes one value (idempotent per distinct value).
  void Add(uint64_t value);

  // Current cardinality estimate, in O(kRankSlots).  Bit-identical to
  // summing 2^-register over every register while all ranks are at most
  // 53 - precision (see hyperloglog.cc).
  double Estimate() const;

  // Merges another sketch of the same precision (union of streams).
  void Merge(const HyperLogLog& other);

  // Resets to the empty state.
  void Clear();

  int precision() const { return precision_; }
  size_t num_registers() const { return registers_.size(); }

  // Raw register access for checkpoint serialization.
  const std::vector<uint8_t>& registers() const { return registers_; }
  // rank_counts()[r] is the number of registers equal to r; the counts sum
  // to num_registers().
  const std::array<uint32_t, kRankSlots>& rank_counts() const {
    return rank_counts_;
  }
  // Restores registers saved earlier.  Returns false, leaving the sketch
  // unchanged, unless `len` equals num_registers() and every value is a rank
  // this precision can produce.
  bool LoadRegisters(const uint8_t* data, size_t len);

 private:
  // The largest rank Add stores: the hash bits left after the index, + 1.
  uint8_t MaxRank() const { return static_cast<uint8_t>(64 - precision_ + 1); }
  void RebuildRankCounts();

  int precision_;
  std::vector<uint8_t> registers_;
  std::array<uint32_t, kRankSlots> rank_counts_{};
};

}  // namespace sigsetdb

#endif  // SIGSET_UTIL_HYPERLOGLOG_H_
