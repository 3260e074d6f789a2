// Page-access accounting: the instrument behind every reproduced experiment.
//
// The paper measures all costs in *page accesses*.  Each PageFile owns an
// IoStats, incremented on every logical read/write.  Benchmarks snapshot the
// counters around a query and compare the delta with the analytical model.
//
// The page counters are declared once, in PageCounterFields and the
// kPageCounters table below.  Everything that copies, sums, charges or
// prints them iterates that table: IoStats' copy, Reset, - and +=; the
// trace spans (obs/trace.h), their JSON, EXPLAIN and the trace-event args;
// and the io.<file>.* storage metrics.  A new counter is a field and a row
// here plus its increment site.
//
// Counters are atomic so that concurrent readers (parallel slice scans,
// sharded buffer-pool lookups) never lose an increment; relaxed ordering
// suffices because only the totals matter, never cross-counter ordering.
// The hot parallel paths avoid even this contention by counting into a
// worker-local IoStats and merging via operator+= on join — see
// PageFile::Read(id, out, io).

#ifndef SIGSET_STORAGE_IO_STATS_H_
#define SIGSET_STORAGE_IO_STATS_H_

#include <atomic>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>

namespace sigsetdb {

// The page counters of one file or one traced stage: `T` is uint64_t for a
// value (PageCounts) and an atomic for the live counters (IoStats).  Reads
// and writes are the paper's page accesses.  The other three are NOT part of
// total(): pages_skipped counts page reads the slice-page skip index proved
// unnecessary (an access that never happened), pages_cow counts
// copy-on-write page duplications made by the snapshot layer (in-memory
// copies, not page I/O), and pages_hot counts slice-page reads served from
// the pinned hot tier's cache-resident copies (served from memory, never
// reaching the buffer pool) — tracked separately so measured-vs-model
// comparisons stay honest about where accesses went.
template <typename T>
struct PageCounterFields {
  T page_reads{};
  T page_writes{};
  T pages_skipped{};
  T pages_cow{};
  T pages_hot{};
};

// One row per field above, in field order (the order of IoStats'
// positional constructor and of every rendering).
template <typename T>
struct PageCounter {
  T PageCounterFields<T>::*field;
  const char* name;        // "pages_skipped": trace JSON and trace-event key
  const char* short_name;  // "skipped": EXPLAIN column and metric suffix
  bool in_total;           // counts toward total(), the paper's metric
};

template <typename T>
inline constexpr PageCounter<T> kPageCountersOf[] = {
    {&PageCounterFields<T>::page_reads, "page_reads", "reads", true},
    {&PageCounterFields<T>::page_writes, "page_writes", "writes", true},
    {&PageCounterFields<T>::pages_skipped, "pages_skipped", "skipped", false},
    {&PageCounterFields<T>::pages_cow, "pages_cow", "cow", false},
    {&PageCounterFields<T>::pages_hot, "pages_hot", "hot", false},
};

// The table over plain values: what the exporters iterate.
inline constexpr const auto& kPageCounters = kPageCountersOf<uint64_t>;

// Calls fn(i) for each row i of the table, i a std::integral_constant.
// IoStats' copies, deltas and sums run on every query and iterate with this
// rather than a loop: unrolled, each row's member pointer is a constant,
// where a loop leaves the compiler loading it from the table at run time.
template <typename Fn>
constexpr void ForEachPageCounter(Fn fn) {
  [&]<size_t... I>(std::index_sequence<I...>) {
    (fn(std::integral_constant<size_t, I>{}), ...);
  }(std::make_index_sequence<std::size(kPageCounters)>{});
}

// A value snapshot of the page counters (TraceSpan derives from it).
struct PageCounts : PageCounterFields<uint64_t> {
  // Sum of the counters in total(): the paper's page accesses.
  uint64_t pages() const {
    uint64_t sum = 0;
    ForEachPageCounter([&](auto i) {
      if (kPageCounters[i].in_total) sum += this->*kPageCounters[i].field;
    });
    return sum;
  }

  PageCounts& operator+=(const PageCounts& other) {
    ForEachPageCounter([&](auto i) {
      constexpr auto f = kPageCounters[i].field;
      this->*f += other.*f;
    });
    return *this;
  }
};

// The live counters of one file.  Copyable (snapshots load the counters);
// copies are value snapshots, not live views.
struct IoStats : PageCounterFields<std::atomic<uint64_t>> {
  IoStats() = default;
  // Positional, in table order.
  IoStats(uint64_t reads, uint64_t writes, uint64_t skips = 0,
          uint64_t cows = 0, uint64_t hots = 0) {
    Store(PageCounts{{reads, writes, skips, cows, hots}});
  }
  explicit IoStats(const PageCounts& values) { Store(values); }
  IoStats(const IoStats& other) : Fields() { Store(other.counts()); }
  IoStats& operator=(const IoStats& other) {
    Store(other.counts());
    return *this;
  }

  void AddRead(uint64_t n = 1) { Add(&Fields::page_reads, n); }
  void AddWrite(uint64_t n = 1) { Add(&Fields::page_writes, n); }
  void AddSkip(uint64_t n = 1) { Add(&Fields::pages_skipped, n); }
  void AddCow(uint64_t n = 1) { Add(&Fields::pages_cow, n); }
  void AddHot(uint64_t n = 1) { Add(&Fields::pages_hot, n); }

  uint64_t reads() const { return Load(&Fields::page_reads); }
  uint64_t writes() const { return Load(&Fields::page_writes); }
  uint64_t skips() const { return Load(&Fields::pages_skipped); }
  uint64_t cows() const { return Load(&Fields::pages_cow); }
  uint64_t hots() const { return Load(&Fields::pages_hot); }
  uint64_t total() const { return counts().pages(); }

  // Loads every counter into a value snapshot.
  PageCounts counts() const {
    PageCounts out;
    ForEachPageCounter([&](auto i) {
      out.*kPageCounters[i].field = Load(kLive[i].field);
    });
    return out;
  }

  void Reset() { Store(PageCounts{}); }

  // Snapshot delta.  Saturates at zero: a delta taken across a Reset(), or
  // between snapshots captured while concurrent increments were in flight,
  // must never underflow into an astronomically large page count.
  IoStats operator-(const IoStats& other) const {
    const PageCounts a = counts();
    const PageCounts b = other.counts();
    IoStats out;
    ForEachPageCounter([&](auto i) {
      constexpr auto f = kPageCounters[i].field;
      (out.*kLive[i].field)
          .store(a.*f >= b.*f ? a.*f - b.*f : 0, std::memory_order_relaxed);
    });
    return out;
  }
  IoStats& operator+=(const IoStats& other) {
    ForEachPageCounter([&](auto i) {
      Add(kLive[i].field, other.Load(kLive[i].field));
    });
    return *this;
  }

 private:
  using Fields = PageCounterFields<std::atomic<uint64_t>>;
  using Field = std::atomic<uint64_t> Fields::*;
  static constexpr const auto& kLive = kPageCountersOf<std::atomic<uint64_t>>;

  uint64_t Load(Field f) const {
    return (this->*f).load(std::memory_order_relaxed);
  }
  void Add(Field f, uint64_t n) {
    (this->*f).fetch_add(n, std::memory_order_relaxed);
  }
  void Store(const PageCounts& values) {
    ForEachPageCounter([&](auto i) {
      (this->*kLive[i].field)
          .store(values.*kPageCounters[i].field, std::memory_order_relaxed);
    });
  }
};

}  // namespace sigsetdb

#endif  // SIGSET_STORAGE_IO_STATS_H_
