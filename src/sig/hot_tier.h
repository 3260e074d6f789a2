// Cache-resident hot-slice tier: pinned in-memory copies of the hottest
// slice pages, consulted after the skip index and before the buffer pool.
//
// The paper charges every slice access one page read; the skip index (see
// sig/skip_index.h) removes reads it can *prove* irrelevant, while this tier
// removes the disk/buffer-pool trip for reads that remain necessary but
// keep landing on the same few pages — the query-signature slices of a
// skewed workload.  Per-slice-page access counters (the same monotonic
// counter discipline as the metrics registry; ExportMetrics syncs the
// aggregates into it) drive admission: a page whose counter reaches the
// admission threshold is pinned as a private copy; when the tier is full,
// the coldest pinned page is evicted iff the newcomer is strictly hotter.
//
// Accounting: a hit is charged to IoStats::pages_hot by the caller, never
// to page_reads — so with the tier on,
//     page_reads(on) + pages_hot(on) == page_reads(off)
// for any query stream (every slice access still happens exactly once; only
// where it was served changes), and candidate sets are bit-identical (the
// pinned copy is kept coherent by the write paths, which always hold the
// page image they just produced — the same no-extra-I/O maintenance rule as
// the skip summaries).
//
// Thread safety: access counters are relaxed atomics (lock-free on the scan
// path); the pinned map takes a shared lock for hits and an exclusive lock
// for admission/eviction/coherence.  Admission order under concurrent scans
// is nondeterministic, but the hit+read sum above holds regardless — each
// access is served from exactly one place.

#ifndef SIGSET_SIG_HOT_TIER_H_
#define SIGSET_SIG_HOT_TIER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/page.h"

namespace sigsetdb {

class MetricsRegistry;

// Pinned copies of the hottest pages of one slice file.
class HotSliceTier {
 public:
  // A page is pinned once it has been accessed this many times.
  static constexpr uint64_t kDefaultAdmitThreshold = 2;
  // Default pin budget: 64 pages = 256 KiB, comfortably cache-resident.
  static constexpr size_t kDefaultCapacityPages = 64;

  // `num_pages` is the slice file's fixed page count (F · pages_per_slice);
  // accesses to pages beyond it are never tracked or pinned.
  explicit HotSliceTier(uint64_t num_pages,
                        size_t capacity_pages = kDefaultCapacityPages,
                        uint64_t admit_threshold = kDefaultAdmitThreshold);

  // Records an access to `page_no` and, when the page is pinned, runs
  // `fn(const Page&)` under the shared lock and returns true (the caller
  // charges pages_hot instead of issuing the read).  The scan combines
  // straight out of the pinned copy — a hit must beat the buffer-pool read
  // it replaces, and a 4 KiB copy per hit would eat most of that margin.
  // `fn` must not re-enter the tier.  Thread-safe.
  template <typename Fn>
  bool VisitPage(PageId page_no, Fn&& fn) {
    if (page_no >= access_counts_.size()) return false;
    access_counts_[page_no].fetch_add(1, std::memory_order_relaxed);
    // Warmup fast path: before the first admission every access is a miss,
    // so don't pay the lock to discover that.  (Relaxed is fine — a stale
    // zero only turns one early hit into one extra read, and the access
    // identity counts both the same.)
    if (pinned_count_.load(std::memory_order_relaxed) == 0) return false;
    std::shared_lock<std::shared_mutex> lock(mu_);
    auto it = pinned_.find(page_no);
    if (it == pinned_.end()) return false;
    fn(static_cast<const Page&>(*it->second));
    hits_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Offers the page image a missed VisitPage just read from the file.  Pins a
  // copy when the access counter has reached the admission threshold,
  // evicting the coldest pinned page if the tier is full and strictly
  // colder.  Thread-safe.
  void Admit(PageId page_no, const Page& page);

  // Write-path coherence: refreshes the pinned copy of `page_no` from the
  // image the writer just produced (no-op when not pinned).  Exact and
  // I/O-free, like SliceSkipIndex::Update.
  void Update(PageId page_no, const Page& page);

  // Shrinking below the pinned count evicts the coldest pages.
  void set_capacity(size_t capacity_pages);
  size_t capacity() const { return capacity_; }

  size_t pinned_pages() const;
  uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  uint64_t admissions() const {
    return admissions_.load(std::memory_order_relaxed);
  }
  uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  uint64_t accesses(PageId page_no) const;

  // Syncs {prefix}.hits/.admissions/.evictions counters and the
  // {prefix}.pinned gauge into the registry.
  void ExportMetrics(MetricsRegistry* registry,
                     const std::string& prefix) const;

 private:
  // Evicts the coldest pinned page iff its access count is below `count`
  // and returns whether it did; caller holds mu_ exclusively.
  bool EvictColdestLocked(uint64_t count);

  const uint64_t admit_threshold_;
  size_t capacity_;
  // One relaxed counter per slice page — fixed size, so the scan path never
  // allocates or locks to count.
  std::vector<std::atomic<uint64_t>> access_counts_;
  mutable std::shared_mutex mu_;
  std::unordered_map<PageId, std::unique_ptr<Page>> pinned_;
  // Mirror of pinned_.size() readable without mu_, and a monotone lower
  // bound on the coldest pinned page's access count (valid because counts
  // only grow and every admission is strictly hotter than the page it
  // displaces; set_capacity resets it, since a grown tier admits below
  // it).  Together they let Admit reject a hopeless candidate —
  // tier full, newcomer no hotter than the floor — without the exclusive
  // lock or the O(pinned) coldest scan, which would otherwise serialize
  // every cold-page miss of a warmed-up scan.
  std::atomic<size_t> pinned_count_{0};
  std::atomic<uint64_t> full_floor_{0};
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> admissions_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace sigsetdb

#endif  // SIGSET_SIG_HOT_TIER_H_
