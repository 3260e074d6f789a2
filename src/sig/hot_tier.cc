#include "sig/hot_tier.h"

#include <limits>
#include <mutex>

#include "obs/metrics.h"

namespace sigsetdb {

HotSliceTier::HotSliceTier(uint64_t num_pages, size_t capacity_pages,
                           uint64_t admit_threshold)
    : admit_threshold_(admit_threshold == 0 ? 1 : admit_threshold),
      capacity_(capacity_pages),
      access_counts_(num_pages) {}

void HotSliceTier::Admit(PageId page_no, const Page& page) {
  if (page_no >= access_counts_.size() || capacity_ == 0) return;
  const uint64_t count =
      access_counts_[page_no].load(std::memory_order_relaxed);
  if (count < admit_threshold_) return;
  // Lock-free reject for the common steady-state miss: the tier is full
  // and this page is no hotter than the (monotone) coldest-count floor, so
  // the strictly-hotter rule below could not admit it anyway.
  if (pinned_count_.load(std::memory_order_relaxed) >= capacity_ &&
      count <= full_floor_.load(std::memory_order_relaxed)) {
    return;
  }
  std::unique_lock<std::shared_mutex> lock(mu_);
  if (pinned_.count(page_no) != 0) return;  // raced with another admitter
  // Evict-lowest, but only for a strictly hotter newcomer — a tie must not
  // thrash two equally warm pages in and out of the tier.
  if (pinned_.size() >= capacity_ && !EvictColdestLocked(count)) return;
  pinned_[page_no] = std::make_unique<Page>(page);
  pinned_count_.store(pinned_.size(), std::memory_order_relaxed);
  admissions_.fetch_add(1, std::memory_order_relaxed);
}

void HotSliceTier::Update(PageId page_no, const Page& page) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  auto it = pinned_.find(page_no);
  if (it != pinned_.end()) *it->second = page;
}

bool HotSliceTier::EvictColdestLocked(uint64_t count) {
  PageId coldest = kInvalidPage;
  uint64_t coldest_count = std::numeric_limits<uint64_t>::max();
  for (const auto& [id, copy] : pinned_) {
    (void)copy;
    const uint64_t c = access_counts_[id].load(std::memory_order_relaxed);
    if (c < coldest_count) {
      coldest_count = c;
      coldest = id;
    }
  }
  if (coldest == kInvalidPage) return false;
  // The scanned minimum is the tightest floor known; publish it so the
  // next hopeless candidate is rejected before the lock.  (Counts only
  // grow, so the true minimum can never fall back below it.)
  if (coldest_count > full_floor_.load(std::memory_order_relaxed)) {
    full_floor_.store(coldest_count, std::memory_order_relaxed);
  }
  if (coldest_count >= count) return false;
  pinned_.erase(coldest);
  pinned_count_.store(pinned_.size(), std::memory_order_relaxed);
  evictions_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

void HotSliceTier::set_capacity(size_t capacity_pages) {
  std::unique_lock<std::shared_mutex> lock(mu_);
  capacity_ = capacity_pages;
  // A grown tier admits pages below the old floor until it is full again.
  full_floor_.store(0, std::memory_order_relaxed);
  while (pinned_.size() > capacity_) {
    EvictColdestLocked(std::numeric_limits<uint64_t>::max());
  }
}

size_t HotSliceTier::pinned_pages() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return pinned_.size();
}

uint64_t HotSliceTier::accesses(PageId page_no) const {
  if (page_no >= access_counts_.size()) return 0;
  return access_counts_[page_no].load(std::memory_order_relaxed);
}

void HotSliceTier::ExportMetrics(MetricsRegistry* registry,
                                 const std::string& prefix) const {
  // Same monotonic-raise discipline as obs/storage_metrics.cc: counters
  // only move up, so exporting twice (or after a facility swap) is safe.
  auto sync = [&](const std::string& name, uint64_t live) {
    Counter* counter = registry->counter(prefix + name);
    const uint64_t current = counter->value();
    if (live > current) counter->Increment(live - current);
  };
  sync(".hits", hits());
  sync(".admissions", admissions());
  sync(".evictions", evictions());
  registry->gauge(prefix + ".pinned")->Set(static_cast<double>(pinned_pages()));
}

}  // namespace sigsetdb
