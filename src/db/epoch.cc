#include "db/epoch.h"

#include <utility>
#include <vector>

namespace sigsetdb {

EpochPin& EpochPin::operator=(EpochPin&& other) noexcept {
  if (this != &other) {
    Release();
    manager_ = other.manager_;
    epoch_ = other.epoch_;
    state_ = std::move(other.state_);
    timed_ = other.timed_;
    pin_start_ = other.pin_start_;
    other.manager_ = nullptr;
    other.timed_ = false;
    other.state_.reset();
  }
  return *this;
}

void EpochPin::Release() {
  if (manager_ != nullptr) {
    int64_t pin_us = -1;
    if (timed_) {
      pin_us = std::chrono::duration_cast<std::chrono::microseconds>(
                   std::chrono::steady_clock::now() - pin_start_)
                   .count();
    }
    manager_->Unpin(epoch_, pin_us);
    manager_ = nullptr;
    timed_ = false;
  }
  state_.reset();
}

EpochManager::EpochManager() {
  reclaimer_ = std::thread([this] { ReclaimerLoop(); });
}

EpochManager::~EpochManager() { Shutdown(); }

void EpochManager::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  if (reclaimer_.joinable()) reclaimer_.join();
}

void EpochManager::Publish(std::shared_ptr<const SnapshotState> state) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    published_epoch_.store(published_epoch_.load(std::memory_order_relaxed) + 1,
                           std::memory_order_release);
    state_ = std::move(state);
    work_pending_ = true;
  }
  cv_.notify_all();
}

void EpochManager::SetMetrics(MetricsRegistry* metrics) {
  std::lock_guard<std::mutex> lock(mu_);
  pins_gauge_ = metrics->gauge("epoch.pins");
  backlog_gauge_ = metrics->gauge("epoch.reclaim_backlog");
  reclaimed_counter_ = metrics->counter("epoch.reclaimed_versions");
  pin_us_ = metrics->histogram("epoch.pin_us");
}

EpochPin EpochManager::Pin() {
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t epoch = published_epoch_.load(std::memory_order_relaxed);
  ++pins_[epoch];
  ++live_pins_;
  if (pins_gauge_ != nullptr) {
    pins_gauge_->Set(static_cast<double>(live_pins_));
  }
  EpochPin pin(this, epoch, state_);
  if (pin_us_ != nullptr) {
    pin.timed_ = true;
    pin.pin_start_ = std::chrono::steady_clock::now();
  }
  return pin;
}

void EpochManager::Unpin(uint64_t epoch, int64_t pin_us) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = pins_.find(epoch);
    if (it != pins_.end() && --it->second == 0) pins_.erase(it);
    if (live_pins_ > 0) --live_pins_;
    if (pins_gauge_ != nullptr) {
      pins_gauge_->Set(static_cast<double>(live_pins_));
    }
    if (pin_us >= 0 && pin_us_ != nullptr) {
      pin_us_->Record(static_cast<uint64_t>(pin_us));
    }
    work_pending_ = true;
  }
  cv_.notify_all();
}

uint64_t EpochManager::OldestPinned() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (pins_.empty()) return published_epoch_.load(std::memory_order_relaxed);
  return pins_.begin()->first;
}

uint64_t EpochManager::RegisterReclaimer(ReclaimFn fn) {
  std::lock_guard<std::mutex> lock(mu_);
  reclaimers_.emplace_back(next_reclaimer_, std::move(fn));
  return next_reclaimer_++;
}

void EpochManager::UnregisterReclaimer(uint64_t id) {
  std::lock_guard<std::mutex> pass(reclaim_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(reclaimers_, [id](const auto& r) { return r.first == id; });
}

size_t EpochManager::reclaimer_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reclaimers_.size();
}

uint64_t EpochManager::pinned_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [epoch, count] : pins_) total += count;
  return total;
}

uint64_t EpochManager::RunReclaimers(uint64_t oldest) {
  std::lock_guard<std::mutex> pass(reclaim_mu_);
  std::vector<std::pair<uint64_t, ReclaimFn>> fns;
  Gauge* backlog = nullptr;
  Counter* reclaimed = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    fns = reclaimers_;
    backlog = backlog_gauge_;
    reclaimed = reclaimed_counter_;
  }
  if (backlog != nullptr) {
    // Epochs the reclaimer cannot free yet because a pin holds them alive.
    const uint64_t published =
        published_epoch_.load(std::memory_order_relaxed);
    backlog->Set(static_cast<double>(published - oldest));
  }
  uint64_t freed = 0;
  for (const auto& [id, fn] : fns) freed += fn(oldest);
  total_reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  if (reclaimed != nullptr && freed > 0) reclaimed->Increment(freed);
  return freed;
}

uint64_t EpochManager::ReclaimNow() { return RunReclaimers(OldestPinned()); }

void EpochManager::ReclaimerLoop() {
  for (;;) {
    uint64_t oldest;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || work_pending_; });
      if (stop_) return;
      work_pending_ = false;
      oldest = pins_.empty()
                   ? published_epoch_.load(std::memory_order_relaxed)
                   : pins_.begin()->first;
    }
    RunReclaimers(oldest);
  }
}

}  // namespace sigsetdb
