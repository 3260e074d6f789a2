// EpochManager: the pin/publish/reclaim protocol behind snapshot reads.
//
// Epochs are a monotone counter over the index's committed states.  The
// single writer (whoever holds the SetIndex write lock) mutates at write
// epoch W = published + 1 and, once the mutation is complete, publishes W
// together with an immutable SnapshotState describing it.  Readers Pin():
// under the manager's mutex they atomically read the published state and
// register their epoch, so a pin's (epoch, state) pair is always consistent
// — a reader can never observe epoch N with state N±1.
//
// Reclamation: a background thread wakes after every Publish/Unpin, computes
// the oldest pinned epoch (== published when nothing is pinned), and hands
// it to every registered reclaim callback (VersionedPageFile::Reclaim).
// Because pins register under the same mutex Publish uses, any reader the
// reclaimer might miss is pinned at >= the oldest value it computed, which
// is exactly the invariant Reclaim needs.  The thread is joined by
// Shutdown() (idempotent; called by ~SetIndex before the wrapped files die).

#ifndef SIGSET_DB_EPOCH_H_
#define SIGSET_DB_EPOCH_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sigsetdb {

struct SnapshotState;
class EpochManager;

// RAII pin on one published epoch.  Move-only; releasing (or destroying)
// the pin lets the reclaimer free versions the epoch was holding alive.
class EpochPin {
 public:
  EpochPin() = default;
  EpochPin(EpochPin&& other) noexcept { *this = std::move(other); }
  EpochPin& operator=(EpochPin&& other) noexcept;
  EpochPin(const EpochPin&) = delete;
  EpochPin& operator=(const EpochPin&) = delete;
  ~EpochPin() { Release(); }

  bool pinned() const { return manager_ != nullptr; }
  uint64_t epoch() const { return epoch_; }
  const std::shared_ptr<const SnapshotState>& state() const { return state_; }

  void Release();

 private:
  friend class EpochManager;
  EpochPin(EpochManager* manager, uint64_t epoch,
           std::shared_ptr<const SnapshotState> state)
      : manager_(manager), epoch_(epoch), state_(std::move(state)) {}

  EpochManager* manager_ = nullptr;
  uint64_t epoch_ = 0;
  std::shared_ptr<const SnapshotState> state_;
  // Pin-duration telemetry (only armed when the manager has metrics; plain
  // snapshot reads take no clock reads).
  bool timed_ = false;
  std::chrono::steady_clock::time_point pin_start_{};
};

// Coordinates epoch publication, reader pins, and background reclamation.
class EpochManager {
 public:
  // `oldest_pinned` is the floor the callback may reclaim below; returns
  // the number of versions it freed (telemetry only).
  using ReclaimFn = std::function<uint64_t(uint64_t oldest_pinned)>;

  EpochManager();
  ~EpochManager();

  // Joins the reclaimer thread.  Idempotent; must run before any registered
  // reclaim target is destroyed.
  void Shutdown();

  // The last published epoch (0 until the first Publish).
  uint64_t published() const {
    return published_epoch_.load(std::memory_order_acquire);
  }
  // The epoch the writer's in-flight mutation writes at.
  uint64_t write_epoch() const { return published() + 1; }
  // The cell VersionedPageFile wrappers derive their write epoch from.
  const std::atomic<uint64_t>* published_cell() const {
    return &published_epoch_;
  }

  // Publishes `state` as epoch published()+1.  Writer-lock context only.
  void Publish(std::shared_ptr<const SnapshotState> state);

  // Pins the currently published epoch and returns its state.  Lock-free
  // with respect to the writer's mutation (the writer only takes the
  // manager mutex momentarily inside Publish).
  EpochPin Pin();

  // Oldest pinned epoch, or published() when nothing is pinned.
  uint64_t OldestPinned() const;

  // Adds `fn` to every later reclamation pass; returns its handle.
  uint64_t RegisterReclaimer(ReclaimFn fn);
  // Drops handle `id`.  Takes reclaim_mu_, so no pass is running when it
  // returns and the callback's target may be destroyed.
  void UnregisterReclaimer(uint64_t id);
  size_t reclaimer_count() const;

  // Runs one reclamation pass synchronously (deterministic tests).
  // Returns the number of versions freed across all registered callbacks.
  uint64_t ReclaimNow();

  // Arms epoch telemetry: epoch.pins / epoch.reclaim_backlog gauges, an
  // epoch.reclaimed_versions counter, and an epoch.pin_us histogram of pin
  // hold times.  Without this call (the default) the manager takes no clock
  // reads and exports nothing.
  void SetMetrics(MetricsRegistry* metrics);

  uint64_t pinned_count() const;
  uint64_t total_reclaimed() const {
    return total_reclaimed_.load(std::memory_order_relaxed);
  }

 private:
  friend class EpochPin;
  // `pin_us` < 0 means the pin was untimed (no metrics when it was taken).
  void Unpin(uint64_t epoch, int64_t pin_us);
  void ReclaimerLoop();
  uint64_t RunReclaimers(uint64_t oldest);

  std::atomic<uint64_t> published_epoch_{0};
  std::atomic<uint64_t> total_reclaimed_{0};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::shared_ptr<const SnapshotState> state_;       // guarded by mu_
  std::map<uint64_t, uint64_t> pins_;                // epoch -> pin count
  // (handle, callback), guarded by mu_.
  std::vector<std::pair<uint64_t, ReclaimFn>> reclaimers_;
  uint64_t next_reclaimer_ = 0;  // guarded by mu_
  bool work_pending_ = false;
  bool stop_ = false;
  // Telemetry sinks (guarded by mu_; all null until SetMetrics).
  Gauge* pins_gauge_ = nullptr;
  Gauge* backlog_gauge_ = nullptr;
  Counter* reclaimed_counter_ = nullptr;
  Histogram* pin_us_ = nullptr;
  uint64_t live_pins_ = 0;  // running Σ pins_ values, for the gauge
  // Serialises reclamation passes: ReclaimNow and the background loop
  // must not walk and free the same version chains at once.
  std::mutex reclaim_mu_;
  std::thread reclaimer_;
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_EPOCH_H_
