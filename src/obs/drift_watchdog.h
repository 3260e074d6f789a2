// DriftWatchdog: monitors measured-vs-predicted cost residuals.
//
// The paper's §4 cost model is this repo's performance oracle; the
// observability layer already pairs every traced stage with the model's
// prediction for exactly that stage (model/cost_breakdown.h).  The watchdog
// closes the loop operationally: it accumulates the residuals per
// (facility, stage) key, exports running means as drift.* metrics, and —
// when the mean residual exceeds configurable absolute AND relative bounds
// over enough samples — raises a structured warning: a drift.warnings
// counter tick plus a kDriftWarning flight-recorder event naming the stage.
//
// Each key's accumulators and its three gauges live in one slot, resolved
// on the key's first observation; afterwards a trace finds its slots by
// comparing the plan's facility and each stage's name in place, so a query
// builds no metric name and takes no registry lookup, only the watchdog's
// mutex once per trace.

#ifndef SIGSET_OBS_DRIFT_WATCHDOG_H_
#define SIGSET_OBS_DRIFT_WATCHDOG_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sigsetdb {

struct DriftOptions {
  // A stage is flagged only when its mean |measured - predicted| exceeds
  // BOTH bounds: more than `abs_tolerance_pages` pages off AND more than
  // `rel_tolerance` of the mean prediction.  The conjunction keeps tiny
  // stages (predicted 0.1 pages, measured 2) and large stages (predicted
  // 4000, measured 4100) from flapping.
  double rel_tolerance = 1.0;
  double abs_tolerance_pages = 16.0;
  // Residual means are noise below this many observations; no warning
  // fires earlier.
  uint64_t min_samples = 32;
};

class DriftWatchdog {
 public:
  // `metrics` receives the drift.* exports (required); `recorder` receives
  // warning events (may be nullptr).  Neither is owned.
  DriftWatchdog(MetricsRegistry* metrics, FlightRecorder* recorder,
                DriftOptions options);

  // One stage observation, in pages.
  void Observe(const std::string& stage, double measured, double predicted);

  // Feeds every prediction-carrying stage of a finished trace, keyed
  // "<facility>.<stage>" (plus "<facility>.total" when the trace carries a
  // whole-plan prediction).
  void ObserveTrace(const QueryTrace& trace);

  struct StageStats {
    uint64_t samples = 0;
    double sum_measured = 0;
    double sum_predicted = 0;
    double sum_abs_residual = 0;
    bool warning = false;  // currently outside bounds

    double mean_abs_residual() const {
      return samples == 0 ? 0.0 : sum_abs_residual / samples;
    }
    // Mean residual relative to the mean prediction (floored at one page so
    // near-zero predictions don't divide to infinity).
    double mean_rel_residual() const {
      if (samples == 0) return 0.0;
      const double mean_pred = sum_predicted / samples;
      return mean_abs_residual() / (mean_pred < 1.0 ? 1.0 : mean_pred);
    }
  };

  // Sorted copy of the per-stage accumulators.
  std::vector<std::pair<std::string, StageStats>> Stats() const;

  // Warnings raised so far (rising edges; a stage re-arms when it returns
  // within bounds).
  uint64_t warnings() const {
    return warnings_.load(std::memory_order_relaxed);
  }

  const DriftOptions& options() const { return options_; }

 private:
  // One "<facility>.<stage>" key: its accumulators and its drift.* gauges.
  struct Slot {
    StageStats stats;
    Gauge* mean_abs = nullptr;
    Gauge* mean_rel = nullptr;
    Gauge* samples = nullptr;
  };
  using Slots = std::map<std::string, Slot>;  // nodes never move
  // The slots a facility's traces have fed, by trace stage name ("candidate
  // selection"), plus its total.
  struct FacilitySlots {
    std::string facility;
    std::vector<std::pair<std::string, Slots::value_type*>> stages;
    Slots::value_type* total = nullptr;
  };

  // The slot of `key`, registering its gauges on first use (mu_ held).
  Slots::value_type* SlotFor(const std::string& key);
  // Folds one observation into `slot` and exports it (mu_ held).
  void Accumulate(Slots::value_type* slot, double measured, double predicted);

  MetricsRegistry* metrics_;
  FlightRecorder* recorder_;
  DriftOptions options_;
  std::atomic<uint64_t> warnings_{0};
  mutable std::mutex mu_;
  Slots slots_;
  std::vector<FacilitySlots> facilities_;
  Counter* warnings_counter_ = nullptr;  // registered on the first warning
};

}  // namespace sigsetdb

#endif  // SIGSET_OBS_DRIFT_WATCHDOG_H_
