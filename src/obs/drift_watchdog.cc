#include "obs/drift_watchdog.h"

#include <cmath>

namespace sigsetdb {

namespace {
// "candidate selection" -> "candidate_selection" (metric-name friendly).
std::string StageKeyPart(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    if (c == ' ') c = '_';
  }
  return out;
}
}  // namespace

DriftWatchdog::DriftWatchdog(MetricsRegistry* metrics,
                             FlightRecorder* recorder, DriftOptions options)
    : metrics_(metrics), recorder_(recorder), options_(options) {}

DriftWatchdog::Slots::value_type* DriftWatchdog::SlotFor(
    const std::string& key) {
  auto [it, added] = slots_.try_emplace(key);
  if (added) {
    Slot& slot = it->second;
    slot.mean_abs = metrics_->gauge("drift." + key + ".mean_abs_residual");
    slot.mean_rel = metrics_->gauge("drift." + key + ".mean_rel_residual");
    slot.samples = metrics_->gauge("drift." + key + ".samples");
  }
  return &*it;
}

void DriftWatchdog::Accumulate(Slots::value_type* slot, double measured,
                               double predicted) {
  StageStats& s = slot->second.stats;
  ++s.samples;
  s.sum_measured += measured;
  s.sum_predicted += predicted;
  s.sum_abs_residual += std::fabs(measured - predicted);
  const double mean_abs = s.mean_abs_residual();
  const double mean_rel = s.mean_rel_residual();
  bool raised = false;
  if (s.samples >= options_.min_samples) {
    const bool outside = mean_abs > options_.abs_tolerance_pages &&
                         mean_rel > options_.rel_tolerance;
    raised = outside && !s.warning;  // rising edge only
    s.warning = outside;
  }
  // The gauges are resolved pointers: setting them takes no registry lock.
  slot->second.mean_abs->Set(mean_abs);
  slot->second.mean_rel->Set(mean_rel);
  slot->second.samples->Set(static_cast<double>(s.samples));
  if (raised) {
    warnings_.fetch_add(1, std::memory_order_relaxed);
    if (warnings_counter_ == nullptr) {
      warnings_counter_ = metrics_->counter("drift.warnings");
    }
    warnings_counter_->Increment();
    if (recorder_ != nullptr) {
      FlightEvent event;
      event.op = FlightOp::kDriftWarning;
      event.SetDetail(slot->first + " abs=" + std::to_string(mean_abs));
      recorder_->Record(event);
    }
  }
}

void DriftWatchdog::Observe(const std::string& stage, double measured,
                            double predicted) {
  std::lock_guard<std::mutex> lock(mu_);
  Accumulate(SlotFor(stage), measured, predicted);
}

void DriftWatchdog::ObserveTrace(const QueryTrace& trace) {
  // The plan string leads with the facility ("bssf smart(k=2)"); Database
  // plans prefix the attribute ("tags via bssf smart").
  std::string_view plan = trace.plan;
  const size_t via = plan.find(" via ");
  if (via != std::string_view::npos) plan.remove_prefix(via + 5);
  const std::string_view facility = plan.substr(0, plan.find(' '));
  if (facility.empty()) return;
  std::lock_guard<std::mutex> lock(mu_);
  FacilitySlots* slots = nullptr;
  for (FacilitySlots& known : facilities_) {
    if (known.facility == facility) slots = &known;
  }
  if (slots == nullptr) {
    slots = &facilities_.emplace_back();
    slots->facility = facility;
  }
  for (const TraceSpan& stage : trace.stages()) {
    if (stage.predicted_pages < 0) continue;
    Slots::value_type* slot = nullptr;
    for (const auto& [name, known] : slots->stages) {
      if (name == stage.name) slot = known;
    }
    if (slot == nullptr) {
      slot = SlotFor(slots->facility + "." + StageKeyPart(stage.name));
      slots->stages.emplace_back(stage.name, slot);
    }
    Accumulate(slot, static_cast<double>(stage.pages()),
               stage.predicted_pages);
  }
  if (trace.predicted_total >= 0) {
    if (slots->total == nullptr) {
      slots->total = SlotFor(slots->facility + ".total");
    }
    Accumulate(slots->total, static_cast<double>(trace.TotalPages()),
               trace.predicted_total);
  }
}

std::vector<std::pair<std::string, DriftWatchdog::StageStats>>
DriftWatchdog::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, StageStats>> out;
  out.reserve(slots_.size());
  for (const auto& [key, slot] : slots_) out.emplace_back(key, slot.stats);
  return out;
}

}  // namespace sigsetdb
