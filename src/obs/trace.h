// Per-query structured tracing: where did this query's page accesses go?
//
// The paper's cost model predicts the page accesses of each *phase* of a
// query — signature/slice scan, OID-file look-up, false-drop resolution,
// B-tree descent — but the repo's IoStats only reports per-file totals.  A
// QueryTrace records one TraceSpan per executor stage, each carrying the
// stage's page-read/write delta, wall time, candidate/false-drop counts,
// and (filled in by the db layer from src/model/cost_breakdown.h) the
// model's predicted pages for that stage, so every trace doubles as a
// model-vs-measured experiment.
//
// Tracing is strictly opt-in: executors take a `QueryTrace*` that defaults
// to nullptr, and every tracing action is behind a null check.  The off
// path performs no clock reads, no allocation, and — critically — no page
// accesses, so page-access counts are bit-for-bit identical with tracing
// disabled (a property the test suite asserts).  The on path only
// *snapshots* IoStats around stages; it never issues I/O of its own, so
// measured page counts are identical with tracing on, too.

#ifndef SIGSET_OBS_TRACE_H_
#define SIGSET_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "storage/io_stats.h"

namespace sigsetdb {

// One stage (or sub-stage) of a query's execution: its measured page
// counter deltas (PageCounts, storage/io_stats.h; pages() is the paper's
// page accesses) plus its wall time, prediction and counts.
struct TraceSpan : PageCounts {
  std::string name;               // "slice scan", "resolve", ...
  double wall_ms = 0.0;           // 0 when not timed (sub-stages)
  double predicted_pages = -1.0;  // model prediction; < 0 = none attached
  // Stage-specific counts; -1 = not applicable.
  int64_t candidates = -1;   // drops delivered / resolved in this stage
  int64_t false_drops = -1;  // candidates failing resolution
  std::vector<TraceSpan> children;  // breakdown of this stage by file

  // Finds a direct child by name; nullptr when absent.
  TraceSpan* FindChild(const std::string& child_name);
};

// The trace of one set query, stage by stage.
class QueryTrace {
 public:
  std::string plan;   // "bssf smart(k=2)" — filled by the planner
  std::string kind;   // QueryKindName of the executed predicate
  int64_t dq = 0;     // query cardinality
  double predicted_total = -1.0;  // model RC for the whole plan; < 0 = none

  // Appends a top-level stage and returns a pointer valid until the next
  // AddStage call (spans live in a deque-free vector; callers fill the span
  // immediately, never across stages).
  TraceSpan* AddStage(std::string name);

  const std::vector<TraceSpan>& stages() const { return stages_; }
  std::vector<TraceSpan>& mutable_stages() { return stages_; }

  // Sums over top-level stages (children subdivide their parent and are
  // excluded, so the sum equals the query's IoStats delta).
  PageCounts Totals() const;
  uint64_t TotalPages() const { return Totals().pages(); }
  double TotalWallMs() const;

  // Serializes the full trace (plan, stages, children, predictions).
  std::string ToJson() const;

 private:
  std::vector<TraceSpan> stages_;
};

// One (file label, counter snapshot) per file touched by a stage — the
// return shape of SetAccessFacility::StageStats().
using IoSnapshots = std::vector<std::pair<std::string, IoStats>>;

// Appends a stage whose children are the per-file deltas `after - before`
// (one child per label, parent totals = children sums) and returns it for
// the caller to finish (wall time, counts).  Pure counter arithmetic.
TraceSpan* AddSnapshotStage(QueryTrace* trace, std::string name,
                            const IoSnapshots& before,
                            const IoSnapshots& after);

// Scoped wall-clock for trace stages; read with ElapsedMs().  Constructing
// with enabled = false skips even the clock read (the executor's off path).
class TraceTimer {
 public:
  explicit TraceTimer(bool enabled = true)
      : start_(enabled ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}) {}
  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace sigsetdb

#endif  // SIGSET_OBS_TRACE_H_
