// Per-layer accounting of a traced stream: attributes each traced call's
// time to layers, collects the counts the engine reports (QueryTrace and
// JoinResult fields, IoStats, the metrics registry), and emits the per-layer
// metrics every workload reports — zero where a workload lacks the layer.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "obs/trace.h"
#include "storage/storage_manager.h"
#include "tracing.h"

namespace perfbench {

// Page reads/writes per storage class, from the files' own IoStats.
struct ClassIo {
  uint64_t reads[kNumClasses] = {};
  uint64_t writes[kNumClasses] = {};
  uint64_t cows = 0;

  static ClassIo Of(const std::vector<const sigsetdb::StorageManager*>& all);
  ClassIo operator-(const ClassIo& other) const;
  uint64_t TotalWrites() const;
};

struct TraceCounts {
  uint64_t ops = 0;

  // Selections (paper_*) or live conjunctions (student_churn).
  uint64_t selections = 0;
  uint64_t candidates = 0;
  uint64_t answers = 0;
  uint64_t sig_pages = 0;
  uint64_t nix_pages = 0;
  uint64_t hot_pages = 0;
  uint64_t skipped_pages = 0;
  uint64_t obj_fetches = 0;
  int64_t candidate_ns = 0;
  int64_t resolve_ns = 0;
  std::map<std::string, uint64_t> plans;  // "bssf_smart" -> selections

  uint64_t joins = 0;
  std::map<std::string, int64_t> join_stage_ns;  // "r scan" -> total
  uint64_t join_candidate_pairs = 0;
  uint64_t join_probes = 0;

  // Writes (student_churn).
  uint64_t mutations = 0;       // acked Insert/Delete/ApplyBatch calls
  uint64_t user_bytes = 0;      // Σ|set|·8 of inserted objects
  uint64_t wal_fsyncs = 0;      // registry wal.fsyncs delta
  double wal_group_sum = 0.0;   // registry wal.group_size delta
  uint64_t wal_groups = 0;
  uint64_t pins = 0;
  int64_t pin_ns = 0;
  double backlog_sum = 0.0;     // epoch.reclaim_backlog sampled per pin
  uint64_t reclaimed = 0;       // epoch.reclaimed_versions delta
  uint64_t checkpoints = 0;
  int64_t checkpoint_ns = 0;
  uint64_t compacts = 0;
  int64_t compact_ns = 0;
  uint64_t compact_pages_written = 0;
  uint64_t replayed_records = 0;

  ClassIo io;  // IoStats delta over the traced stream
};

// Splits an Explain call (a selection or conjunction) between the facade
// (db), the candidate stage (sig or nix, by the executed plan), resolution
// (query) and storage, and adds the stage counts to `counts`.
void AttributeSelection(const sigsetdb::QueryTrace& trace,
                        const std::string& plan, uint64_t candidates,
                        uint64_t answers, const Tracer::Closed& call,
                        LayerTimes* layers,
                        TraceCounts* counts);

// Splits an ExplainSetJoin call between the facade (db), the join stages
// (query) and storage.
void AttributeJoin(const sigsetdb::QueryTrace& trace,
                   const Tracer::Closed& call, uint64_t candidate_pairs,
                   uint64_t probes, LayerTimes* layers, TraceCounts* counts);

// A call with no stage breakdown: its time minus storage is `*self_ns`.
inline void AttributeLeaf(const Tracer::Closed& call, int64_t* self_ns) {
  *self_ns += call.dur_ns - call.io.TotalNs();
}

// Emits every per-layer metric from one traced stream of `counts.ops`
// operations over `traced_wall_ns`, plus the tracing overhead against the
// untraced stream's mean operation time.
void EmitLayerMetrics(const Tracer& tracer, const TraceCounts& counts,
                      int64_t traced_wall_ns, double untraced_op_us,
                      RunReport* report);

// Writes the traced stream's spans to
// <spans_dir>/spans-<workload>-seed<seed>.jsonl and notes where they went.
void WriteSpanDump(const Tracer& tracer, const Args& args, RunReport* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
