// SetIndex: the library's top-level facade — one indexed set attribute,
// managed end to end.
//
// This is the component a downstream OODB would embed: it owns the object
// store and any combination of the three access facilities over one set
// attribute, keeps them consistent across inserts/deletes, routes queries
// to the cheapest facility using the paper's cost model (including the §5
// smart strategies), and reports per-query page-access statistics.  It is a
// thin facade over a one-attribute Database (db/database.h) whose attribute
// is unnamed, so plans read "bssf smart(s=91)" rather than "... via ...".
//
//   StorageManager storage;
//   auto index = SetIndex::Create(&storage, "hobbies", options);
//   Oid oid = index->Insert({tag1, tag2, ...}).value();
//   auto result = index->Query(QueryKind::kSubset, allowlist);
//   // result->plan tells you which facility/strategy ran.

#ifndef SIGSET_DB_SET_INDEX_H_
#define SIGSET_DB_SET_INDEX_H_

#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/indexed_attribute.h"
#include "db/wal.h"
#include "db/write_batch.h"
#include "obj/object.h"
#include "obs/drift_watchdog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "query/executor.h"
#include "query/join.h"
#include "storage/storage_manager.h"

namespace sigsetdb {

class Snapshot;

// A query answer annotated with the plan that produced it.
struct SetIndexResult {
  QueryResult result;
  std::string plan;          // e.g. "bssf smart(s=91)"
  uint64_t page_accesses = 0;  // measured for this query
};

// A query answer plus its full per-stage trace, rendered two ways.  The
// trace carries, for every executor stage, the measured page deltas AND the
// cost model's predicted pages for exactly that stage (attached from
// model/cost_breakdown.h), so EXPLAIN doubles as a live model-vs-measured
// experiment.
struct SetIndexExplainResult {
  SetIndexResult result;
  QueryTrace trace;
  std::string text;  // plan-style tree (table_printer)
  std::string json;  // trace.ToJson()
};

// A set-containment join answer and its EXPLAIN form are the engine's
// (db/database.h); an unnamed attribute's plan is the bare strategy name,
// e.g. "sig-hash", "nested-loop".
using SetIndexJoinResult = DatabaseJoinResult;
using SetIndexJoinExplainResult = DatabaseJoinExplainResult;

// End-to-end manager of one indexed set attribute.
class SetIndex {
 public:
  struct Options {
    // Which facilities to maintain.  At least one must be enabled; kAuto
    // planning works best with bssf + nix (the paper's verdict: BSSF for
    // most shapes, NIX for Dq=1 supersets).
    bool maintain_ssf = false;
    bool maintain_bssf = true;
    bool maintain_nix = true;
    SignatureConfig sig{250, 2};
    uint32_t nix_fanout = kPaperFanout;
    // Capacity of the bit-sliced store (max objects).
    uint64_t capacity = 1 << 20;
    // Domain-cardinality estimate used by the cost model (the paper's V).
    // <= 0 (the default) means "estimate it live": every inserted element
    // feeds a HyperLogLog sketch and the advisor uses its estimate.
    int64_t domain_estimate = 0;
    // Worker threads for query execution.  1 (the default) runs every query
    // serially; > 1 spawns a thread pool used to partition BSSF slice scans
    // and false-drop resolution.  Results and logical page-access counts
    // are identical at any setting.
    size_t num_threads = 1;
    // Feed observed workload statistics (false-drop rate, buffer hit rate)
    // from the registry back into kAuto planning.  Off by default: the
    // pure-model plans keep page-access counts reproducible run to run,
    // which the differential tests and paper benches rely on.
    bool advisor_feedback = false;
    // Let SSF/BSSF scans consult the page skip index (summaries are always
    // maintained either way).  Off by default: skipping reduces page reads,
    // which would change the paper-pinned access counts; when on, skipped
    // pages are reported via IoStats::skips()/trace pages_skipped and query
    // results are identical.
    bool enable_skip_index = false;
    // Let BSSF slice scans consult the pinned hot-slice tier (sig/
    // hot_tier.h): the hottest slice pages — by access counter — are kept
    // as cache-resident copies and served without touching the buffer
    // pool.  Off by default: a hot hit moves a read from page_reads to
    // pages_hot, which would change the paper-pinned access counts; when
    // on, reads + hots equals the off-path reads and query results are
    // identical.
    bool enable_hot_tier = false;
    // Pin budget of the hot tier, in slice pages (64 pages = 256 KiB).
    // Only consulted when enable_hot_tier is set.
    size_t hot_tier_capacity = 64;
    // Write-ahead logging: every Insert/Delete/ApplyBatch first commits a
    // logical record to "<name>.wal" (one fsync, group-committed) and is
    // acknowledged only once the record is durable; Open() replays records
    // past the last checkpoint, so no acknowledged write is ever lost.  Off
    // by default: logging adds page writes, which would perturb the
    // paper-pinned access counts (durability then remains
    // checkpoint-granular, the original behaviour).
    bool enable_wal = false;
    // How long a group-commit leader holds the fsync open for concurrent
    // writers to join (microseconds).  0 syncs immediately — concurrent
    // commits still coalesce opportunistically.
    uint32_t group_commit_window_us = 0;
    // Epoch-based snapshot reads: every data file is wrapped in a
    // copy-on-write VersionedPageFile, each successful mutation publishes a
    // new epoch, and GetSnapshot() returns a pinned read-only view that
    // queries without the index lock (see db/snapshot.h).  Off by default:
    // the CoW layer keeps page versions in memory and charges pages_cow,
    // and keeping it off leaves the paper-pinned page counts bit-identical
    // to the unwrapped files.
    bool enable_snapshots = false;
    // Production telemetry: per-entry-point latency histograms, a lock-free
    // flight recorder of recent operations (dumped as a postmortem on the
    // first fatal status), and a cost-model drift watchdog fed from query
    // traces.  Off by default: with telemetry on, queries run with an
    // internal trace, which never changes page counts (traces only snapshot
    // IoStats) but does add clock reads per operation.
    bool enable_telemetry = false;
    // Flight-recorder ring capacity (events; rounded up to a power of two).
    size_t flight_recorder_capacity = 512;
    // Drift-watchdog bounds (see obs/drift_watchdog.h).
    DriftOptions drift;
    // When non-empty and a fatal status (I/O error, corruption, internal)
    // surfaces, the flight recorder writes "<dir>/<name>.postmortem.txt"
    // and ".json" there via plain stdio (never the page layer).
    std::string postmortem_dir;
  };

  // Creates the index inside `storage` (not owned) under the file-name
  // prefix `name` ("<name>.objects", "<name>.ssf.sig", ...).
  static StatusOr<std::unique_ptr<SetIndex>> Create(StorageManager* storage,
                                                    const std::string& name,
                                                    const Options& options) {
    return Start(storage, name, options, /*open=*/false);
  }

  // Reopens an index previously checkpointed in `storage` (typically a
  // disk-backed StorageManager pointed at the same directory).  `options`
  // must match the configuration the index was created with.
  static StatusOr<std::unique_ptr<SetIndex>> Open(StorageManager* storage,
                                                  const std::string& name,
                                                  const Options& options) {
    return Start(storage, name, options, /*open=*/true);
  }

  // Persists facility metadata (counts, B-tree root/shape) into the
  // "<name>.manifest" file so that Open() can reconstruct the index.
  // Durability is checkpoint-granular: inserts after the last checkpoint
  // are not recovered.
  Status Checkpoint() { return db_->Checkpoint(); }

  // Stores `set_value` as a new object and indexes it in every maintained
  // facility.  Returns the new OID.
  StatusOr<Oid> Insert(const ElementSet& set_value) {
    return db_->Insert({set_value});
  }

  // De-indexes the object everywhere, then deletes it from the store.  The
  // store delete comes LAST so a crash mid-delete can only leave a fully
  // indexed (still visible) or partially de-indexed object — never a
  // dangling index entry pointing at a missing object.
  Status Delete(Oid oid) { return db_->Delete(oid); }

  // Applies a group of inserts and deletes facility-by-facility: store
  // inserts first (assigning OIDs), then one ApplyBatch per facility
  // (removes before inserts, so freed slots are reused within the batch),
  // then the store deletes last (same crash ordering as Delete).  Returns
  // the OIDs of the batch's inserts, in order.  Deleting an OID inserted by
  // the same batch is not supported.
  StatusOr<std::vector<Oid>> ApplyBatch(const WriteBatch& batch);

  // Rewrites the SSF/BSSF signature + OID files densely (dropping
  // tombstoned slots) into generation-suffixed files and checkpoints.  The
  // manifest's generation key flips atomically with the checkpoint: a crash
  // anywhere before that leaves the old generation (and the old files)
  // authoritative, so compaction is crash-safe and retryable.  NIX needs no
  // compaction (drained pages are recycled via its free list).
  Status Compact() { return db_->Compact(); }

  // Fetches the stored set value.
  StatusOr<StoredObject> Get(Oid oid) const;

  // Runs a set query.  `mode` selects planning behaviour (default: cost
  // based).  The result reports the chosen plan and measured page accesses.
  StatusOr<SetIndexResult> Query(QueryKind kind, const ElementSet& query,
                                 PlanMode mode = PlanMode::kAuto) {
    return QueryInternal(kind, query, mode, nullptr);
  }

  // EXPLAIN ANALYZE: runs the query exactly as Query() would — same plan,
  // same page accesses — and additionally returns the per-stage trace with
  // the model's per-stage predictions attached, rendered as a plan tree and
  // as JSON.
  StatusOr<SetIndexExplainResult> Explain(QueryKind kind,
                                          const ElementSet& query,
                                          PlanMode mode = PlanMode::kAuto);

  // Set-containment join R ⋈⊆ S with this index as R and `s_side` as S
  // (pass `this` for a self-join): every pair (r, s) with r's set a subset
  // of s's set.  JoinSpec::strategy kAuto lets the join cost model
  // (model/cost_join.h) pick among nested-loop-of-selections,
  // signature-hash partitioning, and the adaptive per-partition method.
  StatusOr<SetIndexJoinResult> ExecuteSetJoin(SetIndex* s_side,
                                              const JoinSpec& spec = {}) {
    return JoinInternal(s_side, spec, nullptr);
  }

  // EXPLAIN ANALYZE for the join: same execution, plus the per-stage trace
  // with the join cost model's predictions attached.
  StatusOr<SetIndexJoinExplainResult> ExplainSetJoin(SetIndex* s_side,
                                                     const JoinSpec& spec = {});

  // The registry this index owns and reports into.
  MetricsRegistry* metrics() const { return db_->metrics(); }

  // Telemetry components (nullptr unless Options::enable_telemetry).
  FlightRecorder* flight_recorder() { return db_->flight_recorder(); }
  DriftWatchdog* drift_watchdog() { return db_->drift_watchdog(); }
  // JSON postmortem captured when the first fatal status surfaced (empty
  // until then; also written to Options::postmortem_dir when set).
  const std::string& last_postmortem_json() const {
    return db_->last_postmortem_json();
  }

  // Live statistics feeding the advisor.
  uint64_t num_objects() const { return db_->num_objects(); }

  // Compaction generation of the signature/OID files (0 until the first
  // Compact() checkpoint).
  uint64_t generation() const { return db_->generation(); }

  // The V the advisor currently uses: the configured estimate, or the live
  // HyperLogLog estimate (~1.6 % relative error) when auto.
  int64_t DomainEstimate() const { return attr().DomainEstimate(); }
  double mean_cardinality() const {
    return num_objects() == 0
               ? 0.0
               : static_cast<double>(attr().total_elements()) /
                     static_cast<double>(num_objects());
  }

  // Storage cost (pages) of each maintained facility; 0 when absent.
  uint64_t SsfPages() const { return Pages(attr().ssf()); }
  uint64_t BssfPages() const { return Pages(attr().bssf()); }
  uint64_t NixPages() const { return Pages(attr().nix()); }

  SequentialSignatureFile* ssf() { return attr().ssf(); }
  BitSlicedSignatureFile* bssf() { return attr().bssf(); }
  NestedIndex* nix() { return attr().nix(); }
  const Options& options() const { return options_; }

  // The execution context queries run under (pool == nullptr when
  // num_threads <= 1).  Exposed for tests and benchmarks.
  const ParallelExecutionContext* execution_context() const {
    return db_->execution_context();
  }

  // The write-ahead log (nullptr unless options.enable_wal).
  WriteAheadLog* wal() { return db_->wal(); }

  // --- snapshot reads (Options::enable_snapshots) ------------------------

  // Pins the currently published epoch and materializes a read-only view.
  // The snapshot queries WITHOUT this index's lock and must not outlive the
  // index; one Snapshot instance serves one reader thread.
  StatusOr<std::unique_ptr<Snapshot>> GetSnapshot();

  // The last published epoch (0 when snapshots are disabled).
  uint64_t current_epoch() const { return db_->current_epoch(); }

  // The epoch manager (nullptr unless enable_snapshots); exposed for tests.
  EpochManager* epochs() { return db_->epochs(); }

  ~SetIndex();

 private:
  SetIndex(Options options, std::unique_ptr<Database> db);

  // Create (`open` false) or Open the one-attribute engine.
  static StatusOr<std::unique_ptr<SetIndex>> Start(StorageManager* storage,
                                                   const std::string& name,
                                                   const Options& options,
                                                   bool open);
  IndexedAttribute& attr() const { return *db_->attrs_[0]; }
  static uint64_t Pages(const SetAccessFacility* f) {
    return f != nullptr ? f->StoragePages() : 0;
  }

  StatusOr<SetIndexResult> QueryInternal(QueryKind kind,
                                         const ElementSet& query,
                                         PlanMode mode, QueryTrace* trace);
  StatusOr<SetIndexJoinResult> JoinInternal(SetIndex* s_side,
                                            const JoinSpec& spec,
                                            QueryTrace* trace);

  Options options_;
  std::unique_ptr<Database> db_;
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_SET_INDEX_H_
