// Database: one OODB class with several indexed set attributes.
//
// The paper's motivating schema is exactly this shape — Student objects
// with `courses` (set of OIDs) and `hobbies` (set of strings), each wanting
// its own set access facility.  A Database owns one multi-attribute object
// store plus, per attribute, any combination of SSF/BSSF/NIX, and evaluates
// *conjunctions* of set predicates:
//
//   select Student
//   where courses has-subset (c1, c3) and hobbies in-subset ("a","b","c")
//
// Execution is cost-based: the advisor prices every (predicate, facility,
// strategy) combination, the cheapest predicate drives candidate selection,
// and the surviving candidates are fetched once and checked against the
// whole conjunction.

#ifndef SIGSET_DB_DATABASE_H_
#define SIGSET_DB_DATABASE_H_

#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "db/manifest.h"
#include "db/wal.h"
#include "db/write_batch.h"
#include "model/params.h"
#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "obj/schema.h"
#include "obs/drift_watchdog.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "query/advisor.h"
#include "query/executor.h"
#include "query/join.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/storage_manager.h"
#include "util/hyperloglog.h"

namespace sigsetdb {

class DatabaseSnapshot;
class EpochManager;
class EpochReadView;
class IndexedAttribute;
class VersionedPageFile;
struct AttributeSettings;

// How a selection picks its access path.
enum class PlanMode {
  // Cost-based: the advisor ranks all maintained facilities (with smart
  // strategies) using live statistics and runs the cheapest.
  kAuto,
  // Force a specific facility with its plain strategy.
  kForceSsf,
  kForceBssf,
  kForceNix,
};

// Result of a (possibly multi-predicate) query.
struct DatabaseQueryResult {
  std::vector<Oid> oids;        // objects satisfying every predicate
  uint64_t num_candidates = 0;  // candidates fetched from the driver
  uint64_t num_false_drops = 0;  // candidates failing the conjunction
  std::string driver;           // "courses via bssf smart(k=2)"
  uint64_t page_accesses = 0;   // measured for this query
};

// A conjunction answer plus its per-stage trace (driver candidate selection
// with per-file children, conjunction resolution), with the cost model's
// per-stage predictions for the driver predicate attached.
struct DatabaseExplainResult {
  DatabaseQueryResult result;
  QueryTrace trace;
  std::string text;  // plan-style tree (table_printer)
  std::string json;  // trace.ToJson()
};

// A set-containment join answer over two indexed attributes of one class.
struct DatabaseJoinResult {
  JoinResult join;
  std::string plan;            // "courses in-subset prereqs via sig-hash"
  uint64_t page_accesses = 0;  // measured for this join
};

// Join answer plus its per-stage trace with model predictions attached.
struct DatabaseJoinExplainResult {
  DatabaseJoinResult result;
  QueryTrace trace;
  std::string text;
  std::string json;
};

// One OODB class with indexed set attributes.
class Database {
 public:
  // Per-attribute index configuration.
  struct AttributeOptions {
    std::string name;
    bool maintain_ssf = false;
    bool maintain_bssf = true;
    bool maintain_nix = true;
    SignatureConfig sig{250, 2};
    uint32_t nix_fanout = kPaperFanout;
    // Domain-cardinality estimate for the cost model (the paper's V).
    // <= 0 (default): estimated live via a per-attribute HyperLogLog.
    int64_t domain_estimate = 0;
  };

  struct Options {
    std::vector<AttributeOptions> attributes;  // at least one
    uint64_t capacity = 1 << 20;  // max objects (bit-slice store size)
    // Worker threads for query execution (BSSF slice scans and conjunction
    // resolution).  1 (the default) is fully serial.  Results and logical
    // page-access counts are identical at any setting.
    size_t num_threads = 1;
    // Write-ahead logging (see SetIndex::Options::enable_wal): mutations are
    // acknowledged only after their logical record is durable in
    // "<name>.wal", and Open() replays records past the last checkpoint.
    // Off by default to keep the paper-pinned page-access counts.
    bool enable_wal = false;
    // Group-commit window in microseconds (0 = sync immediately; concurrent
    // commits still coalesce opportunistically).
    uint32_t group_commit_window_us = 0;
    // Epoch-based snapshot reads (see SetIndex::Options::enable_snapshots):
    // GetSnapshot() returns a pinned read-only view evaluating conjunctions
    // concurrently with churn.  Off by default for paper-pinned counts.
    bool enable_snapshots = false;
    // Production telemetry (see SetIndex::Options::enable_telemetry):
    // latency histograms per entry point, a flight recorder with crash
    // postmortems, and a cost-model drift watchdog.  Off by default.
    bool enable_telemetry = false;
    size_t flight_recorder_capacity = 512;
    DriftOptions drift;
    std::string postmortem_dir;
  };

  // Creates the class storage under the file prefix `class_name`.
  static StatusOr<std::unique_ptr<Database>> Create(StorageManager* storage,
                                                    const std::string& name,
                                                    const Options& options) {
    return Start(storage, name, options, nullptr, /*open=*/false);
  }

  // Reopens a checkpointed database (same storage/directory and options).
  static StatusOr<std::unique_ptr<Database>> Open(StorageManager* storage,
                                                  const std::string& name,
                                                  const Options& options) {
    return Start(storage, name, options, nullptr, /*open=*/true);
  }

  // Persists facility metadata; see SetIndex::Checkpoint for semantics.
  Status Checkpoint();

  // Stores an object; `attr_values[i]` is the value of attribute i (the
  // order of Options::attributes).  Values are normalized in place.  A
  // batch of one insert (see ApplyBatch).
  StatusOr<Oid> Insert(std::vector<ElementSet> attr_values);

  // De-indexes all attributes, then deletes the object from the store (the
  // store delete is LAST so a crash cannot leave dangling index entries).
  // A batch of one delete.
  Status Delete(Oid oid);

  // Applies a group of inserts and deletes with per-facility write
  // coalescing (see SetIndex::ApplyBatch).  Returns the OIDs of the batch's
  // inserts, in order.  A batch that deletes one OID twice, or holds a
  // record too large for one page, fails with kInvalidArgument before
  // anything is written.  Deleting an OID inserted by the same batch is not
  // supported.
  StatusOr<std::vector<Oid>> ApplyBatch(const MultiWriteBatch& batch);

  // Densely rewrites every attribute's SSF/BSSF signature + OID files into
  // the next compaction generation and checkpoints (the manifest's
  // generation key is the atomic commit point — see SetIndex::Compact).
  Status Compact();

  // Compaction generation of the signature/OID files (0 until the first
  // Compact() checkpoint).
  uint64_t generation() const { return generation_; }

  StatusOr<MultiSetObject> Get(Oid oid) const { return store_->Get(oid); }

  // Evaluates the conjunction of `predicates` (at least one, attributes may
  // repeat).  Unknown attribute names fail with kNotFound.
  StatusOr<DatabaseQueryResult> Query(
      const std::vector<SetPredicate>& predicates);

  // EXPLAIN ANALYZE for a conjunction: runs exactly as Query() would (same
  // driver choice, same page accesses) and returns the per-stage trace with
  // the model's predictions for the driver predicate attached.
  StatusOr<DatabaseExplainResult> Explain(
      const std::vector<SetPredicate>& predicates);

  // Set-containment join R ⋈⊆ S between two indexed attributes of this
  // class (they may be the same attribute): every object pair (r, s) with
  // r.<r_attribute> ⊆ s.<s_attribute>.  JoinSpec::strategy kAuto lets the
  // join cost model pick the strategy.
  StatusOr<DatabaseJoinResult> ExecuteSetJoin(const std::string& r_attribute,
                                              const std::string& s_attribute,
                                              const JoinSpec& spec = {});

  // EXPLAIN ANALYZE for the join (same execution + per-stage trace).
  StatusOr<DatabaseJoinExplainResult> ExplainSetJoin(
      const std::string& r_attribute, const std::string& s_attribute,
      const JoinSpec& spec = {});

  // The registry this database owns and reports into.
  MetricsRegistry* metrics() const { return metrics_.get(); }

  // Telemetry components (nullptr unless Options::enable_telemetry).
  FlightRecorder* flight_recorder() { return recorder_.get(); }
  DriftWatchdog* drift_watchdog() { return watchdog_.get(); }
  // JSON postmortem captured when the first fatal status surfaced (empty
  // until then; also written to Options::postmortem_dir when set).
  const std::string& last_postmortem_json() const {
    return last_postmortem_json_;
  }

  // The V the advisor uses for attribute `attr`: configured or sketched.
  int64_t DomainEstimate(size_t attr) const;

  // Index of `attribute` in the schema, or kNotFound.
  StatusOr<size_t> AttributeIndex(const std::string& attribute) const;

  // Per-attribute string-element dictionary (in-memory; used by the query
  // language to map string literals to element ids).
  ElementDictionary& dictionary(size_t attr) { return dictionaries_[attr]; }

  // The write-ahead log (nullptr unless options.enable_wal).
  WriteAheadLog* wal() { return wal_.get(); }

  uint64_t num_objects() const { return store_->num_objects(); }
  size_t num_attributes() const { return attrs_.size(); }
  const std::string& attribute_name(size_t i) const {
    return options_.attributes[i].name;
  }

  // --- snapshot reads (Options::enable_snapshots) ------------------------

  // Pins the published epoch and materializes a read-only conjunction view
  // (one reader thread per snapshot; must not outlive this database).
  StatusOr<std::unique_ptr<DatabaseSnapshot>> GetSnapshot();

  // The last published epoch (0 when snapshots are disabled).
  uint64_t current_epoch() const;

  // The epoch manager (nullptr unless enable_snapshots); for tests.
  EpochManager* epochs() { return epochs_.get(); }

  ~Database();

 private:
  friend class DatabaseSnapshot;
  friend class SetIndex;
  friend class Snapshot;

  // What one read runs over: an object store, its attributes and how it
  // executes.  Live reads use the engine's files; pinned reads use one
  // epoch's adapters (serial, pure-model planning, their own counters).
  struct ReadView {
    const MultiObjectStore* store = nullptr;
    std::span<const std::unique_ptr<IndexedAttribute>> attrs;
    const ParallelExecutionContext* ctx = nullptr;
    const MetricsRegistry* feedback = nullptr;

    // The counters of the files the view reads (the object file and each
    // attribute's current files); a read's pages are their delta.
    IoStats TotalStats() const;
    // Index of `attribute`, or kNotFound.
    StatusOr<size_t> Find(const std::string& attribute) const;
  };

  // A planned conjunction: normalized predicates, their attribute indexes
  // and the driver predicate's access path.  RunSelection fills `before`
  // (the view's counters as the read starts), `result` and `io` (the
  // read's counter delta).
  struct Selection {
    std::vector<SetPredicate> preds;
    std::vector<size_t> attrs;
    size_t driver = 0;
    AccessPathChoice plan;
    DatabaseQueryResult result;
    IoStats before;
    IoStats io;
  };

  // The read path, shared by live and pinned callers, which keep their own
  // bookkeeping.  The cheapest predicate drives candidate selection; every
  // candidate is fetched once and checked against the whole conjunction
  // (query/executor.h's two steps).
  static StatusOr<Selection> PlanSelection(const ReadView& view,
                                          std::vector<SetPredicate> predicates,
                                          PlanMode mode);
  static Status RunSelection(const ReadView& view, Selection* sel,
                             QueryTrace* trace);
  // R ⋈⊆ S between attribute `r_attr` of `r` and `s_attr` of `s`.
  static StatusOr<DatabaseJoinResult> RunJoin(const ReadView& r,
                                              size_t r_attr,
                                              const ReadView& s,
                                              size_t s_attr,
                                              const JoinSpec& spec,
                                              QueryTrace* trace, IoStats* io);

  Database(StorageManager* storage, Options options);

  // Create (`open` false) or Open.  SetIndex passes `settings` for its one
  // unnamed attribute; public callers pass null and must name attributes.
  static StatusOr<std::unique_ptr<Database>> Start(
      StorageManager* storage, const std::string& name, const Options& options,
      const AttributeSettings* settings, bool open);

  ReadView LiveView() const;
  // Live reads: the shared read path plus query.* / join.* metrics, flight
  // events, model predictions and the drift watchdog.
  StatusOr<Selection> Select(std::vector<SetPredicate> predicates,
                             PlanMode mode, QueryTrace* trace);
  StatusOr<DatabaseJoinResult> Join(size_t r_attr, Database* s_db,
                                    size_t s_attr, const JoinSpec& spec,
                                    QueryTrace* trace);

  // Untimed bodies of the public mutators; Timed wraps them in the
  // telemetry shim (a direct call when telemetry is off).
  template <typename Fn>
  auto Timed(FlightOp op, const char* metric, Fn&& body);
  Status CheckpointImpl();
  // The one mutation body: Insert and Delete are batches of one.  It checks
  // the whole batch, logs it as one record, applies it to the store and
  // every facility, and publishes an epoch.
  StatusOr<std::vector<Oid>> ApplyBatchImpl(
      std::vector<std::vector<ElementSet>> inserts,
      const std::vector<Oid>& deletes);
  Status CompactImpl();

  // Entry-point telemetry: latency histogram sample + flight event; fatal
  // statuses trigger NoteFatal (one-shot postmortem capture).
  void RecordEvent(FlightOp op, const Status& status, const IoStats& delta,
                   const std::string& detail, uint64_t fingerprint = 0);
  void RecordOpTelemetry(FlightOp op, const char* metric,
                         const TraceTimer& timer, const IoStats& delta,
                         const Status& status, uint64_t fingerprint = 0);
  void NoteFatal(const Status& cause);

  // nullptr when num_threads <= 1.
  const ParallelExecutionContext* execution_context() const {
    return pool_ != nullptr ? &ctx_ : nullptr;
  }

  // With a WAL, a mutation applies after its record is durable; a failure
  // there calls AbortAndPoison, which logs an Abort record and fails every
  // later mutation/query until reopened.
  Status AbortAndPoison(uint64_t lsn, const Status& cause);
  // Recovery: redo `records` against the object store, then rebuild every
  // attribute's facilities and counters from the recovered store.
  Status ReplayLog(const std::vector<LogRecord>& records);
  Status RebuildFacilitiesFromStore();

  // Opens `file_name` and, with snapshots on, wraps it in a CoW
  // VersionedPageFile (owned by versioned_all_, reclaimer registered);
  // `*slot` receives the wrapper or nullptr.
  StatusOr<PageFile*> OpenVersioned(const std::string& file_name,
                                    VersionedPageFile** slot);
  // Publishes the committed state as a new epoch (no-op without
  // snapshots).  Called after every successful mutation.
  void PublishSnapshot();
  // Destroys the wrappers a compaction superseded once no pin can still
  // read them: every pin is at or past the epoch published at the swap.
  void FreeRetiredWrappers();

  StorageManager* storage_;
  Options options_;
  std::string name_;
  uint64_t generation_ = 0;
  std::unique_ptr<ThreadPool> pool_;
  ParallelExecutionContext ctx_;
  PageFile* manifest_file_ = nullptr;
  PageFile* sketch_file_ = nullptr;
  // Snapshot machinery (null/empty unless enable_snapshots).  The wrapper
  // pool owns every live CoW wrapper — including a superseded generation's
  // until no pinned snapshot can read it — so it must outlive the
  // facilities below (declared first = destroyed last).
  struct Versioned {
    std::unique_ptr<VersionedPageFile> file;
    uint64_t reclaimer = 0;  // EpochManager handle
  };
  // Wrappers a compaction superseded, and the epoch published at the swap.
  struct Retired {
    uint64_t epoch = 0;
    std::vector<VersionedPageFile*> files;
  };
  std::unique_ptr<EpochManager> epochs_;
  std::vector<Versioned> versioned_all_;
  std::vector<Retired> retired_;
  VersionedPageFile* v_objects_ = nullptr;
  std::unique_ptr<MultiObjectStore> store_;
  std::unique_ptr<WriteAheadLog> wal_;
  // Set by AbortAndPoison; every mutation and query returns it once set.
  Status poison_ = Status::OK();
  std::vector<std::unique_ptr<IndexedAttribute>> attrs_;
  std::vector<ElementDictionary> dictionaries_;
  std::unique_ptr<MetricsRegistry> metrics_ =
      std::make_unique<MetricsRegistry>();
  // Select's metrics, resolved to pointers on first use as obs/metrics.h
  // asks.  Each slot registers its name where Select first needs it, so a
  // name registers no earlier than a lookup per query would, and concurrent
  // readers racing to fill a slot store the registry's one pointer.
  struct FacilityMetrics {  // query.<facility>.*
    std::atomic<Counter*> count{nullptr};
    std::atomic<Counter*> candidates{nullptr};
    std::atomic<Counter*> false_drops{nullptr};
    std::atomic<Gauge*> predicted_pages{nullptr};
  };
  struct SelectMetrics {
    std::atomic<Counter*> count{nullptr};            // query.count
    std::atomic<Histogram*> pages{nullptr};          // query.pages
    std::atomic<Histogram*> latency_us{nullptr};     // query.latency_us
    std::array<FacilityMetrics, 3> facility;         // ssf, bssf, nix
    // query.<kind>.latency_us, indexed by QueryKind (kOverlaps is last).
    std::array<std::atomic<Histogram*>,
               static_cast<size_t>(QueryKind::kOverlaps) + 1>
        kind_latency_us{};
  };
  SelectMetrics select_metrics_;
  // Telemetry (all null/empty unless enable_telemetry).
  std::unique_ptr<FlightRecorder> recorder_;
  std::unique_ptr<DriftWatchdog> watchdog_;
  bool postmortem_written_ = false;
  std::string last_postmortem_json_;
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_DATABASE_H_
