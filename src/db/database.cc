#include "db/database.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_map>
#include <utility>

#include "db/epoch.h"
#include "db/indexed_attribute.h"
#include "db/snapshot.h"
#include "obs/explain.h"
#include "storage/versioned_page_file.h"
#include "util/failpoint.h"

namespace sigsetdb {

namespace {

constexpr char kKeyObjects[] = "num_objects";
constexpr char kKeyAttrs[] = "num_attributes";
constexpr char kKeyGeneration[] = "compact_generation";
constexpr char kKeyWal[] = "config_wal";
// Every log record with lsn <= this value is reflected in the checkpoint;
// replay applies only records beyond it.  Missing (pre-WAL manifest) = 0.
constexpr char kKeyWalLsn[] = "wal_lsn";

// Statuses after which the instance's state can no longer be trusted; the
// first one triggers the one-shot flight-recorder postmortem.
bool IsFatalStatus(const Status& status) {
  const StatusCode code = status.code();
  return code == StatusCode::kIoError || code == StatusCode::kCorruption ||
         code == StatusCode::kInternal;
}

const Status& StatusOf(const Status& status) { return status; }
template <typename T>
const Status& StatusOf(const StatusOr<T>& value) {
  return value.status();
}

uint64_t Micros(const TraceTimer& timer) {
  return static_cast<uint64_t>(timer.ElapsedMs() * 1000.0);
}

// The metric in `slot`, registered by `get` on first use.
template <typename T, typename Get>
T* Cached(std::atomic<T*>* slot, Get&& get) {
  T* metric = slot->load(std::memory_order_acquire);
  if (metric == nullptr) {
    metric = get();
    slot->store(metric, std::memory_order_release);
  }
  return metric;
}

// The slot of a planned facility; Plan only returns "ssf", "bssf" or "nix".
size_t FacilitySlot(const std::string& facility) {
  return facility == "ssf" ? 0 : facility == "bssf" ? 1 : 2;
}

}  // namespace

Database::Database(StorageManager* storage, Options options)
    : storage_(storage), options_(std::move(options)) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    ctx_.pool = pool_.get();
  }
  if (options_.metrics != nullptr) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  if (options_.enable_snapshots) {
    epochs_ = std::make_unique<EpochManager>();
  }
  if (options_.enable_telemetry) {
    recorder_ =
        std::make_unique<FlightRecorder>(options_.flight_recorder_capacity);
    watchdog_ = std::make_unique<DriftWatchdog>(metrics_, recorder_.get(),
                                                options_.drift);
    if (epochs_ != nullptr) epochs_->SetMetrics(metrics_);
  }
}

Database::~Database() {
  // Stop the reclaimer before the wrappers it calls into are destroyed.
  // Pinned snapshots must already be gone (documented contract).
  if (epochs_ != nullptr) epochs_->Shutdown();
}

// --- telemetry -----------------------------------------------------------

void Database::RecordEvent(FlightOp op, const Status& status,
                           const IoStats& delta, const std::string& detail,
                           uint64_t fingerprint) {
  FlightEvent event;
  event.op = op;
  event.status_code = static_cast<int32_t>(status.code());
  event.fingerprint = fingerprint;
  event.epoch = current_epoch();
  event.wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  event.SetDelta(delta);
  event.SetDetail(detail);
  recorder_->Record(event);
}

void Database::RecordOpTelemetry(FlightOp op, const char* metric,
                                 const TraceTimer& timer,
                                 const IoStats& before, const Status& status,
                                 uint64_t fingerprint) {
  metrics_->histogram(metric)->Record(Micros(timer));
  RecordEvent(op, status, storage_->TotalStats() - before, status.message(),
              fingerprint);
  if (!status.ok() && IsFatalStatus(status)) NoteFatal(status);
}

void Database::NoteFatal(const Status& cause) {
  if (postmortem_written_) return;
  postmortem_written_ = true;
  RecordEvent(FlightOp::kFatal, cause, IoStats{}, cause.message());
  const std::string reason = "fatal status: " + cause.ToString();
  last_postmortem_json_ = recorder_->PostmortemJson(reason);
  if (!options_.postmortem_dir.empty()) {
    // Plain stdio, never the page layer: the fatal status may mean the page
    // layer itself is what failed.
    (void)recorder_->WritePostmortem(
        options_.postmortem_dir + "/" + name_ + ".postmortem", reason);
  }
}

template <typename Fn>
auto Database::Timed(FlightOp op, const char* metric, Fn&& body) {
  if (recorder_ == nullptr) return body();
  TraceTimer timer;
  const IoStats before = storage_->TotalStats();
  auto out = body();
  RecordOpTelemetry(op, metric, timer, before, StatusOf(out));
  return out;
}

Status Database::Checkpoint() {
  return Timed(FlightOp::kCheckpoint, "op.checkpoint.latency_us",
               [&] { return CheckpointImpl(); });
}

StatusOr<Oid> Database::Insert(std::vector<ElementSet> attr_values) {
  return Timed(FlightOp::kInsert, "op.insert.latency_us",
               [&]() -> StatusOr<Oid> {
                 std::vector<std::vector<ElementSet>> one;
                 one.push_back(std::move(attr_values));
                 SIGSET_ASSIGN_OR_RETURN(std::vector<Oid> oids,
                                         ApplyBatchImpl(std::move(one), {}));
                 return oids.front();
               });
}

Status Database::Delete(Oid oid) {
  return Timed(FlightOp::kDelete, "op.delete.latency_us",
               [&] { return ApplyBatchImpl({}, {oid}).status(); });
}

StatusOr<std::vector<Oid>> Database::ApplyBatch(const MultiWriteBatch& batch) {
  return Timed(FlightOp::kBatch, "op.batch.latency_us", [&] {
    return ApplyBatchImpl(batch.inserts(), batch.deletes());
  });
}

Status Database::Compact() {
  return Timed(FlightOp::kCompact, "op.compact.latency_us",
               [&] { return CompactImpl(); });
}

// --- files, epochs and lifecycle -----------------------------------------

StatusOr<PageFile*> Database::OpenVersioned(const std::string& file_name,
                                            VersionedPageFile** slot) {
  SIGSET_ASSIGN_OR_RETURN(PageFile * base, storage_->OpenOrCreate(file_name));
  if (epochs_ == nullptr) {
    if (slot != nullptr) *slot = nullptr;
    return base;
  }
  SIGSET_ASSIGN_OR_RETURN(
      std::unique_ptr<VersionedPageFile> wrapper,
      VersionedPageFile::Wrap(base, epochs_->published_cell()));
  VersionedPageFile* raw = wrapper.get();
  const uint64_t reclaimer = epochs_->RegisterReclaimer(
      [raw](uint64_t oldest_pinned) { return raw->Reclaim(oldest_pinned); });
  versioned_all_.push_back(Versioned{std::move(wrapper), reclaimer});
  if (slot != nullptr) *slot = raw;
  return raw;
}

void Database::FreeRetiredWrappers() {
  if (retired_.empty()) return;
  const uint64_t oldest = epochs_->OldestPinned();
  std::erase_if(retired_, [&](const Retired& retired) {
    if (retired.epoch > oldest) return false;
    std::erase_if(versioned_all_, [&](const Versioned& v) {
      if (std::find(retired.files.begin(), retired.files.end(),
                    v.file.get()) == retired.files.end()) {
        return false;
      }
      epochs_->UnregisterReclaimer(v.reclaimer);
      return true;
    });
    return true;
  });
}

void Database::PublishSnapshot() {
  if (epochs_ == nullptr) return;
  auto snap = std::make_shared<SnapshotState>();
  snap->epoch = epochs_->write_epoch();
  snap->generation = generation_;
  snap->num_objects = num_objects();
  snap->objects = v_objects_;
  for (const auto& attr : attrs_) snap->attrs.push_back(attr->Publish());
  epochs_->Publish(std::move(snap));
  FreeRetiredWrappers();
}

StatusOr<std::unique_ptr<DatabaseSnapshot>> Database::GetSnapshot() {
  if (!poison_.ok()) return poison_;
  if (epochs_ == nullptr) {
    return Status::FailedPrecondition(
        "snapshots disabled (Options::enable_snapshots)");
  }
  return DatabaseSnapshot::Create(epochs_->Pin(), metrics_, recorder_.get());
}

uint64_t Database::current_epoch() const {
  return epochs_ != nullptr ? epochs_->published() : 0;
}

StatusOr<std::unique_ptr<Database>> Database::Start(
    StorageManager* storage, const std::string& name, const Options& options,
    const AttributeSettings* settings, bool open) {
  if (options.attributes.empty()) {
    return Status::InvalidArgument("at least one attribute required");
  }
  const auto& specs = options.attributes;
  for (auto attr = specs.begin(); attr != specs.end(); ++attr) {
    if (attr->name.empty() && settings == nullptr) {
      return Status::InvalidArgument("attribute name must not be empty");
    }
    if (!attr->maintain_ssf && !attr->maintain_bssf && !attr->maintain_nix) {
      return Status::InvalidArgument(
          (attr->name.empty() ? "" : "attribute " + attr->name + ": ") +
          "enable at least one facility");
    }
    // An attribute's files are named after it, so two with one name would
    // share every file.
    if (std::any_of(specs.begin(), attr, [&](const AttributeOptions& other) {
          return other.name == attr->name;
        })) {
      return Status::InvalidArgument("duplicate attribute name: " +
                                     attr->name);
    }
  }
  std::unique_ptr<Database> db(new Database(storage, options));
  db->name_ = name;
  Database* self = db.get();
  const IndexedAttribute::FileOpener opener =
      [self](const std::string& file, VersionedPageFile** slot) {
        return self->OpenVersioned(file, slot);
      };
  const size_t n = options.attributes.size();
  for (size_t i = 0; i < n; ++i) {
    const AttributeOptions& spec = options.attributes[i];
    db->attrs_.push_back(std::make_unique<IndexedAttribute>(
        spec, options.capacity,
        settings != nullptr ? *settings : AttributeSettings{},
        spec.name.empty() ? name : name + "." + spec.name, opener));
  }
  db->dictionaries_.resize(n);
  SIGSET_ASSIGN_OR_RETURN(db->manifest_file_,
                          storage->OpenOrCreate(name + ".manifest"));
  SIGSET_ASSIGN_OR_RETURN(db->sketch_file_,
                          storage->OpenOrCreate(name + ".sketch"));
  SIGSET_ASSIGN_OR_RETURN(
      PageFile * objects,
      db->OpenVersioned(name + ".objects", &db->v_objects_));
  db->store_ = std::make_unique<MultiObjectStore>(objects,
                                                  static_cast<uint16_t>(n));
  PageFile* wal_file = nullptr;
  if (options.enable_wal) {
    SIGSET_ASSIGN_OR_RETURN(wal_file, storage->OpenOrCreate(name + ".wal"));
  }

  if (!open) {
    for (size_t i = 0; i < n; ++i) {
      SIGSET_RETURN_IF_ERROR(db->attrs_[i]->Open(0, nullptr, i));
    }
    if (wal_file != nullptr) {
      SIGSET_ASSIGN_OR_RETURN(
          db->wal_, WriteAheadLog::Create(wal_file, 0, db->metrics_));
      db->wal_->set_group_commit_window(options.group_commit_window_us);
      // Checkpoint immediately so a crash before the first user checkpoint
      // still reopens: the manifest anchors replay at lsn 0.
      SIGSET_RETURN_IF_ERROR(db->Checkpoint());
    }
    db->PublishSnapshot();  // epoch 1: the empty database
    return db;
  }

  SIGSET_ASSIGN_OR_RETURN(Manifest::Values values,
                          Manifest::Read(db->manifest_file_));
  // Pre-compaction manifests have no generation key; that means gen 0.
  auto generation = Manifest::Get(values, kKeyGeneration);
  if (generation.ok()) db->generation_ = *generation;
  SIGSET_ASSIGN_OR_RETURN(uint64_t attrs, Manifest::Get(values, kKeyAttrs));
  // Pre-WAL manifests have no config_wal key; they are WAL-off databases.
  auto wal_flag = Manifest::Get(values, kKeyWal);
  if (attrs != n ||
      (wal_flag.ok() ? *wal_flag : 0) != (options.enable_wal ? 1u : 0u)) {
    return Status::FailedPrecondition(
        "options do not match the checkpointed configuration");
  }
  for (size_t i = 0; i < n; ++i) {
    SIGSET_RETURN_IF_ERROR(db->attrs_[i]->CheckConfig(values, i));
  }
  SIGSET_ASSIGN_OR_RETURN(uint64_t num_objects,
                          Manifest::Get(values, kKeyObjects));
  db->store_->RecoverCount(num_objects);
  // The checkpointed sketches (page i = attribute i) load first, so a
  // replay's rebuild merges its re-adds into them.
  if (db->sketch_file_->num_pages() >= static_cast<PageId>(n)) {
    Page page;
    for (size_t i = 0; i < n; ++i) {
      HyperLogLog& sketch = db->attrs_[i]->sketch();
      SIGSET_RETURN_IF_ERROR(
          db->sketch_file_->Read(static_cast<PageId>(i), &page));
      if (!sketch.LoadRegisters(page.data(), sketch.num_registers())) {
        return Status::Corruption("domain sketch size mismatch");
      }
    }
  }

  if (wal_file != nullptr) {
    auto ckpt_lsn = Manifest::Get(values, kKeyWalLsn);
    const uint64_t wal_lsn = ckpt_lsn.ok() ? *ckpt_lsn : 0;
    SIGSET_ASSIGN_OR_RETURN(
        WriteAheadLog::OpenResult scan,
        WriteAheadLog::Open(wal_file, wal_lsn, db->metrics_));
    db->wal_ = std::move(scan.log);
    db->wal_->set_group_commit_window(options.group_commit_window_us);
    std::vector<LogRecord> to_replay;
    for (LogRecord& rec : scan.records) {
      if (rec.lsn > wal_lsn) to_replay.push_back(std::move(rec));
    }
    if (!to_replay.empty()) {
      // Acknowledged writes past the checkpoint: redo them against the
      // store, then rebuild every attribute's facilities from the store.
      // The facilities' own files may be arbitrarily stale or torn — they
      // are never opened through the normal path here.
      SIGSET_RETURN_IF_ERROR(db->ReplayLog(to_replay));
      SIGSET_RETURN_IF_ERROR(db->RebuildFacilitiesFromStore());
      db->metrics_->counter("wal.replayed_records")
          ->Increment(to_replay.size());
      // Deliberately NO checkpoint here: recovery is read-only w.r.t. the
      // log, so replaying twice equals replaying once (idempotence is one
      // of the wal_log_test invariants).  The next explicit Checkpoint()
      // or Compact() truncates the log.
      objects->stats().Reset();
      db->PublishSnapshot();
      return db;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    SIGSET_RETURN_IF_ERROR(db->attrs_[i]->Open(db->generation_, &values, i));
  }
  db->PublishSnapshot();
  return db;
}

Status Database::CheckpointImpl() {
  SIGSET_FAILPOINT("db.checkpoint");
  if (!poison_.ok()) return poison_;
  // Quiescent invariant: every appended record has been committed (each
  // mutation commits before returning), so last_lsn() covers everything the
  // counters below reflect.
  const uint64_t wal_lsn = wal_ != nullptr ? wal_->last_lsn() : 0;
  Manifest::Values values;
  values[kKeyObjects] = num_objects();
  values[kKeyAttrs] = attrs_.size();
  values[kKeyGeneration] = generation_;
  values[kKeyWal] = wal_ != nullptr ? 1 : 0;
  values[kKeyWalLsn] = wal_lsn;
  for (size_t i = 0; i < attrs_.size(); ++i) attrs_[i]->Save(i, &values);
  // The per-attribute domain sketches: one 4 KiB register page each.
  while (sketch_file_->num_pages() < attrs_.size()) {
    SIGSET_RETURN_IF_ERROR(sketch_file_->Allocate().status());
  }
  Page page;
  for (size_t i = 0; i < attrs_.size(); ++i) {
    const HyperLogLog& sketch = attrs_[i]->sketch();
    page.Zero();
    std::memcpy(page.data(), sketch.registers().data(),
                sketch.num_registers());
    SIGSET_RETURN_IF_ERROR(sketch_file_->Write(static_cast<PageId>(i), page));
  }
  // With snapshots on, writes land in in-memory version chains; push the
  // newest versions down to the base files before the manifest points at
  // them (the manifest must never be ahead of the data it describes).
  if (v_objects_ != nullptr) SIGSET_RETURN_IF_ERROR(v_objects_->FlushToBase());
  for (const auto& attr : attrs_) SIGSET_RETURN_IF_ERROR(attr->FlushVersions());
  SIGSET_RETURN_IF_ERROR(Manifest::Write(manifest_file_, values));
  // Manifest first, then log truncation: a crash between the two leaves
  // records <= wal_lsn in the log, and replay filters them out by lsn.
  if (wal_ != nullptr) SIGSET_RETURN_IF_ERROR(wal_->Truncate(wal_lsn));
  return Status::OK();
}

// --- writes ----------------------------------------------------------------

Status Database::AbortAndPoison(uint64_t lsn, const Status& cause) {
  // The record at `lsn` is durable but its apply failed partway: the
  // in-memory state no longer matches "fully applied".  Log an Abort so
  // recovery rolls the record back, and poison this instance — the only way
  // forward is a reopen, which replays the log against the store.  If the
  // Abort itself cannot commit, recovery will instead COMPLETE the record
  // (finishing the partial apply); either end state is consistent, and the
  // poisoned instance can't expose the in-between.
  (void)wal_->AppendAndCommit(LogRecord::Abort(lsn));
  poison_ = Status::FailedPrecondition(
      "database poisoned: apply of log record " + std::to_string(lsn) +
      " failed (" + cause.message() + "); reopen to recover");
  return cause;
}

StatusOr<std::vector<Oid>> Database::ApplyBatchImpl(
    std::vector<std::vector<ElementSet>> inserts,
    const std::vector<Oid>& deletes) {
  if (!poison_.ok()) return poison_;
  // Check the whole batch before its first write: a bad batch fails with
  // nothing logged, stored or indexed.  The facility limits (NIX's reserved
  // element, BSSF capacity) are the facilities' own checks, which their
  // ApplyBatch also runs.
  for (std::vector<ElementSet>& values : inserts) {
    for (ElementSet& set : values) NormalizeSet(&set);
    SIGSET_RETURN_IF_ERROR(store_->CheckRecord(values));
    for (size_t a = 0; a < attrs_.size(); ++a) {
      if (attrs_[a]->nix() != nullptr) {
        SIGSET_RETURN_IF_ERROR(NestedIndex::CheckNoReservedElement(values[a]));
      }
    }
  }
  std::vector<Oid> sorted = deletes;
  std::sort(sorted.begin(), sorted.end());
  if (auto dup = std::adjacent_find(sorted.begin(), sorted.end());
      dup != sorted.end()) {
    return Status::InvalidArgument("duplicate oid in batch delete: " +
                                   dup->ToString());
  }
  // Fetch delete victims up front; this is why deleting a same-batch
  // insert is unsupported (victims resolve against the pre-batch store).
  std::vector<MultiSetObject> victims;
  victims.reserve(deletes.size());
  for (Oid oid : deletes) {
    SIGSET_ASSIGN_OR_RETURN(MultiSetObject victim, store_->Get(oid));
    victims.push_back(std::move(victim));
  }
  for (const auto& attr : attrs_) {
    if (attr->bssf() != nullptr) {
      SIGSET_RETURN_IF_ERROR(
          attr->bssf()->CheckCapacity(deletes.size(), inserts.size()));
    }
  }

  // One record covers the whole batch: it commits (and is acknowledged)
  // atomically — recovery applies all of it or, when aborted, none.  The
  // record is written before the store is touched, so it carries the OIDs
  // the inserts will get.
  uint64_t lsn = 0;
  std::vector<Oid> predicted;
  if (wal_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(predicted, store_->PeekOids(inserts));
    std::vector<LogEntry> del_entries;
    del_entries.reserve(victims.size());
    for (size_t i = 0; i < victims.size(); ++i) {
      del_entries.push_back(LogEntry{deletes[i], victims[i].attrs});
    }
    std::vector<LogEntry> ins_entries;
    ins_entries.reserve(predicted.size());
    for (size_t i = 0; i < predicted.size(); ++i) {
      ins_entries.push_back(LogEntry{predicted[i], inserts[i]});
    }
    SIGSET_ASSIGN_OR_RETURN(
        lsn, wal_->AppendAndCommit(LogRecord::Mutation(
                 std::move(del_entries), std::move(ins_entries))));
  }

  std::vector<Oid> new_oids;
  new_oids.reserve(inserts.size());
  auto apply = [&]() -> Status {
    // Store inserts first: they assign the OIDs the facility ops index.
    for (size_t i = 0; i < inserts.size(); ++i) {
      SIGSET_ASSIGN_OR_RETURN(Oid oid, store_->Insert(inserts[i]));
      if (!predicted.empty() && oid != predicted[i]) {
        return Status::Internal("store assigned " + oid.ToString() +
                                " but the log predicted " +
                                predicted[i].ToString());
      }
      new_oids.push_back(oid);
    }
    // One grouped application per (attribute, facility): removes first so
    // freed slots are reused by this batch's inserts.  Each set is read for
    // the last time here, so it moves into its op.
    for (size_t a = 0; a < attrs_.size(); ++a) {
      std::vector<BatchOp> ops;
      ops.reserve(deletes.size() + new_oids.size());
      for (size_t i = 0; i < victims.size(); ++i) {
        ops.push_back(BatchOp{BatchOp::Kind::kRemove, deletes[i],
                              std::move(victims[i].attrs[a])});
      }
      for (size_t i = 0; i < new_oids.size(); ++i) {
        ops.push_back(BatchOp{BatchOp::Kind::kInsert, new_oids[i],
                              std::move(inserts[i][a])});
      }
      SIGSET_RETURN_IF_ERROR(attrs_[a]->ApplyBatch(ops));
    }
    // Store deletes LAST: a crash mid-batch then leaves an object present
    // in the store but (partially) missing from the indexes, never an
    // index entry dangling at a missing object.
    for (Oid oid : deletes) SIGSET_RETURN_IF_ERROR(store_->Delete(oid));
    return Status::OK();
  };
  Status applied = apply();
  if (!applied.ok()) {
    return wal_ != nullptr ? AbortAndPoison(lsn, applied) : applied;
  }
  PublishSnapshot();
  return new_oids;
}

Status Database::CompactImpl() {
  if (!poison_.ok()) return poison_;
  const bool any_sig = std::any_of(
      attrs_.begin(), attrs_.end(), [](const auto& attr) {
        return attr->ssf() != nullptr || attr->bssf() != nullptr;
      });
  if (!any_sig) return CheckpointImpl();
  const uint64_t next_gen = generation_ + 1;
  // Build every attribute's next-generation files before swapping anything:
  // the manifest's generation key (written by the final Checkpoint) is the
  // single commit point for all attributes.  A crash before it leaves the
  // old generation authoritative; a retried Compact() overwrites the
  // half-built one.
  for (const auto& attr : attrs_) {
    SIGSET_RETURN_IF_ERROR(attr->Compact(next_gen));
  }
  // With a WAL, note the compaction in the log before swapping: replay
  // treats the record as a no-op (recovery rebuilds facilities from the
  // store, which is compaction-order independent), but it keeps the strict
  // lsn sequence aligned with the operations the checkpoint below covers.
  if (wal_ != nullptr) {
    SIGSET_RETURN_IF_ERROR(
        wal_->AppendAndCommit(LogRecord::CompactCommit(next_gen)).status());
  }
  Retired superseded;
  for (const auto& attr : attrs_) {
    for (VersionedPageFile* file : attr->CommitCompaction()) {
      superseded.files.push_back(file);
    }
  }
  generation_ = next_gen;
  // Publish the new generation before checkpointing, so the swap is
  // visible even if the checkpoint write fails: pinned readers keep the
  // old generation's wrappers (alive in versioned_all_ until every pin is
  // at or past this epoch); new snapshots see the compacted files.
  if (epochs_ != nullptr && !superseded.files.empty()) {
    superseded.epoch = epochs_->write_epoch();
    retired_.push_back(std::move(superseded));
  }
  PublishSnapshot();
  return Checkpoint();
}

Status Database::ReplayLog(const std::vector<LogRecord>& records) {
  // Pass 1: an Abort marks its target record as rolled back.  The engine
  // poisons itself after the first failed apply, so any log tail carries at
  // most one aborted record — but the set keeps this general.
  std::vector<uint64_t> aborted;
  for (const LogRecord& rec : records) {
    if (rec.type == LogRecordType::kAbort) aborted.push_back(rec.ref_lsn);
  }
  auto rolled_back = [&](const LogRecord& rec) {
    return std::find(aborted.begin(), aborted.end(), rec.lsn) !=
           aborted.end();
  };
  // Pass 2: whether each object ends present.  Committed inserts and
  // aborted deletes make it present; the rest make it absent.
  std::unordered_map<uint64_t, bool> ends_present;
  for (const LogRecord& rec : records) {
    const bool undo = rolled_back(rec);
    for (const LogEntry& e : rec.inserts) ends_present[e.oid.value()] = !undo;
    for (const LogEntry& e : rec.deletes) ends_present[e.oid.value()] = undo;
  }
  // Pass 3: store-level redo in lsn order.  Each entry is applied at its
  // exact logged location (verify-or-write, so a record whose apply
  // already ran — fully or partially — converges to the same bytes).  An
  // object is materialized only if it ends present: a later insert may
  // have reused the space of one that a later record deletes, and the two
  // need not fit a page together.  Its slot is still reserved, so the
  // page's later slots replay in sequence.  CompactCommit and Abort records
  // need no redo: the facilities are rebuilt from the store afterwards.
  auto redo = [&](const LogEntry& e, bool present) {
    return present && ends_present[e.oid.value()]
               ? store_->ReplayEnsurePresent(e.oid, e.sets)
               : store_->ReplayEnsureAbsent(e.oid);
  };
  for (const LogRecord& rec : records) {
    const bool undo = rolled_back(rec);
    for (const LogEntry& e : rec.inserts) {
      SIGSET_RETURN_IF_ERROR(redo(e, !undo));
    }
    for (const LogEntry& e : rec.deletes) {
      SIGSET_RETURN_IF_ERROR(redo(e, undo));
    }
  }
  return Status::OK();
}

Status Database::RebuildFacilitiesFromStore() {
  // The recovered store is the single source of truth: one live scan feeds
  // every attribute's rebuild.
  std::vector<Oid> oids;
  std::vector<std::vector<ElementSet>> sets(attrs_.size());
  SIGSET_RETURN_IF_ERROR(store_->ForEachLive(
      [&](Oid oid, const std::vector<ElementSet>& values) {
        oids.push_back(oid);
        for (size_t i = 0; i < attrs_.size(); ++i) sets[i].push_back(values[i]);
        return Status::OK();
      }));
  store_->RecoverCount(oids.size());
  for (size_t i = 0; i < attrs_.size(); ++i) {
    SIGSET_RETURN_IF_ERROR(attrs_[i]->Rebuild(generation_, oids, sets[i]));
  }
  return Status::OK();
}

// --- reads -----------------------------------------------------------------

IoStats Database::ReadView::TotalStats() const {
  if (storage != nullptr) return storage->TotalStats();
  IoStats total = objects->stats();
  for (const auto& attr : attrs) total += attr->PinnedStats();
  return total;
}

StatusOr<size_t> Database::ReadView::Find(const std::string& attribute) const {
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (attrs[i]->name() == attribute) return i;
  }
  return Status::NotFound("no such attribute: " + attribute);
}

Database::ReadView Database::LiveView() const {
  return ReadView{store_.get(), attrs_, storage_, /*objects=*/nullptr,
                  execution_context(), metrics_};
}

StatusOr<size_t> Database::AttributeIndex(const std::string& attribute) const {
  return LiveView().Find(attribute);
}

int64_t Database::DomainEstimate(size_t attr) const {
  return attrs_[attr]->DomainEstimate();
}

StatusOr<Database::Selection> Database::PlanSelection(
    const ReadView& view, std::vector<SetPredicate> predicates,
    PlanMode mode) {
  if (predicates.empty()) {
    return Status::InvalidArgument("at least one predicate required");
  }
  Selection sel;
  sel.preds = std::move(predicates);
  sel.attrs.resize(sel.preds.size());
  // The cheapest predicate drives candidate selection.
  for (size_t i = 0; i < sel.preds.size(); ++i) {
    SetPredicate& pred = sel.preds[i];
    NormalizeSet(&pred.query);
    if (pred.query.empty()) {
      return Status::InvalidArgument("query set must not be empty");
    }
    SIGSET_ASSIGN_OR_RETURN(sel.attrs[i], view.Find(pred.attribute));
    SIGSET_ASSIGN_OR_RETURN(
        AccessPathChoice plan,
        view.attrs[sel.attrs[i]]->Plan(
            pred.kind, static_cast<int64_t>(pred.query.size()),
            view.store->num_objects(), mode, view.feedback));
    if (i == 0 || plan.cost_pages < sel.plan.cost_pages) {
      sel.driver = i;
      sel.plan = std::move(plan);
    }
  }
  return sel;
}

Status Database::RunSelection(const ReadView& view, Selection* sel,
                              QueryTrace* trace) {
  const SetPredicate& driver = sel->preds[sel->driver];
  IndexedAttribute& attr = *view.attrs[sel->attrs[sel->driver]];
  DatabaseQueryResult& out = sel->result;
  // An unnamed attribute (SetIndex) plans as "bssf smart(s=91)".
  out.driver = (driver.attribute.empty() ? "" : driver.attribute + " via ") +
               sel->plan.facility + " " + sel->plan.strategy;
  const int64_t dq = static_cast<int64_t>(driver.query.size());
  if (trace != nullptr) {
    trace->plan = out.driver;
    trace->kind = QueryKindName(driver.kind);
    trace->dq = dq;
  }
  const IoStats before = view.TotalStats();
  // Plan only returns maintained facilities.
  SIGSET_ASSIGN_OR_RETURN(
      CandidateResult candidates,
      SelectCandidates(attr.Facility(sel->plan.facility), driver.kind,
                       driver.query, static_cast<size_t>(sel->plan.param),
                       view.ctx, trace));
  SIGSET_ASSIGN_OR_RETURN(
      QueryResult resolved,
      ResolveCandidates(candidates, *view.store, sel->preds, sel->attrs,
                        sel->driver, view.ctx, trace));
  out.oids = std::move(resolved.oids);
  out.num_candidates = resolved.num_candidates;
  out.num_false_drops = resolved.num_false_drops;
  sel->io = view.TotalStats() - before;
  out.page_accesses = sel->io.total();
  if (trace == nullptr) return Status::OK();
  // The model's per-stage predictions for the driver predicate: candidate
  // selection is priced exactly; the resolution prediction assumes the
  // driver alone (other conjuncts are checked on the fetched object).
  const IndexedAttribute::Model model =
      attr.ModelFor(view.store->num_objects());
  const CostBreakdown bd = BreakdownForChoice(
      model.db, model.sig, model.nix, model.dt, dq, driver.kind, sel->plan);
  if (bd.total() <= 0) return Status::OK();
  trace->predicted_total = bd.total();
  for (TraceSpan& stage : trace->mutable_stages()) {
    if (stage.name == "candidate selection") {
      stage.predicted_pages = bd.candidate_selection + bd.oid_lookup;
      for (TraceSpan& child : stage.children) {
        child.predicted_pages = child.name == "oid lookup"
                                    ? bd.oid_lookup
                                    : bd.candidate_selection;
      }
    } else if (stage.name == "resolution") {
      stage.predicted_pages = bd.resolution;
    }
  }
  return Status::OK();
}

StatusOr<Database::Selection> Database::Select(
    std::vector<SetPredicate> predicates, PlanMode mode, QueryTrace* trace) {
  // A poisoned database may hold partially applied facility state; refuse
  // to serve queries from it (reopen to recover).
  if (!poison_.ok()) return poison_;
  const ReadView view = LiveView();
  SIGSET_ASSIGN_OR_RETURN(Selection sel,
                          PlanSelection(view, std::move(predicates), mode));
  // With telemetry on, plain queries run with an internal trace feeding the
  // drift watchdog (tracing only snapshots IoStats; page counts are
  // identical either way).
  QueryTrace telemetry_trace;
  if (recorder_ != nullptr && trace == nullptr) trace = &telemetry_trace;
  const SetPredicate& driver = sel.preds[sel.driver];
  // Only flight events carry the fingerprint, so it is hashed only for them.
  auto fingerprint = [&] {
    return FlightRecorder::Fingerprint(static_cast<int>(driver.kind),
                                       driver.query);
  };
  TraceTimer timer;  // feeds the latency histogram (metrics, not tracing)
  const IoStats before =
      recorder_ != nullptr ? storage_->TotalStats() : IoStats{};
  Status ran = RunSelection(view, &sel, trace);
  if (!ran.ok()) {
    // Failed queries never reach the success bookkeeping below; hand the
    // failure to the flight recorder (and, for fatal statuses, the
    // postmortem) before propagating it.
    if (recorder_ != nullptr) {
      RecordOpTelemetry(FlightOp::kQuery, "query.latency_us", timer, before,
                        ran, fingerprint());
    }
    return ran;
  }
  // Registry bookkeeping: memory-only counter updates, no page I/O, so
  // measured page-access counts are unaffected.
  const DatabaseQueryResult& out = sel.result;
  SelectMetrics& m = select_metrics_;
  FacilityMetrics& fm = m.facility[FacilitySlot(sel.plan.facility)];
  auto named = [&](const char* metric) {
    return "query." + sel.plan.facility + metric;
  };
  Cached(&m.count, [&] { return metrics_->counter("query.count"); })
      ->Increment();
  Cached(&fm.count, [&] { return metrics_->counter(named(".count")); })
      ->Increment();
  Cached(&fm.candidates,
         [&] { return metrics_->counter(named(".candidates")); })
      ->Increment(out.num_candidates);
  Cached(&fm.false_drops,
         [&] { return metrics_->counter(named(".false_drops")); })
      ->Increment(out.num_false_drops);
  Cached(&m.pages, [&] { return metrics_->histogram("query.pages"); })
      ->Record(out.page_accesses);
  Cached(&m.latency_us, [&] { return metrics_->histogram("query.latency_us"); })
      ->Record(Micros(timer));
  if (mode == PlanMode::kAuto) {
    Cached(&fm.predicted_pages,
           [&] { return metrics_->gauge(named(".predicted_pages")); })
        ->Add(sel.plan.cost_pages);
  }
  const BitSlicedSignatureFile* bssf = attrs_[sel.attrs[sel.driver]]->bssf();
  if (bssf != nullptr && bssf->hot_tier_enabled()) {
    bssf->hot_tier().ExportMetrics(metrics_, "hot_tier");
  }
  if (recorder_ != nullptr) {
    Cached(&m.kind_latency_us[static_cast<size_t>(driver.kind)], [&] {
      return metrics_->histogram(
          "query." + std::string(QueryKindName(driver.kind)) + ".latency_us");
    })->Record(Micros(timer));
    RecordEvent(FlightOp::kQuery, Status::OK(), sel.io, out.driver,
                fingerprint());
  }
  if (trace != nullptr && watchdog_ != nullptr) watchdog_->ObserveTrace(*trace);
  return sel;
}

StatusOr<DatabaseQueryResult> Database::Query(
    const std::vector<SetPredicate>& predicates) {
  SIGSET_ASSIGN_OR_RETURN(Selection sel,
                          Select(predicates, PlanMode::kAuto, nullptr));
  return std::move(sel.result);
}

StatusOr<DatabaseExplainResult> Database::Explain(
    const std::vector<SetPredicate>& predicates) {
  DatabaseExplainResult out;
  SIGSET_ASSIGN_OR_RETURN(Selection sel,
                          Select(predicates, PlanMode::kAuto, &out.trace));
  out.result = std::move(sel.result);
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

// --- set-containment joins (R ⋈⊆ S) ---------------------------------------

StatusOr<DatabaseJoinResult> Database::RunJoin(const ReadView& r,
                                               size_t r_attr,
                                               const ReadView& s,
                                               size_t s_attr,
                                               const JoinSpec& spec,
                                               QueryTrace* trace,
                                               IoStats* io) {
  const IndexedAttribute& ra = *r.attrs[r_attr];
  IndexedAttribute& sa = *s.attrs[s_attr];
  const IndexedAttribute::Model mr = ra.ModelFor(r.store->num_objects());
  const IndexedAttribute::Model ms = sa.ModelFor(s.store->num_objects());
  JoinSpec resolved = spec;
  if (resolved.strategy == JoinStrategy::kAuto) {
    SIGSET_ASSIGN_OR_RETURN(
        JoinStrategyChoice best,
        BestJoinStrategy(mr.db, mr.dt, ms.db, ms.dt, mr.sig, ms.nix));
    resolved.strategy = best.strategy;
  }
  // One nested-loop probe is the best superset selection with Dq = dt_r
  // against the S side; its modeled pages feed the adaptive direction
  // choice.
  StatusOr<AccessPathChoice> probe =
      BestAccessPath(ms.db, ms.sig, ms.nix, ms.dt, mr.dt, QueryKind::kSuperset,
                     /*allow_smart=*/true);

  // Each side projects its attribute out of its object store.
  auto side = [](const ReadView& view, size_t attr) {
    JoinSideAccess access;
    access.num_live = view.store->num_objects();
    access.scan =
        [&view, attr](const std::function<Status(Oid, const ElementSet&)>& fn) {
          return view.store->ForEachLive(
              [&fn, attr](Oid oid, const std::vector<ElementSet>& values) {
                return fn(oid, values[attr]);
              });
        };
    return access;
  };
  JoinSideAccess r_acc = side(r, r_attr);
  JoinSideAccess s_acc = side(s, s_attr);
  s_acc.probe_cost_pages = probe.ok() ? probe->cost_pages : 0.0;
  s_acc.probe_superset = [&s, &sa,
                          s_attr](const ElementSet& query)
      -> StatusOr<QueryResult> {
    // One probe = the one-predicate superset selection on S.
    Selection sel;
    sel.preds = {SetPredicate{sa.name(), QueryKind::kSuperset, query}};
    sel.attrs = {s_attr};
    SIGSET_ASSIGN_OR_RETURN(
        sel.plan, sa.Plan(QueryKind::kSuperset,
                          static_cast<int64_t>(query.size()),
                          s.store->num_objects(), PlanMode::kAuto, s.feedback));
    SIGSET_RETURN_IF_ERROR(RunSelection(s, &sel, nullptr));
    return QueryResult{std::move(sel.result.oids), sel.result.num_candidates,
                       sel.result.num_false_drops};
  };
  const bool shared =
      r.storage != nullptr ? r.storage == s.storage : r.objects == s.objects;
  const std::function<IoStats()> totals = [&r, &s, shared]() {
    IoStats total = r.TotalStats();
    if (!shared) total += s.TotalStats();
    return total;
  };

  DatabaseJoinResult out;
  // Two unnamed attributes (SetIndex) plan as the bare strategy name.
  out.plan = ra.name().empty() && sa.name().empty()
                 ? std::string(JoinStrategyName(resolved.strategy))
                 : ra.name() + " in-subset " + sa.name() + " via " +
                       JoinStrategyName(resolved.strategy);
  if (trace != nullptr) {
    trace->plan = out.plan;
    trace->kind = "join-subset";
    trace->dq = mr.dt;
  }
  const IoStats before = totals();
  SIGSET_ASSIGN_OR_RETURN(out.join,
                          sigsetdb::ExecuteSetJoin(r_acc, s_acc, ra.spec().sig,
                                                   resolved, r.ctx, trace,
                                                   totals));
  *io = totals() - before;
  out.page_accesses = io->total();
  if (trace == nullptr) return out;
  // Per-stage predictions from the join cost model (stage names are the
  // executor's).  The drift watchdog stays selection-only.
  StatusOr<JoinCostBreakdown> bd = BreakdownForJoinStrategy(
      mr.db, mr.dt, ms.db, ms.dt, mr.sig, ms.nix, resolved.strategy);
  if (!bd.ok() || bd->total() <= 0) return out;
  trace->predicted_total = bd->total();
  for (TraceSpan& stage : trace->mutable_stages()) {
    if (stage.name == "r scan") {
      stage.predicted_pages = bd->r_scan;
    } else if (stage.name == "s scan") {
      stage.predicted_pages = bd->s_scan;
    } else if (stage.name == "probe loop") {
      stage.predicted_pages = bd->probe;
    }
  }
  return out;
}

StatusOr<DatabaseJoinResult> Database::Join(size_t r_attr, Database* s_db,
                                            size_t s_attr,
                                            const JoinSpec& spec,
                                            QueryTrace* trace) {
  // Either side poisoned means partially applied facility state somewhere
  // in the join's reach; refuse to answer (reopen to recover).
  if (!poison_.ok()) return poison_;
  if (!s_db->poison_.ok()) return s_db->poison_;
  // With telemetry on, joins run with an internal trace too (same
  // rationale as Select: stage pages, no page-count difference).
  QueryTrace telemetry_trace;
  if (recorder_ != nullptr && trace == nullptr) trace = &telemetry_trace;
  TraceTimer timer;  // feeds the latency histogram
  const IoStats before =
      recorder_ != nullptr ? storage_->TotalStats() : IoStats{};
  IoStats io;
  StatusOr<DatabaseJoinResult> ran =
      RunJoin(LiveView(), r_attr, s_db->LiveView(), s_attr, spec, trace, &io);
  if (!ran.ok()) {
    if (recorder_ != nullptr) {
      RecordOpTelemetry(FlightOp::kJoin, "join.latency_us", timer, before,
                        ran.status());
    }
    return ran.status();
  }
  const JoinResult& join = ran->join;
  metrics_->counter("join.count")->Increment();
  metrics_->counter("join.pairs")->Increment(join.pairs.size());
  metrics_->counter("join.candidate_pairs")
      ->Increment(join.num_candidate_pairs);
  metrics_->counter("join.false_drop_pairs")
      ->Increment(join.num_false_drop_pairs);
  metrics_->counter("join.probes")->Increment(join.num_probes);
  metrics_->histogram("join.pages")->Record(ran->page_accesses);
  metrics_->histogram("join.latency_us")->Record(Micros(timer));
  if (recorder_ != nullptr) {
    RecordEvent(FlightOp::kJoin, Status::OK(), io, ran->plan);
  }
  return ran;
}

StatusOr<DatabaseJoinResult> Database::ExecuteSetJoin(
    const std::string& r_attribute, const std::string& s_attribute,
    const JoinSpec& spec) {
  SIGSET_ASSIGN_OR_RETURN(size_t r_attr, AttributeIndex(r_attribute));
  SIGSET_ASSIGN_OR_RETURN(size_t s_attr, AttributeIndex(s_attribute));
  return Join(r_attr, this, s_attr, spec, nullptr);
}

StatusOr<DatabaseJoinExplainResult> Database::ExplainSetJoin(
    const std::string& r_attribute, const std::string& s_attribute,
    const JoinSpec& spec) {
  SIGSET_ASSIGN_OR_RETURN(size_t r_attr, AttributeIndex(r_attribute));
  SIGSET_ASSIGN_OR_RETURN(size_t s_attr, AttributeIndex(s_attribute));
  DatabaseJoinExplainResult out;
  SIGSET_ASSIGN_OR_RETURN(out.result,
                          Join(r_attr, this, s_attr, spec, &out.trace));
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

}  // namespace sigsetdb
