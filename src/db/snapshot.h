// Snapshot reads (MVCC-lite): fixed-epoch read-only views over an index.
//
// The writer publishes an immutable SnapshotState with every successful
// mutation (see EpochManager); a snapshot pins that epoch and builds
// read-only IndexedAttributes and an object store over fixed-epoch
// adapters (EpochReadView), then answers queries through the engine's own
// read path (Database::PlanSelection / RunSelection / RunJoin) without ever
// taking the index's lock.  The page images the views read come from each
// VersionedPageFile's lock-free version chains, so concurrent writers never
// perturb a pinned reader's answers — queries at epoch E see exactly the
// database as of E, bit for bit.
//
// Pinned reads run serially, plan from the model frozen at publish (no
// advisor feedback) and charge their own counters; they bump
// query.snapshot.* / join.snapshot.* metrics and kSnapshotQuery events
// instead of the live series, and never feed the drift watchdog.
//
// Concurrency contract: a snapshot instance belongs to ONE reader thread
// (its views keep per-snapshot IoStats and are not internally synchronized);
// pin as many snapshots as you have readers.  A snapshot must not outlive
// the index it came from.

#ifndef SIGSET_DB_SNAPSHOT_H_
#define SIGSET_DB_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "db/database.h"
#include "db/epoch.h"
#include "db/indexed_attribute.h"
#include "db/set_index.h"
#include "obj/multi_object_store.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace sigsetdb {

// The immutable state published with each epoch: one entry per indexed
// attribute (a SetIndex publishes one unnamed attribute).
struct SnapshotState {
  uint64_t epoch = 0;       // the epoch this state was published as
  uint64_t generation = 0;  // compaction generation at publish time
  uint64_t num_objects = 0;
  VersionedPageFile* objects = nullptr;
  std::vector<IndexedAttribute::Published> attrs;
};

// A pinned, fixed-epoch, read-only view of a multi-attribute Database.
// Evaluates conjunctions exactly as Database::Query does.
class DatabaseSnapshot {
 public:
  // Materializes views over the state carried by `pin`.  `metrics` may be
  // null; when set, snapshot reads bump `query.snapshot.*` counters (the
  // registry is thread-safe, so concurrent readers may share it).
  // `recorder` (optional, also thread-safe) additionally receives a flight
  // event per read and arms the snapshot latency histograms.
  static StatusOr<std::unique_ptr<DatabaseSnapshot>> Create(
      EpochPin pin, MetricsRegistry* metrics,
      FlightRecorder* recorder = nullptr);

  uint64_t epoch() const { return pin_.epoch(); }
  uint64_t num_objects() const { return state_->num_objects; }

  // Fetches one multi-attribute object as of the pinned epoch.
  StatusOr<MultiSetObject> Get(Oid oid) const { return store_->Get(oid); }

  // Conjunction query at the pinned epoch; same contract as
  // Database::Query.
  StatusOr<DatabaseQueryResult> Query(
      const std::vector<SetPredicate>& predicates) {
    return Select(predicates, PlanMode::kAuto);
  }

  // Set-containment join between two indexed attributes at the pinned
  // epoch; same contract as Database::ExecuteSetJoin.
  StatusOr<DatabaseJoinResult> ExecuteSetJoin(const std::string& r_attribute,
                                              const std::string& s_attribute,
                                              const JoinSpec& spec = {});

  // Pages read by this snapshot so far (per-snapshot accounting; includes
  // no other reader's or the writer's I/O).
  IoStats TotalStats() const { return View().TotalStats(); }

 private:
  friend class Snapshot;

  DatabaseSnapshot(EpochPin pin, MetricsRegistry* metrics,
                   FlightRecorder* recorder);

  Database::ReadView View() const;
  StatusOr<DatabaseQueryResult> Select(
      const std::vector<SetPredicate>& predicates, PlanMode mode);
  StatusOr<DatabaseJoinResult> Join(size_t r_attr, DatabaseSnapshot* s_side,
                                    size_t s_attr, const JoinSpec& spec);
  // Snapshot bookkeeping: `series`.count/.pages/.latency_us and a flight
  // event (latency and event only with a recorder).
  void Record(const std::string& series, FlightOp op, const TraceTimer& timer,
              const IoStats& io, const std::string& detail,
              uint64_t fingerprint);

  EpochPin pin_;
  std::shared_ptr<const SnapshotState> state_;
  MetricsRegistry* metrics_ = nullptr;
  FlightRecorder* recorder_ = nullptr;
  std::unique_ptr<EpochReadView> objects_view_;
  std::unique_ptr<MultiObjectStore> store_;
  std::vector<std::unique_ptr<IndexedAttribute>> attrs_;
};

// A pinned, fixed-epoch, read-only view of a SetIndex.  Obtained from
// SetIndex::GetSnapshot() / SynchronizedSetIndex::GetSnapshot(); queries run
// without taking the index mutex.
class Snapshot {
 public:
  // See DatabaseSnapshot::Create; the state must hold one attribute.
  static StatusOr<std::unique_ptr<Snapshot>> Create(
      EpochPin pin, MetricsRegistry* metrics,
      FlightRecorder* recorder = nullptr);

  uint64_t epoch() const { return view_->epoch(); }
  uint64_t generation() const { return view_->state_->generation; }
  uint64_t num_objects() const { return view_->num_objects(); }

  // Fetches one object as of the pinned epoch (one page read).
  StatusOr<StoredObject> Get(Oid oid) const;

  // Runs a set query against the pinned epoch: same planner, same plan
  // strings and result shape as SetIndex::Query, charging I/O to
  // per-snapshot counters, so `page_accesses` is exact for this query.
  StatusOr<SetIndexResult> Query(QueryKind kind, const ElementSet& query,
                                 PlanMode mode = PlanMode::kAuto);

  // Set-containment join R ⋈⊆ S at the pinned epochs, with this snapshot as
  // R and `s_side` as S (pass `this` for a self-join).  Same strategies and
  // pair set as SetIndex::ExecuteSetJoin.
  StatusOr<SetIndexJoinResult> ExecuteSetJoin(Snapshot* s_side,
                                              const JoinSpec& spec = {});

  IoStats TotalStats() const { return view_->TotalStats(); }

 private:
  friend class SetIndex;

  // Wraps a one-attribute pinned view.
  static StatusOr<std::unique_ptr<Snapshot>> Wrap(
      std::unique_ptr<DatabaseSnapshot> view);
  explicit Snapshot(std::unique_ptr<DatabaseSnapshot> view)
      : view_(std::move(view)) {}

  std::unique_ptr<DatabaseSnapshot> view_;
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_SNAPSHOT_H_
