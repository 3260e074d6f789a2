#include "db/snapshot.h"

#include <utility>

namespace sigsetdb {

DatabaseSnapshot::DatabaseSnapshot(EpochPin pin, MetricsRegistry* metrics,
                                   FlightRecorder* recorder)
    : pin_(std::move(pin)),
      state_(pin_.state()),
      metrics_(metrics),
      recorder_(recorder) {}

StatusOr<std::unique_ptr<DatabaseSnapshot>> DatabaseSnapshot::Create(
    EpochPin pin, MetricsRegistry* metrics, FlightRecorder* recorder) {
  if (!pin.pinned() || pin.state() == nullptr) {
    return Status::FailedPrecondition("no published snapshot state to pin");
  }
  std::unique_ptr<DatabaseSnapshot> snap(
      new DatabaseSnapshot(std::move(pin), metrics, recorder));
  const SnapshotState& state = *snap->state_;
  if (state.objects == nullptr || state.attrs.empty()) {
    return Status::Internal("snapshot state is not a Database state");
  }
  const uint64_t at = snap->pin_.epoch();
  snap->objects_view_ = std::make_unique<EpochReadView>(state.objects, at);
  snap->store_ = std::make_unique<MultiObjectStore>(
      snap->objects_view_.get(), static_cast<uint16_t>(state.attrs.size()));
  snap->store_->RecoverCount(state.num_objects);
  for (const IndexedAttribute::Published& published : state.attrs) {
    SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<IndexedAttribute> attr,
                            IndexedAttribute::Pin(published, at));
    snap->attrs_.push_back(std::move(attr));
  }
  return snap;
}

Database::ReadView DatabaseSnapshot::View() const {
  // Serial (one snapshot, one reader thread) and pure-model planning: the
  // plan depends only on published state, so identical epochs plan
  // identically regardless of what other readers have observed since.
  return Database::ReadView{store_.get(), attrs_};
}

void DatabaseSnapshot::Record(const std::string& series, FlightOp op,
                              const TraceTimer& timer, const IoStats& io,
                              const std::string& detail,
                              uint64_t fingerprint) {
  if (metrics_ != nullptr) {
    // The registry is thread-safe, so concurrent readers may share it; the
    // *.snapshot.* names keep lock-free reader traffic separable from the
    // writer-side series.
    metrics_->counter(series + ".count")->Increment();
    metrics_->histogram(series + ".pages")->Record(io.total());
    if (recorder_ != nullptr) {
      metrics_->histogram(series + ".latency_us")
          ->Record(static_cast<uint64_t>(timer.ElapsedMs() * 1000.0));
    }
  }
  if (recorder_ == nullptr) return;
  FlightEvent event;
  event.op = op;
  event.fingerprint = fingerprint;
  event.epoch = pin_.epoch();
  event.SetDelta(io);
  event.SetDetail(detail);
  recorder_->Record(event);
}

StatusOr<DatabaseQueryResult> DatabaseSnapshot::Select(
    const std::vector<SetPredicate>& predicates, PlanMode mode) {
  const Database::ReadView view = View();
  SIGSET_ASSIGN_OR_RETURN(Database::Selection sel,
                          Database::PlanSelection(view, predicates, mode));
  // The timer is armed only when a flight recorder rides along (plain
  // snapshot reads stay clock-free).
  TraceTimer timer(recorder_ != nullptr);
  SIGSET_RETURN_IF_ERROR(Database::RunSelection(view, &sel, nullptr));
  const SetPredicate& driver = sel.preds[sel.driver];
  Record("query.snapshot", FlightOp::kSnapshotQuery, timer, sel.io,
         sel.result.driver,
         recorder_ == nullptr ? 0
                              : FlightRecorder::Fingerprint(
                                    static_cast<int>(driver.kind),
                                    driver.query));
  return std::move(sel.result);
}

StatusOr<DatabaseJoinResult> DatabaseSnapshot::Join(size_t r_attr,
                                                    DatabaseSnapshot* s_side,
                                                    size_t s_attr,
                                                    const JoinSpec& spec) {
  TraceTimer timer(recorder_ != nullptr);
  IoStats io;
  SIGSET_ASSIGN_OR_RETURN(
      DatabaseJoinResult out,
      Database::RunJoin(View(), r_attr, s_side->View(), s_attr, spec,
                        /*trace=*/nullptr, &io));
  Record("join.snapshot", FlightOp::kJoin, timer, io, out.plan, 0);
  return out;
}

StatusOr<DatabaseJoinResult> DatabaseSnapshot::ExecuteSetJoin(
    const std::string& r_attribute, const std::string& s_attribute,
    const JoinSpec& spec) {
  SIGSET_ASSIGN_OR_RETURN(size_t r_attr, View().Find(r_attribute));
  SIGSET_ASSIGN_OR_RETURN(size_t s_attr, View().Find(s_attribute));
  return Join(r_attr, this, s_attr, spec);
}

// ---------------------------------------------------------------------------
// Snapshot (the single-attribute SetIndex view)
// ---------------------------------------------------------------------------

StatusOr<std::unique_ptr<Snapshot>> Snapshot::Create(
    EpochPin pin, MetricsRegistry* metrics, FlightRecorder* recorder) {
  SIGSET_ASSIGN_OR_RETURN(
      std::unique_ptr<DatabaseSnapshot> view,
      DatabaseSnapshot::Create(std::move(pin), metrics, recorder));
  return Wrap(std::move(view));
}

StatusOr<std::unique_ptr<Snapshot>> Snapshot::Wrap(
    std::unique_ptr<DatabaseSnapshot> view) {
  if (view->attrs_.size() != 1) {
    return Status::Internal("snapshot state is not a SetIndex state");
  }
  return std::unique_ptr<Snapshot>(new Snapshot(std::move(view)));
}

StatusOr<StoredObject> Snapshot::Get(Oid oid) const {
  SIGSET_ASSIGN_OR_RETURN(MultiSetObject obj, view_->Get(oid));
  return StoredObject{obj.oid, std::move(obj.attrs[0])};
}

StatusOr<SetIndexResult> Snapshot::Query(QueryKind kind,
                                         const ElementSet& query,
                                         PlanMode mode) {
  SIGSET_ASSIGN_OR_RETURN(DatabaseQueryResult r,
                          view_->Select({SetPredicate{"", kind, query}}, mode));
  return SetIndexResult{
      QueryResult{std::move(r.oids), r.num_candidates, r.num_false_drops},
      std::move(r.driver), r.page_accesses};
}

StatusOr<SetIndexJoinResult> Snapshot::ExecuteSetJoin(Snapshot* s_side,
                                                      const JoinSpec& spec) {
  if (s_side == nullptr) {
    return Status::InvalidArgument("join S side must not be null");
  }
  return view_->Join(0, s_side->view_.get(), 0, spec);
}

}  // namespace sigsetdb
