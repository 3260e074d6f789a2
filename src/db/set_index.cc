#include "db/set_index.h"

#include <utility>

#include "db/snapshot.h"
#include "obs/explain.h"

namespace sigsetdb {

SetIndex::SetIndex(Options options, std::unique_ptr<Database> db)
    : options_(std::move(options)), db_(std::move(db)) {}

SetIndex::~SetIndex() = default;

StatusOr<std::unique_ptr<SetIndex>> SetIndex::Start(StorageManager* storage,
                                                    const std::string& name,
                                                    const Options& options,
                                                    bool open) {
  // One unnamed attribute: its files are "<name>.sig", "<name>.slices", ...
  Database::AttributeOptions attr;
  attr.maintain_ssf = options.maintain_ssf;
  attr.maintain_bssf = options.maintain_bssf;
  attr.maintain_nix = options.maintain_nix;
  attr.sig = options.sig;
  attr.nix_fanout = options.nix_fanout;
  attr.domain_estimate = options.domain_estimate;
  Database::Options engine;
  engine.attributes = {attr};
  engine.capacity = options.capacity;
  engine.num_threads = options.num_threads;
  engine.enable_wal = options.enable_wal;
  engine.group_commit_window_us = options.group_commit_window_us;
  engine.enable_snapshots = options.enable_snapshots;
  engine.enable_telemetry = options.enable_telemetry;
  engine.flight_recorder_capacity = options.flight_recorder_capacity;
  engine.drift = options.drift;
  engine.postmortem_dir = options.postmortem_dir;
  const AttributeSettings settings{options.enable_skip_index,
                                   options.enable_hot_tier,
                                   options.hot_tier_capacity,
                                   options.advisor_feedback};
  SIGSET_ASSIGN_OR_RETURN(
      std::unique_ptr<Database> db,
      Database::Start(storage, name, engine, &settings, open));
  return std::unique_ptr<SetIndex>(new SetIndex(options, std::move(db)));
}

StatusOr<std::vector<Oid>> SetIndex::ApplyBatch(const WriteBatch& batch) {
  MultiWriteBatch objects;
  for (const ElementSet& value : batch.inserts()) objects.Insert({value});
  for (Oid oid : batch.deletes()) objects.Delete(oid);
  return db_->ApplyBatch(objects);
}

StatusOr<StoredObject> SetIndex::Get(Oid oid) const {
  SIGSET_ASSIGN_OR_RETURN(MultiSetObject obj, db_->Get(oid));
  return StoredObject{obj.oid, std::move(obj.attrs[0])};
}

StatusOr<std::unique_ptr<Snapshot>> SetIndex::GetSnapshot() {
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<DatabaseSnapshot> view,
                          db_->GetSnapshot());
  return Snapshot::Wrap(std::move(view));
}

StatusOr<SetIndexResult> SetIndex::QueryInternal(QueryKind kind,
                                                 const ElementSet& query,
                                                 PlanMode mode,
                                                 QueryTrace* trace) {
  SIGSET_ASSIGN_OR_RETURN(
      Database::Selection sel,
      db_->Select({SetPredicate{"", kind, query}}, mode, trace));
  DatabaseQueryResult& r = sel.result;
  return SetIndexResult{
      QueryResult{std::move(r.oids), r.num_candidates, r.num_false_drops},
      std::move(r.driver), r.page_accesses};
}

StatusOr<SetIndexExplainResult> SetIndex::Explain(QueryKind kind,
                                                  const ElementSet& query,
                                                  PlanMode mode) {
  SetIndexExplainResult out;
  SIGSET_ASSIGN_OR_RETURN(out.result,
                          QueryInternal(kind, query, mode, &out.trace));
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

StatusOr<SetIndexJoinResult> SetIndex::JoinInternal(SetIndex* s_side,
                                                    const JoinSpec& spec,
                                                    QueryTrace* trace) {
  if (s_side == nullptr) {
    return Status::InvalidArgument("join S side must not be null");
  }
  return db_->Join(0, s_side->db_.get(), 0, spec, trace);
}

StatusOr<SetIndexJoinExplainResult> SetIndex::ExplainSetJoin(
    SetIndex* s_side, const JoinSpec& spec) {
  SetIndexJoinExplainResult out;
  SIGSET_ASSIGN_OR_RETURN(out.result, JoinInternal(s_side, spec, &out.trace));
  out.text = RenderExplain(out.trace);
  out.json = out.trace.ToJson();
  return out;
}

}  // namespace sigsetdb
