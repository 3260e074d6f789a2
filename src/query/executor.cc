#include "query/executor.h"

#include <algorithm>
#include <utility>

#include "nix/nested_index.h"
#include "sig/bssf.h"
#include "sig/signature.h"

namespace sigsetdb {

StatusOr<CandidateResult> SelectCandidates(
    SetAccessFacility* facility, QueryKind kind, const ElementSet& query,
    size_t param, const ParallelExecutionContext* ctx, QueryTrace* trace) {
  IoSnapshots before;
  TraceTimer timer(trace != nullptr);
  if (trace != nullptr) before = facility->StageStats();
  const QueryKind ck = CandidateKind(kind);
  NestedIndex* nix =
      param > 0 ? dynamic_cast<NestedIndex*>(facility) : nullptr;
  BitSlicedSignatureFile* bssf =
      param > 0 ? dynamic_cast<BitSlicedSignatureFile*>(facility) : nullptr;
  CandidateResult candidates;
  if (nix != nullptr && ck == QueryKind::kSuperset) {
    SIGSET_ASSIGN_OR_RETURN(candidates,
                            nix->CandidatesSmartSuperset(query, param));
  } else if (bssf != nullptr && ck == QueryKind::kSuperset) {
    // Smart T ⊇ Q (§5.1.3): a signature of only `param` query elements.
    const BitVector sig =
        MakePartialQuerySignature(query, param, bssf->config());
    SIGSET_ASSIGN_OR_RETURN(std::vector<uint64_t> slots,
                            bssf->SupersetCandidateSlots(sig, ctx));
    SIGSET_ASSIGN_OR_RETURN(candidates.oids, bssf->ResolveSlots(slots));
  } else if (bssf != nullptr && ck == QueryKind::kSubset) {
    // Smart T ⊆ Q (§5.2.2): at most `param` of the zero slices.
    const BitVector sig = MakeSetSignature(query, bssf->config());
    SIGSET_ASSIGN_OR_RETURN(std::vector<uint64_t> slots,
                            bssf->SubsetCandidateSlots(sig, param, ctx));
    SIGSET_ASSIGN_OR_RETURN(candidates.oids, bssf->ResolveSlots(slots));
  } else {
    SIGSET_ASSIGN_OR_RETURN(candidates, facility->Candidates(ck, query, ctx));
  }
  if (kind != ck) candidates.exact = false;
  if (trace != nullptr) {
    TraceSpan* span = AddSnapshotStage(trace, "candidate selection", before,
                                       facility->StageStats());
    span->wall_ms = timer.ElapsedMs();
    span->candidates = static_cast<int64_t>(candidates.oids.size());
  }
  return candidates;
}

StatusOr<QueryResult> ResolveCandidates(const CandidateResult& candidates,
                                        const MultiObjectStore& store,
                                        std::span<const SetPredicate> preds,
                                        std::span<const size_t> attrs,
                                        size_t driver,
                                        const ParallelExecutionContext* ctx,
                                        QueryTrace* trace) {
  // With a pool, contiguous candidate ranges resolve concurrently through
  // thread-local IoStats merged below, so the kept-OID order and the
  // page-access total match the serial loop.
  const size_t n = candidates.oids.size();
  const size_t workers =
      ctx == nullptr ? 1 : std::max<size_t>(1, ctx->WorkersFor(n));
  struct Worker {
    std::vector<Oid> kept;
    uint64_t false_drops = 0;
    uint64_t processed = 0;
    double wall_ms = 0.0;
    IoStats io;
    Status status;
  };
  std::vector<Worker> states(workers);
  const SetPredicate& driving = preds[driver];
  const size_t driver_attr = attrs[driver];
  auto resolve = [&](size_t w, size_t begin, size_t end) {
    Worker& ws = states[w];
    TraceTimer timer(trace != nullptr);
    IoStats* io = workers > 1 ? &ws.io : &store.stats();
    ws.processed = end - begin;
    MultiSetObject obj;  // reused: one fetch per candidate, no allocation
    for (size_t i = begin; i < end; ++i) {
      const Oid oid = candidates.oids[i];
      Status got = store.GetInto(oid, &obj, io);
      if (!got.ok()) {
        // A candidate with no stored object is a false drop, not an error
        // — even for exact candidate sets: crash recovery rolls the
        // indexes back to a checkpoint that can still reference objects
        // whose store delete already committed.
        if (got.code() == StatusCode::kNotFound) {
          ++ws.false_drops;
          continue;
        }
        ws.status = std::move(got);
        return;
      }
      bool keep =
          Satisfies(obj.attrs[driver_attr], driving.kind, driving.query);
      if (!keep && candidates.exact) {
        ws.status = Status::Internal(
            "facility reported exact candidates but " + oid.ToString() +
            " fails the predicate");
        return;
      }
      for (size_t p = 0; keep && p < preds.size(); ++p) {
        keep = p == driver ||
               Satisfies(obj.attrs[attrs[p]], preds[p].kind, preds[p].query);
      }
      if (keep) {
        ws.kept.push_back(oid);
      } else {
        ++ws.false_drops;
      }
    }
    ws.wall_ms = timer.ElapsedMs();
  };
  const IoStats before = store.stats();
  TraceTimer timer(trace != nullptr);
  if (workers > 1) {
    ctx->pool->ParallelFor(n, workers, resolve);
    // Merge stats before checking statuses so accounting stays exact even
    // when a worker failed.
    std::vector<Status> statuses;
    for (const Worker& ws : states) {
      store.stats() += ws.io;
      statuses.push_back(ws.status);
    }
    SIGSET_RETURN_IF_ERROR(MergeWorkerStatuses(statuses));
  } else {
    resolve(0, 0, n);
    SIGSET_RETURN_IF_ERROR(states[0].status);
  }
  QueryResult out;
  out.num_candidates = n;
  for (Worker& ws : states) {
    if (out.oids.empty()) {
      out.oids = std::move(ws.kept);
    } else {
      out.oids.insert(out.oids.end(), ws.kept.begin(), ws.kept.end());
    }
    out.num_false_drops += ws.false_drops;
  }
  if (trace == nullptr) return out;
  TraceSpan* span = trace->AddStage("resolution");
  *span += (store.stats() - before).counts();
  span->wall_ms = timer.ElapsedMs();
  span->candidates = static_cast<int64_t>(n);
  span->false_drops = static_cast<int64_t>(out.num_false_drops);
  // One timed child per worker (the trace-event exporter renders these as
  // parallel tracks, making resolve skew visible); their page deltas sum to
  // the span's, since each worker resolved a disjoint range.
  for (size_t w = 0; workers > 1 && w < states.size(); ++w) {
    TraceSpan child;
    child.name = "worker " + std::to_string(w);
    child += states[w].io.counts();
    child.wall_ms = states[w].wall_ms;
    child.candidates = static_cast<int64_t>(states[w].processed);
    child.false_drops = static_cast<int64_t>(states[w].false_drops);
    span->children.push_back(std::move(child));
  }
  return out;
}

StatusOr<QueryResult> ExecuteSetQuery(SetAccessFacility* facility,
                                      const MultiObjectStore& store,
                                      QueryKind kind, const ElementSet& query,
                                      size_t param,
                                      const ParallelExecutionContext* ctx,
                                      QueryTrace* trace) {
  SIGSET_ASSIGN_OR_RETURN(
      CandidateResult candidates,
      SelectCandidates(facility, kind, query, param, ctx, trace));
  const SetPredicate pred{"", kind, query};
  const size_t attr = 0;
  return ResolveCandidates(candidates, store, {&pred, 1}, {&attr, 1},
                           /*driver=*/0, ctx, trace);
}

}  // namespace sigsetdb
