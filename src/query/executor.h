// Query execution (paper §3.1): an access facility selects candidate OIDs,
// then resolution fetches each candidate (one page access — the paper
// charges P_s/P_u per object even for true drops, since qualified objects
// are returned to the user) and re-checks the predicate against the stored
// value, counting false drops.
//
// SelectCandidates and ResolveCandidates are the only implementations of the
// two steps: Database runs them for live reads, snapshot reads and the
// join's nested-loop probe, and ExecuteSetQuery chains them for one facility
// over a one-attribute store.
//
// Both steps take an optional ParallelExecutionContext.  With a parallel
// context, BSSF slice scans partition across the pool and resolution fans
// out over contiguous candidate ranges; each worker fetches through a
// thread-local IoStats merged into the file counters on join, so results
// AND logical page-access totals are identical to the serial path (a
// property the differential test suite enforces).
//
// Both also take an optional `trace`.  When non-null, the step appends its
// span ("candidate selection" with one child per facility file,
// "resolution" with one child per parallel worker).  Tracing only snapshots
// counters already maintained by the files — it performs no I/O of its own,
// so the page-access totals are identical with tracing on or off (enforced
// by query_trace_test).

#ifndef SIGSET_QUERY_EXECUTOR_H_
#define SIGSET_QUERY_EXECUTOR_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "obj/multi_object_store.h"
#include "obs/trace.h"
#include "sig/facility.h"
#include "util/thread_pool.h"

namespace sigsetdb {

// Outcome of one set query.
struct QueryResult {
  std::vector<Oid> oids;       // objects satisfying the predicate
  uint64_t num_candidates = 0;  // drops delivered by the facility
  uint64_t num_false_drops = 0;  // candidates that failed resolution
};

// One conjunct: <attribute> <operator> <query set>.
struct SetPredicate {
  std::string attribute;
  QueryKind kind;
  ElementSet query;  // normalized by the evaluator
};

// Runs `facility`'s candidate selection for `kind` with `query`
// (normalized).  `param` picks a §5 smart strategy where one exists: T ⊇ Q
// on BSSF builds the query signature from only `param` query elements
// (§5.1.3), T ⊇ Q on NIX intersects the postings of only `param` elements,
// and T ⊆ Q on BSSF scans at most `param` of the query signature's zero
// slices (§5.2.2).  A zero `param`, or any other facility and kind, runs
// the plain strategy.  Proper inclusion (⊋/⊊) reuses the non-strict
// candidates with `exact` cleared; strictness is checked at resolution.
StatusOr<CandidateResult> SelectCandidates(
    SetAccessFacility* facility, QueryKind kind, const ElementSet& query,
    size_t param, const ParallelExecutionContext* ctx, QueryTrace* trace);

// Fetches each candidate from `store` once and keeps it when, for every p,
// attribute `attrs[p]` of the stored object satisfies `preds[p]`.
// `preds[driver]` is the predicate the candidates were selected for: when
// `candidates.exact` is set, a candidate failing it is kInternal (the
// facility promised no false drops).  A candidate with no stored object is
// a false drop.  With a parallel context the candidate list is split into
// contiguous ranges resolved concurrently and concatenated in range order,
// so the OID order, counts and page-access totals match the serial loop.
// Each range is fetched with MultiObjectStore::GetMany, in groups of up to
// kViewGroupSize pages; when an error ends a range (a corrupt record, or
// the exact-candidate check), up to kViewGroupSize - 1 later candidates of
// its group have already been charged a read.
StatusOr<QueryResult> ResolveCandidates(const CandidateResult& candidates,
                                        const MultiObjectStore& store,
                                        std::span<const SetPredicate> preds,
                                        std::span<const size_t> attrs,
                                        size_t driver,
                                        const ParallelExecutionContext* ctx,
                                        QueryTrace* trace);

// SelectCandidates then ResolveCandidates for one predicate on attribute 0
// of `store` (a one-attribute store's set).
StatusOr<QueryResult> ExecuteSetQuery(
    SetAccessFacility* facility, const MultiObjectStore& store, QueryKind kind,
    const ElementSet& query, size_t param = 0,
    const ParallelExecutionContext* ctx = nullptr,
    QueryTrace* trace = nullptr);

}  // namespace sigsetdb

#endif  // SIGSET_QUERY_EXECUTOR_H_
