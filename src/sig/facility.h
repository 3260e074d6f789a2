// SetAccessFacility: the common interface of the three access methods the
// paper compares (SSF, BSSF, NIX).
//
// A facility maps a set-predicate query to a *candidate* OID list.  When
// `exact` is false the list may contain false drops and the caller must run
// false-drop resolution (fetch each object and re-check the predicate with
// Satisfies) — ResolveCandidates in query/executor.h implements that step.

#ifndef SIGSET_SIG_FACILITY_H_
#define SIGSET_SIG_FACILITY_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obj/object.h"
#include "obj/oid.h"
#include "storage/io_stats.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace sigsetdb {

// The set-comparison queries studied by the paper (§2) plus the two
// operators listed as future work in §6 (equality and overlap), which this
// reproduction implements as extensions.
enum class QueryKind {
  kSuperset,        // T ⊇ Q  ("has-subset")
  kSubset,          // T ⊆ Q  ("in-subset")
  kProperSuperset,  // T ⊋ Q  (the paper's §1 "only the lectures" variant)
  kProperSubset,    // T ⊊ Q
  kEquals,          // T = Q
  kOverlaps,        // T ∩ Q ≠ ∅
};

// The non-strict predicate whose candidates are a superset of `kind`'s
// (proper variants filter during resolution; others are themselves).
QueryKind CandidateKind(QueryKind kind);

// Does a stored set `value` satisfy `kind` against `query`?  Both must be
// normalized.
bool Satisfies(const ElementSet& value, QueryKind kind,
               const ElementSet& query);

const char* QueryKindName(QueryKind kind);

// Result of the candidate-selection phase.
struct CandidateResult {
  std::vector<Oid> oids;
  // True when the facility guarantees no false drops (e.g. NIX intersection
  // for T ⊇ Q); resolution can then skip the re-check.
  bool exact = false;
};

// One operation of a write batch.  Every write reaches a facility as a
// batch (a singleton insert or delete is a batch of one), so each
// implementation coalesces page touches across the whole group: BSSF
// touches each dirty slice page once per batch, NIX descends once per
// distinct key.
struct BatchOp {
  enum class Kind { kInsert, kRemove };
  Kind kind = Kind::kInsert;
  Oid oid;
  ElementSet set_value;
};

// Abstract access facility over one indexed set attribute.
class SetAccessFacility {
 public:
  virtual ~SetAccessFacility() = default;

  // Human-readable facility name ("ssf", "bssf", "nix").
  virtual const std::string& name() const = 0;

  // The one write method: applies a group of inserts and removes.  Removes
  // run first, so slots they free can take the batch's inserts; a batch
  // must not remove an object it inserts.  A remove carries the object's
  // indexed value (NIX needs it; the signature files check it only with
  // paranoid checks on).  Removes are not transactional: a mid-batch error
  // leaves a prefix applied (the crash-recovery protocol owns atomicity).
  virtual Status ApplyBatch(const std::vector<BatchOp>& ops) = 0;

  // Indexes `set_value` for object `oid`: a batch of one insert.
  Status Insert(Oid oid, const ElementSet& set_value) {
    return ApplyBatch({BatchOp{BatchOp::Kind::kInsert, oid, set_value}});
  }

  // Removes the index information for `oid`, whose indexed value was
  // `set_value`: a batch of one remove.
  Status Remove(Oid oid, const ElementSet& set_value) {
    return ApplyBatch({BatchOp{BatchOp::Kind::kRemove, oid, set_value}});
  }

  // The one read method: returns candidate OIDs for the query.  `query`
  // must be normalized.  Facilities that can fan candidate selection out
  // over `ctx` (BSSF slice scans) do; the others ignore it, as all do when
  // it is null.  Results and logical page-access counts are identical
  // either way.
  virtual StatusOr<CandidateResult> Candidates(
      QueryKind kind, const ElementSet& query,
      const ParallelExecutionContext* ctx) = 0;

  // Serial candidate selection: Candidates with no execution context.
  // Derived classes re-export it with `using SetAccessFacility::Candidates`.
  StatusOr<CandidateResult> Candidates(QueryKind kind,
                                       const ElementSet& query) {
    return Candidates(kind, query, nullptr);
  }

  // Pages occupied by the facility's files (the paper's storage cost SC,
  // excluding the object file).
  virtual uint64_t StoragePages() const = 0;

  // Stage-labelled snapshots of the facility's per-file access counters,
  // e.g. {"slice scan", <slice-file stats>}, {"oid lookup", <oid-file
  // stats>}.  Query tracing diffs two snapshots around candidate selection
  // to attribute the stage's page accesses to the facility's files; the
  // snapshots are value copies, so taking them performs no page I/O.  The
  // default (no breakdown) keeps tracing usable with any facility.
  virtual std::vector<std::pair<std::string, IoStats>> StageStats() const {
    return {};
  }
};

}  // namespace sigsetdb

#endif  // SIGSET_SIG_FACILITY_H_
