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

// One operation of a grouped write batch, applied facility-side so each
// implementation can coalesce page touches across the whole group (BSSF
// touches each dirty slice page once per batch instead of once per insert;
// NIX descends once per distinct key).
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

  // Indexes `set_value` for object `oid`.
  virtual Status Insert(Oid oid, const ElementSet& set_value) = 0;

  // Removes the index information for `oid` (whose indexed value was
  // `set_value`; signature facilities ignore it, NIX needs it).
  virtual Status Remove(Oid oid, const ElementSet& set_value) = 0;

  // Applies a group of inserts/removes in one call.  Implementations
  // override this to coalesce page writes across the batch; the default is
  // the op-by-op loop, so the result is always equivalent to applying the
  // ops in order.  Removes are not transactional: a mid-batch error leaves
  // a prefix applied (the crash-recovery protocol owns atomicity).
  virtual Status ApplyBatch(const std::vector<BatchOp>& ops) {
    for (const BatchOp& op : ops) {
      if (op.kind == BatchOp::Kind::kInsert) {
        SIGSET_RETURN_IF_ERROR(Insert(op.oid, op.set_value));
      } else {
        SIGSET_RETURN_IF_ERROR(Remove(op.oid, op.set_value));
      }
    }
    return Status::OK();
  }

  // Returns candidate OIDs for the query.  `query` must be normalized.
  virtual StatusOr<CandidateResult> Candidates(QueryKind kind,
                                               const ElementSet& query) = 0;

  // Parallel-aware variant: facilities that can fan candidate selection out
  // over `ctx` (BSSF slice scans) override this; the default ignores the
  // context and runs the serial path.  Results and logical page-access
  // counts are identical either way.
  virtual StatusOr<CandidateResult> Candidates(
      QueryKind kind, const ElementSet& query,
      const ParallelExecutionContext* ctx) {
    (void)ctx;
    return Candidates(kind, query);
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
