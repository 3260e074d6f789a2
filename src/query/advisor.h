// Cost-based access-path advisor.
//
// The paper's conclusion is a decision rule ("BSSF with a small m is a very
// promising set access facility... except for Dq = 1, where NIX wins").
// The advisor operationalizes it: given the database statistics and a query
// shape, it ranks the facilities/strategies by modeled page accesses — the
// piece a query optimizer would consult.

#ifndef SIGSET_QUERY_ADVISOR_H_
#define SIGSET_QUERY_ADVISOR_H_

#include <array>
#include <span>
#include <string>
#include <vector>

#include "model/cost_breakdown.h"
#include "model/cost_join.h"
#include "model/cost_terms.h"
#include "model/params.h"
#include "obs/metrics.h"
#include "query/join.h"
#include "sig/facility.h"

namespace sigsetdb {

// One candidate access path with its modeled retrieval cost.
struct AccessPathChoice {
  std::string facility;   // "ssf", "bssf", "nix"
  std::string strategy;   // "plain", "smart(k=2)", "smart(s=150)", ...
  double cost_pages;      // modeled RC
  // Numeric strategy parameter: k (elements used) for smart supersets,
  // s (slices scanned) for smart subsets; 0 for plain strategies.
  int64_t param = 0;
};

// Returns all applicable access paths sorted by ascending cost (stable on
// ties: ssf, bssf, nix plain, then the smart strategies).
// `allow_smart` includes the §5 smart strategies.  Supported kinds:
// kSuperset and kSubset (the kinds the paper models); other kinds return
// kUnimplemented.
StatusOr<std::vector<AccessPathChoice>> AdviseAccessPaths(
    const DatabaseParams& db, const SignatureParams& sig,
    const NixParams& nix, int64_t dt, int64_t dq, QueryKind kind,
    bool allow_smart);

// Convenience: the cheapest access path.
StatusOr<AccessPathChoice> BestAccessPath(const DatabaseParams& db,
                                          const SignatureParams& sig,
                                          const NixParams& nix, int64_t dt,
                                          int64_t dq, QueryKind kind,
                                          bool allow_smart);

// Live workload feedback for the advisor.  The pure model assumes the
// paper's uniform-random sets; real workloads can false-drop far more (or
// less) often and run against a warm buffer pool.  Feedback folds what the
// MetricsRegistry has actually observed back into the cost comparison.
struct AdvisorFeedback {
  // Observed false drops per candidate across resolved queries
  // (false_drops / candidates); < 0 = no observations, trust the model.
  double false_drop_rate = -1.0;
  // Observed buffer-pool hit rate (hits / (hits + misses)); < 0 = none.
  double buffer_hit_rate = -1.0;

  bool empty() const { return false_drop_rate < 0 && buffer_hit_rate < 0; }

  // Reads the registry conventions maintained by SetIndex::Query and the
  // buffer pool's metrics export: counters query.<facility>.candidates and
  // query.<facility>.false_drops (summed over ssf/bssf/nix), and
  // buffer.hits / buffer.misses.
  static AdvisorFeedback FromRegistry(const MetricsRegistry& registry);
};

// Feedback-adjusted advice.  Costs start from AdviseAccessPaths and are
// corrected per choice:
//   - false-drop rate: an inexact filter delivering the same answers at
//     observed rate r needs answers/(1-r) candidates; the surplus (or
//     shortfall) versus the model's expectation is charged at P_u per
//     candidate.  Exact paths (plain NIX T ⊇ Q) are never adjusted, so a
//     workload that false-drops heavily shifts the recommendation toward
//     them.
//   - buffer hit rate: every cost is discounted by (1 - hit rate), turning
//     logical page accesses into expected physical reads.
StatusOr<std::vector<AccessPathChoice>> AdviseAccessPaths(
    const DatabaseParams& db, const SignatureParams& sig,
    const NixParams& nix, int64_t dt, int64_t dq, QueryKind kind,
    bool allow_smart, const AdvisorFeedback& feedback);

// The modeled per-stage decomposition of one advised choice, matching the
// total the advisor priced it at: BreakdownFromTerms over the query's
// terms.  The §6-extension kinds (equals, overlap) have no decomposition
// and return an all-zero breakdown, as does dq < 1; callers treat
// total() == 0 as "no prediction".
CostBreakdown BreakdownForChoice(const DatabaseParams& db,
                                 const SignatureParams& sig,
                                 const NixParams& nix, int64_t dt, int64_t dq,
                                 QueryKind kind,
                                 const AccessPathChoice& choice);

// --- planning from cached terms (model/cost_terms.h) ----------------------
//
// AdviseAccessPaths makes a query's QueryTerms and ranks its paths from
// them.  A planner that keeps the terms of each (candidate kind, Dq) ranks
// at a new N with arithmetic alone, as numbers, and builds the strings of
// the one path it returns.

enum class PathFacility : uint8_t { kSsf, kBssf, kNix };

// "ssf", "bssf" or "nix".
const char* PathFacilityName(PathFacility facility);

// An access path priced from terms, before any string is built.
struct PricedPath {
  PathFacility facility;
  bool smart;
  int64_t param;  // k or s for a smart strategy, else 0
  double cost;
};

// One query's access paths by ascending cost, in AdviseAccessPaths' order.
struct RankedPaths {
  std::array<PricedPath, 5> paths;
  size_t size = 0;

  const PricedPath* begin() const { return paths.data(); }
  const PricedPath* end() const { return paths.data() + size; }
};

// Ranks every access path of `terms`, made for (sig, db.v, dt), at
// db.n objects.  `partial` is PartialScanTable(sig, dt); only a smart ⊆
// ranking reads it.
RankedPaths RankAccessPaths(const QueryTerms& terms,
                            std::span<const double> partial,
                            const DatabaseParams& db,
                            const SignatureParams& sig, const NixParams& nix,
                            int64_t dt, bool allow_smart);

// The AccessPathChoice of a path ranked for candidate kind `kind`.
AccessPathChoice ChoiceFor(const PricedPath& path, QueryKind kind);

// The breakdown of `choice` at (terms.kind, terms.dq), read from `terms`.
// `partial` is PartialScanTable(sig, dt) or empty, in which case a smart ⊆
// breakdown computes its one partial-scan term.  A smart ⊇ choice whose k
// lies outside 1..Dq has no breakdown (all zero).
CostBreakdown BreakdownFromTerms(const QueryTerms& terms,
                                 std::span<const double> partial,
                                 const DatabaseParams& db,
                                 const SignatureParams& sig,
                                 const NixParams& nix, int64_t dt,
                                 const AccessPathChoice& choice);

// --- set-containment joins (R ⋈⊆ S) ---------------------------------------

// One join strategy with its modeled cost (model/cost_join.h).
struct JoinStrategyChoice {
  JoinStrategy strategy;
  std::string name;        // JoinStrategyName(strategy)
  double cost_pages;       // modeled total pages
  double candidate_pairs;  // expected pairs reaching verification
  double result_pairs;     // expected true pairs
};

// Ranks the three concrete join strategies by ascending modeled pages
// (stable on ties, so sig-hash precedes the identically-priced adaptive).
// (db_r, dt_r) describe the outer relation R, (db_s, dt_s) the inner S;
// sig/nix describe the S side's facilities, which nested-loop probes via
// the selection advisor (BestAccessPath at Dq = dt_r).  The crossover the
// tests pin falls out of the formulas: nested-loop wins while
// |R| · RC_sel(S) < scan(S), i.e. for small outer relations.
StatusOr<std::vector<JoinStrategyChoice>> AdviseJoinStrategies(
    const DatabaseParams& db_r, int64_t dt_r, const DatabaseParams& db_s,
    int64_t dt_s, const SignatureParams& sig, const NixParams& nix);

// Convenience: the cheapest join strategy.
StatusOr<JoinStrategyChoice> BestJoinStrategy(const DatabaseParams& db_r,
                                              int64_t dt_r,
                                              const DatabaseParams& db_s,
                                              int64_t dt_s,
                                              const SignatureParams& sig,
                                              const NixParams& nix);

// The per-stage decomposition behind one concrete join strategy, matching
// the total AdviseJoinStrategies priced it at.  kAuto is invalid here.
StatusOr<JoinCostBreakdown> BreakdownForJoinStrategy(
    const DatabaseParams& db_r, int64_t dt_r, const DatabaseParams& db_s,
    int64_t dt_s, const SignatureParams& sig, const NixParams& nix,
    JoinStrategy strategy);

}  // namespace sigsetdb

#endif  // SIGSET_QUERY_ADVISOR_H_
