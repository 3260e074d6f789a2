// Expected actual-drop counts (paper §4.4): how many of the N uniformly
// drawn Dt-subsets of the V-element domain satisfy the query predicate.
// Extensions for the equality and overlap operators (paper §6 future work)
// follow the same combinatorial style.
//
// Each count is N times a ratio that does not depend on N; the *Ratio
// functions are those terms (model/cost_terms.h keeps them per query), and
// the counts are N times them.

#ifndef SIGSET_MODEL_ACTUAL_DROPS_H_
#define SIGSET_MODEL_ACTUAL_DROPS_H_

#include "model/params.h"

namespace sigsetdb {

// T ⊇ Q (requires Dt ≥ Dq for a nonzero result):
//   A = N · C(V−Dq, Dt−Dq) / C(V, Dt).
double ActualDropsSuperset(const DatabaseParams& db, int64_t dt, int64_t dq);
double SupersetDropRatio(int64_t v, int64_t dt, int64_t dq);

// T ⊆ Q (requires Dq ≥ Dt for a nonzero result):
//   A = N · C(Dq, Dt) / C(V, Dt).
double ActualDropsSubset(const DatabaseParams& db, int64_t dt, int64_t dq);
double SubsetDropRatio(int64_t v, int64_t dt, int64_t dq);

// T = Q (extension): A = N / C(V, Dt) when Dq = Dt, else 0.
double ActualDropsEquals(const DatabaseParams& db, int64_t dt, int64_t dq);
double EqualsDropRatio(int64_t v, int64_t dt, int64_t dq);

// T ∩ Q ≠ ∅ (extension): A = N · (1 − C(V−Dq, Dt)/C(V, Dt)).
double ActualDropsOverlap(const DatabaseParams& db, int64_t dt, int64_t dq);
double OverlapDropRatio(int64_t v, int64_t dt, int64_t dq);

// Expected number of candidate objects a NIX union retrieves for T ⊆ Q that
// then *fail* the check (Appendix B's middle term divided by P_u·N...·):
//   N · Σ_{j=1..Dt−1} C(Dq,j)·C(V−Dq,Dt−j)/C(V,Dt).
double NixSubsetFailingCandidates(const DatabaseParams& db, int64_t dt,
                                  int64_t dq);
double NixSubsetFailingRatio(int64_t v, int64_t dt, int64_t dq);

}  // namespace sigsetdb

#endif  // SIGSET_MODEL_ACTUAL_DROPS_H_
