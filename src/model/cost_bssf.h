// Analytical costs of the Bit-Sliced Signature File (paper §4.2) and the
// smart object-retrieval strategies of §5.1.3 / §5.2.2 (Appendix C).

#ifndef SIGSET_MODEL_COST_BSSF_H_
#define SIGSET_MODEL_COST_BSSF_H_

#include "model/params.h"
#include "sig/facility.h"

namespace sigsetdb {

// Pages per bit slice, ⌈N/(P·b)⌉ (1 for the paper's N = 32,000).
int64_t BssfSlicePages(const DatabaseParams& db);

// RC for T ⊇ Q (paper eq. 8, first form):
//   ⌈N/(P·b)⌉·m_q + LC_OID + P_s·A + P_u·Fd·(N−A),
// with m_q the expected query-signature weight for cardinality Dq.
double BssfRetrievalSuperset(const DatabaseParams& db,
                             const SignatureParams& sig, int64_t dt,
                             int64_t dq);

// RC for T ⊆ Q (paper eq. 8, second form):
//   ⌈N/(P·b)⌉·(F − m_q) + LC_OID + P_s·A + P_u·Fd·(N−A).
double BssfRetrievalSubset(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt, int64_t dq);

// Smart T ⊇ Q (paper §5.1.3): form the query signature from only k of the
// Dq query elements and resolve the extra candidates.  Returns the minimum
// cost over k = 1..Dq; `*best_k` (optional) receives the minimizer.
// Cost(k) is exactly BssfRetrievalSuperset at query cardinality k — the
// remaining Dq−k elements are checked during resolution for free.
double BssfSmartSupersetCost(const DatabaseParams& db,
                             const SignatureParams& sig, int64_t dt,
                             int64_t dq, int64_t* best_k = nullptr);

// Smart T ⊆ Q (paper §5.2.2): scan only s ≤ F − m_q of the query's zero
// slices; Fd(s) = (1 − s/F)^(m·Dt).  Returns the minimum cost over s;
// `*best_s` (optional) receives the minimizer.
double BssfSmartSubsetCost(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt, int64_t dq,
                           int64_t* best_s = nullptr);

// The query cardinality at which the plain T ⊆ Q cost is minimal
// (re-derivation of Appendix C; see DESIGN.md for the OCR note):
//   u* = 1 − (spp·F / (m·Dt·(SC_OID + P_u·N)))^(1/(m·Dt−1)),
//   Dq_opt = −(F/m)·ln u*.
double BssfDqOpt(const DatabaseParams& db, const SignatureParams& sig,
                 int64_t dt);

// Expected slice-page reads the skip index saves a T ⊇ Q scan (extension).
// Per page column the AND scan dies — and all m_q of its reads are skipped —
// as soon as ANY scanned slice's page is entirely zero.  With L live
// signatures on a column and per-bit density m_t/F, a single slice page is
// all-zero with probability q = (1 − m_t/F)^L, so
//   E[skipped] = Σ_columns m_q · (1 − (1 − q)^m_q).
// This is a lower bound: the group-granular summaries can also kill columns
// whose zeros are spread across slices.  Dominant regimes: near-empty
// stores, heavily deleted stores (L shrinks), and tiny Dt.
double BssfExpectedSupersetSkippedPages(const DatabaseParams& db,
                                        const SignatureParams& sig, int64_t dt,
                                        int64_t dq);

// Expected slice-page reads the skip index saves a T ⊆ Q scan: an OR scan
// skips exactly its empty pages, so E[skipped] = Σ_columns (F − m_q) · q.
double BssfExpectedSubsetSkippedPages(const DatabaseParams& db,
                                      const SignatureParams& sig, int64_t dt,
                                      int64_t dq);

// SC = ⌈N/(P·b)⌉·F + SC_OID.
int64_t BssfStorageCost(const DatabaseParams& db, const SignatureParams& sig);

// UC_I = F + 1 (paper's worst case: touch every slice file + OID append).
double BssfInsertCost(const SignatureParams& sig);

// Expected insert cost of the sparse variant (extension, paper §6): only the
// m_t one-bit slices are touched, so UC_I ≈ m_t + 1.
double BssfInsertCostSparse(const SignatureParams& sig, int64_t dt);

// UC_D = SC_OID / 2 (same delete-flag scan as SSF).
double BssfDeleteCost(const DatabaseParams& db);

}  // namespace sigsetdb

#endif  // SIGSET_MODEL_COST_BSSF_H_
