// The retrieval-cost formulas of §4, the smart strategies of §5 and the §6
// operators, split into the terms that do not depend on N and an
// evaluation that does.
//
// A retrieval cost combines page counts that move with N (SC_OID, the pages
// per bit slice, the signature-file scan, NIX's look-up cost) with terms
// that do not: expected query-signature weights, false-drop probabilities
// and actual drops per object, A/N, which cost pow and lgamma calls.  A
// live store's N moves with every write while V and Dt barely do, so the
// planner (db/indexed_attribute.h) keeps each (candidate kind, Dq)'s
// QueryTerms and evaluates them at the current N.
//
// Each formula is written once, here: the public cost functions of
// cost_ssf.h, cost_bssf.h, cost_nix.h, cost_ext.h and cost_breakdown.h make
// their terms and evaluate them with these functions.  An evaluation runs
// the same floating-point operations in the same order as the formula
// always has, and the page counts it hoists out of the k and s loops are
// the same values, so every cost is bit-identical to the one-shot form.

#ifndef SIGSET_MODEL_COST_TERMS_H_
#define SIGSET_MODEL_COST_TERMS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "model/cost_breakdown.h"
#include "model/params.h"
#include "sig/facility.h"

namespace sigsetdb {

// --- terms that do not depend on N ------------------------------------------

// One candidate filter: the expected query-signature weight m_q, the
// filter's false-drop probability and its actual drops per object (A/N).
// The §6 operators' filters leave m_q at 0.
struct FilterTerms {
  double m_q = 0;
  double fd = 0;
  double drop_ratio = 0;
};

// T ⊇ Q filtered on k query elements (k = Dq is the plain strategy).
FilterTerms SupersetFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                           int64_t k);
// T ⊆ Q.
FilterTerms SubsetFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                         int64_t dq);
// T = Q and T ∩ Q ≠ ∅ (model/cost_ext.h).
FilterTerms EqualsFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                         int64_t dq);
FilterTerms OverlapFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                          int64_t dq);

// Every N-independent term one candidate kind at one Dq needs to price all
// of its access paths and their breakdowns, at fixed (F, m, V, Dt).
struct QueryTerms {
  QueryKind kind = QueryKind::kSuperset;  // a candidate kind
  int64_t dq = 0;
  // ⊇: the k-element filters for k = 1..Dq, filters[k − 1].  The other
  // kinds: the operator's filter at Dq.
  std::vector<FilterTerms> filters;
  // ⊆: NIX's failing candidates per object (Appendix B's sum).  =: NIX's
  // candidates per object, the ⊇ drop ratio at Dq.  Else unused.
  double nix_ratio = 0;

  const FilterTerms& at_dq() const { return filters.back(); }
};

// `kind` must be a candidate kind (CandidateKind) and dq >= 1.
QueryTerms MakeQueryTerms(const SignatureParams& sig, int64_t v, int64_t dt,
                          QueryKind kind, int64_t dq);

// FalseDropSubsetPartial at s = 0..F scanned slices.  It depends only on
// (F, m, Dt), so one table serves the smart ⊆ strategy at every Dq.
std::vector<double> PartialScanTable(const SignatureParams& sig, int64_t dt);

// --- the evaluation at one N ------------------------------------------------

// The N-dependent page counts, as the formulas read them.
struct PageTerms {
  double n;       // N
  double o_d;     // O_d: OIDs per OID-file page
  double sc_oid;  // SC_OID = ⌈N/O_d⌉
  double spp;     // ⌈N/(P·b)⌉: pages per bit slice
  double p_s;
  double p_u;
};
PageTerms MakePageTerms(const DatabaseParams& db);

// LC_OID = SC_OID · min(Fd·(O_d − α) + α, 1) with α = A/SC_OID.
double OidLookup(double sc_oid, double o_d, double fd, double a);

// The signature-file costs below are scan + LC_OID + P_s·A + P_u·Fd·(N − A)
// for their scan; the §6 operators' form adds the scan to the sum of the
// rest, which groups, and so rounds, differently from eq. 7.

// SSF (eq. 7); `sc_sig` is SC_SIG.
double PriceSsf(const PageTerms& p, double sc_sig, const FilterTerms& f);
// SSF for T = Q and T ∩ Q ≠ ∅ (the §6 form).
double PriceSsfExt(const PageTerms& p, double sc_sig, const FilterTerms& f);
// BSSF T ⊇ Q: ⌈N/(P·b)⌉·m_q + ... (eq. 8).
double PriceBssfSuperset(const PageTerms& p, const FilterTerms& f);
// BSSF T ⊆ Q: ⌈N/(P·b)⌉·(F − m_q) + ... (eq. 8); `f_bits` is F.
double PriceBssfSubset(const PageTerms& p, double f_bits,
                       const FilterTerms& f);
// §5.1.3 over k = 1..Dq (`filters` as in QueryTerms, not empty); the
// minimizer goes to `*best_k`.
double PriceBssfSmartSuperset(const PageTerms& p,
                              std::span<const FilterTerms> filters,
                              int64_t* best_k);
// §5.2.2 over s = 0..⌊F − m_q⌋ scanned slices, floored at the plain cost;
// `partial` is PartialScanTable (at least ⌊F − m_q⌋ + 1 entries).
double PriceBssfSmartSubset(const PageTerms& p, double f_bits,
                            const FilterTerms& f,
                            std::span<const double> partial, int64_t* best_s);
// BSSF T = Q reads all F slices; T ∩ Q ≠ ∅ runs one m-slice filter per
// query element (the §6 form).
double PriceBssfEquals(const PageTerms& p, double f_bits,
                       const FilterTerms& f);
double PriceBssfOverlap(const PageTerms& p, double m, int64_t dq,
                        const FilterTerms& f);
// NIX with an exact candidate set: rc·k look-ups, then P_s per candidate
// (T ⊇ Q on k elements, T = Q, T ∩ Q ≠ ∅).  `rc` is NixLookupCost.
double PriceNix(const PageTerms& p, double rc, int64_t k, double drop_ratio);
// §5.1.3 NIX over k = 1..Dq.
double PriceNixSmartSuperset(const PageTerms& p, double rc,
                             std::span<const FilterTerms> filters,
                             int64_t* best_k);
// NIX T ⊆ Q (Appendix B): rc·Dq + P_u·failing + P_s·A.
double PriceNixSubset(const PageTerms& p, double rc, int64_t dq,
                      double failing_ratio, double drop_ratio);

// Per-stage breakdowns (cost_breakdown.h).  Candidates that are answers at
// Dq never count as false drops, even under a smart filter run at reduced
// cardinality.
CostBreakdown SsfBreakdownOf(const PageTerms& p, double sc_sig,
                             const FilterTerms& f);
// BSSF T ⊇ Q on the k-element filter `f`; `final_ratio` is A/N at Dq.
CostBreakdown BssfSupersetBreakdownOf(const PageTerms& p, const FilterTerms& f,
                                      double final_ratio);
// BSSF T ⊆ Q scanning `s` slices (s < 0: all F − m_q, the plain strategy),
// floored at the plain breakdown as PriceBssfSmartSubset floors its cost;
// `partial_s` is FalseDropSubsetPartial at s.
CostBreakdown BssfSubsetBreakdownOf(const PageTerms& p, double f_bits,
                                    const FilterTerms& f, int64_t s,
                                    double partial_s);
// NIX T ⊇ Q intersecting k postings; `final_ratio` is A/N at Dq.
CostBreakdown NixSupersetBreakdownOf(const PageTerms& p, double rc, int64_t k,
                                     double drop_ratio, double final_ratio);
// NIX T ⊆ Q.
CostBreakdown NixSubsetBreakdownOf(const PageTerms& p, double rc, int64_t dq,
                                   double failing_ratio, double drop_ratio);

}  // namespace sigsetdb

#endif  // SIGSET_MODEL_COST_TERMS_H_
