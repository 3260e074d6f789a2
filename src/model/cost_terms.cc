#include "model/cost_terms.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "model/actual_drops.h"
#include "model/cost_bssf.h"
#include "model/cost_ext.h"
#include "model/false_drop.h"

namespace sigsetdb {

FilterTerms SupersetFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                           int64_t k) {
  return {ExpectedSignatureWeight(sig, k), FalseDropSuperset(sig, dt, k),
          SupersetDropRatio(v, dt, k)};
}

FilterTerms SubsetFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                         int64_t dq) {
  return {ExpectedSignatureWeight(sig, dq), FalseDropSubset(sig, dt, dq),
          SubsetDropRatio(v, dt, dq)};
}

FilterTerms EqualsFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                         int64_t dq) {
  return {0.0, FalseDropEquals(sig, dt, dq), EqualsDropRatio(v, dt, dq)};
}

FilterTerms OverlapFilter(const SignatureParams& sig, int64_t v, int64_t dt,
                          int64_t dq) {
  return {0.0, FalseDropOverlap(sig, dt, dq), OverlapDropRatio(v, dt, dq)};
}

QueryTerms MakeQueryTerms(const SignatureParams& sig, int64_t v, int64_t dt,
                          QueryKind kind, int64_t dq) {
  QueryTerms terms;
  terms.kind = kind;
  terms.dq = dq;
  switch (kind) {
    case QueryKind::kSuperset:
      terms.filters.reserve(static_cast<size_t>(dq));
      for (int64_t k = 1; k <= dq; ++k) {
        terms.filters.push_back(SupersetFilter(sig, v, dt, k));
      }
      break;
    case QueryKind::kSubset:
      terms.filters.push_back(SubsetFilter(sig, v, dt, dq));
      terms.nix_ratio = NixSubsetFailingRatio(v, dt, dq);
      break;
    case QueryKind::kEquals:
      terms.filters.push_back(EqualsFilter(sig, v, dt, dq));
      terms.nix_ratio = SupersetDropRatio(v, dt, dq);
      break;
    default:
      terms.filters.push_back(OverlapFilter(sig, v, dt, dq));
      break;
  }
  return terms;
}

std::vector<double> PartialScanTable(const SignatureParams& sig, int64_t dt) {
  std::vector<double> table(static_cast<size_t>(sig.f) + 1);
  for (size_t s = 0; s < table.size(); ++s) {
    table[s] = FalseDropSubsetPartial(sig, dt, static_cast<double>(s));
  }
  return table;
}

namespace {

// Eq. 7 and 8: scan + LC_OID + P_s·A + P_u·Fd·(N − A).
double SignatureRetrieval(const PageTerms& p, double scan, double fd,
                          double a) {
  return scan + OidLookup(p.sc_oid, p.o_d, fd, a) + p.p_s * a +
         p.p_u * fd * (p.n - a);
}

// The §6 operators' grouping: scan + (LC_OID + P_s·A + P_u·Fd·(N − A)).
double ExtSignatureRetrieval(const PageTerms& p, double scan, double fd,
                             double a) {
  return scan + (OidLookup(p.sc_oid, p.o_d, fd, a) + p.p_s * a +
                 p.p_u * fd * (p.n - a));
}

// A signature-file plan's breakdown: it scans `scan` pages through a filter
// of false-drop rate `fd` and actual drops `a_filter`; `a_final` are the
// answers.
CostBreakdown SignatureBreakdown(const PageTerms& p, double scan, double fd,
                                 double a_filter, double a_final) {
  CostBreakdown out;
  out.candidate_selection = scan;
  out.oid_lookup = OidLookup(p.sc_oid, p.o_d, fd, a_filter);
  out.resolution = p.p_s * a_filter + p.p_u * fd * (p.n - a_filter);
  out.expected_candidates = a_filter + fd * (p.n - a_filter);
  out.expected_false_drops =
      std::max(0.0, out.expected_candidates - a_final);
  return out;
}

}  // namespace

PageTerms MakePageTerms(const DatabaseParams& db) {
  return {static_cast<double>(db.n),
          static_cast<double>(db.OidsPerPage()),
          static_cast<double>(db.OidFilePages()),
          static_cast<double>(BssfSlicePages(db)),
          db.p_s,
          db.p_u};
}

double OidLookup(double sc_oid, double o_d, double fd, double a) {
  double alpha = a / sc_oid;  // actual drops per OID-file page
  double per_page = std::min(fd * (o_d - alpha) + alpha, 1.0);
  return sc_oid * per_page;
}

double PriceSsf(const PageTerms& p, double sc_sig, const FilterTerms& f) {
  return SignatureRetrieval(p, sc_sig, f.fd, p.n * f.drop_ratio);
}

double PriceBssfSuperset(const PageTerms& p, const FilterTerms& f) {
  return SignatureRetrieval(p, p.spp * f.m_q, f.fd, p.n * f.drop_ratio);
}

double PriceBssfSubset(const PageTerms& p, double f_bits,
                       const FilterTerms& f) {
  return SignatureRetrieval(p, p.spp * (f_bits - f.m_q), f.fd,
                            p.n * f.drop_ratio);
}

double PriceSsfExt(const PageTerms& p, double sc_sig, const FilterTerms& f) {
  return ExtSignatureRetrieval(p, sc_sig, f.fd, p.n * f.drop_ratio);
}

double PriceBssfEquals(const PageTerms& p, double f_bits,
                       const FilterTerms& f) {
  return ExtSignatureRetrieval(p, p.spp * f_bits, f.fd, p.n * f.drop_ratio);
}

double PriceBssfOverlap(const PageTerms& p, double m, int64_t dq,
                        const FilterTerms& f) {
  return ExtSignatureRetrieval(p, p.spp * m * static_cast<double>(dq), f.fd,
                               p.n * f.drop_ratio);
}

double PriceBssfSmartSuperset(const PageTerms& p,
                              std::span<const FilterTerms> filters,
                              int64_t* best_k) {
  const int64_t dq = static_cast<int64_t>(filters.size());
  double best = PriceBssfSuperset(p, filters.back());
  int64_t arg = dq;
  for (int64_t k = 1; k < dq; ++k) {
    // Using k elements is equivalent to running the plain strategy for a
    // query of cardinality k: candidates = A(k) + Fd(k)·(N − A(k)) and all
    // of them are fetched once (the full Dq-element check happens on the
    // fetched object at no extra I/O).
    double cost = PriceBssfSuperset(p, filters[static_cast<size_t>(k - 1)]);
    if (cost < best) {
      best = cost;
      arg = k;
    }
  }
  *best_k = arg;
  return best;
}

double PriceBssfSmartSubset(const PageTerms& p, double f_bits,
                            const FilterTerms& f,
                            std::span<const double> partial,
                            int64_t* best_s) {
  const int64_t max_s = static_cast<int64_t>(std::floor(f_bits - f.m_q));
  const double a = p.n * f.drop_ratio;
  // The plain strategy (scan every zero slice, eq. 8) is always available
  // as a fallback, so the smart cost can never exceed it; starting from it
  // also irons out the tiny mismatch between the partial-scan false-drop
  // approximation at s = F − m_q and eq. 6.
  double best = PriceBssfSubset(p, f_bits, f);
  int64_t arg = max_s;
  for (int64_t s = 0; s <= max_s; ++s) {
    double cost = SignatureRetrieval(p, p.spp * static_cast<double>(s),
                                     partial[static_cast<size_t>(s)], a);
    if (cost < best) {
      best = cost;
      arg = s;
    }
  }
  *best_s = arg;
  return best;
}

double PriceNix(const PageTerms& p, double rc, int64_t k, double drop_ratio) {
  return rc * static_cast<double>(k) + p.p_s * (p.n * drop_ratio);
}

double PriceNixSmartSuperset(const PageTerms& p, double rc,
                             std::span<const FilterTerms> filters,
                             int64_t* best_k) {
  const int64_t dq = static_cast<int64_t>(filters.size());
  double best = std::numeric_limits<double>::infinity();
  int64_t arg = dq;
  for (int64_t k = 1; k <= dq; ++k) {
    // Intersecting k postings yields A(k) candidates (objects containing
    // the k chosen query elements); each is fetched once and, for k < Dq,
    // re-checked against the remaining elements during resolution.
    double cost =
        PriceNix(p, rc, k, filters[static_cast<size_t>(k - 1)].drop_ratio);
    if (cost < best) {
      best = cost;
      arg = k;
    }
  }
  *best_k = arg;
  return best;
}

double PriceNixSubset(const PageTerms& p, double rc, int64_t dq,
                      double failing_ratio, double drop_ratio) {
  return rc * static_cast<double>(dq) + p.p_u * (p.n * failing_ratio) +
         p.p_s * (p.n * drop_ratio);
}

CostBreakdown SsfBreakdownOf(const PageTerms& p, double sc_sig,
                             const FilterTerms& f) {
  const double a = p.n * f.drop_ratio;
  return SignatureBreakdown(p, sc_sig, f.fd, a, a);
}

CostBreakdown BssfSupersetBreakdownOf(const PageTerms& p, const FilterTerms& f,
                                      double final_ratio) {
  // A k-element filter prices exactly like the plain strategy at query
  // cardinality k (the remaining Dq−k elements are checked during
  // resolution at no I/O cost) — see PriceBssfSmartSuperset.
  return SignatureBreakdown(p, p.spp * f.m_q, f.fd, p.n * f.drop_ratio,
                            p.n * final_ratio);
}

CostBreakdown BssfSubsetBreakdownOf(const PageTerms& p, double f_bits,
                                    const FilterTerms& f, int64_t s,
                                    double partial_s) {
  const double a = p.n * f.drop_ratio;
  const CostBreakdown plain =
      SignatureBreakdown(p, p.spp * (f_bits - f.m_q), f.fd, a, a);
  if (s < 0) return plain;
  const CostBreakdown out = SignatureBreakdown(
      p, p.spp * static_cast<double>(s), partial_s, a, a);
  // PriceBssfSmartSubset floors the partial-scan cost at the plain eq. 8
  // cost (the full scan is always available as a fallback, and the
  // partial-scan false-drop approximation overshoots slightly near
  // s = F − m_q).  Mirror the floor so totals match the advised cost.
  return plain.total() <= out.total() ? plain : out;
}

CostBreakdown NixSupersetBreakdownOf(const PageTerms& p, double rc, int64_t k,
                                     double drop_ratio, double final_ratio) {
  CostBreakdown out;
  out.candidate_selection = rc * static_cast<double>(k);
  // The k-way postings intersection is exact at cardinality k; every
  // candidate is fetched once (P_s each — qualifying objects are returned
  // to the user either way).
  const double candidates = p.n * drop_ratio;
  out.resolution = p.p_s * candidates;
  out.expected_candidates = candidates;
  out.expected_false_drops =
      std::max(0.0, candidates - p.n * final_ratio);
  return out;
}

CostBreakdown NixSubsetBreakdownOf(const PageTerms& p, double rc, int64_t dq,
                                   double failing_ratio, double drop_ratio) {
  CostBreakdown out;
  out.candidate_selection = rc * static_cast<double>(dq);
  const double failing = p.n * failing_ratio;
  const double a = p.n * drop_ratio;
  out.resolution = p.p_u * failing + p.p_s * a;
  out.expected_candidates = failing + a;
  out.expected_false_drops = failing;
  return out;
}

}  // namespace sigsetdb
