#include "model/cost_ext.h"

#include <cmath>

#include "model/actual_drops.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"
#include "model/cost_terms.h"
#include "model/false_drop.h"

namespace sigsetdb {

double FalseDropEquals(const SignatureParams& sig, int64_t dt, int64_t dq) {
  double p_t = BitSetProbability(sig, dt);
  double p_q = BitSetProbability(sig, dq);
  double agree = p_t * p_q + (1.0 - p_t) * (1.0 - p_q);
  return std::pow(agree, static_cast<double>(sig.f));
}

double FalseDropOverlap(const SignatureParams& sig, int64_t dt, int64_t dq) {
  double fd1 = FalseDropSuperset(sig, dt, 1);
  return 1.0 - std::pow(1.0 - fd1, static_cast<double>(dq));
}

double SsfRetrievalEquals(const DatabaseParams& db, const SignatureParams& sig,
                          int64_t dt, int64_t dq) {
  return PriceSsfExt(MakePageTerms(db),
                     static_cast<double>(SsfSignaturePages(db, sig)),
                     EqualsFilter(sig, db.v, dt, dq));
}

double BssfRetrievalEquals(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt,
                           int64_t dq) {
  return PriceBssfEquals(MakePageTerms(db), static_cast<double>(sig.f),
                         EqualsFilter(sig, db.v, dt, dq));
}

double NixRetrievalEquals(const DatabaseParams& db, const NixParams& nix,
                          int64_t dt, int64_t dq) {
  // Intersection of all Dq postings (as for ⊇), then a cardinality check
  // against the fetched object.
  return PriceNix(MakePageTerms(db),
                  static_cast<double>(NixLookupCost(db, nix, dt)), dq,
                  SupersetDropRatio(db.v, dt, dq));
}

double SsfRetrievalOverlap(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt,
                           int64_t dq) {
  return PriceSsfExt(MakePageTerms(db),
                     static_cast<double>(SsfSignaturePages(db, sig)),
                     OverlapFilter(sig, db.v, dt, dq));
}

double BssfRetrievalOverlap(const DatabaseParams& db,
                            const SignatureParams& sig, int64_t dt,
                            int64_t dq) {
  return PriceBssfOverlap(MakePageTerms(db), static_cast<double>(sig.m), dq,
                          OverlapFilter(sig, db.v, dt, dq));
}

double NixRetrievalOverlap(const DatabaseParams& db, const NixParams& nix,
                           int64_t dt, int64_t dq) {
  // Union of postings is the exact answer: rc·Dq look-ups + A fetches.
  return PriceNix(MakePageTerms(db),
                  static_cast<double>(NixLookupCost(db, nix, dt)), dq,
                  OverlapDropRatio(db.v, dt, dq));
}

}  // namespace sigsetdb
