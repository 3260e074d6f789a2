#include "model/cost_breakdown.h"

#include "model/actual_drops.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"
#include "model/cost_terms.h"
#include "model/false_drop.h"

namespace sigsetdb {

CostBreakdown SsfBreakdown(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt, int64_t dq,
                           QueryKind kind) {
  return SsfBreakdownOf(MakePageTerms(db),
                        static_cast<double>(SsfSignaturePages(db, sig)),
                        kind == QueryKind::kSuperset
                            ? SupersetFilter(sig, db.v, dt, dq)
                            : SubsetFilter(sig, db.v, dt, dq));
}

CostBreakdown BssfSupersetBreakdown(const DatabaseParams& db,
                                    const SignatureParams& sig, int64_t dt,
                                    int64_t dq, int64_t k) {
  return BssfSupersetBreakdownOf(MakePageTerms(db),
                                 SupersetFilter(sig, db.v, dt, k),
                                 SupersetDropRatio(db.v, dt, dq));
}

CostBreakdown BssfSubsetBreakdown(const DatabaseParams& db,
                                  const SignatureParams& sig, int64_t dt,
                                  int64_t dq, int64_t s) {
  return BssfSubsetBreakdownOf(
      MakePageTerms(db), static_cast<double>(sig.f),
      SubsetFilter(sig, db.v, dt, dq), s,
      s < 0 ? 0.0
            : FalseDropSubsetPartial(sig, dt, static_cast<double>(s)));
}

CostBreakdown NixSupersetBreakdown(const DatabaseParams& db,
                                   const NixParams& nix, int64_t dt,
                                   int64_t dq, int64_t k) {
  return NixSupersetBreakdownOf(
      MakePageTerms(db), static_cast<double>(NixLookupCost(db, nix, dt)), k,
      SupersetDropRatio(db.v, dt, k), SupersetDropRatio(db.v, dt, dq));
}

CostBreakdown NixSubsetBreakdown(const DatabaseParams& db,
                                 const NixParams& nix, int64_t dt,
                                 int64_t dq) {
  return NixSubsetBreakdownOf(
      MakePageTerms(db), static_cast<double>(NixLookupCost(db, nix, dt)), dq,
      NixSubsetFailingRatio(db.v, dt, dq), SubsetDropRatio(db.v, dt, dq));
}

}  // namespace sigsetdb
