#include "model/cost_ssf.h"

#include "model/cost_terms.h"

namespace sigsetdb {

int64_t SsfSignaturePages(const DatabaseParams& db,
                          const SignatureParams& sig) {
  int64_t sigs_per_page = db.PageBits() / sig.f;
  return CeilDiv(db.n, sigs_per_page);
}

double OidLookupCost(const DatabaseParams& db, double fd, double a) {
  return OidLookup(static_cast<double>(db.OidFilePages()),
                   static_cast<double>(db.OidsPerPage()), fd, a);
}

double SsfRetrievalCost(const DatabaseParams& db, const SignatureParams& sig,
                        int64_t dt, int64_t dq, QueryKind kind) {
  const FilterTerms f = kind == QueryKind::kSuperset
                            ? SupersetFilter(sig, db.v, dt, dq)
                            : SubsetFilter(sig, db.v, dt, dq);
  return PriceSsf(MakePageTerms(db),
                  static_cast<double>(SsfSignaturePages(db, sig)), f);
}

int64_t SsfStorageCost(const DatabaseParams& db, const SignatureParams& sig) {
  return SsfSignaturePages(db, sig) + db.OidFilePages();
}

double SsfInsertCost() { return 2.0; }

double SsfDeleteCost(const DatabaseParams& db) {
  return static_cast<double>(db.OidFilePages()) / 2.0;
}

}  // namespace sigsetdb
