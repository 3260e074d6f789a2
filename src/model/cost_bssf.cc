#include "model/cost_bssf.h"

#include <algorithm>
#include <cmath>

#include "model/cost_terms.h"
#include "model/false_drop.h"

namespace sigsetdb {

int64_t BssfSlicePages(const DatabaseParams& db) {
  return CeilDiv(db.n, db.PageBits());
}

double BssfRetrievalSuperset(const DatabaseParams& db,
                             const SignatureParams& sig, int64_t dt,
                             int64_t dq) {
  return PriceBssfSuperset(MakePageTerms(db),
                           SupersetFilter(sig, db.v, dt, dq));
}

double BssfRetrievalSubset(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt,
                           int64_t dq) {
  return PriceBssfSubset(MakePageTerms(db), static_cast<double>(sig.f),
                         SubsetFilter(sig, db.v, dt, dq));
}

namespace {

// Per page column: L live slots (PageBits on full columns, the remainder on
// the last) and q = (1 − m_t/F)^L, the chance one scanned slice's page of
// that column is entirely zero.  `per_column` maps (q, scanned slices) to
// the column's expected skip count; summed over the store's columns.
double SumOverColumns(const DatabaseParams& db, const SignatureParams& sig,
                      int64_t dt, double scanned,
                      double (*per_column)(double q, double scanned)) {
  if (db.n <= 0 || scanned <= 0.0) return 0.0;
  const double bit_density =
      ExpectedSignatureWeight(sig, dt) / static_cast<double>(sig.f);
  const int64_t page_bits = db.PageBits();
  const int64_t columns = CeilDiv(db.n, page_bits);
  double total = 0.0;
  for (int64_t c = 0; c < columns; ++c) {
    const int64_t live = std::min(page_bits, db.n - c * page_bits);
    const double q =
        std::pow(1.0 - bit_density, static_cast<double>(live));
    total += per_column(q, scanned);
  }
  return total;
}

}  // namespace

double BssfExpectedSupersetSkippedPages(const DatabaseParams& db,
                                        const SignatureParams& sig, int64_t dt,
                                        int64_t dq) {
  const double m_q = ExpectedSignatureWeight(sig, dq);
  return SumOverColumns(db, sig, dt, m_q, [](double q, double scanned) {
    // The column dies (all `scanned` reads skipped) when any scanned
    // slice's page is empty.
    return scanned * (1.0 - std::pow(1.0 - q, scanned));
  });
}

double BssfExpectedSubsetSkippedPages(const DatabaseParams& db,
                                      const SignatureParams& sig, int64_t dt,
                                      int64_t dq) {
  const double m_q = ExpectedSignatureWeight(sig, dq);
  const double scanned = static_cast<double>(sig.f) - m_q;
  return SumOverColumns(db, sig, dt, scanned, [](double q, double s) {
    // OR scans skip exactly their empty pages.
    return s * q;
  });
}

double BssfSmartSupersetCost(const DatabaseParams& db,
                             const SignatureParams& sig, int64_t dt,
                             int64_t dq, int64_t* best_k) {
  int64_t k = dq;
  const double cost =
      dq < 1 ? BssfRetrievalSuperset(db, sig, dt, dq)
             : PriceBssfSmartSuperset(
                   MakePageTerms(db),
                   MakeQueryTerms(sig, db.v, dt, QueryKind::kSuperset, dq)
                       .filters,
                   &k);
  if (best_k != nullptr) *best_k = k;
  return cost;
}

double BssfSmartSubsetCost(const DatabaseParams& db,
                           const SignatureParams& sig, int64_t dt, int64_t dq,
                           int64_t* best_s) {
  int64_t s = 0;
  const double cost = PriceBssfSmartSubset(
      MakePageTerms(db), static_cast<double>(sig.f),
      SubsetFilter(sig, db.v, dt, dq), PartialScanTable(sig, dt), &s);
  if (best_s != nullptr) *best_s = s;
  return cost;
}

double BssfDqOpt(const DatabaseParams& db, const SignatureParams& sig,
                 int64_t dt) {
  // Minimize RC(Dq) ≈ spp·F·u + C·(1−u)^(m·Dt) over u = e^(−m·Dq/F), where
  // C = SC_OID + P_u·N.  Setting dRC/du = 0:
  //   (1−u*)^(m·Dt−1) = spp·F / (C·m·Dt).
  double f = static_cast<double>(sig.f);
  double m = static_cast<double>(sig.m);
  double mdt = m * static_cast<double>(dt);
  double c = static_cast<double>(db.OidFilePages()) +
             db.p_u * static_cast<double>(db.n);
  double spp = static_cast<double>(BssfSlicePages(db));
  double rhs = spp * f / (c * mdt);
  double u_star = 1.0 - std::pow(rhs, 1.0 / (mdt - 1.0));
  if (u_star <= 0.0) return 0.0;  // scanning slices never pays off
  return -(f / m) * std::log(u_star);
}

int64_t BssfStorageCost(const DatabaseParams& db, const SignatureParams& sig) {
  return BssfSlicePages(db) * sig.f + db.OidFilePages();
}

double BssfInsertCost(const SignatureParams& sig) {
  return static_cast<double>(sig.f) + 1.0;
}

double BssfInsertCostSparse(const SignatureParams& sig, int64_t dt) {
  return ExpectedSignatureWeight(sig, dt) + 1.0;
}

double BssfDeleteCost(const DatabaseParams& db) {
  return static_cast<double>(db.OidFilePages()) / 2.0;
}

}  // namespace sigsetdb
