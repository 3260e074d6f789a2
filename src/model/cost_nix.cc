#include "model/cost_nix.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "model/actual_drops.h"
#include "model/cost_terms.h"

namespace sigsetdb {

double NixPostingsPerKey(const DatabaseParams& db, int64_t dt) {
  return static_cast<double>(dt) * static_cast<double>(db.n) /
         static_cast<double>(db.v);
}

double NixLeafEntryBytes(const DatabaseParams& db, const NixParams& nix,
                         int64_t dt) {
  return NixPostingsPerKey(db, dt) * static_cast<double>(db.oid_bytes) +
         static_cast<double>(nix.key_bytes) +
         static_cast<double>(nix.count_bytes);
}

int64_t NixLeafPages(const DatabaseParams& db, const NixParams& nix,
                     int64_t dt) {
  double il = NixLeafEntryBytes(db, nix, dt);
  int64_t entries_per_page =
      static_cast<int64_t>(std::floor(static_cast<double>(db.page_bytes) / il));
  if (entries_per_page < 1) entries_per_page = 1;
  return CeilDiv(db.v, entries_per_page);
}

int64_t NixNonLeafPages(const DatabaseParams& db, const NixParams& nix,
                        int64_t dt) {
  int64_t level = NixLeafPages(db, nix, dt);
  int64_t nlp = 0;
  while (level > 1) {
    level = CeilDiv(level, nix.fanout);
    nlp += level;
  }
  return nlp;
}

int64_t NixHeight(const DatabaseParams& db, const NixParams& nix, int64_t dt) {
  int64_t level = NixLeafPages(db, nix, dt);
  int64_t height = 0;
  while (level > 1) {
    level = CeilDiv(level, nix.fanout);
    ++height;
  }
  return height;
}

int64_t NixLookupCost(const DatabaseParams& db, const NixParams& nix,
                      int64_t dt) {
  return NixHeight(db, nix, dt) + 1;
}

double NixRetrievalSuperset(const DatabaseParams& db, const NixParams& nix,
                            int64_t dt, int64_t dq) {
  return PriceNix(MakePageTerms(db),
                  static_cast<double>(NixLookupCost(db, nix, dt)), dq,
                  SupersetDropRatio(db.v, dt, dq));
}

double NixRetrievalSubset(const DatabaseParams& db, const NixParams& nix,
                          int64_t dt, int64_t dq) {
  return PriceNixSubset(MakePageTerms(db),
                        static_cast<double>(NixLookupCost(db, nix, dt)), dq,
                        NixSubsetFailingRatio(db.v, dt, dq),
                        SubsetDropRatio(db.v, dt, dq));
}

double NixSmartSupersetCost(const DatabaseParams& db, const NixParams& nix,
                            int64_t dt, int64_t dq, int64_t* best_k) {
  // Only the drop ratios matter: NIX's intersection is exact.
  std::vector<FilterTerms> filters(static_cast<size_t>(std::max<int64_t>(dq, 0)));
  for (int64_t k = 1; k <= dq; ++k) {
    filters[static_cast<size_t>(k - 1)].drop_ratio =
        SupersetDropRatio(db.v, dt, k);
  }
  int64_t k = dq;
  const double cost = PriceNixSmartSuperset(
      MakePageTerms(db), static_cast<double>(NixLookupCost(db, nix, dt)),
      filters, &k);
  if (best_k != nullptr) *best_k = k;
  return cost;
}

int64_t NixStorageCost(const DatabaseParams& db, const NixParams& nix,
                       int64_t dt) {
  return NixLeafPages(db, nix, dt) + NixNonLeafPages(db, nix, dt);
}

double NixInsertCost(const DatabaseParams& db, const NixParams& nix,
                     int64_t dt) {
  return static_cast<double>(NixLookupCost(db, nix, dt)) *
         static_cast<double>(dt);
}

double NixDeleteCost(const DatabaseParams& db, const NixParams& nix,
                     int64_t dt) {
  return NixInsertCost(db, nix, dt);
}

}  // namespace sigsetdb
