#include "model/actual_drops.h"

namespace sigsetdb {

double SupersetDropRatio(int64_t v, int64_t dt, int64_t dq) {
  if (dq > dt) return 0.0;
  return ChooseRatio(v - dq, dt - dq, v, dt);
}

double SubsetDropRatio(int64_t v, int64_t dt, int64_t dq) {
  if (dt > dq) return 0.0;
  return ChooseRatio(dq, dt, v, dt);
}

double EqualsDropRatio(int64_t v, int64_t dt, int64_t dq) {
  if (dt != dq) return 0.0;
  return ChooseRatio(v, 0, v, dt);
}

double OverlapDropRatio(int64_t v, int64_t dt, int64_t dq) {
  return 1.0 - ChooseRatio(v - dq, dt, v, dt);
}

double NixSubsetFailingRatio(int64_t v, int64_t dt, int64_t dq) {
  double sum = 0.0;
  for (int64_t j = 1; j < dt; ++j) {
    sum += HypergeometricPmf(v, dq, dt, j);
  }
  return sum;
}

double ActualDropsSuperset(const DatabaseParams& db, int64_t dt, int64_t dq) {
  return static_cast<double>(db.n) * SupersetDropRatio(db.v, dt, dq);
}

double ActualDropsSubset(const DatabaseParams& db, int64_t dt, int64_t dq) {
  return static_cast<double>(db.n) * SubsetDropRatio(db.v, dt, dq);
}

double ActualDropsEquals(const DatabaseParams& db, int64_t dt, int64_t dq) {
  return static_cast<double>(db.n) * EqualsDropRatio(db.v, dt, dq);
}

double ActualDropsOverlap(const DatabaseParams& db, int64_t dt, int64_t dq) {
  return static_cast<double>(db.n) * OverlapDropRatio(db.v, dt, dq);
}

double NixSubsetFailingCandidates(const DatabaseParams& db, int64_t dt,
                                  int64_t dq) {
  return static_cast<double>(db.n) * NixSubsetFailingRatio(db.v, dt, dq);
}

}  // namespace sigsetdb
