#include "model/false_drop.h"

#include <cmath>

namespace sigsetdb {

namespace {

double F(const SignatureParams& sig) { return static_cast<double>(sig.f); }
double M(const SignatureParams& sig) { return static_cast<double>(sig.m); }

double BitSetProbApprox(const SignatureParams& sig, int64_t d) {
  return 1.0 - std::exp(-M(sig) * static_cast<double>(d) / F(sig));
}

}  // namespace

double BitSetProbability(const SignatureParams& sig, int64_t d) {
  return 1.0 - std::pow(1.0 - M(sig) / F(sig), static_cast<double>(d));
}

double ExpectedSignatureWeight(const SignatureParams& sig, int64_t d) {
  return F(sig) * BitSetProbability(sig, d);
}

double ExpectedSignatureWeightApprox(const SignatureParams& sig, int64_t d) {
  return F(sig) * BitSetProbApprox(sig, d);
}

double FalseDropSuperset(const SignatureParams& sig, int64_t dt, int64_t dq) {
  return std::pow(BitSetProbability(sig, dt),
                  M(sig) * static_cast<double>(dq));
}

double FalseDropSupersetApprox(const SignatureParams& sig, int64_t dt,
                               int64_t dq) {
  return std::pow(BitSetProbApprox(sig, dt),
                  M(sig) * static_cast<double>(dq));
}

double FalseDropSubset(const SignatureParams& sig, int64_t dt, int64_t dq) {
  return std::pow(BitSetProbability(sig, dq),
                  M(sig) * static_cast<double>(dt));
}

double FalseDropSubsetApprox(const SignatureParams& sig, int64_t dt,
                             int64_t dq) {
  return std::pow(BitSetProbApprox(sig, dq),
                  M(sig) * static_cast<double>(dt));
}

double FalseDropSubsetPartial(const SignatureParams& sig, int64_t dt,
                              double scanned_slices) {
  double miss = 1.0 - scanned_slices / F(sig);
  if (miss < 0.0) miss = 0.0;
  return std::pow(miss, M(sig) * static_cast<double>(dt));
}

double OptimalM(int64_t f, int64_t dt) {
  return static_cast<double>(f) * std::log(2.0) / static_cast<double>(dt);
}

double FalseDropSupersetAtOptimalM(int64_t f, int64_t dt, int64_t dq) {
  double exponent = static_cast<double>(dq) * static_cast<double>(f) *
                    std::log(2.0) / static_cast<double>(dt);
  return std::pow(0.5, exponent);
}

}  // namespace sigsetdb
