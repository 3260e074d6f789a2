// False-drop probabilities and expected signature weights (paper §3.2 and
// Appendix A).
//
// All functions offer the *exact* ideal-hash expressions; the approximate
// exponential forms the paper prints (valid for m/F ≪ 1) are available for
// comparison and are what the figure benches annotate.

#ifndef SIGSET_MODEL_FALSE_DROP_H_
#define SIGSET_MODEL_FALSE_DROP_H_

#include "model/params.h"

namespace sigsetdb {

// Probability that a fixed bit position is 1 in the signature of a set of
// d elements: 1 − (1 − m/F)^d.
double BitSetProbability(const SignatureParams& sig, int64_t d);

// Expected number of one bits in a set signature of cardinality d:
//   m_t = F·(1 − (1 − m/F)^d)           (exact)
//       ≈ F·(1 − e^(−m·d/F))            (paper's approximation)
// The same formula gives m_q with d = Dq.
double ExpectedSignatureWeight(const SignatureParams& sig, int64_t d);
double ExpectedSignatureWeightApprox(const SignatureParams& sig, int64_t d);

// False-drop probability for T ⊇ Q (paper eq. 2):
//   Fd = (1 − (1 − m/F)^Dt)^(m·Dq) ≈ (1 − e^(−m·Dt/F))^(m·Dq).
double FalseDropSuperset(const SignatureParams& sig, int64_t dt, int64_t dq);
double FalseDropSupersetApprox(const SignatureParams& sig, int64_t dt,
                               int64_t dq);

// False-drop probability for T ⊆ Q (paper eq. 6):
//   Fd = (1 − (1 − m/F)^Dq)^(m·Dt) ≈ (1 − e^(−m·Dq/F))^(m·Dt).
double FalseDropSubset(const SignatureParams& sig, int64_t dt, int64_t dq);
double FalseDropSubsetApprox(const SignatureParams& sig, int64_t dt,
                             int64_t dq);

// False-drop probability for T ⊆ Q when only `s` of the query signature's
// zero slices are scanned (the smart strategy of §5.2.2): a target survives
// iff none of its m·Dt bit settings landed on a scanned slice,
//   Fd(s) = (1 − s/F)^(m·Dt).
// With s = F − m_q this reduces to eq. 6.
double FalseDropSubsetPartial(const SignatureParams& sig, int64_t dt,
                              double scanned_slices);

// The m minimizing the superset false-drop probability (paper eq. 3):
//   m_opt = F·ln2 / Dt.
double OptimalM(int64_t f, int64_t dt);

// Fd at m = m_opt (paper eq. 4): (1/2)^(Dq·F·ln2/Dt).
double FalseDropSupersetAtOptimalM(int64_t f, int64_t dt, int64_t dq);

}  // namespace sigsetdb

#endif  // SIGSET_MODEL_FALSE_DROP_H_
