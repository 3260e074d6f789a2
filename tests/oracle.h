// Brute-force reference predicate for the tests.  Written against
// std::includes on sorted vectors, independently of the engine's predicate
// code (Satisfies in sig/facility.h), so no test checks the engine against
// itself.

#ifndef SIGSET_TESTS_ORACLE_H_
#define SIGSET_TESTS_ORACLE_H_

#include <algorithm>

#include "obj/object.h"
#include "sig/facility.h"

namespace sigsetdb {

// Does stored set `t` satisfy `kind` against query `q`?  Both sorted unique.
inline bool OracleMatches(const ElementSet& t, QueryKind kind,
                          const ElementSet& q) {
  const bool t_has_q = std::includes(t.begin(), t.end(), q.begin(), q.end());
  const bool q_has_t = std::includes(q.begin(), q.end(), t.begin(), t.end());
  switch (kind) {
    case QueryKind::kSuperset:
      return t_has_q;
    case QueryKind::kSubset:
      return q_has_t;
    case QueryKind::kProperSuperset:
      return t_has_q && !q_has_t;
    case QueryKind::kProperSubset:
      return q_has_t && !t_has_q;
    case QueryKind::kEquals:
      return t_has_q && q_has_t;
    case QueryKind::kOverlaps:
      return std::any_of(q.begin(), q.end(), [&t](uint64_t e) {
        return std::binary_search(t.begin(), t.end(), e);
      });
  }
  return false;
}

}  // namespace sigsetdb

#endif  // SIGSET_TESTS_ORACLE_H_
