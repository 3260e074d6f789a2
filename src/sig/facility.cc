#include "sig/facility.h"

namespace sigsetdb {

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSuperset:
      return "superset";
    case QueryKind::kSubset:
      return "subset";
    case QueryKind::kProperSuperset:
      return "proper-superset";
    case QueryKind::kProperSubset:
      return "proper-subset";
    case QueryKind::kEquals:
      return "equals";
    case QueryKind::kOverlaps:
      return "overlaps";
  }
  return "unknown";
}

QueryKind CandidateKind(QueryKind kind) {
  switch (kind) {
    case QueryKind::kProperSuperset:
      return QueryKind::kSuperset;
    case QueryKind::kProperSubset:
      return QueryKind::kSubset;
    default:
      return kind;
  }
}

bool Satisfies(const ElementSet& value, QueryKind kind,
               const ElementSet& query) {
  switch (kind) {
    case QueryKind::kSuperset:
      return IsSubset(query, value);
    case QueryKind::kSubset:
      return IsSubset(value, query);
    case QueryKind::kProperSuperset:
      return value.size() > query.size() && IsSubset(query, value);
    case QueryKind::kProperSubset:
      return value.size() < query.size() && IsSubset(value, query);
    case QueryKind::kEquals:
      return value == query;
    case QueryKind::kOverlaps:
      return Overlaps(value, query);
  }
  return false;
}

}  // namespace sigsetdb
