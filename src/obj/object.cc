#include "obj/object.h"

namespace sigsetdb {

bool IsSubset(const ElementSet& sub, const ElementSet& super) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

bool Overlaps(const ElementSet& a, const ElementSet& b) {
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() && ib != b.end()) {
    if (*ia == *ib) return true;
    if (*ia < *ib) {
      ++ia;
    } else {
      ++ib;
    }
  }
  return false;
}

}  // namespace sigsetdb
