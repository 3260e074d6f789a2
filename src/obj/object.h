// The stored object: an OID plus an indexed set attribute.
//
// In the paper's running example objects are Students whose `hobbies`
// attribute holds a set drawn from a V-element domain.  Set elements are
// modeled as 64-bit values: either dense domain ids produced by the workload
// generator, or hashes of strings / OIDs of referenced objects when the
// schema layer (schema.h) maps application values into the domain.

#ifndef SIGSET_OBJ_OBJECT_H_
#define SIGSET_OBJ_OBJECT_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obj/oid.h"

namespace sigsetdb {

// A set-attribute value: sorted unique 64-bit element ids.
using ElementSet = std::vector<uint64_t>;

// Normalizes `set` to sorted-unique form (the canonical representation used
// throughout the library).
inline void NormalizeSet(ElementSet* set) {
  std::sort(set->begin(), set->end());
  set->erase(std::unique(set->begin(), set->end()), set->end());
}

// Returns true iff `sub` ⊆ `super`.  Both must be normalized.
bool IsSubset(const ElementSet& sub, const ElementSet& super);

// Returns true iff the sets share at least one element.  Both normalized.
bool Overlaps(const ElementSet& a, const ElementSet& b);

// One object of a one-attribute class, as SetIndex and Snapshot return it.
struct StoredObject {
  Oid oid;
  ElementSet set_value;  // the indexed set attribute (normalized)
};

}  // namespace sigsetdb

#endif  // SIGSET_OBJ_OBJECT_H_
