// Brute-force reference answers.  Written against std::includes on sorted
// vectors, independently of the engine's own predicate code, so the
// benchmark never checks the engine against itself.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "obj/object.h"
#include "obj/oid.h"
#include "sig/facility.h"

namespace perfbench {

inline bool Contains(const sigsetdb::ElementSet& super,
                     const sigsetdb::ElementSet& sub) {
  return std::includes(super.begin(), super.end(), sub.begin(), sub.end());
}

inline bool Intersects(const sigsetdb::ElementSet& a,
                       const sigsetdb::ElementSet& b) {
  auto i = a.begin();
  auto j = b.begin();
  while (i != a.end() && j != b.end()) {
    if (*i == *j) return true;
    if (*i < *j) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

// Does a stored set `t` satisfy `kind` against query `q`?
inline bool Satisfies(sigsetdb::QueryKind kind, const sigsetdb::ElementSet& t,
                      const sigsetdb::ElementSet& q) {
  using sigsetdb::QueryKind;
  switch (kind) {
    case QueryKind::kSuperset:
      return Contains(t, q);
    case QueryKind::kSubset:
      return Contains(q, t);
    case QueryKind::kProperSuperset:
      return t.size() > q.size() && Contains(t, q);
    case QueryKind::kProperSubset:
      return t.size() < q.size() && Contains(q, t);
    case QueryKind::kEquals:
      return t == q;
    case QueryKind::kOverlaps:
      return Intersects(t, q);
  }
  return false;
}

inline std::vector<uint64_t> SortedValues(
    const std::vector<sigsetdb::Oid>& oids) {
  std::vector<uint64_t> out;
  out.reserve(oids.size());
  for (sigsetdb::Oid oid : oids) out.push_back(oid.value());
  std::sort(out.begin(), out.end());
  return out;
}

// Order-insensitive digest of an answer (for replay and neutrality checks).
inline uint64_t AnswerDigest(const std::vector<sigsetdb::Oid>& oids) {
  uint64_t h = 0x9E3779B97F4A7C15ull ^ oids.size();
  for (uint64_t v : SortedValues(oids)) {
    h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  }
  return h;
}

// SplitMix64: derives independent sub-seeds from the run seed.
inline uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
