// Quickstart: index set-valued attributes with a bit-sliced signature file
// and answer subset/superset queries.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "obj/multi_object_store.h"
#include "query/executor.h"
#include "sig/bssf.h"
#include "storage/storage_manager.h"

using sigsetdb::BitSlicedSignatureFile;
using sigsetdb::BssfInsertMode;
using sigsetdb::ElementSet;
using sigsetdb::MultiObjectStore;
using sigsetdb::Oid;
using sigsetdb::QueryKind;
using sigsetdb::SignatureConfig;
using sigsetdb::StorageManager;

int main() {
  // 1. A storage manager owns the page files of one database; the object
  //    file holds objects with one set attribute each.
  StorageManager storage;
  MultiObjectStore objects(storage.CreateOrOpen("objects"), 1);

  // 2. Create the access facility: a bit-sliced signature file with
  //    F = 64 bits per signature and m = 2 bits per element.
  auto bssf = BitSlicedSignatureFile::Create(
      SignatureConfig{64, 2}, /*capacity=*/1024,
      storage.CreateOrOpen("bssf.slices"), storage.CreateOrOpen("bssf.oid"),
      BssfInsertMode::kSparse);
  if (!bssf.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 bssf.status().ToString().c_str());
    return 1;
  }

  // 3. Store objects with set attributes and index them.
  //    Elements are 64-bit ids; see examples/university.cpp for mapping
  //    strings and OIDs into this space.
  const ElementSet values[] = {
      {1, 2, 3},     // object 0
      {2, 3},        // object 1
      {1, 4, 5, 6},  // object 2
      {2, 3, 7},     // object 3
  };
  std::vector<Oid> oids;
  for (const ElementSet& set : values) {
    auto oid = objects.Insert({set});
    if (!oid.ok()) return 1;
    if (!(*bssf)->Insert(*oid, set).ok()) return 1;
    oids.push_back(*oid);
  }

  // 4. T ⊇ Q: which objects contain both 2 and 3?
  auto superset = sigsetdb::ExecuteSetQuery(bssf->get(), objects,
                                            QueryKind::kSuperset, {2, 3});
  if (!superset.ok()) return 1;
  std::printf("objects with {2,3} ⊆ set: %zu (expected 3)\n",
              superset->oids.size());

  // 5. T ⊆ Q: which objects fit entirely inside {1,2,3,7}?
  auto subset = sigsetdb::ExecuteSetQuery(bssf->get(), objects,
                                          QueryKind::kSubset, {1, 2, 3, 7});
  if (!subset.ok()) return 1;
  std::printf("objects with set ⊆ {1,2,3,7}: %zu (expected 3)\n",
              subset->oids.size());
  std::printf("candidates fetched: %llu, false drops resolved away: %llu\n",
              static_cast<unsigned long long>(subset->num_candidates),
              static_cast<unsigned long long>(subset->num_false_drops));

  // 6. Every page access was counted — the currency of the paper's
  //    cost model.
  std::printf("total page accesses so far: %llu\n",
              static_cast<unsigned long long>(storage.TotalStats().total()));
  return 0;
}
