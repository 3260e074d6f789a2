// Tag search: the paper's `hobbies` scenario at realistic scale.
//
// 20,000 "profile" objects each carry a set of string tags drawn from a
// 2,000-tag vocabulary.  The example interns strings through the
// ElementDictionary, indexes the tag sets in all three facilities, and runs
// the paper's two query types plus the equality/overlap extensions —
// printing, for each facility, results and measured page accesses so the
// cost differences of the paper are visible on application-level data.

#include <cstdio>
#include <string>
#include <vector>

#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "obj/schema.h"
#include "query/executor.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/storage_manager.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int RunExample() {
  constexpr int64_t kProfiles = 20000;
  constexpr int64_t kVocabulary = 2000;
  constexpr int64_t kTagsPerProfile = 8;

  // Intern a synthetic vocabulary ("tag0000".."tag1999"); a real system
  // would intern user-supplied strings the same way.
  ElementDictionary dict;
  for (int64_t i = 0; i < kVocabulary; ++i) {
    char buf[16];
    std::snprintf(buf, sizeof(buf), "tag%04lld", static_cast<long long>(i));
    dict.IdForString(buf);
  }

  StorageManager storage;
  MultiObjectStore profiles(storage.CreateOrOpen("profiles"), 1);
  auto ssf = SequentialSignatureFile::Create(
      SignatureConfig{250, 2}, storage.CreateOrOpen("tags.ssf.sig"),
      storage.CreateOrOpen("tags.ssf.oid"));
  if (!ssf.ok()) return Fail(ssf.status());
  auto bssf = BitSlicedSignatureFile::Create(
      SignatureConfig{250, 2}, kProfiles, storage.CreateOrOpen("tags.slices"),
      storage.CreateOrOpen("tags.bssf.oid"), BssfInsertMode::kSparse);
  if (!bssf.ok()) return Fail(bssf.status());
  auto nix = NestedIndex::Create(storage.CreateOrOpen("tags.nix"));
  if (!nix.ok()) return Fail(nix.status());

  // Populate with uniformly random tag sets (the paper's workload).
  WorkloadConfig wconfig{kProfiles, kVocabulary,
                         CardinalitySpec::Fixed(kTagsPerProfile),
                         SkewKind::kUniform, 0.99, 2026};
  std::vector<ElementSet> sets = MakeDatabase(wconfig);
  std::vector<Oid> oids;
  for (const ElementSet& set : sets) {
    auto oid = profiles.Insert({set});
    if (!oid.ok()) return Fail(oid.status());
    oids.push_back(*oid);
    if (auto st = (*ssf)->Insert(*oid, set); !st.ok()) return Fail(st);
    if (auto st = (*nix)->Insert(*oid, set); !st.ok()) return Fail(st);
  }
  if (auto st = (*bssf)->BulkLoad(oids, sets); !st.ok()) return Fail(st);
  storage.ResetStats();

  // Helper: run one query on every facility and print the comparison.
  auto run = [&](QueryKind kind, const ElementSet& query,
                 const std::string& description) -> Status {
    std::printf("\n%s\n", description.c_str());
    for (SetAccessFacility* facility :
         {static_cast<SetAccessFacility*>(ssf->get()),
          static_cast<SetAccessFacility*>(bssf->get()),
          static_cast<SetAccessFacility*>(nix->get())}) {
      storage.ResetStats();
      SIGSET_ASSIGN_OR_RETURN(QueryResult result,
                              ExecuteSetQuery(facility, profiles, kind,
                                              query));
      std::printf("  %-4s  %5zu results  %6llu page accesses  %5llu false "
                  "drops\n",
                  facility->name().c_str(), result.oids.size(),
                  static_cast<unsigned long long>(
                      storage.TotalStats().total()),
                  static_cast<unsigned long long>(result.num_false_drops));
    }
    return Status::OK();
  };

  // T ⊇ Q: everyone tagged with both tag0001 and tag0002.
  ElementSet both = {dict.LookupString("tag0001").value(),
                     dict.LookupString("tag0002").value()};
  NormalizeSet(&both);
  if (auto st = run(QueryKind::kSuperset, both,
                    "profiles tagged with BOTH tag0001 and tag0002 (T ⊇ Q):");
      !st.ok()) {
    return Fail(st);
  }

  // T ⊆ Q: profiles whose tags all come from a 100-tag allowlist.
  Rng rng(7);
  ElementSet allowlist = rng.SampleWithoutReplacement(kVocabulary, 100);
  if (auto st =
          run(QueryKind::kSubset, allowlist,
              "profiles fully inside a 100-tag allowlist (T ⊆ Q):");
      !st.ok()) {
    return Fail(st);
  }

  // Equality: exact duplicate of profile 0's tag set.
  if (auto st = run(QueryKind::kEquals, sets[0],
                    "profiles with EXACTLY profile#0's tags (T = Q):");
      !st.ok()) {
    return Fail(st);
  }

  // Overlap: anyone sharing a tag with a 3-tag query.
  ElementSet any = rng.SampleWithoutReplacement(kVocabulary, 3);
  if (auto st = run(QueryKind::kOverlaps, any,
                    "profiles sharing ANY of 3 tags (T ∩ Q ≠ ∅):");
      !st.ok()) {
    return Fail(st);
  }

  std::printf(
      "\nStorage: SSF %llu pages, BSSF %llu pages, NIX %llu pages\n",
      static_cast<unsigned long long>((*ssf)->StoragePages()),
      static_cast<unsigned long long>((*bssf)->StoragePages()),
      static_cast<unsigned long long>((*nix)->StoragePages()));
  return 0;
}

}  // namespace
}  // namespace sigsetdb

int main() { return sigsetdb::RunExample(); }
