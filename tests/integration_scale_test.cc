// Integration tests at awkward scales: multi-page bit slices (N beyond one
// page of bits), Zipf-skewed databases that push NIX posting lists into
// overflow chains, and end-to-end agreement of every facility under both.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "query/executor.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/storage_manager.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

TEST(MultiPageSliceTest, QueriesCorrectAcrossPageBoundary) {
  // Capacity 40,000 > 32,768 bits/page => 2 pages per slice; entries
  // straddle the boundary.
  constexpr uint64_t kN = 35000;
  StorageManager storage;
  WorkloadConfig wconfig{static_cast<int64_t>(kN), 2000,
                         CardinalitySpec::Fixed(6), SkewKind::kUniform, 0.99,
                         21};
  auto sets = MakeDatabase(wconfig);
  MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
  std::vector<Oid> oids;
  for (const auto& set : sets) {
    oids.push_back(store.Insert({set}).value());
  }
  auto bssf = BitSlicedSignatureFile::Create(
      {250, 2}, 40000, storage.CreateOrOpen("slices"),
      storage.CreateOrOpen("oid"), BssfInsertMode::kSparse);
  ASSERT_TRUE(bssf.ok());
  ASSERT_TRUE((*bssf)->BulkLoad(oids, sets).ok());
  EXPECT_EQ((*bssf)->pages_per_slice(), 2u);

  // Slot 32768 (first bit of the second slice page) must behave like any
  // other: query for an element of the set stored there.
  const ElementSet& boundary_set = sets[32768];
  ElementSet query = {boundary_set[0], boundary_set[3]};
  NormalizeSet(&query);
  auto result =
      ExecuteSetQuery(bssf->get(), store, QueryKind::kSuperset, query);
  ASSERT_TRUE(result.ok());
  std::set<Oid> got(result->oids.begin(), result->oids.end());
  EXPECT_TRUE(got.count(oids[32768]));
  // Exactness vs brute force on the full range.
  size_t expected = 0;
  for (const auto& set : sets) {
    if (IsSubset(query, set)) ++expected;
  }
  EXPECT_EQ(result->oids.size(), expected);

  // Slice reads cost 2 pages per slice now.
  BitVector query_sig = MakeSetSignature(query, (*bssf)->config());
  auto slice_file = storage.Open("slices");
  ASSERT_TRUE(slice_file.ok());
  (*slice_file)->stats().Reset();
  ASSERT_TRUE((*bssf)->SupersetCandidateSlots(query_sig).ok());
  EXPECT_EQ((*slice_file)->stats().page_reads, 2 * query_sig.Count());
}

TEST(ZipfOverflowIntegrationTest, NixWithOverflowChainsMatchesBruteForce) {
  // Zipf element popularity on a small domain: the hottest keys collect
  // thousands of postings and must spill into overflow chains.
  constexpr int64_t kN = 8000;
  StorageManager storage;
  WorkloadConfig wconfig{kN, 300, CardinalitySpec{3, 9}, SkewKind::kZipf,
                         1.0, 22};
  auto sets = MakeDatabase(wconfig);
  MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
  std::vector<Oid> oids;
  for (const auto& set : sets) {
    oids.push_back(store.Insert({set}).value());
  }
  auto nix = NestedIndex::Create(storage.CreateOrOpen("nix"));
  ASSERT_TRUE(nix.ok());
  for (size_t i = 0; i < sets.size(); ++i) {
    ASSERT_TRUE((*nix)->Insert(oids[i], sets[i]).ok()) << i;
  }
  EXPECT_GT((*nix)->tree().overflow_pages(), 0u)
      << "workload failed to trigger overflow chains";

  Rng rng(23);
  for (int trial = 0; trial < 6; ++trial) {
    // Queries over hot elements (guaranteed to hit the overflow chains).
    ElementSet query = {rng.NextBelow(3), 3 + rng.NextBelow(5)};
    NormalizeSet(&query);
    for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kOverlaps}) {
      auto result = ExecuteSetQuery(nix->get(), store, kind, query);
      ASSERT_TRUE(result.ok());
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      std::vector<Oid> want;
      for (size_t i = 0; i < sets.size(); ++i) {
        bool hit = kind == QueryKind::kSuperset
                       ? IsSubset(query, sets[i])
                       : Overlaps(sets[i], query);
        if (hit) want.push_back(oids[i]);
      }
      std::sort(want.begin(), want.end());
      EXPECT_EQ(got, want) << QueryKindName(kind) << " trial " << trial;
    }
  }

  // Deleting from the hot key exercises overflow-chain removal at scale.
  int deleted = 0;
  for (size_t i = 0; i < sets.size() && deleted < 500; ++i) {
    if (std::binary_search(sets[i].begin(), sets[i].end(), 0ull)) {
      ASSERT_TRUE((*nix)->Remove(oids[i], sets[i]).ok());
      ASSERT_TRUE(store.Delete(oids[i]).ok());
      sets[i].clear();  // mark deleted for the check below
      ++deleted;
    }
  }
  ASSERT_GT(deleted, 100);
  auto result = ExecuteSetQuery(nix->get(), store, QueryKind::kSuperset,
                                {0ull});
  ASSERT_TRUE(result.ok());
  size_t expected = 0;
  for (const auto& set : sets) {
    if (std::binary_search(set.begin(), set.end(), 0ull)) ++expected;
  }
  EXPECT_EQ(result->oids.size(), expected);
}

TEST(SsfBssfLargeScaleAgreement, TenThousandObjects) {
  // A final cross-check at a scale with hundreds of signature pages.
  constexpr uint64_t kN = 10000;
  StorageManager storage;
  WorkloadConfig wconfig{static_cast<int64_t>(kN), 5000,
                         CardinalitySpec::Fixed(12), SkewKind::kUniform,
                         0.99, 24};
  auto sets = MakeDatabase(wconfig);
  MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
  std::vector<Oid> oids;
  for (const auto& set : sets) oids.push_back(store.Insert({set}).value());
  auto ssf = SequentialSignatureFile::Create(
      {500, 3}, storage.CreateOrOpen("ssf.sig"),
      storage.CreateOrOpen("ssf.oid"));
  ASSERT_TRUE(ssf.ok());
  auto bssf = BitSlicedSignatureFile::Create(
      {500, 3}, kN, storage.CreateOrOpen("slices"),
      storage.CreateOrOpen("bssf.oid"), BssfInsertMode::kSparse);
  ASSERT_TRUE(bssf.ok());
  for (size_t i = 0; i < sets.size(); ++i) {
    ASSERT_TRUE((*ssf)->Insert(oids[i], sets[i]).ok());
  }
  ASSERT_TRUE((*bssf)->BulkLoad(oids, sets).ok());
  Rng rng(25);
  for (int trial = 0; trial < 5; ++trial) {
    ElementSet query = rng.SampleWithoutReplacement(5000, 3);
    auto a = ExecuteSetQuery(ssf->get(), store, QueryKind::kSuperset, query);
    auto b =
        ExecuteSetQuery(bssf->get(), store, QueryKind::kSuperset, query);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->oids, b->oids);
    EXPECT_EQ(a->num_candidates, b->num_candidates);
  }
}

}  // namespace
}  // namespace sigsetdb
