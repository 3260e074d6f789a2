#include "sig/bssf.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "sig/hot_tier.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

class BssfTest : public ::testing::Test {
 protected:
  void MakeBssf(SignatureConfig config, uint64_t capacity,
                BssfInsertMode mode = BssfInsertMode::kTouchAllSlices) {
    auto bssf = BitSlicedSignatureFile::Create(config, capacity, &slice_file_,
                                               &oid_file_, mode);
    ASSERT_TRUE(bssf.ok()) << bssf.status().ToString();
    bssf_ = std::move(*bssf);
  }

  static Oid MakeOid(uint64_t i) {
    return Oid::FromLocation(static_cast<PageId>(i), 0);
  }

  InMemoryPageFile slice_file_{"bssf.slices"};
  InMemoryPageFile oid_file_{"bssf.oid"};
  std::unique_ptr<BitSlicedSignatureFile> bssf_;
};

TEST_F(BssfTest, CreatePreallocatesSliceStore) {
  MakeBssf({250, 2}, 1000);
  EXPECT_EQ(bssf_->pages_per_slice(), 1u);
  EXPECT_EQ(bssf_->SlicePages(), 250u);
  // Allocation I/O was reset: a fresh facility reports zero accesses.
  EXPECT_EQ(slice_file_.stats().total(), 0u);
}

TEST_F(BssfTest, MultiPageSlices) {
  // Capacity above one page of bits forces 2 pages per slice.
  MakeBssf({64, 2}, kPageBits + 5);
  EXPECT_EQ(bssf_->pages_per_slice(), 2u);
  EXPECT_EQ(bssf_->SlicePages(), 128u);
}

TEST_F(BssfTest, NaiveInsertTouchesAllSlices) {
  MakeBssf({64, 2}, 100, BssfInsertMode::kTouchAllSlices);
  slice_file_.stats().Reset();
  oid_file_.stats().Reset();
  ASSERT_TRUE(bssf_->Insert(MakeOid(0), {1, 2, 3}).ok());
  // Worst-case mode: every slice written once (reads are the RMW cost the
  // coarse 1993 model folds into "about F disk accesses").
  EXPECT_EQ(slice_file_.stats().page_writes, 64u);
  EXPECT_EQ(oid_file_.stats().page_writes, 1u);
}

TEST_F(BssfTest, SparseInsertTouchesOnlySetBits) {
  MakeBssf({64, 2}, 100, BssfInsertMode::kSparse);
  BitVector sig = MakeSetSignature({1, 2, 3}, {64, 2});
  slice_file_.stats().Reset();
  ASSERT_TRUE(bssf_->Insert(MakeOid(0), {1, 2, 3}).ok());
  EXPECT_EQ(slice_file_.stats().page_writes, sig.Count());
}

// Inserts five objects and removes the third, leaving slot 2 free.
void FillAndFreeSlotTwo(SetAccessFacility* bssf) {
  for (uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(bssf->Insert(Oid::FromLocation(static_cast<PageId>(i), 0),
                             {i, i + 20, i + 40})
                    .ok());
  }
  ASSERT_TRUE(bssf->Remove(Oid::FromLocation(2, 0), {2, 22, 42}).ok());
}

TEST_F(BssfTest, SparseReusedSlotWritesOnlySetBits) {
  MakeBssf({64, 2}, 100, BssfInsertMode::kSparse);
  FillAndFreeSlotTwo(bssf_.get());
  ASSERT_EQ(bssf_->free_slots(), std::vector<uint64_t>{2});
  const ElementSet value = {7, 8, 9};
  const BitVector sig = MakeSetSignature(value, {64, 2});
  slice_file_.stats().Reset();
  oid_file_.stats().Reset();
  ASSERT_TRUE(bssf_->Insert(MakeOid(9), value).ok());
  // The freed column is all-zero, so the reuse writes the distinct pages
  // of its set bits (one page per slice here) plus the one OID page: m_t + 1.
  EXPECT_EQ(bssf_->num_signatures(), 5u);
  EXPECT_TRUE(bssf_->free_slots().empty());
  EXPECT_EQ(slice_file_.stats().page_writes, sig.Count());
  EXPECT_EQ(oid_file_.stats().page_writes, 1u);
  auto got = bssf_->Candidates(QueryKind::kEquals, value);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->oids, std::vector<Oid>{MakeOid(9)});
}

TEST_F(BssfTest, TouchAllReusedSlotWritesEverySlice) {
  MakeBssf({64, 2}, 100, BssfInsertMode::kTouchAllSlices);
  FillAndFreeSlotTwo(bssf_.get());
  slice_file_.stats().Reset();
  oid_file_.stats().Reset();
  ASSERT_TRUE(bssf_->Insert(MakeOid(9), {7, 8, 9}).ok());
  // The paper's worst case: F slices + 1 OID page.
  EXPECT_EQ(bssf_->num_signatures(), 5u);
  EXPECT_EQ(slice_file_.stats().page_writes, 64u);
  EXPECT_EQ(oid_file_.stats().page_writes, 1u);
}

TEST_F(BssfTest, FailedClearKeepsSlotOffFreeListUntilReopenZeroesIt) {
  const SignatureConfig config{64, 2};
  MakeBssf(config, 100, BssfInsertMode::kSparse);
  for (uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), {i, i + 20, i + 40}).ok());
  }
  // The remove tombstones slot 1, then fails on its first slice clear.
  FailpointRegistry::Instance().ArmCountdown("bssf.touch_slice", 1);
  EXPECT_FALSE(bssf_->Remove(MakeOid(1), {1, 21, 41}).ok());
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_TRUE(bssf_->free_slots().empty());
  std::vector<PageId> stale_slices;
  MakeSetSignature({1, 21, 41}, config).ForEachSetBit([&](size_t j) {
    stale_slices.push_back(static_cast<PageId>(j));
  });
  Page page;
  ASSERT_TRUE(slice_file_.Read(stale_slices[0], &page).ok());
  ASSERT_NE(page.data()[0] & 0x2, 0) << "the failed clear left no stray bit";

  // Reopen: the slot is free and its column is zero in every slice.
  bssf_.reset();
  auto reopened = BitSlicedSignatureFile::CreateFromExisting(
      config, 100, &slice_file_, &oid_file_, BssfInsertMode::kSparse, 3);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->free_slots(), std::vector<uint64_t>{1});
  for (PageId p = 0; p < config.f; ++p) {
    ASSERT_TRUE(slice_file_.Read(p, &page).ok());
    EXPECT_EQ(page.data()[0] & 0x2, 0) << "slice " << p;
  }
  // A sparse reuse of the slot is then exact.
  ASSERT_TRUE((*reopened)->Insert(MakeOid(7), {50}).ok());
  auto got = (*reopened)->Candidates(QueryKind::kSubset, {50, 51});
  ASSERT_TRUE(got.ok());
  EXPECT_NE(std::find(got->oids.begin(), got->oids.end(), MakeOid(7)),
            got->oids.end());
}

TEST_F(BssfTest, BulkLoadWritesEachOidPageOnce) {
  MakeBssf({64, 2}, 1024, BssfInsertMode::kSparse);
  std::vector<Oid> oids;
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 1000; ++i) {
    oids.push_back(MakeOid(i));
    sets.push_back({i, i + 1});
  }
  ASSERT_TRUE(bssf_->BulkLoad(oids, sets).ok());
  // 1,000 OIDs fill two OID pages, each written once.
  EXPECT_EQ(oid_file_.stats().page_writes, 2u);
  EXPECT_EQ(*bssf_->ResolveSlots({0, 999}),
            (std::vector<Oid>{MakeOid(0), MakeOid(999)}));
}

TEST_F(BssfTest, CapacityEnforced) {
  MakeBssf({32, 1}, 2);
  ASSERT_TRUE(bssf_->Insert(MakeOid(0), {1}).ok());
  ASSERT_TRUE(bssf_->Insert(MakeOid(1), {2}).ok());
  EXPECT_EQ(bssf_->Insert(MakeOid(2), {3}).code(), StatusCode::kOutOfRange);
}

TEST_F(BssfTest, SupersetCandidatesComplete) {
  MakeBssf({500, 5}, 500);
  Rng rng(1);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 300; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(200, 10));
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  ElementSet query = {sets[42][1], sets[42][8]};
  NormalizeSet(&query);
  auto result = bssf_->Candidates(QueryKind::kSuperset, query);
  ASSERT_TRUE(result.ok());
  std::set<Oid> candidates(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (IsSubset(query, sets[i])) {
      EXPECT_TRUE(candidates.count(MakeOid(i))) << "missing true match " << i;
    }
  }
}

TEST_F(BssfTest, SupersetReadsOneSlicePerQueryBit) {
  MakeBssf({250, 2}, 1000);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), {i}).ok());
  }
  BitVector query_sig = MakeSetSignature({3, 7}, bssf_->config());
  slice_file_.stats().Reset();
  ASSERT_TRUE(bssf_->SupersetCandidateSlots(query_sig).ok());
  EXPECT_EQ(slice_file_.stats().page_reads, query_sig.Count());
}

TEST_F(BssfTest, SubsetReadsOneSlicePerZeroBit) {
  MakeBssf({250, 2}, 1000);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), {i}).ok());
  }
  BitVector query_sig = MakeSetSignature({3, 7, 9}, bssf_->config());
  slice_file_.stats().Reset();
  ASSERT_TRUE(bssf_->SubsetCandidateSlots(query_sig).ok());
  EXPECT_EQ(slice_file_.stats().page_reads, 250u - query_sig.Count());
}

TEST_F(BssfTest, SubsetPartialScanLimitsSliceReads) {
  MakeBssf({250, 2}, 1000);
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), {i, i + 500}).ok());
  }
  BitVector query_sig = MakeSetSignature({3, 7}, bssf_->config());
  slice_file_.stats().Reset();
  auto limited = bssf_->SubsetCandidateSlots(query_sig, 10);
  ASSERT_TRUE(limited.ok());
  EXPECT_EQ(slice_file_.stats().page_reads, 10u);
  // Fewer slices scanned => a superset of the full-scan candidates.
  auto full = bssf_->SubsetCandidateSlots(query_sig);
  ASSERT_TRUE(full.ok());
  EXPECT_TRUE(std::includes(limited->begin(), limited->end(), full->begin(),
                            full->end()));
}

TEST_F(BssfTest, SubsetCandidatesComplete) {
  MakeBssf({500, 3}, 300);
  Rng rng(2);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 200; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(100, 5));
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  ElementSet query = rng.SampleWithoutReplacement(100, 40);
  auto result = bssf_->Candidates(QueryKind::kSubset, query);
  ASSERT_TRUE(result.ok());
  std::set<Oid> candidates(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (IsSubset(sets[i], query)) {
      EXPECT_TRUE(candidates.count(MakeOid(i))) << "missing true match " << i;
    }
  }
}

TEST_F(BssfTest, EqualsCandidatesFilterBothDirections) {
  MakeBssf({250, 4}, 200);
  Rng rng(3);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 100; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(60, 4));
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  BitVector query_sig = MakeSetSignature(sets[10], bssf_->config());
  auto slots = bssf_->EqualsCandidateSlots(query_sig);
  ASSERT_TRUE(slots.ok());
  EXPECT_TRUE(std::find(slots->begin(), slots->end(), 10u) != slots->end());
  // Every candidate's signature must equal the query signature.
  for (uint64_t slot : *slots) {
    EXPECT_EQ(MakeSetSignature(sets[slot], bssf_->config()), query_sig);
  }
}

TEST_F(BssfTest, OverlapCandidatesComplete) {
  MakeBssf({250, 3}, 200);
  Rng rng(4);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 100; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(60, 5));
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  ElementSet query = {sets[0][0], sets[50][2]};
  NormalizeSet(&query);
  auto result = bssf_->Candidates(QueryKind::kOverlaps, query);
  ASSERT_TRUE(result.ok());
  std::set<Oid> candidates(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (Overlaps(sets[i], query)) {
      EXPECT_TRUE(candidates.count(MakeOid(i))) << "missing overlap " << i;
    }
  }
}

TEST_F(BssfTest, RemoveHidesObject) {
  MakeBssf({128, 2}, 10);
  ASSERT_TRUE(bssf_->Insert(MakeOid(0), {1}).ok());
  ASSERT_TRUE(bssf_->Insert(MakeOid(1), {1}).ok());
  ASSERT_TRUE(bssf_->Remove(MakeOid(0), {1}).ok());
  auto result = bssf_->Candidates(QueryKind::kSuperset, {1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oids, std::vector<Oid>{MakeOid(1)});
}

TEST_F(BssfTest, AgreesWithDirectSignatureTest) {
  // BSSF slots must match exactly the slots a sequential signature scan
  // would produce: the two organizations store the same information.
  SignatureConfig config{250, 3};
  MakeBssf(config, 300);
  Rng rng(5);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 200; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(80, 6));
    ASSERT_TRUE(bssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  ElementSet query = rng.SampleWithoutReplacement(80, 3);
  BitVector query_sig = MakeSetSignature(query, config);
  auto super = bssf_->SupersetCandidateSlots(query_sig);
  ASSERT_TRUE(super.ok());
  std::vector<uint64_t> expected;
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (MatchesSuperset(MakeSetSignature(sets[i], config), query_sig)) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(*super, expected);

  ElementSet big_query = rng.SampleWithoutReplacement(80, 30);
  BitVector big_sig = MakeSetSignature(big_query, config);
  auto sub = bssf_->SubsetCandidateSlots(big_sig);
  ASSERT_TRUE(sub.ok());
  expected.clear();
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (MatchesSubset(MakeSetSignature(sets[i], config), big_sig)) {
      expected.push_back(i);
    }
  }
  EXPECT_EQ(*sub, expected);
}

// --- the hot-slice tier's admission and eviction rules -------------------

// A page image whose first byte is `tag`.
Page TaggedPage(uint8_t tag) {
  Page page;
  page.bytes[0] = tag;
  return page;
}

// Records `n` accesses to `page_no`.
void Touch(HotSliceTier* tier, PageId page_no, int n) {
  for (int i = 0; i < n; ++i) tier->VisitPage(page_no, [](const Page&) {});
}

// Whether `page_no` is pinned (the probe counts as one more access).
bool Pinned(HotSliceTier* tier, PageId page_no) {
  return tier->VisitPage(page_no, [](const Page&) {});
}

// Accesses `page_no` `n` times, then offers its image.
void Warm(HotSliceTier* tier, PageId page_no, int n) {
  Touch(tier, page_no, n);
  tier->Admit(page_no, TaggedPage(static_cast<uint8_t>(page_no)));
}

TEST(HotSliceTierTest, PinsNothingBelowTheAdmissionThreshold) {
  HotSliceTier tier(/*num_pages=*/8, /*capacity_pages=*/4);
  ASSERT_EQ(HotSliceTier::kDefaultAdmitThreshold, 2u);
  Warm(&tier, 3, 1);
  EXPECT_EQ(tier.pinned_pages(), 0u);
  EXPECT_EQ(tier.admissions(), 0u);
  Warm(&tier, 3, 1);  // the second access reaches the threshold
  EXPECT_EQ(tier.pinned_pages(), 1u);
  EXPECT_EQ(tier.admissions(), 1u);
  EXPECT_TRUE(Pinned(&tier, 3));
}

TEST(HotSliceTierTest, FullTierEvictsItsColdestPageOnlyForAHotterOne) {
  HotSliceTier tier(/*num_pages=*/8, /*capacity_pages=*/2);
  Warm(&tier, 0, 3);
  Warm(&tier, 1, 4);
  ASSERT_EQ(tier.pinned_pages(), 2u);
  // Page 2 ties the coldest pinned page (3 accesses each): no eviction.
  Warm(&tier, 2, 3);
  EXPECT_EQ(tier.evictions(), 0u);
  EXPECT_EQ(tier.admissions(), 2u);
  // One more access makes it strictly hotter: page 0 goes, page 2 comes.
  Warm(&tier, 2, 1);
  EXPECT_EQ(tier.evictions(), 1u);
  EXPECT_EQ(tier.admissions(), 3u);
  EXPECT_EQ(tier.pinned_pages(), 2u);
  EXPECT_FALSE(Pinned(&tier, 0));
  EXPECT_TRUE(Pinned(&tier, 1));
  EXPECT_TRUE(Pinned(&tier, 2));
}

TEST(HotSliceTierTest, ShrinkingEvictsTheColdestPages) {
  HotSliceTier tier(/*num_pages=*/8, /*capacity_pages=*/4);
  Warm(&tier, 0, 5);
  Warm(&tier, 1, 2);
  Warm(&tier, 2, 4);
  Warm(&tier, 3, 3);
  ASSERT_EQ(tier.pinned_pages(), 4u);
  tier.set_capacity(2);
  EXPECT_EQ(tier.capacity(), 2u);
  EXPECT_EQ(tier.pinned_pages(), 2u);
  EXPECT_EQ(tier.evictions(), 2u);
  EXPECT_TRUE(Pinned(&tier, 0));
  EXPECT_TRUE(Pinned(&tier, 2));
  EXPECT_FALSE(Pinned(&tier, 1));
  EXPECT_FALSE(Pinned(&tier, 3));
}

TEST(HotSliceTierTest, GrownTierStillAdmitsAPageHotterThanItsColdest) {
  HotSliceTier tier(/*num_pages=*/8, /*capacity_pages=*/1);
  Warm(&tier, 0, 5);
  Warm(&tier, 1, 3);  // colder than page 0: rejected
  ASSERT_EQ(tier.pinned_pages(), 1u);
  tier.set_capacity(2);
  tier.Admit(1, TaggedPage(1));  // room now: page 1 joins at 3 accesses
  ASSERT_EQ(tier.pinned_pages(), 2u);
  // Page 2 is colder than page 0 but hotter than page 1, the coldest.
  Warm(&tier, 2, 4);
  EXPECT_EQ(tier.evictions(), 1u);
  EXPECT_FALSE(Pinned(&tier, 1));
  EXPECT_TRUE(Pinned(&tier, 2));
}

TEST(HotSliceTierTest, UpdateRefreshesOnlyAPinnedCopy) {
  HotSliceTier tier(/*num_pages=*/8, /*capacity_pages=*/4);
  Warm(&tier, 1, 2);
  tier.Update(1, TaggedPage(42));
  uint8_t seen = 0;
  EXPECT_TRUE(tier.VisitPage(1, [&](const Page& p) { seen = p.bytes[0]; }));
  EXPECT_EQ(seen, 42);
  tier.Update(5, TaggedPage(7));  // not pinned: ignored
  EXPECT_EQ(tier.pinned_pages(), 1u);
  EXPECT_FALSE(Pinned(&tier, 5));
}

TEST(HotSliceTierTest, VisitPageCountsEveryAccessAndHitsOnlyPinnedPages) {
  HotSliceTier tier(/*num_pages=*/4, /*capacity_pages=*/4);
  int calls = 0;
  auto visit = [&](PageId p) {
    return tier.VisitPage(p, [&](const Page&) { ++calls; });
  };
  EXPECT_FALSE(visit(0));
  EXPECT_FALSE(visit(0));
  EXPECT_EQ(tier.accesses(0), 2u);
  tier.Admit(0, TaggedPage(0));
  EXPECT_TRUE(visit(0));
  EXPECT_FALSE(visit(1));
  EXPECT_EQ(tier.accesses(0), 3u);
  EXPECT_EQ(tier.accesses(1), 1u);
  EXPECT_EQ(tier.hits(), 1u);
  EXPECT_EQ(calls, 1);
  // Pages past the slice file are neither counted nor served.
  EXPECT_FALSE(visit(4));
  EXPECT_EQ(tier.accesses(4), 0u);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace sigsetdb
