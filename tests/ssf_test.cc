#include "sig/ssf.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace sigsetdb {
namespace {

class SsfTest : public ::testing::Test {
 protected:
  void MakeSsf(SignatureConfig config) {
    auto ssf = SequentialSignatureFile::Create(config, &sig_file_, &oid_file_);
    ASSERT_TRUE(ssf.ok()) << ssf.status().ToString();
    ssf_ = std::move(*ssf);
  }

  static Oid MakeOid(uint64_t i) {
    return Oid::FromLocation(static_cast<PageId>(i), 0);
  }

  InMemoryPageFile sig_file_{"ssf.sig"};
  InMemoryPageFile oid_file_{"ssf.oid"};
  std::unique_ptr<SequentialSignatureFile> ssf_;
};

TEST_F(SsfTest, CreateValidatesConfig) {
  InMemoryPageFile s("s"), o("o");
  EXPECT_FALSE(SequentialSignatureFile::Create({0, 1}, &s, &o).ok());
  EXPECT_FALSE(SequentialSignatureFile::Create(
                   {static_cast<uint32_t>(kPageBits) + 1, 1}, &s, &o)
                   .ok());
  EXPECT_TRUE(SequentialSignatureFile::Create({250, 2}, &s, &o).ok());
}

TEST_F(SsfTest, InsertCostsTwoPageWrites) {
  MakeSsf({250, 2});
  ASSERT_TRUE(ssf_->Insert(MakeOid(0), {1, 2, 3}).ok());
  sig_file_.stats().Reset();
  oid_file_.stats().Reset();
  ASSERT_TRUE(ssf_->Insert(MakeOid(1), {4, 5, 6}).ok());
  // The paper's UC_I = 2: one signature-page write + one OID-page write.
  EXPECT_EQ(sig_file_.stats().page_writes + oid_file_.stats().page_writes,
            2u);
  EXPECT_EQ(sig_file_.stats().page_reads + oid_file_.stats().page_reads, 0u);
}

TEST_F(SsfTest, ReuseOnTailPageReadsNoSignaturePage) {
  MakeSsf({250, 2});
  ASSERT_TRUE(ssf_->ApplyBatch({{BatchOp::Kind::kInsert, MakeOid(0), {1, 2}},
                                {BatchOp::Kind::kInsert, MakeOid(1), {3, 4}},
                                {BatchOp::Kind::kInsert, MakeOid(2), {5, 6}}})
                  .ok());
  ASSERT_TRUE(
      ssf_->ApplyBatch({{BatchOp::Kind::kRemove, MakeOid(1), {3, 4}}}).ok());
  sig_file_.stats().Reset();
  oid_file_.stats().Reset();
  // Slot 1 is free and lives on the tail page, whose image is in memory.
  ASSERT_TRUE(
      ssf_->ApplyBatch({{BatchOp::Kind::kInsert, MakeOid(3), {7, 8}}}).ok());
  EXPECT_EQ(sig_file_.stats().page_reads, 0u);
  EXPECT_EQ(sig_file_.stats().page_writes, 1u);
  EXPECT_EQ(ssf_->num_signatures(), 3u);
  auto result = ssf_->Candidates(QueryKind::kSuperset, {7, 8});
  ASSERT_TRUE(result.ok());
  EXPECT_NE(std::find(result->oids.begin(), result->oids.end(), MakeOid(3)),
            result->oids.end());
}

TEST_F(SsfTest, SignaturePackingMatchesModel) {
  MakeSsf({250, 2});
  // 131 signatures of 250 bits per 4 KiB page.
  EXPECT_EQ(ssf_->signatures_per_page(), 131u);
  for (uint64_t i = 0; i < 132; ++i) {
    ASSERT_TRUE(ssf_->Insert(MakeOid(i), {i}).ok());
  }
  EXPECT_EQ(ssf_->SignaturePages(), 2u);
  EXPECT_EQ(ssf_->num_signatures(), 132u);
}

TEST_F(SsfTest, SupersetQueryFindsAllTrueMatchesAndNoNonMatches) {
  MakeSsf({500, 5});
  Rng rng(1);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 300; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(200, 10));
    ASSERT_TRUE(ssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  ElementSet query = {sets[7][0], sets[7][3]};
  NormalizeSet(&query);
  auto result = ssf_->Candidates(QueryKind::kSuperset, query);
  ASSERT_TRUE(result.ok());
  // Every object truly satisfying T ⊇ Q must be among the candidates.
  std::set<Oid> candidates(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (IsSubset(query, sets[i])) {
      EXPECT_TRUE(candidates.count(MakeOid(i))) << "missing true match " << i;
    }
  }
  EXPECT_FALSE(result->exact);
}

TEST_F(SsfTest, SubsetQueryComplete) {
  MakeSsf({500, 3});
  Rng rng(2);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 200; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(100, 5));
    ASSERT_TRUE(ssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  ElementSet query = rng.SampleWithoutReplacement(100, 40);
  auto result = ssf_->Candidates(QueryKind::kSubset, query);
  ASSERT_TRUE(result.ok());
  std::set<Oid> candidates(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (IsSubset(sets[i], query)) {
      EXPECT_TRUE(candidates.count(MakeOid(i))) << "missing true match " << i;
    }
  }
}

TEST_F(SsfTest, EqualsAndOverlapComplete) {
  MakeSsf({250, 4});
  Rng rng(3);
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 100; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(50, 4));
    ASSERT_TRUE(ssf_->Insert(MakeOid(i), sets.back()).ok());
  }
  // Equality: querying an existing value must return its object.
  auto eq = ssf_->Candidates(QueryKind::kEquals, sets[13]);
  ASSERT_TRUE(eq.ok());
  EXPECT_TRUE(std::find(eq->oids.begin(), eq->oids.end(), MakeOid(13)) !=
              eq->oids.end());
  // Overlap: any object sharing an element must be a candidate.
  ElementSet overlap_query = {sets[20][0], 9999};
  NormalizeSet(&overlap_query);
  auto ov = ssf_->Candidates(QueryKind::kOverlaps, overlap_query);
  ASSERT_TRUE(ov.ok());
  std::set<Oid> candidates(ov->oids.begin(), ov->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (Overlaps(sets[i], overlap_query)) {
      EXPECT_TRUE(candidates.count(MakeOid(i))) << "missing overlap " << i;
    }
  }
}

TEST_F(SsfTest, QueryScansExactlySignaturePages) {
  MakeSsf({250, 2});
  for (uint64_t i = 0; i < 300; ++i) {
    ASSERT_TRUE(ssf_->Insert(MakeOid(i), {i, i + 1000}).ok());
  }
  uint64_t sig_pages = ssf_->SignaturePages();
  EXPECT_EQ(sig_pages, 3u);  // ceil(300/131)
  sig_file_.stats().Reset();
  ASSERT_TRUE(ssf_->Candidates(QueryKind::kSuperset, {5}).ok());
  EXPECT_EQ(sig_file_.stats().page_reads, sig_pages);
}

TEST_F(SsfTest, RemoveHidesObjectFromResults) {
  MakeSsf({250, 3});
  ASSERT_TRUE(ssf_->Insert(MakeOid(0), {1, 2}).ok());
  ASSERT_TRUE(ssf_->Insert(MakeOid(1), {1, 3}).ok());
  ASSERT_TRUE(ssf_->Remove(MakeOid(0), {1, 2}).ok());
  auto result = ssf_->Candidates(QueryKind::kSuperset, {1});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oids, std::vector<Oid>{MakeOid(1)});
}

TEST_F(SsfTest, StoragePagesSumSignatureAndOidFiles) {
  MakeSsf({500, 2});
  for (uint64_t i = 0; i < 70; ++i) {
    ASSERT_TRUE(ssf_->Insert(MakeOid(i), {i}).ok());
  }
  // 65 sigs/page -> 2 sig pages; 70 oids -> 1 oid page.
  EXPECT_EQ(ssf_->StoragePages(), 3u);
}

}  // namespace
}  // namespace sigsetdb
