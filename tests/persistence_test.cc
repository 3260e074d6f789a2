// End-to-end durability: build a SetIndex on a disk-backed StorageManager,
// checkpoint, tear everything down, reopen from the same directory, and
// verify that every facility answers queries identically.

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "db/set_index.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

SetIndex::Options Options() {
  SetIndex::Options options;
  options.maintain_ssf = true;
  options.maintain_bssf = true;
  options.maintain_nix = true;
  options.sig = {128, 2};
  options.capacity = 2048;
  options.domain_estimate = 150;
  return options;
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "/tmp/sigsetdb_persist_" + std::to_string(::getpid()) + "_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_EQ(::mkdir(dir_.c_str(), 0755), 0);
  }

  void TearDown() override {
    // Best-effort cleanup of the test directory.
    std::string cmd = "rm -rf '" + dir_ + "'";
    ASSERT_EQ(std::system(cmd.c_str()), 0);
  }

  std::string dir_;
};

TEST_F(PersistenceTest, CheckpointAndReopenAnswersIdentically) {
  std::vector<ElementSet> sets;
  std::vector<Oid> oids;
  Rng rng(1);
  for (int i = 0; i < 300; ++i) {
    sets.push_back(rng.SampleWithoutReplacement(150, 5));
  }

  // --- build, query, checkpoint, destroy ---
  std::vector<Oid> expected_super, expected_sub;
  ElementSet super_query = {sets[7][0], sets[7][3]};
  NormalizeSet(&super_query);
  ElementSet sub_query = rng.SampleWithoutReplacement(150, 60);
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Create(&storage, "attr", Options());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (const auto& set : sets) {
      auto oid = (*index)->Insert(set);
      ASSERT_TRUE(oid.ok());
      oids.push_back(*oid);
    }
    auto super = (*index)->Query(QueryKind::kSuperset, super_query);
    ASSERT_TRUE(super.ok());
    expected_super = super->result.oids;
    auto sub = (*index)->Query(QueryKind::kSubset, sub_query);
    ASSERT_TRUE(sub.ok());
    expected_sub = sub->result.oids;
    ASSERT_FALSE(expected_super.empty());
    ASSERT_TRUE((*index)->Checkpoint().ok());
  }

  // --- reopen from disk and compare ---
  StorageManager storage(dir_);
  auto index = SetIndex::Open(&storage, "attr", Options());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->num_objects(), sets.size());
  EXPECT_DOUBLE_EQ((*index)->mean_cardinality(), 5.0);

  for (PlanMode mode : {PlanMode::kForceSsf, PlanMode::kForceBssf,
                        PlanMode::kForceNix, PlanMode::kAuto}) {
    auto super = (*index)->Query(QueryKind::kSuperset, super_query, mode);
    ASSERT_TRUE(super.ok());
    std::vector<Oid> got = super->result.oids;
    std::sort(got.begin(), got.end());
    std::vector<Oid> want = expected_super;
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }
  auto sub = (*index)->Query(QueryKind::kSubset, sub_query);
  ASSERT_TRUE(sub.ok());
  std::vector<Oid> got = sub->result.oids;
  std::sort(got.begin(), got.end());
  std::vector<Oid> want = expected_sub;
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want);

  // Objects fetch by OID after reopen.
  auto obj = (*index)->Get(oids[123]);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->set_value, sets[123]);
}

TEST_F(PersistenceTest, InsertsAfterReopenWork) {
  ElementSet probe = {1, 2, 3};
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Create(&storage, "attr", Options());
    ASSERT_TRUE(index.ok());
    // Cardinalities that leave partially filled tail pages.
    for (int i = 0; i < 37; ++i) {
      ASSERT_TRUE(
          (*index)->Insert({static_cast<uint64_t>(i), 100, 101}).ok());
    }
    ASSERT_TRUE((*index)->Checkpoint().ok());
  }
  StorageManager storage(dir_);
  auto index = SetIndex::Open(&storage, "attr", Options());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto oid = (*index)->Insert(probe);
  ASSERT_TRUE(oid.ok());
  // Both old and new objects visible, across facilities.
  for (PlanMode mode : {PlanMode::kForceSsf, PlanMode::kForceBssf,
                        PlanMode::kForceNix}) {
    auto result = (*index)->Query(QueryKind::kSuperset, {100, 101}, mode);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->result.oids.size(), 37u) << "mode " << (int)mode;
    auto probe_result = (*index)->Query(QueryKind::kSuperset, {1, 2, 3},
                                        mode);
    ASSERT_TRUE(probe_result.ok());
    EXPECT_EQ(probe_result->result.oids.size(), 1u);
  }
}

TEST_F(PersistenceTest, DomainSketchSurvivesReopen) {
  SetIndex::Options options = Options();
  options.domain_estimate = 0;  // auto: sketched
  int64_t before = 0;
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Create(&storage, "attr", options);
    ASSERT_TRUE(index.ok());
    Rng rng(31);
    for (int i = 0; i < 400; ++i) {
      ASSERT_TRUE((*index)->Insert(rng.SampleWithoutReplacement(150, 5)).ok());
    }
    before = (*index)->DomainEstimate();
    EXPECT_NEAR(static_cast<double>(before), 150.0, 15.0);
    ASSERT_TRUE((*index)->Checkpoint().ok());
  }
  StorageManager storage(dir_);
  auto index = SetIndex::Open(&storage, "attr", options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->DomainEstimate(), before);
}

// Open loads the checkpointed sketch registers; WAL recovery then re-adds
// the replayed sets on top of them.  Either way the estimate must come back
// exactly as it was before the index went away.
TEST_F(PersistenceTest, DomainSketchSurvivesWalRecovery) {
  SetIndex::Options options = Options();
  options.domain_estimate = 0;  // auto: sketched
  options.enable_wal = true;
  Rng rng(32);
  int64_t checkpointed = 0;
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Create(&storage, "attr", options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE((*index)->Insert(rng.SampleWithoutReplacement(150, 5)).ok());
    }
    checkpointed = (*index)->DomainEstimate();
    ASSERT_TRUE((*index)->Checkpoint().ok());
  }
  int64_t before_stop = 0;
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Open(&storage, "attr", options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    EXPECT_EQ((*index)->DomainEstimate(), checkpointed);
    // Values past the checkpointed domain move the estimate; they reach
    // disk only through the WAL (no Checkpoint before the index goes away).
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE((*index)->Insert(rng.SampleWithoutReplacement(600, 5)).ok());
    }
    before_stop = (*index)->DomainEstimate();
    EXPECT_GT(before_stop, checkpointed);
  }
  StorageManager storage(dir_);
  auto index = SetIndex::Open(&storage, "attr", options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ((*index)->DomainEstimate(), before_stop);
}

TEST_F(PersistenceTest, OpenRejectsMismatchedOptions) {
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Create(&storage, "attr", Options());
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Insert({1}).ok());
    ASSERT_TRUE((*index)->Checkpoint().ok());
  }
  StorageManager storage(dir_);
  SetIndex::Options wrong = Options();
  wrong.sig = {256, 3};
  EXPECT_EQ(SetIndex::Open(&storage, "attr", wrong).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(PersistenceTest, OpenWithoutCheckpointFails) {
  {
    StorageManager storage(dir_);
    auto index = SetIndex::Create(&storage, "attr", Options());
    ASSERT_TRUE(index.ok());
    ASSERT_TRUE((*index)->Insert({1}).ok());
    // No checkpoint.
  }
  StorageManager storage(dir_);
  EXPECT_FALSE(SetIndex::Open(&storage, "attr", Options()).ok());
}

TEST_F(PersistenceTest, InMemoryCheckpointReopenWithinProcess) {
  // Checkpoint/Open also works on the in-memory backend within one
  // StorageManager lifetime (useful for tests and snapshots).
  StorageManager storage;
  {
    auto index = SetIndex::Create(&storage, "attr", Options());
    ASSERT_TRUE(index.ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE((*index)->Insert({static_cast<uint64_t>(i), 99}).ok());
    }
    ASSERT_TRUE((*index)->Checkpoint().ok());
  }
  auto index = SetIndex::Open(&storage, "attr", Options());
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto result = (*index)->Query(QueryKind::kSuperset, {99});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->result.oids.size(), 20u);
}

}  // namespace
}  // namespace sigsetdb
