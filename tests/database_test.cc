#include "db/database.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>

#include <gtest/gtest.h>

#include "db/snapshot.h"
#include "oracle.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

// Two attributes mirroring the paper's Student class: `courses` (dense ids
// standing in for Course OIDs) and `hobbies` (small string-ish domain).
Database::Options StudentOptions() {
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  courses.sig = {128, 2};
  courses.domain_estimate = 300;
  Database::AttributeOptions hobbies;
  hobbies.name = "hobbies";
  hobbies.sig = {128, 2};
  hobbies.domain_estimate = 40;
  options.attributes = {courses, hobbies};
  options.capacity = 4096;
  return options;
}

class DatabaseTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto db = Database::Create(&storage_, "Student", StudentOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    Rng rng(1);
    for (int i = 0; i < 400; ++i) {
      std::vector<ElementSet> attrs = {
          rng.SampleWithoutReplacement(300, 6),   // courses
          rng.SampleWithoutReplacement(40, 3)};   // hobbies
      auto oid = db_->Insert(attrs);
      ASSERT_TRUE(oid.ok());
      oids_.push_back(*oid);
      values_.push_back(std::move(attrs));
    }
  }

  std::vector<Oid> BruteForce(const std::vector<SetPredicate>& preds) {
    std::vector<Oid> out;
    for (size_t i = 0; i < values_.size(); ++i) {
      bool ok = true;
      for (const SetPredicate& p : preds) {
        size_t attr = p.attribute == "courses" ? 0 : 1;
        ElementSet query = p.query;
        NormalizeSet(&query);
        const bool hit = OracleMatches(values_[i][attr], p.kind, query);
        if (!hit) {
          ok = false;
          break;
        }
      }
      if (ok) out.push_back(oids_[i]);
    }
    return out;
  }

  void ExpectQueryMatches(const std::vector<SetPredicate>& preds) {
    auto result = db_->Query(preds);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<Oid> got = result->oids;
    std::sort(got.begin(), got.end());
    std::vector<Oid> want = BruteForce(preds);
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
  }

  StorageManager storage_;
  std::unique_ptr<Database> db_;
  std::vector<Oid> oids_;
  std::vector<std::vector<ElementSet>> values_;
};

TEST_F(DatabaseTest, ValidationRejectsBadOptions) {
  StorageManager storage;
  Database::Options empty;
  EXPECT_EQ(Database::Create(&storage, "X", empty).status().code(),
            StatusCode::kInvalidArgument);
  Database::Options unnamed = StudentOptions();
  unnamed.attributes[0].name = "";
  EXPECT_EQ(Database::Create(&storage, "X", unnamed).status().code(),
            StatusCode::kInvalidArgument);
  Database::Options no_facility = StudentOptions();
  no_facility.attributes[1].maintain_bssf = false;
  no_facility.attributes[1].maintain_nix = false;
  EXPECT_EQ(Database::Create(&storage, "X", no_facility).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, SingleAttributeQueriesMatchBruteForce) {
  ExpectQueryMatches({{"courses", QueryKind::kSuperset,
                       {values_[5][0][0], values_[5][0][2]}}});
  Rng rng(2);
  ExpectQueryMatches(
      {{"hobbies", QueryKind::kSubset, rng.SampleWithoutReplacement(40, 20)}});
  ExpectQueryMatches({{"hobbies", QueryKind::kOverlaps, {1, 2}}});
  ExpectQueryMatches({{"courses", QueryKind::kEquals, values_[9][0]}});
}

TEST_F(DatabaseTest, ConjunctionAcrossAttributes) {
  // The paper's flagship compound query shape: courses ⊇ X and hobbies ⊆ Y.
  Rng rng(3);
  std::vector<SetPredicate> preds = {
      {"courses", QueryKind::kSuperset, {values_[7][0][1]}},
      {"hobbies", QueryKind::kSubset, rng.SampleWithoutReplacement(40, 25)}};
  ExpectQueryMatches(preds);
  auto result = db_->Query(preds);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->driver.empty());
  EXPECT_EQ(result->num_candidates,
            result->oids.size() + result->num_false_drops);
}

TEST_F(DatabaseTest, ConjunctionOnSameAttribute) {
  std::vector<SetPredicate> preds = {
      {"courses", QueryKind::kSuperset, {values_[11][0][0]}},
      {"courses", QueryKind::kSuperset, {values_[11][0][3]}}};
  ExpectQueryMatches(preds);
}

TEST_F(DatabaseTest, DriverPicksCheaperPredicate) {
  // A 2-element superset predicate is far more selective (and cheaper)
  // than a huge subset predicate; the driver should be the former.
  Rng rng(4);
  std::vector<SetPredicate> preds = {
      {"hobbies", QueryKind::kSubset, rng.SampleWithoutReplacement(40, 35)},
      {"courses", QueryKind::kSuperset,
       {values_[3][0][0], values_[3][0][1]}}};
  auto result = db_->Query(preds);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->driver.rfind("courses", 0), 0u) << result->driver;
}

TEST_F(DatabaseTest, UnknownAttributeRejected) {
  EXPECT_EQ(db_->Query({{"gpa", QueryKind::kSuperset, {1}}}).status().code(),
            StatusCode::kNotFound);
  // A pinned snapshot keeps the same contract (it reads through the same
  // engine code).
  Database::Options options = StudentOptions();
  options.enable_snapshots = true;
  StorageManager storage;
  auto db = Database::Create(&storage, "Pinned", options);
  ASSERT_TRUE(db.ok());
  ASSERT_TRUE((*db)->Insert({{1, 2}, {3}}).ok());
  auto snap = (*db)->GetSnapshot();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_EQ((*snap)->Query({{"gpa", QueryKind::kSuperset, {1}}})
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*snap)->ExecuteSetJoin("courses", "gpa").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ((*snap)->ExecuteSetJoin("gpa", "courses").status().code(),
            StatusCode::kNotFound);
}

// Open checks every attribute's f, m and facility set against the
// checkpoint: reopened with a different signature width m, the BSSF would
// build query signatures the stored slices never saw and miss answers.
TEST_F(DatabaseTest, OpenRejectsMismatchedOptions) {
  Database::Options options;
  Database::AttributeOptions tags;
  tags.name = "tags";
  tags.maintain_nix = false;
  tags.sig = {250, 2};
  options.attributes = {tags};
  options.capacity = 4096;
  StorageManager storage;
  std::vector<ElementSet> sets;
  {
    auto db = Database::Create(&storage, "Tagged", options);
    ASSERT_TRUE(db.ok());
    Rng rng(8);
    for (int i = 0; i < 2000; ++i) {
      sets.push_back(rng.SampleWithoutReplacement(500, 10));
      NormalizeSet(&sets.back());
      ASSERT_TRUE((*db)->Insert({sets.back()}).ok());
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  Database::Options wrong_m = options;
  wrong_m.attributes[0].sig = {250, 3};
  EXPECT_EQ(Database::Open(&storage, "Tagged", wrong_m).status().code(),
            StatusCode::kFailedPrecondition);
  Database::Options wrong_f = options;
  wrong_f.attributes[0].sig = {256, 2};
  EXPECT_EQ(Database::Open(&storage, "Tagged", wrong_f).status().code(),
            StatusCode::kFailedPrecondition);
  Database::Options wrong_facilities = options;
  wrong_facilities.attributes[0].maintain_nix = true;
  EXPECT_EQ(
      Database::Open(&storage, "Tagged", wrong_facilities).status().code(),
      StatusCode::kFailedPrecondition);

  // The matching configuration reopens and answers like brute force.
  auto db = Database::Open(&storage, "Tagged", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  const ElementSet query = {sets[17][2], sets[17][7]};
  auto result = (*db)->Query({{"tags", QueryKind::kSuperset, query}});
  ASSERT_TRUE(result.ok());
  std::vector<Oid> got = result->oids;
  size_t want = 0;
  for (const ElementSet& set : sets) {
    want += std::includes(set.begin(), set.end(), query.begin(), query.end());
  }
  EXPECT_EQ(got.size(), want);
  EXPECT_GE(want, 1u);
}

TEST_F(DatabaseTest, EmptyInputsRejected) {
  EXPECT_EQ(db_->Query({}).status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(db_->Query({{"courses", QueryKind::kSuperset, {}}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(DatabaseTest, DeleteRemovesFromAllAttributes) {
  ASSERT_TRUE(db_->Delete(oids_[0]).ok());
  auto by_course = db_->Query(
      {{"courses", QueryKind::kSuperset, {values_[0][0][0]}}});
  ASSERT_TRUE(by_course.ok());
  EXPECT_TRUE(std::find(by_course->oids.begin(), by_course->oids.end(),
                        oids_[0]) == by_course->oids.end());
  auto by_hobby = db_->Query(
      {{"hobbies", QueryKind::kSuperset, {values_[0][1][0]}}});
  ASSERT_TRUE(by_hobby.ok());
  EXPECT_TRUE(std::find(by_hobby->oids.begin(), by_hobby->oids.end(),
                        oids_[0]) == by_hobby->oids.end());
  // Re-run a brute-force-checked query over the survivors.
  values_.erase(values_.begin());
  oids_.erase(oids_.begin());
  ExpectQueryMatches({{"courses", QueryKind::kSuperset, {values_[4][0][0]}}});
}

TEST_F(DatabaseTest, CheckpointAndReopenOnDisk) {
  std::string dir = "/tmp/sigsetdb_dbtest_" + std::to_string(::getpid());
  ASSERT_EQ(::mkdir(dir.c_str(), 0755), 0);
  std::vector<Oid> expected;
  {
    StorageManager storage(dir);
    auto db = Database::Create(&storage, "Student", StudentOptions());
    ASSERT_TRUE(db.ok());
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
      ASSERT_TRUE((*db)
                      ->Insert({rng.SampleWithoutReplacement(300, 6),
                                rng.SampleWithoutReplacement(40, 3)})
                      .ok());
    }
    auto result = (*db)->Query({{"courses", QueryKind::kOverlaps, {5, 6}}});
    ASSERT_TRUE(result.ok());
    expected = result->oids;
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  {
    StorageManager storage(dir);
    auto db = Database::Open(&storage, "Student", StudentOptions());
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ((*db)->num_objects(), 200u);
    auto result = (*db)->Query({{"courses", QueryKind::kOverlaps, {5, 6}}});
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->oids, expected);
  }
  std::string cmd = "rm -rf '" + dir + "'";
  ASSERT_EQ(std::system(cmd.c_str()), 0);
}

TEST_F(DatabaseTest, AutoDomainEstimatePerAttribute) {
  Database::Options options = StudentOptions();
  options.attributes[0].domain_estimate = 0;  // auto
  options.attributes[1].domain_estimate = 0;
  StorageManager storage;
  auto db = Database::Create(&storage, "Auto", options);
  ASSERT_TRUE(db.ok());
  Rng rng(41);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*db)
                    ->Insert({rng.SampleWithoutReplacement(300, 6),
                              rng.SampleWithoutReplacement(40, 3)})
                    .ok());
  }
  EXPECT_NEAR(static_cast<double>((*db)->DomainEstimate(0)), 300.0, 30.0);
  EXPECT_NEAR(static_cast<double>((*db)->DomainEstimate(1)), 40.0, 6.0);
  auto result = (*db)->Query({{"hobbies", QueryKind::kSuperset, {1, 2}}});
  ASSERT_TRUE(result.ok());
}

// A Zipf(0.99) attribute (1-8 of 500 values) loaded through ApplyBatch
// with NIX on: each batch grows the most popular values' posting lists by
// hundreds of OIDs at once.  With this seed the second batch leaves three
// lists of ~260, ~260 and ~100 OIDs on one leaf, where the byte-balanced
// cut overflows its left half (the split used to fail there).  hobbies is
// NIX-only so every hobbies answer below comes from the B-tree.
TEST_F(DatabaseTest, ZipfAttributeWithNixLoadsThroughApplyBatch) {
  Database::Options options = StudentOptions();
  options.attributes[1].maintain_bssf = false;
  options.attributes[1].domain_estimate = 500;
  options.capacity = 8192;
  auto db = Database::Create(&storage_, "Zipf", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  SetGenerator hobbies({6000, 500, CardinalitySpec{1, 8}, SkewKind::kZipf,
                        0.99, /*seed=*/60});
  Rng rng(43);
  oids_.clear();
  values_.clear();
  for (int b = 0; b < 6; ++b) {
    MultiWriteBatch batch;
    std::vector<std::vector<ElementSet>> pending;
    for (int i = 0; i < 1000; ++i) {
      pending.push_back({rng.SampleWithoutReplacement(300, 6),
                         hobbies.NextSet()});
      batch.Insert(pending.back());
    }
    auto oids = (*db)->ApplyBatch(batch);
    ASSERT_TRUE(oids.ok()) << "batch " << b << ": " << oids.status().ToString();
    oids_.insert(oids_.end(), oids->begin(), oids->end());
    values_.insert(values_.end(), pending.begin(), pending.end());
  }
  db_ = std::move(*db);
  for (QueryKind kind :
       {QueryKind::kSuperset, QueryKind::kProperSuperset, QueryKind::kSubset,
        QueryKind::kProperSubset, QueryKind::kEquals, QueryKind::kOverlaps}) {
    SCOPED_TRACE(static_cast<int>(kind));
    const bool small = kind == QueryKind::kSuperset ||
                       kind == QueryKind::kProperSuperset ||
                       kind == QueryKind::kOverlaps;
    const ElementSet popular =
        small ? ElementSet{0} : ElementSet{0, 1, 2, 3, 4, 5, 6, 7};
    ExpectQueryMatches({{"hobbies", kind, popular}});
    ExpectQueryMatches({{"hobbies", kind, hobbies.QuerySet(small ? 2 : 20)}});
    ExpectQueryMatches({{"hobbies", kind, values_[17][1]}});
  }
  // A conjunction resolved across both attributes.
  ExpectQueryMatches({{"hobbies", QueryKind::kSuperset, {0, 1}},
                      {"courses", QueryKind::kOverlaps, {1, 2, 3, 4, 5}}});
}

// Open loads each attribute's checkpointed sketch registers; WAL recovery
// then re-adds the replayed objects on top of them.  Either way every
// attribute's estimate must come back exactly as it was.
TEST_F(DatabaseTest, DomainEstimateSurvivesReopenAndWalRecovery) {
  Database::Options options = StudentOptions();
  options.attributes[0].domain_estimate = 0;  // auto
  options.attributes[1].domain_estimate = 0;
  options.enable_wal = true;
  auto estimates = [](const Database& db) {
    return std::vector<int64_t>{db.DomainEstimate(0), db.DomainEstimate(1)};
  };
  Rng rng(44);
  std::vector<int64_t> checkpointed;
  {
    auto db = Database::Create(&storage_, "Sketched", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE((*db)
                      ->Insert({rng.SampleWithoutReplacement(300, 6),
                                rng.SampleWithoutReplacement(40, 3)})
                      .ok());
    }
    checkpointed = estimates(**db);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::vector<int64_t> before_stop;
  {
    auto db = Database::Open(&storage_, "Sketched", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    EXPECT_EQ(estimates(**db), checkpointed);
    // Wider domains move both estimates; these objects reach the files only
    // through the WAL (no Checkpoint before the database goes away).
    for (int i = 0; i < 300; ++i) {
      ASSERT_TRUE((*db)
                      ->Insert({rng.SampleWithoutReplacement(900, 6),
                                rng.SampleWithoutReplacement(120, 3)})
                      .ok());
    }
    before_stop = estimates(**db);
    EXPECT_GT(before_stop[0], checkpointed[0]);
    EXPECT_GT(before_stop[1], checkpointed[1]);
  }
  auto db = Database::Open(&storage_, "Sketched", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ(estimates(**db), before_stop);
}

// A WAL-off database stopped without a checkpoint keeps the slice bits of
// appends the manifest does not count.  Reopening must clear them, or the
// next sparse append to those slots inherits them and a subset query that
// covers its set misses it.
TEST(DatabaseCrashTest, SparseAppendAfterUncheckpointedStopIsExact) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions attr;
  attr.name = "tags";
  attr.maintain_nix = false;
  attr.sig = {64, 2};
  options.attributes = {attr};
  options.capacity = 256;
  auto make = [](uint64_t lo, uint64_t hi) {
    ElementSet set;
    for (uint64_t e = lo; e <= hi; ++e) set.push_back(e);
    return std::vector<ElementSet>{set};
  };
  {
    auto db = Database::Create(&storage, "Crashed", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    ASSERT_TRUE((*db)->Insert(make(1, 8)).ok());
    ASSERT_TRUE((*db)->Checkpoint().ok());
    ASSERT_TRUE((*db)->Insert(make(100, 108)).ok());
  }  // dropped without a checkpoint
  auto db = Database::Open(&storage, "Crashed", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  auto oid = (*db)->Insert(make(200, 201));
  ASSERT_TRUE(oid.ok());
  auto got =
      (*db)->Query({SetPredicate{"tags", QueryKind::kSubset, {200, 201, 202}}});
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->oids, std::vector<Oid>{*oid});
}

// WAL replay after an insert took the space a delete freed: the deleted
// object and its successor need not fit one page together, so replay must
// not materialize the deleted one on the way.
TEST(DatabaseCrashTest, WalReplayOverReusedSpaceRecovers) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions attr;
  attr.name = "tags";
  attr.maintain_nix = false;
  attr.sig = {64, 2};
  options.attributes = {attr};
  options.capacity = 256;
  options.enable_wal = true;
  // A record is 4 + 8 bytes per element; 200 elements take 1,604 bytes.
  auto make = [](uint64_t lo, uint64_t count) {
    ElementSet set;
    for (uint64_t e = lo; e < lo + count; ++e) set.push_back(e);
    return std::vector<ElementSet>{set};
  };
  Oid x, a, c, b;
  {
    auto db = Database::Create(&storage, "Reused", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    x = *(*db)->Insert(make(0, 200));
    a = *(*db)->Insert(make(1000, 200));
    c = *(*db)->Insert(make(2000, 200));  // page 0 is full: a new tail page
    ASSERT_EQ(a.page(), x.page());
    ASSERT_NE(c.page(), x.page());
    ASSERT_TRUE((*db)->Delete(a).ok());
    b = *(*db)->Insert(make(3000, 250));  // fits only in a's compacted space
    ASSERT_EQ(b.page(), a.page());
  }  // crash: dropped without a checkpoint, so the WAL replays it all
  auto db = Database::Open(&storage, "Reused", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  EXPECT_EQ((*db)->num_objects(), 3u);
  EXPECT_EQ((*db)->Get(a).status().code(), StatusCode::kNotFound);
  for (const auto& [oid, want] : {std::pair{x, make(0, 200)},
                                  std::pair{c, make(2000, 200)},
                                  std::pair{b, make(3000, 250)}}) {
    auto got = (*db)->Get(oid);
    ASSERT_TRUE(got.ok()) << oid.ToString();
    EXPECT_EQ(got->attrs, want);
  }
  auto hit = (*db)->Query({SetPredicate{"tags", QueryKind::kSuperset, {3001}}});
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->oids, std::vector<Oid>{b});
}

TEST_F(DatabaseTest, AttributeIndexLookup) {
  auto courses = db_->AttributeIndex("courses");
  ASSERT_TRUE(courses.ok());
  EXPECT_EQ(*courses, 0u);
  auto hobbies = db_->AttributeIndex("hobbies");
  ASSERT_TRUE(hobbies.ok());
  EXPECT_EQ(*hobbies, 1u);
  EXPECT_EQ(db_->attribute_name(1), "hobbies");
  EXPECT_EQ(db_->num_attributes(), 2u);
}

}  // namespace
}  // namespace sigsetdb
