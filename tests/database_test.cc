#include "db/database.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <set>
#include <string>

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

// --- the write path, pinned --------------------------------------------------

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ull;

// FNV-1a over `n` more bytes.
uint64_t Fnv1a(uint64_t h, const void* data, size_t n) {
  const auto* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

// One file as a write stream left it: its bytes and its page counters.
struct FileImage {
  std::string name;
  uint64_t fnv;
  PageId pages;
  uint64_t reads;
  uint64_t writes;

  bool operator==(const FileImage&) const = default;
};

void PrintTo(const FileImage& image, std::ostream* os) {
  *os << image.name << " fnv=" << std::hex << image.fnv << std::dec
      << " pages=" << image.pages << " reads=" << image.reads
      << " writes=" << image.writes;
}

// Every file of `storage`, in name order.  The hashing reads count into a
// scratch IoStats, so each file's counters stay as the engine left them.
std::vector<FileImage> Images(StorageManager* storage) {
  std::vector<std::string> names;
  storage->ForEachFile(
      [&](const PageFile& file) { names.push_back(file.name()); });
  std::vector<FileImage> out;
  for (const std::string& name : names) {
    PageFile* file = *storage->Open(name);
    uint64_t h = kFnvBasis;
    IoStats uncounted;
    Page page;
    for (PageId id = 0; id < file->num_pages(); ++id) {
      EXPECT_TRUE(file->Read(id, &page, &uncounted).ok());
      h = Fnv1a(h, page.bytes.data(), kPageSize);
    }
    out.push_back(FileImage{name, h, file->num_pages(), file->stats().reads(),
                            file->stats().writes()});
  }
  return out;
}

std::string ToString(const std::vector<std::vector<FileImage>>& phases) {
  std::string out;
  char line[160];
  for (const std::vector<FileImage>& phase : phases) {
    out += "      {\n";
    for (const FileImage& image : phase) {
      std::snprintf(line, sizeof(line),
                    "          {\"%s\", 0x%016" PRIx64 "ull, %u, %" PRIu64
                    ", %" PRIu64 "},\n",
                    image.name.c_str(), image.fnv, image.pages, image.reads,
                    image.writes);
      out += line;
    }
    out += "      },\n";
  }
  return out;
}

// A seeded two-attribute stream through every write entry point, with the
// WAL, snapshots and telemetry on: Inserts, Deletes and multi-op
// ApplyBatches, a Checkpoint, more writes, a Compact, more writes that only
// the log holds, and a reopen that replays them.  The expected values were
// generated by an engine with separate Insert, Delete and ApplyBatch bodies;
// any body that writes the same mutations must leave the same bytes, page
// counts, telemetry and answers.
TEST(DatabaseWritePathTest, SeededStreamPinsFilesTelemetryAndRecovery) {
  Database::Options options = StudentOptions();
  options.attributes[0].maintain_ssf = true;
  options.enable_wal = true;
  options.enable_snapshots = true;
  options.enable_telemetry = true;
  options.flight_recorder_capacity = 1024;
  StorageManager storage;
  auto created = Database::Create(&storage, "Pinned", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);

  Rng rng(2101);
  std::map<uint64_t, std::vector<ElementSet>> live;  // OID value -> sets
  uint64_t oid_hash = kFnvBasis;
  size_t num_oids = 0;
  auto make = [&] {
    std::vector<ElementSet> attrs = {
        rng.SampleWithoutReplacement(300, 6),
        rng.SampleWithoutReplacement(40, 1 + rng.NextBelow(4))};
    for (ElementSet& set : attrs) NormalizeSet(&set);
    return attrs;
  };
  auto note = [&](Oid oid, std::vector<ElementSet> attrs) {
    const uint64_t value = oid.value();
    oid_hash = Fnv1a(oid_hash, &value, sizeof(value));
    ++num_oids;
    live[value] = std::move(attrs);
  };
  auto pick = [&] {
    auto it = live.begin();
    std::advance(it, static_cast<ptrdiff_t>(rng.NextBelow(live.size())));
    return Oid(it->first);
  };
  // `ops` operations; every 25th is a batch of three deletes and six
  // inserts, the rest 70% inserts.
  auto writes = [&](int ops) {
    for (int i = 0; i < ops; ++i) {
      if (i % 25 == 24) {
        std::set<uint64_t> victims;
        while (victims.size() < 3) victims.insert(pick().value());
        MultiWriteBatch batch;
        for (uint64_t victim : victims) batch.Delete(Oid(victim));
        std::vector<std::vector<ElementSet>> pending;
        for (int k = 0; k < 6; ++k) {
          pending.push_back(make());
          batch.Insert(pending.back());
        }
        auto oids = db->ApplyBatch(batch);
        ASSERT_TRUE(oids.ok()) << oids.status().ToString();
        ASSERT_EQ(oids->size(), pending.size());
        for (uint64_t victim : victims) live.erase(victim);
        for (size_t k = 0; k < pending.size(); ++k) {
          note((*oids)[k], std::move(pending[k]));
        }
      } else if (live.size() < 20 || rng.NextBelow(10) < 7) {
        std::vector<ElementSet> attrs = make();
        auto oid = db->Insert(attrs);
        ASSERT_TRUE(oid.ok()) << oid.status().ToString();
        note(*oid, std::move(attrs));
      } else {
        const Oid victim = pick();
        ASSERT_TRUE(db->Delete(victim).ok());
        live.erase(victim.value());
      }
    }
  };

  std::vector<std::vector<FileImage>> images;
  writes(150);
  ASSERT_TRUE(db->Checkpoint().ok());
  images.push_back(Images(&storage));
  writes(75);
  ASSERT_TRUE(db->Compact().ok());
  images.push_back(Images(&storage));
  writes(75);  // reach the files only through the log
  images.push_back(Images(&storage));

  uint64_t op_hash = kFnvBasis;
  std::map<std::string, uint64_t> op_counts;
  for (const FlightEvent& event : db->flight_recorder()->Events()) {
    op_hash = Fnv1a(op_hash, &event.op, sizeof(event.op));
    ++op_counts[FlightOpName(event.op)];
    EXPECT_EQ(event.status_code, 0);
  }
  std::map<std::string, uint64_t> latency_samples;
  for (const char* op : {"insert", "delete", "batch", "checkpoint",
                         "compact"}) {
    latency_samples[op] =
        db->metrics()
            ->histogram("op." + std::string(op) + ".latency_us")
            ->count();
  }
  db.reset();  // unclean stop: the last 75 writes are only in the log

  auto reopened = Database::Open(&storage, "Pinned", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  db = std::move(*reopened);
  EXPECT_EQ(db->num_objects(), live.size());
  images.push_back(Images(&storage));

  uint64_t answer_hash = kFnvBasis;
  size_t num_answers = 0;
  Rng queries(2102);
  for (int q = 0; q < 24; ++q) {
    std::vector<SetPredicate> preds;
    switch (q % 4) {
      case 0:
        preds = {{"courses", QueryKind::kSuperset,
                  queries.SampleWithoutReplacement(300, 1)}};
        break;
      case 1:
        preds = {{"hobbies", QueryKind::kSubset,
                  queries.SampleWithoutReplacement(40, 12)}};
        break;
      case 2:
        preds = {{"courses", QueryKind::kOverlaps,
                  queries.SampleWithoutReplacement(300, 3)},
                 {"hobbies", QueryKind::kOverlaps,
                  queries.SampleWithoutReplacement(40, 8)}};
        break;
      default: {
        auto it = live.begin();
        std::advance(it, static_cast<ptrdiff_t>(queries.NextBelow(live.size())));
        preds = {{"hobbies", QueryKind::kEquals, it->second[1]}};
        break;
      }
    }
    auto got = db->Query(preds);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<uint64_t> values;
    for (Oid oid : got->oids) values.push_back(oid.value());
    std::sort(values.begin(), values.end());
    std::vector<uint64_t> want;
    for (const auto& [value, attrs] : live) {
      bool hit = true;
      for (SetPredicate pred : preds) {
        NormalizeSet(&pred.query);
        const size_t attr = pred.attribute == "courses" ? 0 : 1;
        hit = hit && OracleMatches(attrs[attr], pred.kind, pred.query);
      }
      if (hit) want.push_back(value);
    }
    EXPECT_EQ(values, want) << "query " << q;
    for (uint64_t value : values) {
      answer_hash = Fnv1a(answer_hash, &value, sizeof(value));
    }
    num_answers += values.size();
  }

  EXPECT_EQ(num_oids, 271u);
  EXPECT_EQ(oid_hash, 14528579482019664350ull);
  EXPECT_EQ(live.size(), 146u);
  EXPECT_EQ(op_hash, 3255696724974926097ull);
  const std::map<std::string, uint64_t> per_op = {
      {"batch", 12}, {"checkpoint", 3}, {"compact", 1}, {"delete", 89},
      {"insert", 199}};
  EXPECT_EQ(op_counts, per_op);
  EXPECT_EQ(latency_samples, per_op);
  EXPECT_EQ(num_answers, 120u);
  EXPECT_EQ(answer_hash, 18119768145198977641ull);
  // After the Checkpoint, the Compact, the log-only writes and recovery.
  const std::vector<std::vector<FileImage>> want = {
      {
          {"Pinned.courses.nix", 0x7c81a51081da84b6ull, 3, 1866, 1162},
          {"Pinned.courses.sig", 0x8bcda506bfd69822ull, 1, 0, 115},
          {"Pinned.courses.sig.oid", 0x703d3cdcdd7f66d9ull, 1, 90, 162},
          {"Pinned.courses.slices", 0xc52ed5cff540a223ull, 128, 2053, 2053},
          {"Pinned.courses.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 90, 162},
          {"Pinned.hobbies.nix", 0x60ddf4b8f1a84d92ull, 1, 462, 462},
          {"Pinned.hobbies.slices", 0x5d3927ce34f7b0bfull, 128, 888, 888},
          {"Pinned.hobbies.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 90, 162},
          {"Pinned.manifest", 0x33ad8c028935722dull, 1, 0, 2},
          {"Pinned.objects", 0x212ef98a033d655aull, 2, 339, 198},
          {"Pinned.sketch", 0x6fd7c1faaf59ce28ull, 2, 0, 4},
          {"Pinned.wal", 0x5ff8ccde28498ac0ull, 7, 0, 158},
      },
      {
          {"Pinned.courses.nix", 0xa451c0b2f56eb9a0ull, 4, 3036, 1749},
          {"Pinned.courses.sig", 0x8bcda506bfd69822ull, 1, 1, 171},
          {"Pinned.courses.sig.g1", 0x82bcba057f997274ull, 1, 0, 0},
          {"Pinned.courses.sig.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.courses.sig.oid.g1", 0x383a9cd9d6440314ull, 1, 0, 0},
          {"Pinned.courses.slices", 0xc52ed5cff540a223ull, 128, 3218, 3090},
          {"Pinned.courses.slices.g1", 0x077f74017646725dull, 128, 0, 0},
          {"Pinned.courses.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.courses.slices.oid.g1", 0x383a9cd9d6440314ull, 1, 0, 0},
          {"Pinned.hobbies.nix", 0x5a739cb6c4bbce2eull, 1, 699, 699},
          {"Pinned.hobbies.slices", 0x5d3927ce34f7b0bfull, 128, 1477, 1349},
          {"Pinned.hobbies.slices.g1", 0x700bec866d643fa4ull, 128, 0, 0},
          {"Pinned.hobbies.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.hobbies.slices.oid.g1", 0x383a9cd9d6440314ull, 1, 0, 0},
          {"Pinned.manifest", 0x23b83c33f948d3ffull, 1, 0, 3},
          {"Pinned.objects", 0x0f3ba42baff36e1eull, 3, 501, 297},
          {"Pinned.sketch", 0x40f58e36b7c292cfull, 2, 0, 6},
          {"Pinned.wal", 0x17b72d6fd42eaac6ull, 7, 0, 237},
      },
      {
          {"Pinned.courses.nix", 0xcaf22bab1dd6b9a0ull, 5, 4200, 2333},
          {"Pinned.courses.sig", 0x8bcda506bfd69822ull, 1, 1, 171},
          {"Pinned.courses.sig.g1", 0x82bcba057f997274ull, 1, 0, 52},
          {"Pinned.courses.sig.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.courses.sig.oid.g1", 0x383a9cd9d6440314ull, 1, 56, 81},
          {"Pinned.courses.slices", 0xc52ed5cff540a223ull, 128, 3218, 3090},
          {"Pinned.courses.slices.g1", 0x077f74017646725dull, 128, 1018, 1018},
          {"Pinned.courses.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.courses.slices.oid.g1", 0x383a9cd9d6440314ull, 1, 56, 81},
          {"Pinned.hobbies.nix", 0x5a739cb6c4bbce2eull, 1, 921, 921},
          {"Pinned.hobbies.slices", 0x5d3927ce34f7b0bfull, 128, 1477, 1349},
          {"Pinned.hobbies.slices.g1", 0x700bec866d643fa4ull, 128, 427, 427},
          {"Pinned.hobbies.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.hobbies.slices.oid.g1", 0x383a9cd9d6440314ull, 1, 56, 81},
          {"Pinned.manifest", 0x23b83c33f948d3ffull, 1, 0, 3},
          {"Pinned.objects", 0xe321bbf4875aee1eull, 4, 659, 396},
          {"Pinned.sketch", 0x40f58e36b7c292cfull, 2, 0, 6},
          {"Pinned.wal", 0x93af2c32762459a9ull, 7, 0, 314},
      },
      {
          {"Pinned.courses.nix", 0x8740ad8fbf76b9a0ull, 9, 0, 0},
          {"Pinned.courses.sig", 0x8bcda506bfd69822ull, 1, 1, 171},
          {"Pinned.courses.sig.g1", 0x82bcba057f997274ull, 1, 0, 0},
          {"Pinned.courses.sig.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.courses.sig.oid.g1", 0x383a9cd9d6440314ull, 1, 0, 0},
          {"Pinned.courses.slices", 0xc52ed5cff540a223ull, 128, 3218, 3090},
          {"Pinned.courses.slices.g1", 0x077f74017646725dull, 128, 0, 0},
          {"Pinned.courses.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.courses.slices.oid.g1", 0x383a9cd9d6440314ull, 1, 0, 0},
          {"Pinned.hobbies.nix", 0xefccb3a1e5274e2eull, 2, 0, 0},
          {"Pinned.hobbies.slices", 0x5d3927ce34f7b0bfull, 128, 1477, 1349},
          {"Pinned.hobbies.slices.g1", 0x700bec866d643fa4ull, 128, 0, 0},
          {"Pinned.hobbies.slices.oid", 0x703d3cdcdd7f66d9ull, 1, 141, 243},
          {"Pinned.hobbies.slices.oid.g1", 0x383a9cd9d6440314ull, 1, 0, 0},
          {"Pinned.manifest", 0x23b83c33f948d3ffull, 1, 1, 3},
          {"Pinned.objects", 0xe321bbf4875aee1eull, 4, 0, 0},
          {"Pinned.sketch", 0x40f58e36b7c292cfull, 2, 2, 6},
          {"Pinned.wal", 0x93af2c32762459a9ull, 7, 7, 314},
      },
  };
  EXPECT_EQ(images, want) << "actual:\n" << ToString(images);
}

// A one-op ApplyBatch writes the record the matching Insert or Delete
// writes, so the two leave every file, the log included, byte for byte and
// count for count the same.
TEST(DatabaseWritePathTest, OneOpBatchLogsLikeInsertAndDelete) {
  Database::Options options = StudentOptions();
  options.enable_wal = true;
  StorageManager singles_storage;
  StorageManager batches_storage;
  auto singles = Database::Create(&singles_storage, "Student", options);
  auto batches = Database::Create(&batches_storage, "Student", options);
  ASSERT_TRUE(singles.ok() && batches.ok());
  Rng rng(2103);
  std::vector<Oid> oids;
  for (int i = 0; i < 60; ++i) {
    MultiWriteBatch batch;
    if (i % 3 == 2) {
      const size_t pick = rng.NextBelow(oids.size());
      const Oid victim = oids[pick];
      oids.erase(oids.begin() + static_cast<ptrdiff_t>(pick));
      ASSERT_TRUE((*singles)->Delete(victim).ok());
      batch.Delete(victim);
      ASSERT_TRUE((*batches)->ApplyBatch(batch).ok());
      continue;
    }
    const std::vector<ElementSet> values = {
        rng.SampleWithoutReplacement(300, 6),
        rng.SampleWithoutReplacement(40, 3)};
    auto oid = (*singles)->Insert(values);
    ASSERT_TRUE(oid.ok());
    batch.Insert(values);
    auto batched = (*batches)->ApplyBatch(batch);
    ASSERT_TRUE(batched.ok());
    EXPECT_EQ(*batched, std::vector<Oid>{*oid});
    oids.push_back(*oid);
  }
  EXPECT_EQ(Images(&batches_storage), Images(&singles_storage));
}

// Three attributes holding the same set, each indexed by one facility, so a
// query on attribute "ssf", "bssf" or "nix" runs that facility.
Database::Options OneFacilityEach(bool wal) {
  Database::Options options;
  for (const char* name : {"ssf", "bssf", "nix"}) {
    Database::AttributeOptions attr;
    attr.name = name;
    attr.maintain_ssf = attr.name == "ssf";
    attr.maintain_bssf = attr.name == "bssf";
    attr.maintain_nix = attr.name == "nix";
    attr.sig = {128, 2};
    attr.domain_estimate = 100;
    options.attributes.push_back(attr);
  }
  options.capacity = 256;
  options.enable_wal = wal;
  return options;
}

// Every object of the batch-check tests carries this element.
constexpr uint64_t kShared = 500;

// `count` elements of [0, 100) plus kShared.
ElementSet SharedSet(Rng* rng, uint64_t count) {
  ElementSet set = rng->SampleWithoutReplacement(100, count);
  set.push_back(kShared);
  NormalizeSet(&set);
  return set;
}

// Twenty objects, each holding one set in all three attributes; returns
// them as OID value -> set.
std::map<uint64_t, ElementSet> LoadShared(Database* db, Rng* rng) {
  std::map<uint64_t, ElementSet> live;
  for (int i = 0; i < 20; ++i) {
    const ElementSet set = SharedSet(rng, 5);
    auto oid = db->Insert({set, set, set});
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
    if (oid.ok()) live[oid->value()] = set;
  }
  return live;
}

// `db` stores exactly `live` (OID value -> the set every attribute holds),
// and a query on each of `attrs` answers like brute force.
void ExpectEveryFacilityMatches(
    Database* db, const std::map<uint64_t, ElementSet>& live,
    const std::vector<std::string>& attrs = {"ssf", "bssf", "nix"}) {
  EXPECT_EQ(db->num_objects(), live.size());
  for (const std::string& attr : attrs) {
    for (const auto& [kind, query] :
         {std::pair{QueryKind::kSuperset, ElementSet{kShared}},
          std::pair{QueryKind::kOverlaps, ElementSet{1, 2, 3, 4, 5}}}) {
      SCOPED_TRACE(attr);
      auto got = db->Query({SetPredicate{attr, kind, query}});
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      std::vector<uint64_t> values;
      for (Oid oid : got->oids) values.push_back(oid.value());
      std::sort(values.begin(), values.end());
      std::vector<uint64_t> want;
      for (const auto& [value, set] : live) {
        if (OracleMatches(set, kind, query)) want.push_back(value);
      }
      EXPECT_EQ(values, want);
    }
  }
}

// A batch is checked whole before its first write: a bad one fails with
// InvalidArgument and leaves the store, every facility and (with the WAL)
// the log as they were, so the database stays usable.
TEST(DatabaseWritePathTest, RepeatedDeleteIsRejectedBeforeAnyWrite) {
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    StorageManager storage;
    auto db = Database::Create(&storage, "Checked", OneFacilityEach(wal));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Rng rng(2104);
    std::map<uint64_t, ElementSet> live = LoadShared(db->get(), &rng);
    const Oid victim(live.begin()->first);
    const ElementSet fresh = SharedSet(&rng, 5);
    MultiWriteBatch bad;
    bad.Insert({fresh, fresh, fresh});
    bad.Delete(victim);
    bad.Delete(victim);
    EXPECT_EQ((*db)->ApplyBatch(bad).status().code(),
              StatusCode::kInvalidArgument);
    ExpectEveryFacilityMatches(db->get(), live);

    MultiWriteBatch good;
    good.Insert({fresh, fresh, fresh});
    good.Delete(victim);
    auto oids = (*db)->ApplyBatch(good);
    ASSERT_TRUE(oids.ok()) << oids.status().ToString();
    live.erase(victim.value());
    live[oids->front().value()] = fresh;
    ExpectEveryFacilityMatches(db->get(), live);
  }
}

TEST(DatabaseWritePathTest, OversizedRecordIsRejectedBeforeAnyWrite) {
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    StorageManager storage;
    auto db = Database::Create(&storage, "Checked", OneFacilityEach(wal));
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    Rng rng(2105);
    std::map<uint64_t, ElementSet> live = LoadShared(db->get(), &rng);
    // Three copies of 91 elements take 3 * (4 + 91 * 8) = 2,196 bytes and
    // fit a page; three of 171 take 4,116, more than a page holds.
    const ElementSet fits = SharedSet(&rng, 90);
    ElementSet too_large = {kShared};
    for (uint64_t e = 1000; e < 1170; ++e) too_large.push_back(e);
    MultiWriteBatch bad;
    bad.Insert({fits, fits, fits});
    bad.Insert({too_large, too_large, too_large});
    EXPECT_EQ((*db)->ApplyBatch(bad).status().code(),
              StatusCode::kInvalidArgument);
    ExpectEveryFacilityMatches(db->get(), live);

    MultiWriteBatch good;
    good.Insert({fits, fits, fits});
    auto oids = (*db)->ApplyBatch(good);
    ASSERT_TRUE(oids.ok()) << oids.status().ToString();
    live[oids->front().value()] = fits;
    ExpectEveryFacilityMatches(db->get(), live);
  }
}

// A facility's limits are part of the same whole-batch check.  `refused`
// runs against a database of `options` (one attribute, "tags") holding
// `preload` objects and must fail with `code` before anything is logged,
// stored or indexed; the database then takes a valid write, and with the
// WAL a reopen replays that write alone.
void ExpectRefusedBeforeAnyWrite(
    const Database::Options& options, int preload,
    const std::function<Status(Database*, Rng*)>& refused, StatusCode code) {
  StorageManager storage;
  auto db = Database::Create(&storage, "Limited", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Rng rng(2201);
  std::map<uint64_t, ElementSet> live;
  for (int i = 0; i < preload; ++i) {
    const ElementSet set = SharedSet(&rng, 5);
    auto oid = (*db)->Insert({set});
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    live[oid->value()] = set;
  }
  WriteAheadLog* wal = (*db)->wal();
  if (wal != nullptr) {
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  const uint64_t lsn = wal != nullptr ? wal->last_lsn() : 0;

  const Status status = refused(db->get(), &rng);
  EXPECT_EQ(status.code(), code) << status.ToString();
  ExpectEveryFacilityMatches(db->get(), live, {"tags"});
  if (wal != nullptr) {
    EXPECT_EQ(wal->last_lsn(), lsn);
  }

  const ElementSet fresh = SharedSet(&rng, 5);
  auto oid = (*db)->Insert({fresh});
  ASSERT_TRUE(oid.ok()) << oid.status().ToString();
  live[oid->value()] = fresh;
  ExpectEveryFacilityMatches(db->get(), live, {"tags"});
  if (wal == nullptr) return;
  db->reset();
  auto reopened = Database::Open(&storage, "Limited", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->metrics()->CounterValue("wal.replayed_records"), 1u);
  ExpectEveryFacilityMatches(reopened->get(), live, {"tags"});
}

Database::Options TagsOptions(bool nix, bool wal) {
  Database::AttributeOptions tags;
  tags.name = "tags";
  tags.maintain_nix = nix;
  tags.sig = {128, 2};
  tags.domain_estimate = 100;
  Database::Options options;
  options.attributes = {tags};
  options.capacity = 10;
  options.enable_wal = wal;
  return options;
}

// Four inserts need four fresh slots where a capacity of 10 holding 8
// objects has two left.
TEST(DatabaseWritePathTest, BssfCapacityIsCheckedBeforeAnyWrite) {
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    ExpectRefusedBeforeAnyWrite(
        TagsOptions(/*nix=*/false, wal), 8,
        [](Database* db, Rng* rng) {
          MultiWriteBatch batch;
          for (int i = 0; i < 4; ++i) batch.Insert({SharedSet(rng, 5)});
          return db->ApplyBatch(batch).status();
        },
        StatusCode::kOutOfRange);
  }
}

// NIX keeps UINT64_MAX as the key of its empty-set roster.
TEST(DatabaseWritePathTest, NixReservedElementIsCheckedBeforeAnyWrite) {
  for (bool wal : {false, true}) {
    SCOPED_TRACE(wal ? "wal on" : "wal off");
    ExpectRefusedBeforeAnyWrite(
        TagsOptions(/*nix=*/true, wal), 5,
        [](Database* db, Rng*) {
          return db->Insert({ElementSet{1, UINT64_MAX}}).status();
        },
        StatusCode::kInvalidArgument);
  }
}

// Two attributes with one name would share every file.  Create and Open
// refuse them, naming the attribute, before opening any file.
TEST(DatabaseValidationTest, DuplicateAttributeNamesRejected) {
  for (bool nix : {false, true}) {
    SCOPED_TRACE(nix ? "bssf + nix" : "bssf");
    Database::AttributeOptions tags;
    tags.name = "tags";
    tags.maintain_nix = nix;
    Database::Options options;
    options.attributes = {tags, tags};
    options.capacity = 256;
    StorageManager storage;
    for (auto start : {&Database::Create, &Database::Open}) {
      auto db = start(&storage, "Twice", options);
      EXPECT_EQ(db.status().code(), StatusCode::kInvalidArgument)
          << db.status().ToString();
      EXPECT_NE(db.status().message().find("tags"), std::string::npos)
          << db.status().ToString();
    }
    size_t files = 0;
    storage.ForEachFile([&](const PageFile&) { ++files; });
    EXPECT_EQ(files, 0u);
  }
}

}  // namespace
}  // namespace sigsetdb
