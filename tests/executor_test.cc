#include "query/executor.h"

#include <gtest/gtest.h>

#include "test_db.h"
#include "util/thread_pool.h"

namespace sigsetdb {
namespace {

class ExecutorTest : public ::testing::Test {
 protected:
  ExecutorTest() : db_(TestDatabase::Options{}) {}
  TestDatabase db_;
};

TEST_F(ExecutorTest, SupersetResultsMatchBruteForceOnAllFacilities) {
  Rng rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    const ElementSet& target = db_.sets()[rng.NextBelow(db_.sets().size())];
    ElementSet query = MakeHittingSupersetQuery(target, 2, rng);
    std::vector<Oid> expected = db_.BruteForce(QueryKind::kSuperset, query);
    for (SetAccessFacility* facility :
         {static_cast<SetAccessFacility*>(&db_.ssf()),
          static_cast<SetAccessFacility*>(&db_.bssf()),
          static_cast<SetAccessFacility*>(&db_.nix())}) {
      auto result = ExecuteSetQuery(facility, db_.store(),
                                    QueryKind::kSuperset, query);
      ASSERT_TRUE(result.ok()) << facility->name();
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << facility->name() << " trial " << trial;
    }
  }
}

TEST_F(ExecutorTest, SubsetResultsMatchBruteForceOnAllFacilities) {
  Rng rng(2);
  for (int trial = 0; trial < 5; ++trial) {
    const ElementSet& target = db_.sets()[rng.NextBelow(db_.sets().size())];
    ElementSet query =
        MakeHittingSubsetQuery(target, db_.options().v, 40, rng);
    std::vector<Oid> expected = db_.BruteForce(QueryKind::kSubset, query);
    EXPECT_FALSE(expected.empty());
    for (SetAccessFacility* facility :
         {static_cast<SetAccessFacility*>(&db_.ssf()),
          static_cast<SetAccessFacility*>(&db_.bssf()),
          static_cast<SetAccessFacility*>(&db_.nix())}) {
      auto result = ExecuteSetQuery(facility, db_.store(), QueryKind::kSubset,
                                    query);
      ASSERT_TRUE(result.ok()) << facility->name();
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << facility->name() << " trial " << trial;
    }
  }
}

TEST_F(ExecutorTest, EqualsAndOverlapMatchBruteForce) {
  Rng rng(3);
  const ElementSet& victim = db_.sets()[17];
  for (QueryKind kind : {QueryKind::kEquals, QueryKind::kOverlaps}) {
    ElementSet query = victim;
    if (kind == QueryKind::kOverlaps) {
      query = {victim[0], victim[3]};
      NormalizeSet(&query);
    }
    std::vector<Oid> expected = db_.BruteForce(kind, query);
    EXPECT_FALSE(expected.empty());
    for (SetAccessFacility* facility :
         {static_cast<SetAccessFacility*>(&db_.ssf()),
          static_cast<SetAccessFacility*>(&db_.bssf()),
          static_cast<SetAccessFacility*>(&db_.nix())}) {
      auto result = ExecuteSetQuery(facility, db_.store(), kind, query);
      ASSERT_TRUE(result.ok()) << facility->name();
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected)
          << facility->name() << " kind " << QueryKindName(kind);
    }
  }
}

TEST_F(ExecutorTest, ProperInclusionExcludesEquality) {
  // The paper's second §1 query uses ⊊: an object equal to the query set
  // must NOT qualify, while strict subsets must.
  const ElementSet& victim = db_.sets()[25];
  // T ⊊ Q with Q exactly a stored value: the stored object itself fails.
  std::vector<Oid> expected = db_.BruteForce(QueryKind::kProperSubset, victim);
  EXPECT_TRUE(std::find(expected.begin(), expected.end(), db_.oids()[25]) ==
              expected.end());
  for (SetAccessFacility* facility :
       {static_cast<SetAccessFacility*>(&db_.ssf()),
        static_cast<SetAccessFacility*>(&db_.bssf()),
        static_cast<SetAccessFacility*>(&db_.nix())}) {
    auto result = ExecuteSetQuery(facility, db_.store(),
                                  QueryKind::kProperSubset, victim);
    ASSERT_TRUE(result.ok()) << facility->name();
    std::vector<Oid> got = result->oids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << facility->name();
    // The non-strict result must contain the object plus the strict ones.
    auto non_strict = ExecuteSetQuery(facility, db_.store(),
                                      QueryKind::kSubset, victim);
    ASSERT_TRUE(non_strict.ok());
    EXPECT_EQ(non_strict->oids.size(), got.size() + 1);
  }
}

TEST_F(ExecutorTest, SmartExecutorsSupportProperKinds) {
  Rng rng(77);
  const ElementSet& target = db_.sets()[8];
  ElementSet query = MakeHittingSupersetQuery(target, 3, rng);
  std::vector<Oid> expected =
      db_.BruteForce(QueryKind::kProperSuperset, query);
  for (SetAccessFacility* facility :
       {static_cast<SetAccessFacility*>(&db_.bssf()),
        static_cast<SetAccessFacility*>(&db_.nix())}) {
    auto result = ExecuteSetQuery(facility, db_.store(),
                                  QueryKind::kProperSuperset, query, 2);
    ASSERT_TRUE(result.ok()) << facility->name();
    std::vector<Oid> got = result->oids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << facility->name();
  }
}

TEST_F(ExecutorTest, FalseDropAccountingConsistent) {
  Rng rng(4);
  ElementSet query = rng.SampleWithoutReplacement(
      static_cast<uint64_t>(db_.options().v), 2);
  auto result =
      ExecuteSetQuery(&db_.ssf(), db_.store(), QueryKind::kSuperset, query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_candidates,
            result->oids.size() + result->num_false_drops);
}

TEST_F(ExecutorTest, SmartSupersetBssfMatchesPlainResults) {
  Rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const ElementSet& target = db_.sets()[rng.NextBelow(db_.sets().size())];
    ElementSet query = MakeHittingSupersetQuery(target, 4, rng);
    std::vector<Oid> expected = db_.BruteForce(QueryKind::kSuperset, query);
    for (size_t k : {1u, 2u, 3u, 4u}) {
      auto result = ExecuteSetQuery(&db_.bssf(), db_.store(),
                                    QueryKind::kSuperset, query, k);
      ASSERT_TRUE(result.ok());
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "k=" << k;
    }
  }
}

TEST_F(ExecutorTest, SmartSubsetBssfMatchesPlainResults) {
  Rng rng(6);
  const ElementSet& target = db_.sets()[3];
  ElementSet query = MakeHittingSubsetQuery(target, db_.options().v, 50, rng);
  std::vector<Oid> expected = db_.BruteForce(QueryKind::kSubset, query);
  for (size_t max_slices : {5u, 20u, 100u, 10000u}) {
    auto result = ExecuteSetQuery(&db_.bssf(), db_.store(),
                                  QueryKind::kSubset, query, max_slices);
    ASSERT_TRUE(result.ok());
    std::vector<Oid> got = result->oids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "max_slices=" << max_slices;
  }
}

TEST_F(ExecutorTest, SmartSubsetFewerSlicesMoreFalseDrops) {
  Rng rng(7);
  ElementSet query = rng.SampleWithoutReplacement(
      static_cast<uint64_t>(db_.options().v), 60);
  auto few = ExecuteSetQuery(&db_.bssf(), db_.store(), QueryKind::kSubset,
                             query, 3);
  auto many = ExecuteSetQuery(&db_.bssf(), db_.store(), QueryKind::kSubset,
                              query, 10000);
  ASSERT_TRUE(few.ok());
  ASSERT_TRUE(many.ok());
  EXPECT_GE(few->num_candidates, many->num_candidates);
  EXPECT_EQ(few->oids.size(), many->oids.size());
}

TEST_F(ExecutorTest, SmartSupersetNixMatchesPlainResults) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    const ElementSet& target = db_.sets()[rng.NextBelow(db_.sets().size())];
    ElementSet query = MakeHittingSupersetQuery(target, 4, rng);
    std::vector<Oid> expected = db_.BruteForce(QueryKind::kSuperset, query);
    for (size_t k : {1u, 2u, 4u}) {
      auto result = ExecuteSetQuery(&db_.nix(), db_.store(),
                                    QueryKind::kSuperset, query, k);
      ASSERT_TRUE(result.ok());
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << "k=" << k;
    }
  }
}

// Resolution of a hand-built candidate list for (kind, query) on attribute
// 0, serially (null context) or over `ctx`.
StatusOr<QueryResult> Resolve(TestDatabase& db,
                              const CandidateResult& candidates,
                              QueryKind kind, const ElementSet& query,
                              const ParallelExecutionContext* ctx) {
  const SetPredicate pred{"", kind, query};
  const size_t attr = 0;
  return ResolveCandidates(candidates, db.store(), {&pred, 1}, {&attr, 1}, 0,
                           ctx, nullptr);
}

TEST_F(ExecutorTest, ResolutionFetchesOnePagePerCandidate) {
  Rng rng(9);
  ElementSet query = rng.SampleWithoutReplacement(
      static_cast<uint64_t>(db_.options().v), 2);
  auto candidates = db_.bssf().Candidates(QueryKind::kSuperset, query);
  ASSERT_TRUE(candidates.ok());
  auto object_file = db_.storage().Open("objects");
  ASSERT_TRUE(object_file.ok());
  (*object_file)->stats().Reset();
  auto result =
      Resolve(db_, *candidates, QueryKind::kSuperset, query, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ((*object_file)->stats().page_reads, candidates->oids.size());
}

// A candidate whose object was deleted counts as a false drop, never an
// error — also when the facility promised exact candidates, since crash
// recovery can leave index entries for objects already deleted.
TEST_F(ExecutorTest, DeletedCandidateIsAFalseDrop) {
  const ElementSet query = {db_.sets()[0][0]};
  std::vector<Oid> live = db_.BruteForce(QueryKind::kSuperset, query);
  ASSERT_GE(live.size(), 3u);
  const Oid gone0 = live[0];
  const Oid gone1 = live[2];
  ASSERT_TRUE(db_.store().Delete(gone0).ok());
  ASSERT_TRUE(db_.store().Delete(gone1).ok());
  CandidateResult candidates;
  candidates.oids = live;
  std::vector<Oid> want;
  for (Oid oid : live) {
    if (oid != gone0 && oid != gone1) want.push_back(oid);
  }
  ThreadPool pool(4);
  const ParallelExecutionContext four{&pool};
  for (const ParallelExecutionContext* ctx : {
           static_cast<const ParallelExecutionContext*>(nullptr), &four}) {
    for (bool exact : {false, true}) {
      candidates.exact = exact;
      auto result =
          Resolve(db_, candidates, QueryKind::kSuperset, query, ctx);
      ASSERT_TRUE(result.ok())
          << result.status().ToString() << " exact=" << exact;
      EXPECT_EQ(result->oids, want) << "exact=" << exact;
      EXPECT_EQ(result->num_candidates, live.size());
      EXPECT_EQ(result->num_false_drops, 2u) << "exact=" << exact;
    }
  }
}

// An exact candidate that fails the predicate breaks the facility's
// promise: resolution reports kInternal instead of dropping it quietly.
TEST_F(ExecutorTest, ExactCandidateFailingPredicateIsInternal) {
  const ElementSet query = {db_.sets()[0][0]};
  std::vector<Oid> live = db_.BruteForce(QueryKind::kSuperset, query);
  ASSERT_FALSE(live.empty());
  CandidateResult candidates;
  candidates.exact = true;
  candidates.oids = live;
  for (Oid oid : db_.oids()) {
    if (std::find(live.begin(), live.end(), oid) == live.end()) {
      candidates.oids.push_back(oid);  // fails T ⊇ Q
      break;
    }
  }
  ASSERT_EQ(candidates.oids.size(), live.size() + 1);
  ThreadPool pool(4);
  const ParallelExecutionContext four{&pool};
  for (const ParallelExecutionContext* ctx : {
           static_cast<const ParallelExecutionContext*>(nullptr), &four}) {
    auto result = Resolve(db_, candidates, QueryKind::kSuperset, query, ctx);
    EXPECT_EQ(result.status().code(), StatusCode::kInternal)
        << (ctx == nullptr ? "serial" : "4 threads");
  }
}

}  // namespace
}  // namespace sigsetdb
