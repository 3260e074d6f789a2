// Cross-facility equivalence sweep: for every query kind and a grid of
// signature configurations, all three access facilities must return exactly
// the brute-force answer after resolution.  This is the end-to-end
// correctness property underpinning every cost comparison in the paper —
// the facilities differ in cost only, never in results.

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "query/executor.h"
#include "test_db.h"

namespace sigsetdb {
namespace {

struct EquivalenceCase {
  uint32_t f;
  uint32_t m;
  int64_t dt;
  int64_t dq_superset;
  int64_t dq_subset;
};

class FacilityEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(FacilityEquivalenceTest, AllFacilitiesAgreeWithBruteForce) {
  const EquivalenceCase& c = GetParam();
  TestDatabase::Options options;
  options.n = 600;
  options.v = 300;
  options.dt = c.dt;
  options.sig = {c.f, c.m};
  options.seed = c.f * 1000 + c.m;
  TestDatabase db(options);
  Rng rng(c.f + c.m);

  for (int trial = 0; trial < 5; ++trial) {
    // Superset query biased to hit (subset of a stored set).
    const ElementSet& target = db.sets()[rng.NextBelow(db.sets().size())];
    ElementSet superset_query = MakeHittingSupersetQuery(
        target, std::min<int64_t>(c.dq_superset, c.dt), rng);
    // Subset query biased to hit (superset of a stored set).
    ElementSet subset_query =
        MakeHittingSubsetQuery(target, options.v, c.dq_subset, rng);
    // And two unbiased queries (mostly unsuccessful searches).
    ElementSet random_small = rng.SampleWithoutReplacement(
        static_cast<uint64_t>(options.v),
        static_cast<uint64_t>(c.dq_superset));
    ElementSet random_large = rng.SampleWithoutReplacement(
        static_cast<uint64_t>(options.v), static_cast<uint64_t>(c.dq_subset));

    struct QueryCase {
      QueryKind kind;
      const ElementSet* query;
    };
    const QueryCase cases[] = {
        {QueryKind::kSuperset, &superset_query},
        {QueryKind::kSuperset, &random_small},
        {QueryKind::kSubset, &subset_query},
        {QueryKind::kSubset, &random_large},
        {QueryKind::kProperSuperset, &superset_query},
        {QueryKind::kProperSubset, &subset_query},
        {QueryKind::kEquals, &target},
        {QueryKind::kOverlaps, &random_small},
    };
    for (const auto& qc : cases) {
      std::vector<Oid> expected = db.BruteForce(qc.kind, *qc.query);
      for (SetAccessFacility* facility :
           {static_cast<SetAccessFacility*>(&db.ssf()),
            static_cast<SetAccessFacility*>(&db.bssf()),
            static_cast<SetAccessFacility*>(&db.nix())}) {
        auto result =
            ExecuteSetQuery(facility, db.store(), qc.kind, *qc.query);
        ASSERT_TRUE(result.ok())
            << facility->name() << " " << QueryKindName(qc.kind);
        std::vector<Oid> got = result->oids;
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, expected)
            << facility->name() << " kind=" << QueryKindName(qc.kind)
            << " trial=" << trial;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ConfigGrid, FacilityEquivalenceTest,
    ::testing::Values(
        EquivalenceCase{64, 1, 4, 2, 30},    // tiny, collision-heavy sigs
        EquivalenceCase{128, 2, 6, 3, 40},
        EquivalenceCase{250, 2, 8, 2, 50},   // paper-style small m
        EquivalenceCase{250, 17, 8, 4, 50},  // paper-style m_opt
        EquivalenceCase{500, 2, 10, 2, 60},
        EquivalenceCase{500, 35, 10, 5, 60},
        EquivalenceCase{1000, 3, 12, 3, 80},
        EquivalenceCase{2500, 3, 16, 4, 100}),
    [](const ::testing::TestParamInfo<EquivalenceCase>& info) {
      // Appended piece by piece: GCC 12 warns (-Wrestrict) on the inlined
      // `"F" + std::to_string(...)` chain.
      std::string name = "F";
      name += std::to_string(info.param.f);
      name += "m";
      name += std::to_string(info.param.m);
      name += "Dt";
      name += std::to_string(info.param.dt);
      return name;
    });

// Deletion equivalence: removing objects keeps all facilities consistent.
TEST(FacilityDeletionTest, DeletedObjectsVanishEverywhere) {
  TestDatabase::Options options;
  options.n = 300;
  options.v = 150;
  options.dt = 5;
  TestDatabase db(options);
  Rng rng(99);
  // Delete every 7th object from object store and all facilities.
  std::set<size_t> deleted;
  for (size_t i = 0; i < db.oids().size(); i += 7) {
    deleted.insert(i);
    ASSERT_TRUE(db.store().Delete(db.oids()[i]).ok());
    ASSERT_TRUE(db.ssf().Remove(db.oids()[i], db.sets()[i]).ok());
    ASSERT_TRUE(db.bssf().Remove(db.oids()[i], db.sets()[i]).ok());
    ASSERT_TRUE(db.nix().Remove(db.oids()[i], db.sets()[i]).ok());
  }
  for (int trial = 0; trial < 5; ++trial) {
    ElementSet query = rng.SampleWithoutReplacement(
        static_cast<uint64_t>(options.v), 2);
    // Brute force over the survivors.
    std::vector<Oid> expected;
    for (size_t i = 0; i < db.sets().size(); ++i) {
      if (deleted.count(i)) continue;
      if (IsSubset(query, db.sets()[i])) expected.push_back(db.oids()[i]);
    }
    for (SetAccessFacility* facility :
         {static_cast<SetAccessFacility*>(&db.ssf()),
          static_cast<SetAccessFacility*>(&db.bssf()),
          static_cast<SetAccessFacility*>(&db.nix())}) {
      auto result =
          ExecuteSetQuery(facility, db.store(), QueryKind::kSuperset, query);
      ASSERT_TRUE(result.ok()) << facility->name();
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << facility->name() << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace sigsetdb
