#include "db/set_index.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "oracle.h"
#include "query/advisor.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

SetIndex::Options SmallOptions() {
  SetIndex::Options options;
  options.maintain_ssf = true;
  options.maintain_bssf = true;
  options.maintain_nix = true;
  options.sig = {128, 2};
  options.capacity = 4096;
  options.domain_estimate = 200;
  return options;
}

class SetIndexTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto index = SetIndex::Create(&storage_, "attr", SmallOptions());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
    Rng rng(1);
    for (int i = 0; i < 500; ++i) {
      sets_.push_back(rng.SampleWithoutReplacement(200, 6));
      auto oid = index_->Insert(sets_.back());
      ASSERT_TRUE(oid.ok());
      oids_.push_back(*oid);
    }
  }

  std::vector<Oid> BruteForce(QueryKind kind, const ElementSet& query) {
    std::vector<Oid> out;
    for (size_t i = 0; i < sets_.size(); ++i) {
      if (OracleMatches(sets_[i], kind, query)) out.push_back(oids_[i]);
    }
    return out;
  }

  StorageManager storage_;
  std::unique_ptr<SetIndex> index_;
  std::vector<ElementSet> sets_;
  std::vector<Oid> oids_;
};

TEST_F(SetIndexTest, RequiresAtLeastOneFacility) {
  SetIndex::Options options;
  options.maintain_ssf = false;
  options.maintain_bssf = false;
  options.maintain_nix = false;
  StorageManager storage;
  EXPECT_EQ(SetIndex::Create(&storage, "x", options).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SetIndexTest, TracksStatistics) {
  EXPECT_EQ(index_->num_objects(), 500u);
  EXPECT_DOUBLE_EQ(index_->mean_cardinality(), 6.0);
  EXPECT_GT(index_->SsfPages(), 0u);
  EXPECT_GT(index_->BssfPages(), 0u);
  EXPECT_GT(index_->NixPages(), 0u);
}

TEST_F(SetIndexTest, GetReturnsStoredValue) {
  auto obj = index_->Get(oids_[42]);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->set_value, sets_[42]);
}

TEST_F(SetIndexTest, AutoQueryMatchesBruteForceAllKinds) {
  Rng rng(2);
  for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset,
                         QueryKind::kEquals, QueryKind::kOverlaps}) {
    ElementSet query;
    switch (kind) {
      case QueryKind::kSuperset:
      case QueryKind::kProperSuperset:
      case QueryKind::kOverlaps:
        query = {sets_[3][0], sets_[3][2]};
        break;
      case QueryKind::kSubset:
      case QueryKind::kProperSubset:
        query = MakeHittingSubsetQuery(sets_[3], 200, 40, rng);
        break;
      case QueryKind::kEquals:
        query = sets_[3];
        break;
    }
    NormalizeSet(&query);
    auto result = index_->Query(kind, query);
    ASSERT_TRUE(result.ok()) << QueryKindName(kind);
    std::vector<Oid> got = result->result.oids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, BruteForce(kind, query)) << QueryKindName(kind);
    EXPECT_FALSE(result->plan.empty());
    EXPECT_GT(result->page_accesses, 0u);
  }
}

TEST_F(SetIndexTest, ForcedModesAgree) {
  ElementSet query = {sets_[9][1], sets_[9][4]};
  NormalizeSet(&query);
  std::vector<Oid> expected = BruteForce(QueryKind::kSuperset, query);
  for (PlanMode mode : {PlanMode::kForceSsf, PlanMode::kForceBssf,
                        PlanMode::kForceNix, PlanMode::kAuto}) {
    auto result = index_->Query(QueryKind::kSuperset, query, mode);
    ASSERT_TRUE(result.ok());
    std::vector<Oid> got = result->result.oids;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected);
  }
}

TEST_F(SetIndexTest, AutoPlanTracksDatabaseScale) {
  // At 500 objects the whole SSF is 2 pages, so a full scan can genuinely
  // be the cheapest plan — the advisor may pick it.  After growing the
  // database past a few thousand objects the scan loses and kAuto must
  // switch away from SSF (the paper's regime).
  Rng rng(3);
  for (int i = 0; i < 3500; ++i) {
    ASSERT_TRUE(index_->Insert(rng.SampleWithoutReplacement(200, 6)).ok());
  }
  for (int trial = 0; trial < 5; ++trial) {
    ElementSet query = rng.SampleWithoutReplacement(200, 2);
    auto result = index_->Query(QueryKind::kSuperset, query);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->plan.rfind("ssf", 0), std::string::npos)
        << result->plan;
  }
}

TEST_F(SetIndexTest, AutoPlanCheaperOrEqualToForcedPlans) {
  Rng rng(4);
  ElementSet query = rng.SampleWithoutReplacement(200, 40);
  auto auto_result = index_->Query(QueryKind::kSubset, query);
  ASSERT_TRUE(auto_result.ok());
  for (PlanMode mode : {PlanMode::kForceSsf, PlanMode::kForceNix}) {
    auto forced = index_->Query(QueryKind::kSubset, query, mode);
    ASSERT_TRUE(forced.ok());
    EXPECT_LE(auto_result->page_accesses, forced->page_accesses * 2)
        << "auto plan " << auto_result->plan;
  }
}

TEST_F(SetIndexTest, DeleteRemovesEverywhere) {
  ElementSet query = {sets_[0][0], sets_[0][1]};
  NormalizeSet(&query);
  ASSERT_TRUE(index_->Delete(oids_[0]).ok());
  for (PlanMode mode : {PlanMode::kForceSsf, PlanMode::kForceBssf,
                        PlanMode::kForceNix}) {
    auto result = index_->Query(QueryKind::kSuperset, query, mode);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(std::find(result->result.oids.begin(),
                          result->result.oids.end(),
                          oids_[0]) == result->result.oids.end());
  }
  EXPECT_EQ(index_->num_objects(), 499u);
}

TEST_F(SetIndexTest, EmptyQueryRejected) {
  EXPECT_EQ(index_->Query(QueryKind::kSuperset, {}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(SetIndexTest, ForcedModeWithoutFacilityRejected) {
  SetIndex::Options options = SmallOptions();
  options.maintain_ssf = false;
  StorageManager storage;
  auto index = SetIndex::Create(&storage, "x", options);
  ASSERT_TRUE(index.ok());
  ASSERT_TRUE((*index)->Insert({1, 2}).ok());
  EXPECT_EQ((*index)
                ->Query(QueryKind::kSuperset, {1}, PlanMode::kForceSsf)
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(SetIndexTest, AutoDomainEstimateTracksData) {
  // With domain_estimate unset the advisor's V comes from the live
  // HyperLogLog: our fixture draws from a 200-element domain.
  SetIndex::Options options = SmallOptions();
  options.domain_estimate = 0;
  StorageManager storage;
  auto index = SetIndex::Create(&storage, "auto", options);
  ASSERT_TRUE(index.ok());
  Rng rng(21);
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE((*index)->Insert(rng.SampleWithoutReplacement(200, 6)).ok());
  }
  EXPECT_NEAR(static_cast<double>((*index)->DomainEstimate()), 200.0, 20.0);
  // Queries still plan and answer correctly under the sketched V.
  auto result = (*index)->Query(QueryKind::kSuperset, {5, 9});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->plan.empty());
}

TEST_F(SetIndexTest, ExplicitDomainEstimateWins) {
  EXPECT_EQ(index_->DomainEstimate(), 200);  // fixture sets it explicitly
}

TEST_F(SetIndexTest, InsertNormalizesInput) {
  auto oid = index_->Insert({9, 3, 9, 1});
  ASSERT_TRUE(oid.ok());
  auto obj = index_->Get(*oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->set_value, (ElementSet{1, 3, 9}));
}

// kAuto plans are memoised per (candidate kind, Dq).  Every plan and its
// cost must equal what the advisor picks from the index's public
// statistics, on a first query (a miss), a repeat (a hit), after inserts
// move N, V and Dt (the memo starts over), and after single inserts and
// deletes move N by one between plans.
TEST(SetIndexPlanMemoTest, AutoPlansMatchTheAdvisorAsStatisticsMove) {
  SetIndex::Options options = SmallOptions();
  options.domain_estimate = 0;  // V from the live sketch
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "memo", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SetIndex& index = **created;
  Rng rng(22);
  auto insert = [&](int count, uint64_t domain, uint64_t dt) {
    for (int i = 0; i < count; ++i) {
      ASSERT_TRUE(index.Insert(rng.SampleWithoutReplacement(domain, dt)).ok());
    }
  };
  std::vector<int64_t> all_dqs;
  for (int64_t dq = 1; dq <= 400; ++dq) all_dqs.push_back(dq);
  auto expect_plans_match = [&](const std::vector<int64_t>& dqs) {
    const int64_t dt =
        std::max<int64_t>(1, std::llround(index.mean_cardinality()));
    DatabaseParams db;
    db.n = static_cast<int64_t>(index.num_objects());
    db.v = std::max<int64_t>(index.DomainEstimate(), dt + 1);
    const SignatureParams sig{options.sig.f, options.sig.m};
    NixParams nix;
    nix.fanout = options.nix_fanout;
    for (int pass = 0; pass < 2; ++pass) {
      for (QueryKind kind :
           {QueryKind::kSuperset, QueryKind::kSubset,
            QueryKind::kProperSuperset, QueryKind::kProperSubset,
            QueryKind::kEquals, QueryKind::kOverlaps}) {
        for (int64_t dq : dqs) {
          auto best = BestAccessPath(db, sig, nix, dt, dq, kind,
                                     /*allow_smart=*/true);
          ASSERT_TRUE(best.ok()) << best.status().ToString();
          // A kAuto plan adds its cost, priced at the current N, to its
          // facility's predicted-pages gauge.
          const std::string gauge =
              "query." + best->facility + ".predicted_pages";
          const double predicted = index.metrics()->GaugeValue(gauge);
          auto got = index.Query(
              kind, rng.SampleWithoutReplacement(450, static_cast<uint64_t>(dq)));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          ASSERT_EQ(got->plan, best->facility + " " + best->strategy)
              << QueryKindName(kind) << " Dq " << dq << " pass " << pass;
          ASSERT_NEAR(index.metrics()->GaugeValue(gauge) - predicted,
                      best->cost_pages,
                      1e-9 * std::max(1.0, best->cost_pages))
              << QueryKindName(kind) << " Dq " << dq << " pass " << pass;
        }
      }
    }
  };
  insert(400, 450, 8);
  expect_plans_match(all_dqs);
  const double dt_before = index.mean_cardinality();
  const int64_t v_before = index.DomainEstimate();
  insert(300, 900, 20);
  ASSERT_NE(index.mean_cardinality(), dt_before);
  ASSERT_NE(index.DomainEstimate(), v_before);
  expect_plans_match(all_dqs);

  // One write between plans: objects of the current mean cardinality, drawn
  // from the domain already seen, so V and Dt mostly hold while N steps.
  const uint64_t dt_now =
      static_cast<uint64_t>(std::llround(index.mean_cardinality()));
  std::vector<Oid> added;
  for (int step = 0; step < 40; ++step) {
    if (step % 4 == 3) {
      ASSERT_TRUE(index.Delete(added.back()).ok());
      added.pop_back();
    } else {
      auto oid = index.Insert(rng.SampleWithoutReplacement(900, dt_now));
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      added.push_back(*oid);
    }
    expect_plans_match({1, 2, 3, 5, 13, 20, 60, 200, 400});
  }
}

}  // namespace
}  // namespace sigsetdb
