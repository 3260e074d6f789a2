// Delete-then-query differential suite: after arbitrary interleavings of
// inserts and deletes (singleton and batched), every facility must answer
// every QueryKind exactly like a brute-force scan of the live objects —
// serially and with a 4-thread pool, before and after Compact().

#include <algorithm>
#include <map>

#include <gtest/gtest.h>

#include "db/set_index.h"
#include "db/write_batch.h"
#include "oracle.h"
#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

constexpr uint64_t kDomain = 200;
constexpr uint64_t kDt = 6;

SetIndex::Options AllFacilities(size_t num_threads) {
  SetIndex::Options options;
  options.maintain_ssf = true;
  options.maintain_bssf = true;
  options.maintain_nix = true;
  options.sig = {128, 2};
  options.capacity = 4096;
  options.domain_estimate = static_cast<int64_t>(kDomain);
  options.num_threads = num_threads;
  return options;
}

constexpr QueryKind kAllKinds[] = {
    QueryKind::kSuperset,      QueryKind::kSubset,
    QueryKind::kProperSuperset, QueryKind::kProperSubset,
    QueryKind::kEquals,        QueryKind::kOverlaps};

// Runs a delete-heavy workload against one index and cross-checks every
// (facility, kind) pair against the live-object oracle.
class DeleteQueryTest : public ::testing::TestWithParam<size_t> {
 protected:
  void SetUp() override {
    auto index =
        SetIndex::Create(&storage_, "dq", AllFacilities(GetParam()));
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
  }

  void Insert(const ElementSet& set) {
    auto oid = index_->Insert(set);
    ASSERT_TRUE(oid.ok()) << oid.status().ToString();
    ElementSet n = set;
    NormalizeSet(&n);
    live_[*oid] = n;
  }

  void Delete(Oid oid) {
    ASSERT_TRUE(index_->Delete(oid).ok());
    live_.erase(oid);
  }

  void ApplyBatch(const WriteBatch& batch) {
    auto oids = index_->ApplyBatch(batch);
    ASSERT_TRUE(oids.ok()) << oids.status().ToString();
    for (Oid oid : batch.deletes()) live_.erase(oid);
    for (size_t i = 0; i < batch.inserts().size(); ++i) {
      ElementSet n = batch.inserts()[i];
      NormalizeSet(&n);
      live_[(*oids)[i]] = n;
    }
  }

  std::vector<Oid> Oracle(QueryKind kind, const ElementSet& query) const {
    std::vector<Oid> out;
    for (const auto& [oid, set] : live_) {
      if (OracleMatches(set, kind, query)) out.push_back(oid);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  void CheckAllKindsAllFacilities(uint64_t seed) {
    Rng rng(seed);
    for (QueryKind kind : kAllKinds) {
      for (int t = 0; t < 4; ++t) {
        ElementSet query;
        if (kind == QueryKind::kEquals ||
            kind == QueryKind::kProperSuperset) {
          // Target a stored value so the strict/equal kinds get real hits.
          auto it = live_.begin();
          std::advance(it, static_cast<ptrdiff_t>(
                               rng.NextBelow(live_.size())));
          query = it->second;
          if (kind == QueryKind::kProperSuperset && query.size() > 1) {
            query.pop_back();
          }
        } else if (kind == QueryKind::kSubset ||
                   kind == QueryKind::kProperSubset) {
          auto it = live_.begin();
          std::advance(it, static_cast<ptrdiff_t>(
                               rng.NextBelow(live_.size())));
          query = MakeHittingSubsetQuery(it->second, kDomain, 40, rng);
        } else {
          query = rng.SampleWithoutReplacement(kDomain, 2 + t);
        }
        NormalizeSet(&query);
        if (query.empty()) continue;
        const std::vector<Oid> expected = Oracle(kind, query);
        for (PlanMode mode :
             {PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix,
              PlanMode::kAuto}) {
          auto result = index_->Query(kind, query, mode);
          ASSERT_TRUE(result.ok())
              << QueryKindName(kind) << ": " << result.status().ToString();
          std::vector<Oid> got = result->result.oids;
          std::sort(got.begin(), got.end());
          EXPECT_EQ(got, expected)
              << QueryKindName(kind) << " plan=" << result->plan
              << " threads=" << GetParam();
        }
      }
    }
  }

  StorageManager storage_;
  std::unique_ptr<SetIndex> index_;
  std::map<Oid, ElementSet> live_;
};

TEST_P(DeleteQueryTest, SingletonDeletesThenQueries) {
  Rng rng(1);
  for (int i = 0; i < 150; ++i) {
    Insert(rng.SampleWithoutReplacement(kDomain, kDt));
  }
  // Delete 50 random objects one at a time.
  for (int i = 0; i < 50; ++i) {
    auto it = live_.begin();
    std::advance(it,
                 static_cast<ptrdiff_t>(rng.NextBelow(live_.size())));
    Delete(it->first);
  }
  ASSERT_EQ(live_.size(), 100u);
  CheckAllKindsAllFacilities(2);
}

TEST_P(DeleteQueryTest, BatchedChurnThenQueries) {
  Rng rng(3);
  WriteBatch seed_batch;
  for (int i = 0; i < 150; ++i) {
    seed_batch.Insert(rng.SampleWithoutReplacement(kDomain, kDt));
  }
  ApplyBatch(seed_batch);
  for (int round = 0; round < 3; ++round) {
    // Pick 30 distinct victims via a random sample of live positions.
    std::vector<Oid> live_oids;
    live_oids.reserve(live_.size());
    for (const auto& [oid, set] : live_) live_oids.push_back(oid);
    ElementSet positions = rng.SampleWithoutReplacement(live_oids.size(), 30);
    WriteBatch batch;
    for (uint64_t pos : positions) batch.Delete(live_oids[pos]);
    for (int i = 0; i < 25; ++i) {
      batch.Insert(rng.SampleWithoutReplacement(kDomain, kDt));
    }
    ApplyBatch(batch);
    CheckAllKindsAllFacilities(10 + static_cast<uint64_t>(round));
  }
}

TEST_P(DeleteQueryTest, QueriesStayExactAfterCompact) {
  Rng rng(5);
  WriteBatch seed_batch;
  for (int i = 0; i < 160; ++i) {
    seed_batch.Insert(rng.SampleWithoutReplacement(kDomain, kDt));
  }
  ApplyBatch(seed_batch);
  WriteBatch deletes;
  int parity = 0;
  for (const auto& [oid, set] : live_) {
    if (++parity % 2 == 0) deletes.Delete(oid);
  }
  ApplyBatch(deletes);
  CheckAllKindsAllFacilities(20);

  ASSERT_TRUE(index_->Compact().ok());
  EXPECT_EQ(index_->ssf()->num_signatures(), live_.size());
  CheckAllKindsAllFacilities(21);

  // Writes keep working after compaction (fresh appends + further churn).
  WriteBatch more;
  for (int i = 0; i < 20; ++i) {
    more.Insert(rng.SampleWithoutReplacement(kDomain, kDt));
  }
  ApplyBatch(more);
  CheckAllKindsAllFacilities(22);
}

INSTANTIATE_TEST_SUITE_P(SerialAndParallel, DeleteQueryTest,
                         ::testing::Values(1, 4));

}  // namespace
}  // namespace sigsetdb
