// Model-vs-measured differential suite: the measured page-access deltas of
// the real executor must match the src/model analytical predictions for
// every facility and both query shapes (T ⊇ Q and T ⊆ Q) — and the measured
// delta must be bit-identical between serial and 4-thread execution, the
// library's core parallel-accounting invariant (logical page accesses are a
// property of the plan, not of the worker partitioning).

#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "db/set_index.h"
#include "model/actual_drops.h"
#include "model/cost_bssf.h"
#include "model/cost_join.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"
#include "query/advisor.h"
#include "query/executor.h"
#include "query/join.h"
#include "workload/generator.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/storage_manager.h"
#include "test_db.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace sigsetdb {
namespace {

class ModelVsMeasuredTest : public ::testing::Test {
 protected:
  static constexpr int64_t kN = 2000;
  static constexpr int64_t kV = 500;
  static constexpr int64_t kDt = 8;

  ModelVsMeasuredTest() : db_(MakeOptions()), pool_(4) {
    model_db_.n = kN;
    model_db_.v = kV;
    ctx_.pool = &pool_;
  }

  static TestDatabase::Options MakeOptions() {
    TestDatabase::Options options;
    options.n = kN;
    options.v = kV;
    options.dt = kDt;
    options.sig = {250, 2};
    options.seed = 24242;
    return options;
  }

  // Runs `trials` random Dq-element queries, each once serially and once on
  // 4 threads.  Per trial, the parallel run must touch exactly as many
  // pages as the serial run and return the same OIDs; both mean costs must
  // match the model prediction within `tolerance`.
  void CheckBothModes(SetAccessFacility* facility, QueryKind kind, int64_t dq,
                      int trials, uint64_t seed, double model,
                      double tolerance) {
    Rng rng(seed);
    uint64_t serial_total = 0;
    uint64_t parallel_total = 0;
    for (int t = 0; t < trials; ++t) {
      ElementSet query = rng.SampleWithoutReplacement(
          static_cast<uint64_t>(kV), static_cast<uint64_t>(dq));
      db_.storage().ResetStats();
      auto serial = ExecuteSetQuery(facility, db_.store(), kind, query);
      ASSERT_TRUE(serial.ok());
      uint64_t serial_delta = db_.storage().TotalStats().total();
      serial_total += serial_delta;

      db_.storage().ResetStats();
      auto parallel =
          ExecuteSetQuery(facility, db_.store(), kind, query, 0, &ctx_);
      ASSERT_TRUE(parallel.ok());
      uint64_t parallel_delta = db_.storage().TotalStats().total();
      parallel_total += parallel_delta;

      // The parallel-accounting invariant: same logical cost, same answer,
      // regardless of how the work was partitioned across workers.
      EXPECT_EQ(parallel_delta, serial_delta);
      std::vector<Oid> a = serial->oids;
      std::vector<Oid> b = parallel->oids;
      auto by_value = [](Oid x, Oid y) { return x.value() < y.value(); };
      std::sort(a.begin(), a.end(), by_value);
      std::sort(b.begin(), b.end(), by_value);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].value(), b[i].value());
      }
    }
    double serial_mean = static_cast<double>(serial_total) / trials;
    double parallel_mean = static_cast<double>(parallel_total) / trials;
    EXPECT_NEAR(serial_mean, model, tolerance) << "serial";
    EXPECT_NEAR(parallel_mean, model, tolerance) << "4 threads";
    EXPECT_EQ(serial_mean, parallel_mean);
  }

  TestDatabase db_;
  ThreadPool pool_;
  ParallelExecutionContext ctx_;
  DatabaseParams model_db_;
  SignatureParams model_sig_{250, 2};
  NixParams model_nix_;
};

TEST_F(ModelVsMeasuredTest, SsfSuperset) {
  double model =
      SsfRetrievalCost(model_db_, model_sig_, kDt, 2, QueryKind::kSuperset);
  CheckBothModes(&db_.ssf(), QueryKind::kSuperset, 2, 20, 1, model,
                 0.15 * model + 1.0);
}

TEST_F(ModelVsMeasuredTest, SsfSubset) {
  double model =
      SsfRetrievalCost(model_db_, model_sig_, kDt, 60, QueryKind::kSubset);
  CheckBothModes(&db_.ssf(), QueryKind::kSubset, 60, 10, 2, model,
                 0.25 * model + 3.0);
}

TEST_F(ModelVsMeasuredTest, BssfSuperset) {
  double model = BssfRetrievalSuperset(model_db_, model_sig_, kDt, 2);
  CheckBothModes(&db_.bssf(), QueryKind::kSuperset, 2, 20, 3, model,
                 0.25 * model + 1.0);
}

TEST_F(ModelVsMeasuredTest, BssfSubset) {
  double model = BssfRetrievalSubset(model_db_, model_sig_, kDt, 60);
  CheckBothModes(&db_.bssf(), QueryKind::kSubset, 60, 10, 4, model,
                 0.2 * model + 2.0);
}

TEST_F(ModelVsMeasuredTest, NixSuperset) {
  int64_t rc = db_.nix().tree().height() + 1;
  double model = static_cast<double>(rc) * 2.0 +
                 ActualDropsSuperset(model_db_, kDt, 2);
  CheckBothModes(&db_.nix(), QueryKind::kSuperset, 2, 20, 5, model,
                 0.15 * model + 1.0);
}

// After deleting half the objects and compacting, both storage and scan
// cost must return to the model predictions evaluated at the LIVE count:
// the paper's SC/RC formulas assume a dense file, and CompactTo restores
// that assumption once delete tombstones have accumulated.
TEST_F(ModelVsMeasuredTest, SsfStorageAndScanTrackLiveCountAfterCompact) {
  constexpr int64_t kInserts = 600;
  StorageManager storage;
  auto ssf = SequentialSignatureFile::Create({250, 2},
                                             storage.CreateOrOpen("c.sig"),
                                             storage.CreateOrOpen("c.oid"));
  ASSERT_TRUE(ssf.ok());
  Rng rng(77);
  std::vector<BatchOp> ops;
  std::vector<ElementSet> sets;
  for (int64_t i = 0; i < kInserts; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(
        static_cast<uint64_t>(kV), static_cast<uint64_t>(kDt));
    NormalizeSet(&set);
    sets.push_back(set);
    ops.push_back(BatchOp{BatchOp::Kind::kInsert,
                          Oid::FromLocation(static_cast<PageId>(i), 0), set});
  }
  ASSERT_TRUE((*ssf)->ApplyBatch(ops).ok());

  std::vector<BatchOp> removes;
  for (int64_t i = 0; i < kInserts; i += 2) {
    removes.push_back(BatchOp{BatchOp::Kind::kRemove,
                              Oid::FromLocation(static_cast<PageId>(i), 0),
                              sets[static_cast<size_t>(i)]});
  }
  ASSERT_TRUE((*ssf)->ApplyBatch(removes).ok());
  EXPECT_EQ((*ssf)->num_live(), static_cast<uint64_t>(kInserts) / 2);
  EXPECT_EQ((*ssf)->num_signatures(), static_cast<uint64_t>(kInserts));

  auto live = (*ssf)->CompactTo(storage.CreateOrOpen("c2.sig"),
                                storage.CreateOrOpen("c2.oid"));
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_EQ(*live, static_cast<uint64_t>(kInserts) / 2);
  auto compacted = SequentialSignatureFile::CreateFromExisting(
      {250, 2}, storage.CreateOrOpen("c2.sig"), storage.CreateOrOpen("c2.oid"),
      *live);
  ASSERT_TRUE(compacted.ok());

  DatabaseParams live_db = model_db_;
  live_db.n = kInserts / 2;
  EXPECT_EQ(static_cast<int64_t>((*compacted)->StoragePages()),
            SsfStorageCost(live_db, model_sig_));

  // A low-Dq superset scan reads exactly the live signature pages (plus the
  // occasional drop's OID look-up), so the measured candidate-scan cost
  // follows the live-count model, not the pre-compaction high-water count.
  Rng qrng(78);
  uint64_t total = 0;
  const int trials = 20;
  for (int t = 0; t < trials; ++t) {
    ElementSet query =
        qrng.SampleWithoutReplacement(static_cast<uint64_t>(kV), 2);
    NormalizeSet(&query);
    storage.ResetStats();
    auto result = (*compacted)->Candidates(QueryKind::kSuperset, query);
    ASSERT_TRUE(result.ok());
    total += storage.TotalStats().total();
  }
  double mean = static_cast<double>(total) / trials;
  double model = static_cast<double>(SsfSignaturePages(live_db, model_sig_));
  EXPECT_NEAR(mean, model, 0.25 * model + 1.0);
}

// Skip-index model differential (extension): build a BSSF, tombstone all
// but a handful of objects, and compare the measured skipped-page counts of
// the slice scan against BssfExpectedSupersetSkippedPages /
// BssfExpectedSubsetSkippedPages evaluated at the LIVE count.  Serial and
// 4-thread runs must agree on reads and skips exactly (the planner decides
// what to skip before the fan-out).
class BssfSkipModelTest : public ::testing::Test {
 protected:
  static constexpr int64_t kInserts = 600;
  static constexpr int64_t kV = 500;
  static constexpr int64_t kDt = 8;

  BssfSkipModelTest() : pool_(4) { ctx_.pool = &pool_; }

  void SetUp() override {
    auto bssf = BitSlicedSignatureFile::Create(
        {250, 2}, kInserts + 64, storage_.CreateOrOpen("s.slices"),
        storage_.CreateOrOpen("s.oid"), BssfInsertMode::kSparse);
    ASSERT_TRUE(bssf.ok()) << bssf.status().ToString();
    bssf_ = std::move(*bssf);
    Rng rng(4242);
    std::vector<ElementSet> sets;
    for (int64_t i = 0; i < kInserts; ++i) {
      ElementSet set = rng.SampleWithoutReplacement(
          static_cast<uint64_t>(kV), static_cast<uint64_t>(kDt));
      sets.push_back(set);
      ASSERT_TRUE(
          bssf_->Insert(Oid::FromLocation(static_cast<PageId>(i), 0), set)
              .ok());
    }
    // Keep four live columns spread across separate 512-slot summary
    // groups; everything else becomes an all-zero column.
    std::vector<BatchOp> removes;
    for (int64_t i = 0; i < kInserts; ++i) {
      if (i == 100 || i == 250 || i == 400 || i == 550) continue;
      removes.push_back(BatchOp{BatchOp::Kind::kRemove,
                                Oid::FromLocation(static_cast<PageId>(i), 0),
                                sets[static_cast<size_t>(i)]});
    }
    ASSERT_TRUE(bssf_->ApplyBatch(removes).ok());
    bssf_->set_skip_index_enabled(true);
    live_db_.n = 4;
    live_db_.v = kV;
  }

  // Mean skipped slice pages over `trials` Dq-element queries of `kind`,
  // asserting serial/parallel agreement per trial.
  double MeanSkips(QueryKind kind, int64_t dq, int trials, uint64_t seed) {
    Rng rng(seed);
    uint64_t total_skips = 0;
    for (int t = 0; t < trials; ++t) {
      ElementSet query = rng.SampleWithoutReplacement(
          static_cast<uint64_t>(kV), static_cast<uint64_t>(dq));
      const IoStats s0 = bssf_->StageStats()[0].second;
      auto serial = bssf_->Candidates(kind, query);
      EXPECT_TRUE(serial.ok());
      const IoStats serial_delta = bssf_->StageStats()[0].second - s0;

      const IoStats p0 = bssf_->StageStats()[0].second;
      auto parallel = bssf_->Candidates(kind, query, &ctx_);
      EXPECT_TRUE(parallel.ok());
      const IoStats parallel_delta = bssf_->StageStats()[0].second - p0;

      EXPECT_EQ(serial_delta.reads(), parallel_delta.reads());
      EXPECT_EQ(serial_delta.skips(), parallel_delta.skips());
      total_skips += serial_delta.skips();
    }
    return static_cast<double>(total_skips) / trials;
  }

  StorageManager storage_;
  std::unique_ptr<BitSlicedSignatureFile> bssf_;
  ThreadPool pool_;
  ParallelExecutionContext ctx_;
  DatabaseParams live_db_;
  SignatureParams model_sig_{250, 2};
};

TEST_F(BssfSkipModelTest, SupersetSkipsMatchModel) {
  double model =
      BssfExpectedSupersetSkippedPages(live_db_, model_sig_, kDt, 2);
  ASSERT_GT(model, 1.0);  // the scenario must actually predict skipping
  double measured = MeanSkips(QueryKind::kSuperset, 2, 20, 11);
  EXPECT_NEAR(measured, model, 0.25 * model + 1.0);
}

TEST_F(BssfSkipModelTest, SubsetSkipsMatchModel) {
  double model = BssfExpectedSubsetSkippedPages(live_db_, model_sig_, kDt, 60);
  ASSERT_GT(model, 10.0);
  double measured = MeanSkips(QueryKind::kSubset, 60, 10, 12);
  EXPECT_NEAR(measured, model, 0.15 * model + 2.0);
}

// SSF counterpart, fully deterministic: with every resident tombstoned the
// page-union index reports zero live signatures on every page, so a
// skip-enabled scan reads nothing and skips every signature page.
TEST(SsfSkipTest, FullyTombstonedScanSkipsEveryPage) {
  StorageManager storage;
  auto ssf = SequentialSignatureFile::Create({250, 2},
                                             storage.CreateOrOpen("t.sig"),
                                             storage.CreateOrOpen("t.oid"));
  ASSERT_TRUE(ssf.ok());
  Rng rng(33);
  std::vector<ElementSet> sets;
  for (int64_t i = 0; i < 200; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(500, 8);
    sets.push_back(set);
    ASSERT_TRUE(
        (*ssf)->Insert(Oid::FromLocation(static_cast<PageId>(i), 0), set)
            .ok());
  }
  for (int64_t i = 0; i < 200; ++i) {
    ASSERT_TRUE((*ssf)
                    ->Remove(Oid::FromLocation(static_cast<PageId>(i), 0),
                             sets[static_cast<size_t>(i)])
                    .ok());
  }
  (*ssf)->set_skip_index_enabled(true);
  ElementSet query = rng.SampleWithoutReplacement(500, 2);
  const IoStats before = (*ssf)->StageStats()[0].second;
  auto result = (*ssf)->Candidates(QueryKind::kSuperset, query);
  ASSERT_TRUE(result.ok());
  const IoStats delta = (*ssf)->StageStats()[0].second - before;
  EXPECT_TRUE(result->oids.empty());
  EXPECT_EQ(delta.reads(), 0u);
  EXPECT_GT(delta.skips(), 0u);
}

// --- set-containment join rows (DESIGN.md §17) -----------------------------
//
// The join variants of eqs. 2–8: measured page reads and candidate-pair
// counts of the real join executor against model/cost_join.h, per strategy,
// at scaled Table-2-shaped parameters (uniform sets over V = 500, narrow R
// against wide S so real containments occur).
class JoinModelVsMeasuredTest : public ::testing::Test {
 protected:
  static constexpr int64_t kNr = 240;
  static constexpr int64_t kNs = 800;
  static constexpr int64_t kVj = 500;
  static constexpr int64_t kDtR = 4;
  static constexpr int64_t kDtS = 10;

  void SetUp() override {
    SetIndex::Options options;
    options.maintain_ssf = true;
    options.maintain_bssf = true;
    options.maintain_nix = true;
    options.sig = {250, 2};
    options.capacity = 4096;
    options.domain_estimate = kVj;  // pin the model's V
    auto r = SetIndex::Create(&storage_, "r", options);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    auto s = SetIndex::Create(&storage_, "s", options);
    ASSERT_TRUE(s.ok()) << s.status().ToString();
    r_ = std::move(*r);
    s_ = std::move(*s);
    WorkloadConfig r_config{kNr, kVj, CardinalitySpec::Fixed(kDtR),
                            SkewKind::kUniform, 0.99, 101};
    for (const ElementSet& set : MakeDatabase(r_config)) {
      ASSERT_TRUE(r_->Insert(set).ok());
    }
    WorkloadConfig s_config{kNs, kVj, CardinalitySpec::Fixed(kDtS),
                            SkewKind::kUniform, 0.99, 103};
    for (const ElementSet& set : MakeDatabase(s_config)) {
      ASSERT_TRUE(s_->Insert(set).ok());
    }
    db_r_.n = kNr;
    db_r_.v = kVj;
    db_s_.n = kNs;
    db_s_.v = kVj;
  }

  StatusOr<SetIndexJoinResult> RunJoin(JoinStrategy strategy) {
    JoinSpec spec;
    spec.strategy = strategy;
    return r_->ExecuteSetJoin(s_.get(), spec);
  }

  JoinCostBreakdown Breakdown(JoinStrategy strategy) {
    auto bd = BreakdownForJoinStrategy(db_r_, kDtR, db_s_, kDtS, sig_, nix_,
                                       strategy);
    EXPECT_TRUE(bd.ok());
    return *bd;
  }

  StorageManager storage_;
  std::unique_ptr<SetIndex> r_, s_;
  DatabaseParams db_r_, db_s_;
  SignatureParams sig_{250, 2};
  NixParams nix_;
};

// Sig-hash: pages = the two object-file scans, candidates = the eq.-5
// analogue n_r·(A + Fd·(N_s − A)), results = n_r·N_s·P(r ⊆ s).  Everything
// must land within 30 % of the model (the acceptance bound).
TEST_F(JoinModelVsMeasuredTest, SignatureHashPagesAndPairsMatchModel) {
  const JoinCostBreakdown bd = Breakdown(JoinStrategy::kSignatureHash);
  auto result = RunJoin(JoinStrategy::kSignatureHash);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const double measured_pages = static_cast<double>(result->page_accesses);
  EXPECT_NEAR(measured_pages, bd.total(), 0.30 * bd.total() + 2.0);
  // The model's scan terms individually match the object files.
  EXPECT_NEAR(static_cast<double>(ObjectFilePages(db_r_, kDtR)), bd.r_scan,
              0.30 * bd.r_scan + 1.0);

  const double measured_candidates =
      static_cast<double>(result->join.num_candidate_pairs);
  EXPECT_NEAR(measured_candidates, bd.expected_candidate_pairs,
              0.30 * bd.expected_candidate_pairs + 16.0);
  const double measured_pairs =
      static_cast<double>(result->join.pairs.size());
  EXPECT_NEAR(measured_pairs, bd.expected_result_pairs,
              0.30 * bd.expected_result_pairs + 16.0);
}

// Nested-loop: pages = scan(R) + |R|·RC_sel(S at Dq = Dt_r), with the probe
// priced by the same advisor the executor plans with.
TEST_F(JoinModelVsMeasuredTest, NestedLoopPagesMatchModel) {
  const JoinCostBreakdown bd = Breakdown(JoinStrategy::kNestedLoop);
  auto result = RunJoin(JoinStrategy::kNestedLoop);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->join.num_probes, static_cast<uint64_t>(kNr));
  const double measured_pages = static_cast<double>(result->page_accesses);
  EXPECT_NEAR(measured_pages, bd.total(), 0.30 * bd.total() + 4.0);
}

// Adaptive is priced as sig-hash (it only leaves the in-memory direction
// when the probe is modeled cheaper), so its measured pages obey the same
// bound — and its pair set is identical to sig-hash's.
TEST_F(JoinModelVsMeasuredTest, AdaptivePagesBoundedByModel) {
  const JoinCostBreakdown bd = Breakdown(JoinStrategy::kAdaptive);
  auto adaptive = RunJoin(JoinStrategy::kAdaptive);
  ASSERT_TRUE(adaptive.ok()) << adaptive.status().ToString();
  auto sig_hash = RunJoin(JoinStrategy::kSignatureHash);
  ASSERT_TRUE(sig_hash.ok());
  ASSERT_EQ(adaptive->join.pairs.size(), sig_hash->join.pairs.size());
  const double measured_pages = static_cast<double>(adaptive->page_accesses);
  EXPECT_NEAR(measured_pages, bd.total(), 0.30 * bd.total() + 4.0);
}

// The advisor's ranked costs are consistent: each strategy's breakdown
// total equals the cost AdviseJoinStrategies ranked it at, and the measured
// winner at THESE parameters (|R| = 240 probes dwarf one S scan) is not
// nested-loop.
TEST_F(JoinModelVsMeasuredTest, AdvisorCostsAreConsistentWithBreakdowns) {
  auto choices =
      AdviseJoinStrategies(db_r_, kDtR, db_s_, kDtS, sig_, nix_);
  ASSERT_TRUE(choices.ok());
  ASSERT_EQ(choices->size(), 3u);
  for (const JoinStrategyChoice& choice : *choices) {
    const JoinCostBreakdown bd = Breakdown(choice.strategy);
    EXPECT_NEAR(choice.cost_pages, bd.total(), 1e-9) << choice.name;
  }
  for (size_t i = 1; i < choices->size(); ++i) {
    EXPECT_LE((*choices)[i - 1].cost_pages, (*choices)[i].cost_pages);
  }
  EXPECT_NE(choices->front().strategy, JoinStrategy::kNestedLoop);
}

TEST_F(ModelVsMeasuredTest, NixSubset) {
  int64_t rc = db_.nix().tree().height() + 1;
  int64_t dq = 40;
  double model = static_cast<double>(rc * dq) +
                 NixSubsetFailingCandidates(model_db_, kDt, dq) +
                 ActualDropsSubset(model_db_, kDt, dq);
  CheckBothModes(&db_.nix(), QueryKind::kSubset, dq, 10, 6, model,
                 0.15 * model + 2.0);
}

}  // namespace
}  // namespace sigsetdb
