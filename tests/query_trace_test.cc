// Query tracing: the three load-bearing guarantees of the observability
// layer.
//
//  1. Accounting closure: for a traced query, the sum of per-stage page
//     deltas equals the storage manager's IoStats delta equals the page
//     count the result reports — no access is unattributed.
//  2. Zero-cost off path: with tracing disabled the measured page counts
//     are bit-for-bit identical to a traced run, serially and with a
//     4-thread pool (tracing only snapshots counters; it never issues I/O).
//  3. Predictions line up: CostBreakdown totals equal the cost functions
//     the advisor prices plans with, and EXPLAIN attaches them per stage.

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/set_index.h"
#include "model/cost_breakdown.h"
#include "model/cost_bssf.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"
#include "obs/trace.h"
#include "query/executor.h"
#include "test_db.h"
#include "util/thread_pool.h"

namespace sigsetdb {
namespace {

TEST(AddSnapshotStageTest, ChildrenArePerFileDeltas) {
  QueryTrace trace;
  IoSnapshots before = {{"sig", IoStats{10, 1}}, {"oid", IoStats{5, 0}}};
  IoSnapshots after = {{"sig", IoStats{14, 1}}, {"oid", IoStats{5, 2}}};
  TraceSpan* span = AddSnapshotStage(&trace, "candidate selection", before,
                                     after);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->page_reads, 4u);
  EXPECT_EQ(span->page_writes, 2u);
  ASSERT_EQ(span->children.size(), 2u);
  TraceSpan* sig = span->FindChild("sig");
  ASSERT_NE(sig, nullptr);
  EXPECT_EQ(sig->page_reads, 4u);
  EXPECT_EQ(sig->page_writes, 0u);
  TraceSpan* oid = span->FindChild("oid");
  ASSERT_NE(oid, nullptr);
  EXPECT_EQ(oid->page_reads, 0u);
  EXPECT_EQ(oid->page_writes, 2u);
  EXPECT_EQ(trace.TotalPages(), 6u);
}

class QueryTraceTest : public ::testing::Test {
 protected:
  QueryTraceTest() : db_(TestDatabase::Options{}) {}

  std::vector<SetAccessFacility*> Facilities() {
    return {static_cast<SetAccessFacility*>(&db_.ssf()),
            static_cast<SetAccessFacility*>(&db_.bssf()),
            static_cast<SetAccessFacility*>(&db_.nix())};
  }

  ElementSet SupersetQuery(Rng& rng) {
    const ElementSet& target = db_.sets()[rng.NextBelow(db_.sets().size())];
    return MakeHittingSupersetQuery(target, 2, rng);
  }

  ElementSet SubsetQuery(Rng& rng) {
    const ElementSet& target = db_.sets()[rng.NextBelow(db_.sets().size())];
    return MakeHittingSubsetQuery(target, db_.options().v, 40, rng);
  }

  TestDatabase db_;
};

// Guarantee 1: measured == trace-sum == IoStats delta, stage structure
// present, per-file children summing to their parent.
TEST_F(QueryTraceTest, TraceSumsMatchIoStatsDelta) {
  Rng rng(7);
  for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset}) {
    ElementSet query = kind == QueryKind::kSuperset ? SupersetQuery(rng)
                                                    : SubsetQuery(rng);
    for (SetAccessFacility* facility : Facilities()) {
      db_.storage().ResetStats();
      QueryTrace trace;
      auto result =
          ExecuteSetQuery(facility, db_.store(), kind, query, 0, nullptr,
                          &trace);
      ASSERT_TRUE(result.ok()) << facility->name();
      IoStats delta = db_.storage().TotalStats();
      EXPECT_EQ(trace.TotalReads(), delta.reads()) << facility->name();
      EXPECT_EQ(trace.TotalWrites(), delta.writes()) << facility->name();

      ASSERT_EQ(trace.stages().size(), 2u) << facility->name();
      const TraceSpan& selection = trace.stages()[0];
      const TraceSpan& resolution = trace.stages()[1];
      EXPECT_EQ(selection.name, "candidate selection");
      EXPECT_EQ(resolution.name, "resolution");
      EXPECT_EQ(selection.candidates,
                static_cast<int64_t>(result->num_candidates));
      EXPECT_EQ(resolution.candidates,
                static_cast<int64_t>(result->num_candidates));
      EXPECT_EQ(resolution.false_drops,
                static_cast<int64_t>(result->num_false_drops));
      // Children subdivide their parent exactly.
      uint64_t child_pages = 0;
      for (const TraceSpan& child : selection.children) {
        child_pages += child.pages();
      }
      EXPECT_EQ(child_pages, selection.pages()) << facility->name();
    }
  }
}

// Guarantee 2, serial: tracing must not change what it measures.
TEST_F(QueryTraceTest, DisabledTracingIsBitForBitIdenticalSerial) {
  constexpr int kTrials = 8;
  for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset}) {
    std::vector<std::pair<uint64_t, uint64_t>> untraced;
    Rng rng_a(99);
    for (int t = 0; t < kTrials; ++t) {
      ElementSet query = kind == QueryKind::kSuperset ? SupersetQuery(rng_a)
                                                      : SubsetQuery(rng_a);
      for (SetAccessFacility* facility : Facilities()) {
        db_.storage().ResetStats();
        ASSERT_TRUE(
            ExecuteSetQuery(facility, db_.store(), kind, query).ok());
        IoStats delta = db_.storage().TotalStats();
        untraced.emplace_back(delta.reads(), delta.writes());
      }
    }
    // Same seed, same queries, tracing on.
    size_t i = 0;
    Rng rng_b(99);
    for (int t = 0; t < kTrials; ++t) {
      ElementSet query = kind == QueryKind::kSuperset ? SupersetQuery(rng_b)
                                                      : SubsetQuery(rng_b);
      for (SetAccessFacility* facility : Facilities()) {
        db_.storage().ResetStats();
        QueryTrace trace;
        ASSERT_TRUE(ExecuteSetQuery(facility, db_.store(), kind, query, 0,
                                    nullptr, &trace)
                        .ok());
        IoStats delta = db_.storage().TotalStats();
        EXPECT_EQ(delta.reads(), untraced[i].first)
            << facility->name() << " trial " << t;
        EXPECT_EQ(delta.writes(), untraced[i].second)
            << facility->name() << " trial " << t;
        ++i;
      }
    }
  }
}

// Guarantee 2, parallel: identical page counts with a 4-thread pool, traced
// and untraced (worker-local stats merge before the trace snapshots them).
TEST_F(QueryTraceTest, DisabledTracingIsBitForBitIdenticalFourThreads) {
  ThreadPool pool(4);
  ParallelExecutionContext ctx;
  ctx.pool = &pool;
  constexpr int kTrials = 6;
  for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset}) {
    std::vector<std::pair<uint64_t, uint64_t>> untraced;
    Rng rng_a(123);
    for (int t = 0; t < kTrials; ++t) {
      ElementSet query = kind == QueryKind::kSuperset ? SupersetQuery(rng_a)
                                                      : SubsetQuery(rng_a);
      db_.storage().ResetStats();
      ASSERT_TRUE(
          ExecuteSetQuery(&db_.bssf(), db_.store(), kind, query, 0, &ctx)
              .ok());
      IoStats delta = db_.storage().TotalStats();
      untraced.emplace_back(delta.reads(), delta.writes());
    }
    Rng rng_b(123);
    for (int t = 0; t < kTrials; ++t) {
      ElementSet query = kind == QueryKind::kSuperset ? SupersetQuery(rng_b)
                                                      : SubsetQuery(rng_b);
      db_.storage().ResetStats();
      QueryTrace trace;
      ASSERT_TRUE(ExecuteSetQuery(&db_.bssf(), db_.store(), kind, query, 0,
                                  &ctx, &trace)
                      .ok());
      IoStats delta = db_.storage().TotalStats();
      EXPECT_EQ(delta.reads(), untraced[t].first) << "trial " << t;
      EXPECT_EQ(delta.writes(), untraced[t].second) << "trial " << t;
      EXPECT_EQ(trace.TotalPages(), delta.total()) << "trial " << t;
    }
  }
}

// Guarantee 3a: breakdown totals equal the cost functions the advisor uses.
TEST(CostBreakdownTest, TotalsEqualCostFunctions) {
  const DatabaseParams db;
  const NixParams nix;
  const SignatureParams sig{500, 2};
  const int64_t dt = 10;
  for (int64_t dq : {1, 2, 5, 10}) {
    EXPECT_NEAR(SsfBreakdown(db, sig, dt, dq, QueryKind::kSuperset).total(),
                SsfRetrievalCost(db, sig, dt, dq, QueryKind::kSuperset),
                1e-9);
    EXPECT_NEAR(BssfSupersetBreakdown(db, sig, dt, dq, dq).total(),
                BssfRetrievalSuperset(db, sig, dt, dq), 1e-9);
    int64_t k = 0;
    double smart = BssfSmartSupersetCost(db, sig, dt, dq, &k);
    EXPECT_NEAR(BssfSupersetBreakdown(db, sig, dt, dq, k).total(), smart,
                1e-9);
    int64_t knix = 0;
    double smart_nix = NixSmartSupersetCost(db, nix, dt, dq, &knix);
    EXPECT_NEAR(NixSupersetBreakdown(db, nix, dt, dq, knix).total(),
                smart_nix, 1e-9);
    EXPECT_NEAR(NixSupersetBreakdown(db, nix, dt, dq, dq).total(),
                NixRetrievalSuperset(db, nix, dt, dq), 1e-9);
  }
  for (int64_t dq : {20, 100, 300}) {
    EXPECT_NEAR(SsfBreakdown(db, sig, dt, dq, QueryKind::kSubset).total(),
                SsfRetrievalCost(db, sig, dt, dq, QueryKind::kSubset), 1e-9);
    EXPECT_NEAR(BssfSubsetBreakdown(db, sig, dt, dq, -1).total(),
                BssfRetrievalSubset(db, sig, dt, dq), 1e-9);
    int64_t s = 0;
    double smart = BssfSmartSubsetCost(db, sig, dt, dq, &s);
    EXPECT_NEAR(BssfSubsetBreakdown(db, sig, dt, dq, s).total(), smart,
                1e-9);
    EXPECT_NEAR(NixSubsetBreakdown(db, nix, dt, dq).total(),
                NixRetrievalSubset(db, nix, dt, dq), 1e-9);
  }
  // The plain NIX superset path is exact — the feedback correction must be
  // able to rely on expected_false_drops == 0.
  EXPECT_DOUBLE_EQ(NixSupersetBreakdown(db, nix, dt, 5, 5).expected_false_drops,
                   0.0);
}

class SetIndexExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetIndex::Options options;
    options.maintain_ssf = true;
    options.maintain_bssf = true;
    options.maintain_nix = true;
    options.sig = {128, 2};
    options.capacity = 4096;
    options.domain_estimate = 200;
    auto index = SetIndex::Create(&storage_, "attr", options);
    ASSERT_TRUE(index.ok()) << index.status().ToString();
    index_ = std::move(*index);
    Rng rng(1);
    for (int i = 0; i < 400; ++i) {
      sets_.push_back(rng.SampleWithoutReplacement(200, 6));
      ASSERT_TRUE(index_->Insert(sets_.back()).ok());
    }
  }

  StorageManager storage_;
  std::unique_ptr<SetIndex> index_;
  std::vector<ElementSet> sets_;
};

// Guarantee 3b: EXPLAIN on both paper search conditions carries per-stage
// measured pages AND the model's prediction for the same stage.
TEST_F(SetIndexExplainTest, ExplainAttachesPredictionsForBothConditions) {
  Rng rng(5);
  ElementSet superset_q = MakeHittingSupersetQuery(sets_[10], 2, rng);
  ElementSet subset_q = MakeHittingSubsetQuery(sets_[11], 200, 40, rng);
  struct Case {
    QueryKind kind;
    ElementSet query;
  };
  for (const Case& c : {Case{QueryKind::kSuperset, superset_q},
                        Case{QueryKind::kSubset, subset_q}}) {
    auto explain = index_->Explain(c.kind, c.query);
    ASSERT_TRUE(explain.ok()) << explain.status().ToString();
    const QueryTrace& trace = explain->trace;
    EXPECT_EQ(trace.kind, QueryKindName(c.kind));
    EXPECT_FALSE(trace.plan.empty());
    // Accounting closure at the facade level too.
    EXPECT_EQ(trace.TotalPages(), explain->result.page_accesses);
    // The whole-plan prediction and each stage's slice of it.
    EXPECT_GT(trace.predicted_total, 0.0);
    ASSERT_EQ(trace.stages().size(), 2u);
    EXPECT_EQ(trace.stages()[0].name, "candidate selection");
    EXPECT_GE(trace.stages()[0].predicted_pages, 0.0);
    EXPECT_EQ(trace.stages()[1].name, "resolution");
    EXPECT_GE(trace.stages()[1].predicted_pages, 0.0);
    // Rendering: header plus a measured-vs-predicted table; JSON carries
    // the stage array.
    EXPECT_NE(explain->text.find("EXPLAIN"), std::string::npos);
    EXPECT_NE(explain->text.find("candidate selection"), std::string::npos);
    EXPECT_NE(explain->text.find("resolution"), std::string::npos);
    EXPECT_NE(explain->text.find("predicted"), std::string::npos);
    EXPECT_NE(explain->json.find("\"stages\""), std::string::npos);
    EXPECT_NE(explain->json.find("\"predicted_total\""), std::string::npos);
  }
}

TEST_F(SetIndexExplainTest, ExplainMatchesQueryExactly) {
  Rng rng(9);
  ElementSet query = MakeHittingSupersetQuery(sets_[3], 2, rng);
  auto plain = index_->Query(QueryKind::kSuperset, query);
  ASSERT_TRUE(plain.ok());
  auto explain = index_->Explain(QueryKind::kSuperset, query);
  ASSERT_TRUE(explain.ok());
  // Same plan, same answer, same page accesses — EXPLAIN is not allowed to
  // perturb what it observes.
  EXPECT_EQ(explain->result.plan, plain->plan);
  EXPECT_EQ(explain->result.page_accesses, plain->page_accesses);
  std::vector<Oid> a = plain->result.oids;
  std::vector<Oid> b = explain->result.result.oids;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  EXPECT_EQ(a, b);
}

TEST_F(SetIndexExplainTest, QueriesFeedTheMetricsRegistry) {
  Rng rng(11);
  ElementSet query = MakeHittingSupersetQuery(sets_[7], 2, rng);
  ASSERT_TRUE(index_->Query(QueryKind::kSuperset, query).ok());
  ASSERT_TRUE(index_->Query(QueryKind::kSuperset, query).ok());
  MetricsRegistry* metrics = index_->metrics();
  ASSERT_NE(metrics, nullptr);
  EXPECT_EQ(metrics->CounterValue("query.count"), 2u);
  const Histogram* pages = metrics->FindHistogram("query.pages");
  ASSERT_NE(pages, nullptr);
  EXPECT_EQ(pages->count(), 2u);
  const Histogram* latency = metrics->FindHistogram("query.latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
}

TEST(DatabaseExplainTest, ConjunctionTraceCoversDriverAndResolution) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  courses.domain_estimate = 100;
  courses.sig = {128, 2};
  Database::AttributeOptions hobbies;
  hobbies.name = "hobbies";
  hobbies.domain_estimate = 50;
  hobbies.sig = {128, 2};
  options.attributes = {courses, hobbies};
  options.capacity = 4096;
  auto db = Database::Create(&storage, "class", options);
  ASSERT_TRUE(db.ok()) << db.status().ToString();
  Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE((*db)->Insert({rng.SampleWithoutReplacement(100, 5),
                               rng.SampleWithoutReplacement(50, 4)})
                    .ok());
  }
  SetPredicate p1{"courses", QueryKind::kSuperset, {1, 2}};
  SetPredicate p2{"hobbies", QueryKind::kOverlaps, {3, 4, 5}};
  auto explain = (*db)->Explain({p1, p2});
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_FALSE(explain->result.driver.empty());
  EXPECT_EQ(explain->trace.TotalPages(), explain->result.page_accesses);
  ASSERT_EQ(explain->trace.stages().size(), 2u);
  EXPECT_EQ(explain->trace.stages()[0].name, "candidate selection");
  EXPECT_EQ(explain->trace.stages()[1].name, "resolution");
  EXPECT_NE(explain->text.find("EXPLAIN"), std::string::npos);
  // The same conjunction through Query() must cost the same pages.
  auto plain = (*db)->Query({p1, p2});
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->page_accesses, explain->result.page_accesses);
  EXPECT_EQ(plain->driver, explain->result.driver);
}

}  // namespace
}  // namespace sigsetdb
