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
#include "obs/explain.h"
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

// A span with all five page counters set by name.
TraceSpan CountedSpan(std::string name, uint64_t reads, uint64_t writes,
                      uint64_t skipped, uint64_t cow, uint64_t hot) {
  TraceSpan span;
  span.name = std::move(name);
  span.page_reads = reads;
  span.page_writes = writes;
  span.pages_skipped = skipped;
  span.pages_cow = cow;
  span.pages_hot = hot;
  return span;
}

// A hand-built two-stage trace whose stages and children carry every page
// counter nonzero, each with its own value, so a byte-exact pin of its
// renderings catches a counter that is dropped, swapped or moved.
QueryTrace MakeAllCountersTrace() {
  QueryTrace trace;
  trace.plan = "bssf smart(k=2)";
  trace.kind = "superset";
  trace.dq = 4;
  trace.predicted_total = 30.5;
  TraceSpan* selection = trace.AddStage("candidate selection");
  *selection = CountedSpan("candidate selection", 11, 2, 3, 4, 5);
  selection->wall_ms = 0.25;
  selection->predicted_pages = 12.5;
  selection->candidates = 9;
  selection->children.push_back(CountedSpan("bssf.slices", 7, 1, 2, 3, 4));
  selection->children.push_back(CountedSpan("bssf.oids", 4, 1, 1, 1, 1));
  TraceSpan* resolution = trace.AddStage("resolution");
  *resolution = CountedSpan("resolution", 20, 6, 7, 8, 9);
  resolution->wall_ms = 1.5;
  resolution->predicted_pages = 18;
  resolution->candidates = 9;
  resolution->false_drops = 3;
  for (int w = 0; w < 2; ++w) {
    TraceSpan worker = CountedSpan("worker " + std::to_string(w), 10, 3,
                                   3 + w, 4, 4 + w);
    worker.wall_ms = 0.75 - 0.25 * w;
    worker.candidates = 5 - w;
    worker.false_drops = 1 + w;
    resolution->children.push_back(worker);
  }
  return trace;
}

// Zero skipped and hot counts, and a zero cow count on one stage: the trace
// JSON leaves those keys out and EXPLAIN shows "-".
QueryTrace MakeSparseCountersTrace() {
  QueryTrace trace;
  trace.plan = "nix plain";
  trace.kind = "subset";
  trace.dq = 40;
  TraceSpan* selection = trace.AddStage("candidate selection");
  *selection = CountedSpan("candidate selection", 5, 0, 0, 2, 0);
  selection->wall_ms = 0.125;
  selection->candidates = 3;
  selection->children.push_back(CountedSpan("nix.btree", 5, 0, 0, 2, 0));
  TraceSpan* resolution = trace.AddStage("resolution");
  *resolution = CountedSpan("resolution", 3, 0, 0, 0, 0);
  resolution->wall_ms = 0.5;
  resolution->candidates = 3;
  resolution->false_drops = 0;
  return trace;
}

// The renderings of every counter, byte for byte.
TEST(TraceRenderingTest, ToJsonCarriesEveryCounter) {
  EXPECT_EQ(MakeAllCountersTrace().ToJson(),
            "{\"plan\":\"bssf smart(k=2)\",\"kind\":\"superset\",\"dq\":4,"
            "\"measured_reads\":31,\"measured_writes\":8,"
            "\"measured_pages\":39,\"measured_skipped\":10,"
            "\"measured_cow\":12,\"measured_hot\":14,\"predicted_total\":30.5,"
            "\"wall_ms\":1.75,\"stages\":[{\"name\":\"candidate selection\","
            "\"page_reads\":11,\"page_writes\":2,\"pages\":13,"
            "\"pages_skipped\":3,\"pages_cow\":4,\"pages_hot\":5,"
            "\"wall_ms\":0.25,\"predicted_pages\":12.5,\"candidates\":9,"
            "\"children\":[{\"name\":\"bssf.slices\",\"page_reads\":7,"
            "\"page_writes\":1,\"pages\":8,\"pages_skipped\":2,"
            "\"pages_cow\":3,\"pages_hot\":4},{\"name\":\"bssf.oids\","
            "\"page_reads\":4,\"page_writes\":1,\"pages\":5,"
            "\"pages_skipped\":1,\"pages_cow\":1,\"pages_hot\":1}]},"
            "{\"name\":\"resolution\",\"page_reads\":20,\"page_writes\":6,"
            "\"pages\":26,\"pages_skipped\":7,\"pages_cow\":8,\"pages_hot\":9,"
            "\"wall_ms\":1.5,\"predicted_pages\":18,\"candidates\":9,"
            "\"false_drops\":3,\"children\":[{\"name\":\"worker 0\","
            "\"page_reads\":10,\"page_writes\":3,\"pages\":13,"
            "\"pages_skipped\":3,\"pages_cow\":4,\"pages_hot\":4,"
            "\"wall_ms\":0.75,\"candidates\":5,\"false_drops\":1},"
            "{\"name\":\"worker 1\",\"page_reads\":10,\"page_writes\":3,"
            "\"pages\":13,\"pages_skipped\":4,\"pages_cow\":4,\"pages_hot\":5,"
            "\"wall_ms\":0.5,\"candidates\":4,\"false_drops\":2}]}]}");
}

TEST(TraceRenderingTest, ExplainCarriesEveryCounter) {
  EXPECT_EQ(RenderExplain(MakeAllCountersTrace()),
            "EXPLAIN superset Dq=4 — plan: bssf smart(k=2)\n"
            "                stage  pages  predicted  reads  writes  skipped  "
            "cow  hot  wall_ms  cand  fdrops\n"
            "  "
            "-----------------------------------------------------------------"
            "-----------------------------\n"
            "  candidate selection     13       12.5     11       2        3  "
            "  4    5    0.250     9       -\n"
            "          bssf.slices      8          -      7       1        2  "
            "  3    4        -     -       -\n"
            "            bssf.oids      5          -      4       1        1  "
            "  1    1        -     -       -\n"
            "           resolution     26       18.0     20       6        7  "
            "  8    9    1.500     9       3\n"
            "             worker 0     13          -     10       3        3  "
            "  4    4    0.750     5       1\n"
            "             worker 1     13          -     10       3        4  "
            "  4    5    0.500     4       2\n"
            "                total     39       30.5     31       8       10  "
            " 12   14    1.750     -       -\n");
}

TEST(TraceRenderingTest, ZeroOutOfBandCountersAreLeftOut) {
  const QueryTrace trace = MakeSparseCountersTrace();
  EXPECT_EQ(trace.ToJson(),
            "{\"plan\":\"nix plain\",\"kind\":\"subset\",\"dq\":40,"
            "\"measured_reads\":8,\"measured_writes\":0,\"measured_pages\":8,"
            "\"measured_cow\":2,\"wall_ms\":0.625,"
            "\"stages\":[{\"name\":\"candidate selection\",\"page_reads\":5,"
            "\"page_writes\":0,\"pages\":5,\"pages_cow\":2,\"wall_ms\":0.125,"
            "\"candidates\":3,\"children\":[{\"name\":\"nix.btree\","
            "\"page_reads\":5,\"page_writes\":0,\"pages\":5,"
            "\"pages_cow\":2}]},{\"name\":\"resolution\",\"page_reads\":3,"
            "\"page_writes\":0,\"pages\":3,\"wall_ms\":0.5,\"candidates\":3,"
            "\"false_drops\":0}]}");
  EXPECT_EQ(RenderExplain(trace),
            "EXPLAIN subset Dq=40 — plan: nix plain\n"
            "                stage  pages  predicted  reads  writes  skipped  "
            "cow  hot  wall_ms  cand  fdrops\n"
            "  "
            "-----------------------------------------------------------------"
            "-----------------------------\n"
            "  candidate selection      5          -      5       0        -  "
            "  2    -    0.125     3       -\n"
            "            nix.btree      5          -      5       0        -  "
            "  2    -        -     -       -\n"
            "           resolution      3          -      3       0        -  "
            "  -    -    0.500     3       0\n"
            "                total      8          -      8       0        -  "
            "  2    -    0.625     -       -\n");
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
      const PageCounts delta = db_.storage().TotalStats().counts();
      const PageCounts totals = trace.Totals();
      for (const auto& c : kPageCounters) {
        EXPECT_EQ(totals.*c.field, delta.*c.field)
            << facility->name() << " " << c.name;
      }

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
