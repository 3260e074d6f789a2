// Differential test: parallel query execution must be indistinguishable
// from serial execution — same result OIDs in the same order, same
// candidate and false-drop counts, and the same logical page-access totals
// (the paper's cost metric).  Every case runs once serially and once per
// pool width (2/4/8 threads), seeded so failures reproduce.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/set_index.h"
#include "query/executor.h"
#include "test_db.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

struct Measured {
  QueryResult result;
  uint64_t reads = 0;
  uint64_t writes = 0;
};

class ParallelExecutorTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new TestDatabase(TestDatabase::Options{});
    for (size_t threads : {2u, 4u, 8u}) {
      pools_.push_back(new ThreadPool(threads));
    }
  }

  static void TearDownTestSuite() {
    for (ThreadPool* pool : pools_) delete pool;
    pools_.clear();
    delete db_;
    db_ = nullptr;
  }

  using RunFn =
      std::function<StatusOr<QueryResult>(const ParallelExecutionContext*)>;

  static Measured Measure(const RunFn& run,
                          const ParallelExecutionContext* ctx,
                          const std::string& label) {
    IoStats before = db_->storage().TotalStats();
    StatusOr<QueryResult> result = run(ctx);
    IoStats delta = db_->storage().TotalStats() - before;
    EXPECT_TRUE(result.ok()) << label << ": " << result.status().message();
    Measured out;
    if (result.ok()) out.result = std::move(*result);
    out.reads = delta.reads();
    out.writes = delta.writes();
    return out;
  }

  // Runs `run` serially and at every pool width and requires identical
  // results and identical logical page-access counts.
  static void ExpectDifferentialMatch(const RunFn& run,
                                      const std::string& label) {
    Measured serial = Measure(run, nullptr, label + " serial");
    for (ThreadPool* pool : pools_) {
      ParallelExecutionContext ctx;
      ctx.pool = pool;
      std::string plabel =
          label + " threads=" + std::to_string(pool->num_threads());
      Measured par = Measure(run, &ctx, plabel);
      EXPECT_EQ(par.result.oids, serial.result.oids) << plabel;
      EXPECT_EQ(par.result.num_candidates, serial.result.num_candidates)
          << plabel;
      EXPECT_EQ(par.result.num_false_drops, serial.result.num_false_drops)
          << plabel;
      EXPECT_EQ(par.reads, serial.reads) << plabel;
      EXPECT_EQ(par.writes, serial.writes) << plabel;
    }
  }

  static ElementSet QueryForKind(QueryKind kind, Rng& rng) {
    const std::vector<ElementSet>& sets = db_->sets();
    const ElementSet& target = sets[rng.NextBelow(sets.size())];
    const int64_t v = db_->options().v;
    switch (kind) {
      case QueryKind::kSuperset:
      case QueryKind::kProperSuperset:
        return MakeHittingSupersetQuery(
            target, 1 + static_cast<int64_t>(rng.NextBelow(4)), rng);
      case QueryKind::kSubset:
      case QueryKind::kProperSubset:
        return MakeHittingSubsetQuery(
            target, v, 20 + static_cast<int64_t>(rng.NextBelow(41)), rng);
      case QueryKind::kEquals:
        // Mostly stored values (hits); sometimes a random set (usually
        // empty result, exercising zero/low-candidate partitions).
        if (rng.NextBelow(4) != 0) return target;
        return rng.SampleWithoutReplacement(static_cast<uint64_t>(v),
                                            db_->options().dt);
      case QueryKind::kOverlaps:
        return rng.SampleWithoutReplacement(
            static_cast<uint64_t>(v), 1 + rng.NextBelow(3));
    }
    return target;
  }

  static void RunKindDifferential(QueryKind kind, uint64_t seed, int cases) {
    Rng rng(seed);
    for (int c = 0; c < cases; ++c) {
      ElementSet query = QueryForKind(kind, rng);
      std::string label = std::string(QueryKindName(kind)) + " case " +
                          std::to_string(c);
      ExpectDifferentialMatch(
          [&](const ParallelExecutionContext* ctx) {
            return ExecuteSetQuery(&db_->bssf(), db_->store(), kind, query,
                                   0, ctx);
          },
          label);
      if (HasFatalFailure() || HasNonfatalFailure()) {
        FAIL() << "first failing case: " << label << " (seed " << seed
               << ")";
      }
    }
  }

  static TestDatabase* db_;
  static std::vector<ThreadPool*> pools_;
};

TestDatabase* ParallelExecutorTest::db_ = nullptr;
std::vector<ThreadPool*> ParallelExecutorTest::pools_;

TEST_F(ParallelExecutorTest, SupersetDifferential500Cases) {
  RunKindDifferential(QueryKind::kSuperset, /*seed=*/101, /*cases=*/500);
}

TEST_F(ParallelExecutorTest, SubsetDifferential500Cases) {
  RunKindDifferential(QueryKind::kSubset, /*seed=*/202, /*cases=*/500);
}

TEST_F(ParallelExecutorTest, EqualsDifferential500Cases) {
  RunKindDifferential(QueryKind::kEquals, /*seed=*/303, /*cases=*/500);
}

TEST_F(ParallelExecutorTest, OverlapsDifferential500Cases) {
  RunKindDifferential(QueryKind::kOverlaps, /*seed=*/404, /*cases=*/500);
}

TEST_F(ParallelExecutorTest, ProperKindsDifferential) {
  RunKindDifferential(QueryKind::kProperSuperset, /*seed=*/505,
                      /*cases=*/100);
  RunKindDifferential(QueryKind::kProperSubset, /*seed=*/606, /*cases=*/100);
}

TEST_F(ParallelExecutorTest, SmartSupersetBssfDifferential) {
  Rng rng(707);
  for (int c = 0; c < 250; ++c) {
    const ElementSet& target = db_->sets()[rng.NextBelow(db_->sets().size())];
    ElementSet query = MakeHittingSupersetQuery(target, 4, rng);
    size_t k = 1 + rng.NextBelow(4);
    ExpectDifferentialMatch(
        [&](const ParallelExecutionContext* ctx) {
          return ExecuteSetQuery(&db_->bssf(), db_->store(),
                                 QueryKind::kSuperset, query, k, ctx);
        },
        "smart-superset k=" + std::to_string(k) + " case " +
            std::to_string(c));
  }
}

TEST_F(ParallelExecutorTest, SmartSubsetBssfDifferential) {
  Rng rng(808);
  const size_t slice_caps[] = {3, 10, 50, 10000};
  for (int c = 0; c < 250; ++c) {
    const ElementSet& target = db_->sets()[rng.NextBelow(db_->sets().size())];
    ElementSet query =
        MakeHittingSubsetQuery(target, db_->options().v, 50, rng);
    size_t max_slices = slice_caps[rng.NextBelow(4)];
    ExpectDifferentialMatch(
        [&](const ParallelExecutionContext* ctx) {
          return ExecuteSetQuery(&db_->bssf(), db_->store(),
                                 QueryKind::kSubset, query, max_slices, ctx);
        },
        "smart-subset s=" + std::to_string(max_slices) + " case " +
            std::to_string(c));
  }
}

TEST_F(ParallelExecutorTest, ParallelResultsMatchBruteForce) {
  // The differential tests prove parallel == serial; this anchors both to
  // ground truth so a bug shared by the two paths cannot hide.
  Rng rng(909);
  ParallelExecutionContext ctx;
  ctx.pool = pools_.back();
  for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset,
                         QueryKind::kEquals, QueryKind::kOverlaps}) {
    for (int c = 0; c < 25; ++c) {
      ElementSet query = QueryForKind(kind, rng);
      std::vector<Oid> expected = db_->BruteForce(kind, query);
      auto result =
          ExecuteSetQuery(&db_->bssf(), db_->store(), kind, query, 0, &ctx);
      ASSERT_TRUE(result.ok());
      std::vector<Oid> got = result->oids;
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, expected) << QueryKindName(kind) << " case " << c;
    }
  }
}

TEST_F(ParallelExecutorTest, MaxWorkersCapRespectedAndEquivalent) {
  Rng rng(111);
  const ElementSet& target = db_->sets()[7];
  ElementSet query = MakeHittingSupersetQuery(target, 3, rng);
  Measured serial = Measure(
      [&](const ParallelExecutionContext* ctx) {
        return ExecuteSetQuery(&db_->bssf(), db_->store(),
                               QueryKind::kSuperset, query, 0, ctx);
      },
      nullptr, "serial");
  ParallelExecutionContext ctx;
  ctx.pool = pools_.back();  // 8 threads
  for (size_t cap : {1u, 2u, 3u}) {
    ctx.max_workers = cap;
    EXPECT_EQ(ctx.WorkersFor(100), cap);
    Measured par = Measure(
        [&](const ParallelExecutionContext* c) {
          return ExecuteSetQuery(&db_->bssf(), db_->store(),
                                 QueryKind::kSuperset, query, 0, c);
        },
        &ctx, "cap=" + std::to_string(cap));
    EXPECT_EQ(par.result.oids, serial.result.oids);
    EXPECT_EQ(par.reads, serial.reads);
  }
}

TEST_F(ParallelExecutorTest, SetIndexNumThreadsKnobIsTransparent) {
  // Two identical indexes, one serial, one with a 4-thread pool: every
  // query must agree on results AND on the measured page-access count the
  // facade reports (the paper's metric).
  StorageManager serial_storage, parallel_storage;
  SetIndex::Options options;
  options.capacity = 2048;
  auto serial = SetIndex::Create(&serial_storage, "idx", options);
  ASSERT_TRUE(serial.ok());
  options.num_threads = 4;
  auto parallel = SetIndex::Create(&parallel_storage, "idx", options);
  ASSERT_TRUE(parallel.ok());
  ASSERT_NE((*parallel)->execution_context(), nullptr);
  EXPECT_EQ((*serial)->execution_context(), nullptr);

  for (const ElementSet& set : db_->sets()) {
    ASSERT_TRUE((*serial)->Insert(set).ok());
    ASSERT_TRUE((*parallel)->Insert(set).ok());
  }
  Rng rng(1212);
  for (int c = 0; c < 50; ++c) {
    for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset}) {
      ElementSet query = QueryForKind(kind, rng);
      for (PlanMode mode : {PlanMode::kAuto, PlanMode::kForceBssf}) {
        auto rs = (*serial)->Query(kind, query, mode);
        auto rp = (*parallel)->Query(kind, query, mode);
        ASSERT_TRUE(rs.ok());
        ASSERT_TRUE(rp.ok());
        EXPECT_EQ(rp->result.oids, rs->result.oids) << "case " << c;
        EXPECT_EQ(rp->result.num_false_drops, rs->result.num_false_drops);
        EXPECT_EQ(rp->plan, rs->plan);
        EXPECT_EQ(rp->page_accesses, rs->page_accesses)
            << "case " << c << " plan " << rs->plan;
      }
    }
  }
}

TEST_F(ParallelExecutorTest, DatabaseNumThreadsKnobIsTransparent) {
  // Same shape at the multi-attribute conjunction layer.
  auto build = [&](StorageManager* storage, size_t threads) {
    Database::Options options;
    options.capacity = 2048;
    options.num_threads = threads;
    options.attributes.resize(2);
    options.attributes[0].name = "a";
    options.attributes[1].name = "b";
    auto db = Database::Create(storage, "db", options);
    EXPECT_TRUE(db.ok());
    Rng rng(77);
    for (int i = 0; i < 400; ++i) {
      ElementSet a = rng.SampleWithoutReplacement(300, 6);
      ElementSet b = rng.SampleWithoutReplacement(300, 6);
      EXPECT_TRUE((*db)->Insert({a, b}).ok());
    }
    return std::move(*db);
  };
  StorageManager serial_storage, parallel_storage;
  std::unique_ptr<Database> serial = build(&serial_storage, 1);
  std::unique_ptr<Database> parallel = build(&parallel_storage, 4);

  Rng rng(1313);
  for (int c = 0; c < 40; ++c) {
    std::vector<SetPredicate> predicates;
    predicates.push_back(
        {"a", QueryKind::kSuperset, rng.SampleWithoutReplacement(300, 2)});
    predicates.push_back(
        {"b", QueryKind::kOverlaps, rng.SampleWithoutReplacement(300, 3)});
    auto rs = serial->Query(predicates);
    auto rp = parallel->Query(predicates);
    ASSERT_TRUE(rs.ok());
    ASSERT_TRUE(rp.ok());
    EXPECT_EQ(rp->oids, rs->oids) << "case " << c;
    EXPECT_EQ(rp->num_candidates, rs->num_candidates);
    EXPECT_EQ(rp->num_false_drops, rs->num_false_drops);
    EXPECT_EQ(rp->driver, rs->driver);
    EXPECT_EQ(rp->page_accesses, rs->page_accesses) << "case " << c;
  }
}

}  // namespace
}  // namespace sigsetdb
