#include "query/advisor.h"

#include <gtest/gtest.h>

#include <cstring>

#include "model/cost_bssf.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"

namespace sigsetdb {
namespace {

DatabaseParams Paper() { return DatabaseParams{}; }

TEST(AdvisorTest, RanksAscendingByCost) {
  auto choices = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 3,
                                   QueryKind::kSuperset, true);
  ASSERT_TRUE(choices.ok());
  ASSERT_GE(choices->size(), 3u);
  for (size_t i = 1; i < choices->size(); ++i) {
    EXPECT_LE((*choices)[i - 1].cost_pages, (*choices)[i].cost_pages);
  }
}

TEST(AdvisorTest, NixWinsSingleElementSuperset) {
  // Paper §6: "for Dq = 1, NIX is more efficient than BSSF in all cases."
  auto best = BestAccessPath(Paper(), {500, 2}, NixParams{}, 10, 1,
                             QueryKind::kSuperset, true);
  ASSERT_TRUE(best.ok());
  EXPECT_EQ(best->facility, "nix");
}

TEST(AdvisorTest, BssfWinsSubsetQueries) {
  // Paper §6: "For the query T ⊆ Q, BSSF ... overwhelms NIX."
  for (int64_t dq : {20, 50, 100, 300}) {
    auto best = BestAccessPath(Paper(), {500, 2}, NixParams{}, 10, dq,
                               QueryKind::kSubset, true);
    ASSERT_TRUE(best.ok());
    EXPECT_EQ(best->facility, "bssf") << "dq=" << dq;
  }
}

TEST(AdvisorTest, SsfNeverWinsRetrieval) {
  // SSF's full scan dominates; it should never be the best retrieval plan
  // at the paper's operating points.
  for (int64_t dq : {1, 2, 5, 10}) {
    auto best = BestAccessPath(Paper(), {250, 2}, NixParams{}, 10, dq,
                               QueryKind::kSuperset, true);
    ASSERT_TRUE(best.ok());
    EXPECT_NE(best->facility, "ssf") << "dq=" << dq;
  }
}

TEST(AdvisorTest, SmartStrategiesOnlyWhenRequested) {
  auto plain = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 5,
                                 QueryKind::kSuperset, false);
  ASSERT_TRUE(plain.ok());
  for (const auto& c : *plain) EXPECT_EQ(c.strategy, "plain");
  auto smart = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 5,
                                 QueryKind::kSuperset, true);
  ASSERT_TRUE(smart.ok());
  bool has_smart = false;
  for (const auto& c : *smart) {
    if (c.strategy.rfind("smart", 0) == 0) has_smart = true;
  }
  EXPECT_TRUE(has_smart);
}

TEST(AdvisorTest, CostsMatchModelFunctions) {
  DatabaseParams db = Paper();
  SignatureParams sig{500, 2};
  NixParams nix;
  auto choices =
      AdviseAccessPaths(db, sig, nix, 10, 4, QueryKind::kSuperset, false);
  ASSERT_TRUE(choices.ok());
  for (const auto& c : *choices) {
    if (c.facility == "ssf") {
      EXPECT_DOUBLE_EQ(c.cost_pages,
                       SsfRetrievalCost(db, sig, 10, 4, QueryKind::kSuperset));
    } else if (c.facility == "bssf") {
      EXPECT_DOUBLE_EQ(c.cost_pages, BssfRetrievalSuperset(db, sig, 10, 4));
    } else {
      EXPECT_DOUBLE_EQ(c.cost_pages, NixRetrievalSuperset(db, nix, 10, 4));
    }
  }
}

TEST(AdvisorTest, RejectsEmptyQueries) {
  EXPECT_EQ(AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 0,
                              QueryKind::kSuperset, true)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(AdvisorTest, ExtensionOperatorsPriced) {
  // Equality: NIX's Dq intersections beat BSSF's all-F slice scan at the
  // paper's parameters; SSF's full scan never wins.
  auto eq = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 10,
                              QueryKind::kEquals, true);
  ASSERT_TRUE(eq.ok());
  EXPECT_EQ((*eq)[0].facility, "nix");
  // Overlap: the NIX union is exact, but fetching every overlapping object
  // (A ≈ N·Dq·Dt/V) dominates; BSSF pays the same fetches plus m·Dq slice
  // reads, so NIX should rank first among the three.
  auto ov = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 5,
                              QueryKind::kOverlaps, true);
  ASSERT_TRUE(ov.ok());
  EXPECT_EQ((*ov)[0].facility, "nix");
  for (const auto& c : *ov) EXPECT_GT(c.cost_pages, 0.0);
}

TEST(AdvisorTest, ProperVariantsPriceLikeNonStrict) {
  auto strict = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 3,
                                  QueryKind::kProperSuperset, true);
  auto plain = AdviseAccessPaths(Paper(), {500, 2}, NixParams{}, 10, 3,
                                 QueryKind::kSuperset, true);
  ASSERT_TRUE(strict.ok());
  ASSERT_TRUE(plain.ok());
  ASSERT_EQ(strict->size(), plain->size());
  for (size_t i = 0; i < strict->size(); ++i) {
    EXPECT_DOUBLE_EQ((*strict)[i].cost_pages, (*plain)[i].cost_pages);
  }
}

TEST(AdvisorTest, SmartBssfCompetitiveForMultiElementSuperset) {
  // The paper's headline conclusion, as the advisor sees it: with smart
  // strategies enabled, BSSF is within a whisker of the winner for
  // Dq >= 2 superset queries.
  for (int64_t dq = 2; dq <= 10; ++dq) {
    auto choices = AdviseAccessPaths(Paper(), {250, 2}, NixParams{}, 10, dq,
                                     QueryKind::kSuperset, true);
    ASSERT_TRUE(choices.ok());
    double best = (*choices)[0].cost_pages;
    double bssf_best = 1e18;
    for (const auto& c : *choices) {
      if (c.facility == "bssf") bssf_best = std::min(bssf_best, c.cost_pages);
    }
    EXPECT_LE(bssf_best, best * 1.1) << "dq=" << dq;
  }
}

// FNV-1a over the bytes of every advised path and its breakdown.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 1099511628211ull;
    }
  }
  void String(const std::string& s) { Bytes(s.data(), s.size() + 1); }
  void Int(int64_t v) { Bytes(&v, sizeof v); }
  void Double(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    Bytes(&bits, sizeof bits);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

// Folds every path AdviseAccessPaths returns (facility, strategy, param and
// the cost's bits, in rank order) and every field of its BreakdownForChoice.
void HashAdvice(const DatabaseParams& db, const SignatureParams& sig,
                int64_t dt, int64_t dq, QueryKind kind, bool smart,
                Fnv1a* h) {
  const NixParams nix;
  auto choices = AdviseAccessPaths(db, sig, nix, dt, dq, kind, smart);
  ASSERT_TRUE(choices.ok()) << choices.status().ToString();
  h->Int(static_cast<int64_t>(choices->size()));
  for (const AccessPathChoice& c : *choices) {
    h->String(c.facility);
    h->String(c.strategy);
    h->Int(c.param);
    h->Double(c.cost_pages);
    const CostBreakdown bd =
        BreakdownForChoice(db, sig, nix, dt, dq, kind, c);
    for (double field : {bd.candidate_selection, bd.oid_lookup, bd.resolution,
                         bd.expected_candidates, bd.expected_false_drops}) {
      h->Double(field);
    }
  }
}

// Pins every advised plan and cost bit for bit across the model's corners:
// all six kinds, Dq 1-64 and 100-400, smart on and off, two domains, four
// target cardinalities and N at the page-count edges (O_d = 512 OIDs per
// page, P·b = 32,768 bits per slice page); then 300 consecutive N around
// the Table-2 database, which is how a live store's statistics move.
TEST(AdvisorPinTest, PlansAndCostsAreBitIdentical) {
  const SignatureParams sig{250, 2};
  std::vector<int64_t> dqs;
  for (int64_t dq = 1; dq <= 64; ++dq) dqs.push_back(dq);
  for (int64_t dq : {100, 200, 399, 400}) dqs.push_back(dq);
  Fnv1a h;
  for (int64_t v : {500, 13000}) {
    for (int64_t dt : {1, 4, 5, 10}) {
      for (int64_t n :
           {1, 2, 511, 512, 513, 32767, 32768, 32769, 100000}) {
        DatabaseParams db;
        db.n = n;
        db.v = v;
        for (QueryKind kind :
             {QueryKind::kSuperset, QueryKind::kSubset,
              QueryKind::kProperSuperset, QueryKind::kProperSubset,
              QueryKind::kEquals, QueryKind::kOverlaps}) {
          for (int64_t dq : dqs) {
            for (bool smart : {false, true}) {
              HashAdvice(db, sig, dt, dq, kind, smart, &h);
            }
          }
        }
      }
    }
  }
  for (int64_t n = 31850; n < 32150; ++n) {
    DatabaseParams db;
    db.n = n;
    for (QueryKind kind : {QueryKind::kSuperset, QueryKind::kSubset}) {
      for (int64_t dq : {1, 2, 3, 20, 200}) {
        HashAdvice(db, sig, 10, dq, kind, /*smart=*/true, &h);
      }
    }
  }
  EXPECT_EQ(h.hash(), 0x0bc5089abb472301ull) << std::hex << h.hash();
}

// --- set-containment join strategies ---------------------------------------

TEST(JoinAdvisorTest, RanksThreeConcreteStrategiesAscending) {
  DatabaseParams db_r = Paper();
  DatabaseParams db_s = Paper();
  auto choices =
      AdviseJoinStrategies(db_r, 4, db_s, 10, {250, 2}, NixParams{});
  ASSERT_TRUE(choices.ok());
  ASSERT_EQ(choices->size(), 3u);
  for (size_t i = 1; i < choices->size(); ++i) {
    EXPECT_LE((*choices)[i - 1].cost_pages, (*choices)[i].cost_pages);
  }
  // All three concrete strategies are present, never kAuto.
  bool saw_nl = false, saw_sh = false, saw_ad = false;
  for (const JoinStrategyChoice& c : *choices) {
    EXPECT_NE(c.strategy, JoinStrategy::kAuto);
    EXPECT_GT(c.cost_pages, 0.0) << c.name;
    saw_nl = saw_nl || c.strategy == JoinStrategy::kNestedLoop;
    saw_sh = saw_sh || c.strategy == JoinStrategy::kSignatureHash;
    saw_ad = saw_ad || c.strategy == JoinStrategy::kAdaptive;
  }
  EXPECT_TRUE(saw_nl && saw_sh && saw_ad);
}

TEST(JoinAdvisorTest, SigHashPrecedesIdenticallyPricedAdaptive) {
  // Adaptive is priced as sig-hash; the stable sort must keep the plain
  // method ahead on the tie (no per-partition overhead).
  auto choices = AdviseJoinStrategies(Paper(), 4, Paper(), 10, {250, 2},
                                      NixParams{});
  ASSERT_TRUE(choices.ok());
  size_t sh = 99, ad = 99;
  for (size_t i = 0; i < choices->size(); ++i) {
    if ((*choices)[i].strategy == JoinStrategy::kSignatureHash) sh = i;
    if ((*choices)[i].strategy == JoinStrategy::kAdaptive) ad = i;
  }
  EXPECT_DOUBLE_EQ((*choices)[sh].cost_pages, (*choices)[ad].cost_pages);
  EXPECT_LT(sh, ad);
}

// The crossover the model predicts: nested-loop-of-selections wins while
// |R| · RC_sel(S) < scan(R) + scan(S), i.e. for SMALL outer relations; once
// |R| grows past the crossover the single S scan of sig-hash is cheaper.
// Pin both regimes and the transition's monotonicity.
TEST(JoinAdvisorTest, NestedLoopWinsSmallOuterRelationsOnly) {
  DatabaseParams db_s = Paper();  // N = 1,000,000 paper-sized inner side
  const SignatureParams sig{250, 2};

  DatabaseParams tiny_r = db_s;
  tiny_r.n = 2;  // two probes against S beat scanning all of S
  auto tiny = BestJoinStrategy(tiny_r, 4, db_s, 10, sig, NixParams{});
  ASSERT_TRUE(tiny.ok());
  EXPECT_EQ(tiny->strategy, JoinStrategy::kNestedLoop);

  DatabaseParams big_r = db_s;
  big_r.n = 100000;  // 100k probes dwarf one S scan
  auto big = BestJoinStrategy(big_r, 4, db_s, 10, sig, NixParams{});
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big->strategy, JoinStrategy::kSignatureHash);

  // Monotone crossover: once sig-hash wins at n_r, it keeps winning for
  // every larger outer relation (nested-loop cost grows linearly in |R|
  // while the sig-hash S-scan term is constant).
  bool crossed = false;
  for (int64_t n_r : {2, 8, 32, 128, 512, 2048, 8192, 32768, 131072}) {
    DatabaseParams db_r = db_s;
    db_r.n = n_r;
    auto best = BestJoinStrategy(db_r, 4, db_s, 10, sig, NixParams{});
    ASSERT_TRUE(best.ok()) << n_r;
    const bool nl = best->strategy == JoinStrategy::kNestedLoop;
    if (crossed) {
      EXPECT_FALSE(nl) << "nested-loop re-won at n_r=" << n_r;
    }
    if (!nl) crossed = true;
  }
  EXPECT_TRUE(crossed);
}

TEST(JoinAdvisorTest, BreakdownMatchesRankedCostAndRejectsAuto) {
  const SignatureParams sig{250, 2};
  auto choices =
      AdviseJoinStrategies(Paper(), 4, Paper(), 10, sig, NixParams{});
  ASSERT_TRUE(choices.ok());
  for (const JoinStrategyChoice& c : *choices) {
    auto bd = BreakdownForJoinStrategy(Paper(), 4, Paper(), 10, sig,
                                       NixParams{}, c.strategy);
    ASSERT_TRUE(bd.ok()) << c.name;
    EXPECT_NEAR(bd->total(), c.cost_pages, 1e-9) << c.name;
    EXPECT_NEAR(bd->expected_candidate_pairs, c.candidate_pairs, 1e-9);
    EXPECT_NEAR(bd->expected_result_pairs, c.result_pairs, 1e-9);
  }
  EXPECT_EQ(BreakdownForJoinStrategy(Paper(), 4, Paper(), 10, sig,
                                     NixParams{}, JoinStrategy::kAuto)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace sigsetdb
