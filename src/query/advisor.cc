#include "query/advisor.h"

#include <algorithm>

#include "model/cost_breakdown.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"
#include "model/false_drop.h"

namespace sigsetdb {

const char* PathFacilityName(PathFacility facility) {
  switch (facility) {
    case PathFacility::kSsf:
      return "ssf";
    case PathFacility::kBssf:
      return "bssf";
    case PathFacility::kNix:
      break;
  }
  return "nix";
}

RankedPaths RankAccessPaths(const QueryTerms& terms,
                            std::span<const double> partial,
                            const DatabaseParams& db,
                            const SignatureParams& sig, const NixParams& nix,
                            int64_t dt, bool allow_smart) {
  const PageTerms p = MakePageTerms(db);
  const double sc_sig = static_cast<double>(SsfSignaturePages(db, sig));
  const double rc = static_cast<double>(NixLookupCost(db, nix, dt));
  const double f_bits = static_cast<double>(sig.f);
  const FilterTerms& f = terms.at_dq();
  const int64_t dq = terms.dq;
  RankedPaths ranked;
  auto add = [&](PathFacility facility, double cost, bool smart = false,
                 int64_t param = 0) {
    ranked.paths[ranked.size++] = {facility, smart, param, cost};
  };
  switch (terms.kind) {
    case QueryKind::kEquals:
      // §6-extension operators (model/cost_ext.h); no smart variants.
      add(PathFacility::kSsf, PriceSsfExt(p, sc_sig, f));
      add(PathFacility::kBssf, PriceBssfEquals(p, f_bits, f));
      add(PathFacility::kNix, PriceNix(p, rc, dq, terms.nix_ratio));
      break;
    case QueryKind::kOverlaps:
      add(PathFacility::kSsf, PriceSsfExt(p, sc_sig, f));
      add(PathFacility::kBssf,
          PriceBssfOverlap(p, static_cast<double>(sig.m), dq, f));
      add(PathFacility::kNix, PriceNix(p, rc, dq, f.drop_ratio));
      break;
    case QueryKind::kSuperset:
      add(PathFacility::kSsf, PriceSsf(p, sc_sig, f));
      add(PathFacility::kBssf, PriceBssfSuperset(p, f));
      add(PathFacility::kNix, PriceNix(p, rc, dq, f.drop_ratio));
      if (allow_smart) {
        int64_t k = 0;
        double cost = PriceBssfSmartSuperset(p, terms.filters, &k);
        add(PathFacility::kBssf, cost, /*smart=*/true, k);
        cost = PriceNixSmartSuperset(p, rc, terms.filters, &k);
        add(PathFacility::kNix, cost, /*smart=*/true, k);
      }
      break;
    default:
      add(PathFacility::kSsf, PriceSsf(p, sc_sig, f));
      add(PathFacility::kBssf, PriceBssfSubset(p, f_bits, f));
      add(PathFacility::kNix,
          PriceNixSubset(p, rc, dq, terms.nix_ratio, f.drop_ratio));
      if (allow_smart) {
        int64_t s = 0;
        const double cost = PriceBssfSmartSubset(p, f_bits, f, partial, &s);
        add(PathFacility::kBssf, cost, /*smart=*/true, s);
      }
      break;
  }
  // Insertion sort, stable on ties.  A stable sort's order is unique under
  // a strict weak order, so this is std::stable_sort's order without its
  // temporary buffer.
  for (size_t i = 1; i < ranked.size; ++i) {
    const PricedPath path = ranked.paths[i];
    size_t j = i;
    for (; j > 0 && path.cost < ranked.paths[j - 1].cost; --j) {
      ranked.paths[j] = ranked.paths[j - 1];
    }
    ranked.paths[j] = path;
  }
  return ranked;
}

AccessPathChoice ChoiceFor(const PricedPath& path, QueryKind kind) {
  AccessPathChoice choice{PathFacilityName(path.facility), "plain",
                          path.cost, path.param};
  if (path.smart) {
    choice.strategy = (kind == QueryKind::kSuperset ? "smart(k=" : "smart(s=") +
                      std::to_string(path.param) + ")";
  }
  return choice;
}

CostBreakdown BreakdownFromTerms(const QueryTerms& terms,
                                 std::span<const double> partial,
                                 const DatabaseParams& db,
                                 const SignatureParams& sig,
                                 const NixParams& nix, int64_t dt,
                                 const AccessPathChoice& choice) {
  const bool superset = terms.kind == QueryKind::kSuperset;
  if (!superset && terms.kind != QueryKind::kSubset) return {};
  const bool smart = choice.strategy.rfind("smart", 0) == 0;
  const int64_t dq = terms.dq;
  // A smart ⊇ plan filters on k of the Dq query elements.
  const int64_t k = superset && smart ? choice.param : dq;
  if (k < 1 || k > dq) return {};
  const FilterTerms& f = terms.at_dq();
  const PageTerms p = MakePageTerms(db);
  if (choice.facility == "ssf") {
    return SsfBreakdownOf(p, static_cast<double>(SsfSignaturePages(db, sig)),
                          f);
  }
  if (choice.facility == "bssf") {
    if (superset) {
      return BssfSupersetBreakdownOf(
          p, terms.filters[static_cast<size_t>(k - 1)], f.drop_ratio);
    }
    const int64_t s = smart ? choice.param : -1;
    double partial_s = 0.0;
    if (s >= 0) {
      partial_s = static_cast<size_t>(s) < partial.size()
                      ? partial[static_cast<size_t>(s)]
                      : FalseDropSubsetPartial(sig, dt,
                                               static_cast<double>(s));
    }
    return BssfSubsetBreakdownOf(p, static_cast<double>(sig.f), f, s,
                                 partial_s);
  }
  const double rc = static_cast<double>(NixLookupCost(db, nix, dt));
  if (superset) {
    return NixSupersetBreakdownOf(
        p, rc, k, terms.filters[static_cast<size_t>(k - 1)].drop_ratio,
        f.drop_ratio);
  }
  return NixSubsetBreakdownOf(p, rc, dq, terms.nix_ratio, f.drop_ratio);
}

CostBreakdown BreakdownForChoice(const DatabaseParams& db,
                                 const SignatureParams& sig,
                                 const NixParams& nix, int64_t dt, int64_t dq,
                                 QueryKind kind,
                                 const AccessPathChoice& choice) {
  kind = CandidateKind(kind);
  if (dq < 1) return {};
  if (kind != QueryKind::kSuperset && kind != QueryKind::kSubset) return {};
  return BreakdownFromTerms(MakeQueryTerms(sig, db.v, dt, kind, dq), {}, db,
                            sig, nix, dt, choice);
}

StatusOr<std::vector<AccessPathChoice>> AdviseAccessPaths(
    const DatabaseParams& db, const SignatureParams& sig,
    const NixParams& nix, int64_t dt, int64_t dq, QueryKind kind,
    bool allow_smart) {
  return AdviseAccessPaths(db, sig, nix, dt, dq, kind, allow_smart,
                           AdvisorFeedback{});
}

AdvisorFeedback AdvisorFeedback::FromRegistry(const MetricsRegistry& registry) {
  AdvisorFeedback fb;
  uint64_t candidates = 0, false_drops = 0;
  for (const char* facility : {"ssf", "bssf", "nix"}) {
    const std::string prefix = std::string("query.") + facility;
    candidates += registry.CounterValue(prefix + ".candidates");
    false_drops += registry.CounterValue(prefix + ".false_drops");
  }
  if (candidates > 0) {
    fb.false_drop_rate =
        static_cast<double>(false_drops) / static_cast<double>(candidates);
  }
  const uint64_t hits = registry.CounterValue("buffer.hits");
  const uint64_t misses = registry.CounterValue("buffer.misses");
  if (hits + misses > 0) {
    fb.buffer_hit_rate =
        static_cast<double>(hits) / static_cast<double>(hits + misses);
  }
  return fb;
}

StatusOr<std::vector<AccessPathChoice>> AdviseAccessPaths(
    const DatabaseParams& db, const SignatureParams& sig,
    const NixParams& nix, int64_t dt, int64_t dq, QueryKind kind,
    bool allow_smart, const AdvisorFeedback& feedback) {
  if (dq < 1) return Status::InvalidArgument("Dq must be >= 1");
  // Proper variants share their non-strict candidate costs.
  kind = CandidateKind(kind);
  const QueryTerms terms = MakeQueryTerms(sig, db.v, dt, kind, dq);
  const std::vector<double> partial = kind == QueryKind::kSubset && allow_smart
                                          ? PartialScanTable(sig, dt)
                                          : std::vector<double>{};
  std::vector<AccessPathChoice> choices;
  for (const PricedPath& path :
       RankAccessPaths(terms, partial, db, sig, nix, dt, allow_smart)) {
    choices.push_back(ChoiceFor(path, kind));
  }
  if (feedback.empty()) return choices;

  for (AccessPathChoice& choice : choices) {
    if (feedback.false_drop_rate >= 0) {
      const CostBreakdown bd =
          BreakdownFromTerms(terms, partial, db, sig, nix, dt, choice);
      // Exact candidate sets (expected_false_drops == 0) cannot false-drop
      // regardless of the workload; only inexact filters are re-priced.
      if (bd.expected_false_drops > 0) {
        const double r = std::min(feedback.false_drop_rate, 0.99);
        const double answers =
            bd.expected_candidates - bd.expected_false_drops;
        const double observed_candidates = answers / (1.0 - r);
        // Surplus candidates fail resolution: one unqualifying fetch each.
        choice.cost_pages +=
            db.p_u * (observed_candidates - bd.expected_candidates);
      }
    }
    if (feedback.buffer_hit_rate >= 0) {
      choice.cost_pages *=
          1.0 - std::min(std::max(feedback.buffer_hit_rate, 0.0), 1.0);
    }
  }
  std::stable_sort(choices.begin(), choices.end(),
                   [](const AccessPathChoice& a, const AccessPathChoice& b) {
                     return a.cost_pages < b.cost_pages;
                   });
  return choices;
}

StatusOr<AccessPathChoice> BestAccessPath(const DatabaseParams& db,
                                          const SignatureParams& sig,
                                          const NixParams& nix, int64_t dt,
                                          int64_t dq, QueryKind kind,
                                          bool allow_smart) {
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<AccessPathChoice> choices,
      AdviseAccessPaths(db, sig, nix, dt, dq, kind, allow_smart));
  return choices.front();
}

// --- set-containment joins (R ⋈⊆ S) ---------------------------------------

StatusOr<std::vector<JoinStrategyChoice>> AdviseJoinStrategies(
    const DatabaseParams& db_r, int64_t dt_r, const DatabaseParams& db_s,
    int64_t dt_s, const SignatureParams& sig, const NixParams& nix) {
  if (dt_r < 1) dt_r = 1;
  if (dt_s < 1) dt_s = 1;
  // One nested-loop probe is exactly the selection the executor would run
  // for query cardinality Dq = dt_r against S.
  SIGSET_ASSIGN_OR_RETURN(
      AccessPathChoice probe,
      BestAccessPath(db_s, sig, nix, dt_s, dt_r, QueryKind::kSuperset,
                     /*allow_smart=*/true));
  const CostBreakdown probe_bd = BreakdownForChoice(
      db_s, sig, nix, dt_s, dt_r, QueryKind::kSuperset, probe);

  std::vector<JoinStrategyChoice> choices;
  const auto add = [&](JoinStrategy strategy, const JoinCostBreakdown& bd) {
    choices.push_back({strategy, JoinStrategyName(strategy), bd.total(),
                       bd.expected_candidate_pairs,
                       bd.expected_result_pairs});
  };
  add(JoinStrategy::kSignatureHash,
      JoinSignatureHashCost(db_r, dt_r, db_s, dt_s, sig));
  add(JoinStrategy::kAdaptive,
      JoinAdaptiveCost(db_r, dt_r, db_s, dt_s, sig));
  add(JoinStrategy::kNestedLoop,
      JoinNestedLoopCost(db_r, dt_r, db_s, dt_s, probe.cost_pages,
                         probe_bd.expected_candidates));
  std::stable_sort(choices.begin(), choices.end(),
                   [](const JoinStrategyChoice& a,
                      const JoinStrategyChoice& b) {
                     return a.cost_pages < b.cost_pages;
                   });
  return choices;
}

StatusOr<JoinStrategyChoice> BestJoinStrategy(const DatabaseParams& db_r,
                                              int64_t dt_r,
                                              const DatabaseParams& db_s,
                                              int64_t dt_s,
                                              const SignatureParams& sig,
                                              const NixParams& nix) {
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<JoinStrategyChoice> choices,
      AdviseJoinStrategies(db_r, dt_r, db_s, dt_s, sig, nix));
  return choices.front();
}

StatusOr<JoinCostBreakdown> BreakdownForJoinStrategy(
    const DatabaseParams& db_r, int64_t dt_r, const DatabaseParams& db_s,
    int64_t dt_s, const SignatureParams& sig, const NixParams& nix,
    JoinStrategy strategy) {
  if (dt_r < 1) dt_r = 1;
  if (dt_s < 1) dt_s = 1;
  switch (strategy) {
    case JoinStrategy::kSignatureHash:
      return JoinSignatureHashCost(db_r, dt_r, db_s, dt_s, sig);
    case JoinStrategy::kAdaptive:
      return JoinAdaptiveCost(db_r, dt_r, db_s, dt_s, sig);
    case JoinStrategy::kNestedLoop: {
      SIGSET_ASSIGN_OR_RETURN(
          AccessPathChoice probe,
          BestAccessPath(db_s, sig, nix, dt_s, dt_r, QueryKind::kSuperset,
                         /*allow_smart=*/true));
      const CostBreakdown probe_bd = BreakdownForChoice(
          db_s, sig, nix, dt_s, dt_r, QueryKind::kSuperset, probe);
      return JoinNestedLoopCost(db_r, dt_r, db_s, dt_s, probe.cost_pages,
                                probe_bd.expected_candidates);
    }
    case JoinStrategy::kAuto:
      break;
  }
  return Status::InvalidArgument(
      "kAuto has no breakdown; resolve the strategy first");
}

}  // namespace sigsetdb
