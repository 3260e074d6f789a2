// Ablation — partial slice scan for T ⊆ Q: cost as a function of s.
//
// For a fixed Dq, sweeps the number of zero slices scanned (s) and prints
// the model decomposition (slice reads vs. resolution cost) next to the
// measured totals.  Reproduces the reasoning behind Appendix C: beyond a
// modest s the false drops are already gone and additional slices are
// wasted reads.

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "model/actual_drops.h"
#include "model/cost_bssf.h"
#include "model/cost_ssf.h"
#include "model/false_drop.h"
#include "sig/signature.h"
#include "util/table_printer.h"

namespace sigsetdb {
namespace {

// s = 0 reads no slice, so every object is a candidate.  A zero smart
// parameter selects the plain full zero-slice scan instead, so this row runs
// the scan and resolution steps directly.
double MeasureNoSlices(BenchDb& bench, int64_t dq, int trials, uint64_t seed) {
  BitSlicedSignatureFile& bssf = bench.bssf();
  auto run = [&](const ElementSet& query) {
    std::vector<uint64_t> slots = ValueOrDie(
        bssf.SubsetCandidateSlots(MakeSetSignature(query, bssf.config()), 0),
        "slice scan");
    CandidateResult candidates;
    candidates.oids = ValueOrDie(bssf.ResolveSlots(slots), "oid lookup");
    const SetPredicate pred{"", QueryKind::kSubset, query};
    const size_t attr = 0;
    CheckOk(ResolveCandidates(candidates, bench.store(), {&pred, 1},
                              {&attr, 1}, /*driver=*/0, nullptr, nullptr)
                .status(),
            "resolution");
  };
  return bench.MeasureLoop(dq, trials, seed, run).pages;
}

void Run() {
  const DatabaseParams db;
  const int64_t dt = 10;
  const int64_t dq = 100;
  const SignatureParams sig{500, 2};

  BenchDb::Options options;
  options.dt = dt;
  options.sig = {500, 2};
  options.build_ssf = false;
  options.build_nix = false;
  BenchDb bench(options);
  const int kTrials = 3;

  double a = ActualDropsSubset(db, dt, dq);
  TablePrinter table({"s", "Fd(s)", "resolution", "RC model", "RC meas"});
  for (int64_t s : {0, 25, 50, 75, 100, 150, 200, 250, 300, 335}) {
    double fd = FalseDropSubsetPartial(sig, dt, static_cast<double>(s));
    double resolution = OidLookupCost(db, fd, a) + db.p_s * a +
                        db.p_u * fd * (static_cast<double>(db.n) - a);
    double rc = static_cast<double>(s) + resolution;
    double meas = s > 0 ? bench.MeasureMean(&bench.bssf(), QueryKind::kSubset,
                                            dq, kTrials, 1500 + s,
                                            static_cast<size_t>(s))
                        : MeasureNoSlices(bench, dq, kTrials, 1500);
    table.AddRow({TablePrinter::Int(s), TablePrinter::Num(fd, 6),
                  TablePrinter::Num(resolution), TablePrinter::Num(rc),
                  TablePrinter::Num(meas)});
  }
  table.Print(std::cout);
  int64_t best_s = 0;
  double best = BssfSmartSubsetCost(db, sig, dt, dq, &best_s);
  std::printf("\nModel optimum: s=%lld at %.1f pages (full zero-slice scan "
              "would read %.0f slices).\n",
              static_cast<long long>(best_s), best,
              static_cast<double>(sig.f) - ExpectedSignatureWeight(sig, dq));
}

}  // namespace
}  // namespace sigsetdb

int main() {
  sigsetdb::PrintBenchHeader(
      "Ablation", "partial slice scan for T ⊆ Q (Dt=10, Dq=100, F=500, m=2)");
  sigsetdb::Run();
  return 0;
}
