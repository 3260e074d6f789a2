// Figure 10 — smart retrieval cost for T ⊆ Q, Dt = 100.
//
// Series: BSSF F=1000 m=2 and F=2500 m=3 under the partial slice-scan
// strategy, versus NIX.  Dq sweeps from Dt (=100) upward.  `meas` runs the
// real F=2500 structure with the smart executor at full scale.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "model/cost_bssf.h"
#include "model/cost_nix.h"
#include "util/table_printer.h"

namespace sigsetdb {
namespace {

void Run() {
  const DatabaseParams db;
  const NixParams nix;
  const int64_t dt = 100;

  BenchDb::Options options;
  options.dt = dt;
  options.sig = {2500, 3};
  options.build_ssf = false;
  options.build_nix = false;
  BenchDb bench(options);
  const int kTrials = 3;

  TablePrinter table({"Dq", "BSSF F=1000 m=2", "BSSF F=2500 m=3", "NIX",
                      "s(F=2500)", "BSSF2500 meas"});
  for (int64_t dq : {100, 200, 300, 500, 700, 1000, 2000}) {
    int64_t s1000 = 0, s2500 = 0;
    double b1000 = BssfSmartSubsetCost(db, {1000, 2}, dt, dq, &s1000);
    double b2500 = BssfSmartSubsetCost(db, {2500, 3}, dt, dq, &s2500);
    double n_cost = NixRetrievalSubset(db, nix, dt, dq);
    MeasuredCost meas = bench.Measure(&bench.bssf(), QueryKind::kSubset, dq,
                                      kTrials, 1200 + dq,
                                      static_cast<size_t>(s2500));
    EmitBenchRecord("bssf.smart_subset",
                    {{"dq", static_cast<double>(dq)},
                     {"f", 2500},
                     {"m", 3},
                     {"s", static_cast<double>(s2500)}},
                    meas, b2500);
    table.AddRow({TablePrinter::Int(dq), TablePrinter::Num(b1000),
                  TablePrinter::Num(b2500), TablePrinter::Num(n_cost),
                  TablePrinter::Int(s2500), TablePrinter::Num(meas.pages)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check (paper): BSSF constant for Dq <= Dq_opt (~%.0f for "
      "F=2500 m=3) and well below NIX throughout.\n",
      BssfDqOpt(db, {2500, 3}, dt));
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) {
  sigsetdb::BenchJson::Global().Init("fig10", argc, argv);
  sigsetdb::PrintBenchHeader("Figure 10",
                             "smart retrieval cost for T ⊆ Q (Dt=100)");
  sigsetdb::Run();
  return 0;
}
