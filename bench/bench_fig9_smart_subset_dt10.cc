// Figure 9 — smart retrieval cost for T ⊆ Q, Dt = 10.
//
// Under the partial slice-scan strategy (§5.2.2) the BSSF cost is constant
// for Dq ≤ Dq_opt, far below NIX.  Series: BSSF F=250 m=2 and F=500 m=2
// (smart), NIX.  `meas` runs the real F=500 structure with the smart
// executor, scanning the model-chosen number of slices.

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
  const int64_t dt = 10;

  BenchDb::Options options;
  options.dt = dt;
  options.sig = {500, 2};
  options.build_ssf = false;
  options.build_nix = false;
  BenchDb bench(options);
  const int kTrials = 3;

  TablePrinter table({"Dq", "BSSF F=250 smart", "BSSF F=500 smart", "NIX",
                      "s(F=500)", "BSSF500 meas"});
  for (int64_t dq : {10, 20, 50, 100, 200, 300, 500, 1000}) {
    int64_t s250 = 0, s500 = 0;
    double b250 = BssfSmartSubsetCost(db, {250, 2}, dt, dq, &s250);
    double b500 = BssfSmartSubsetCost(db, {500, 2}, dt, dq, &s500);
    double n_cost = NixRetrievalSubset(db, nix, dt, dq);
    MeasuredCost meas = bench.Measure(&bench.bssf(), QueryKind::kSubset, dq,
                                      kTrials, 1100 + dq,
                                      static_cast<size_t>(s500));
    EmitBenchRecord("bssf.smart_subset",
                    {{"dq", static_cast<double>(dq)},
                     {"f", 500},
                     {"m", 2},
                     {"s", static_cast<double>(s500)}},
                    meas, b500);
    table.AddRow({TablePrinter::Int(dq), TablePrinter::Num(b250),
                  TablePrinter::Num(b500), TablePrinter::Num(n_cost),
                  TablePrinter::Int(s500), TablePrinter::Num(meas.pages)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check (paper): BSSF cost constant for Dq <= Dq_opt (~%.0f) "
      "and far below NIX for probable Dq.\n",
      BssfDqOpt(db, {500, 2}, dt));
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) {
  sigsetdb::BenchJson::Global().Init("fig9", argc, argv);
  sigsetdb::PrintBenchHeader("Figure 9",
                             "smart retrieval cost for T ⊆ Q (Dt=10)");
  sigsetdb::Run();
  return 0;
}
