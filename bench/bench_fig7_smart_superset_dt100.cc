// Figure 7 — smart retrieval cost for T ⊇ Q, Dt = 100.
//
// Series: BSSF F=1000 m=2 and F=2500 m=3 under the smart k-element
// strategy, versus smart NIX.  The `meas` column runs the real F=2500
// structure at full scale (the heavier of the paper's two Dt=100 configs).

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
  BenchDb bench(options);
  const int kTrials = 5;

  TablePrinter table({"Dq", "BSSF F=1000 m=2", "BSSF F=2500 m=3", "NIX",
                      "k(bssf2500)", "k(nix)", "BSSF2500 meas", "NIX meas"});
  for (int64_t dq = 1; dq <= 10; ++dq) {
    int64_t k1000 = 0, k2500 = 0, knix = 0;
    double b1000 = BssfSmartSupersetCost(db, {1000, 2}, dt, dq, &k1000);
    double b2500 = BssfSmartSupersetCost(db, {2500, 3}, dt, dq, &k2500);
    double n_cost = NixSmartSupersetCost(db, nix, dt, dq, &knix);
    MeasuredCost b_meas = bench.Measure(&bench.bssf(), QueryKind::kSuperset,
                                        dq, kTrials, 800 + dq,
                                        static_cast<size_t>(k2500));
    MeasuredCost n_meas = bench.Measure(&bench.nix(), QueryKind::kSuperset,
                                        dq, kTrials, 900 + dq,
                                        static_cast<size_t>(knix));
    const double fdq = static_cast<double>(dq);
    EmitBenchRecord("bssf.smart_superset",
                    {{"dq", fdq},
                     {"f", 2500},
                     {"m", 3},
                     {"k", static_cast<double>(k2500)}},
                    b_meas, b2500);
    EmitBenchRecord("nix.smart_superset",
                    {{"dq", fdq}, {"k", static_cast<double>(knix)}}, n_meas,
                    n_cost);
    table.AddRow({TablePrinter::Int(dq), TablePrinter::Num(b1000),
                  TablePrinter::Num(b2500), TablePrinter::Num(n_cost),
                  TablePrinter::Int(k2500), TablePrinter::Int(knix),
                  TablePrinter::Num(b_meas.pages),
                  TablePrinter::Num(n_meas.pages)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check (paper): NIX has the advantage only at Dq=1; BSSF is "
      "almost equal or lower for Dq >= 3.\n");
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) {
  sigsetdb::BenchJson::Global().Init("fig7", argc, argv);
  sigsetdb::PrintBenchHeader("Figure 7",
                             "smart retrieval cost for T ⊇ Q (Dt=100)");
  sigsetdb::Run();
  return 0;
}
