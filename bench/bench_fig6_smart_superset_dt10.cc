// Figure 6 — smart retrieval cost for T ⊇ Q, Dt = 10.
//
// Series: BSSF F=250 m=2 and F=500 m=2 under the smart k-element strategy,
// versus NIX under the smart 2-lookup strategy.  The `meas` columns run the
// real structures with the smart executors at full scale, choosing k from
// the model optimizer (the same rule §5.1.3 states: k = min(Dq, 2) for
// m = 2).

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
  options.sig = {250, 2};
  options.build_ssf = false;
  BenchDb bench(options);
  const int kTrials = 5;

  TablePrinter table({"Dq", "BSSF F=250", "BSSF F=500", "NIX", "k(bssf)",
                      "k(nix)", "BSSF250 meas", "NIX meas"});
  for (int64_t dq = 1; dq <= 10; ++dq) {
    int64_t k250 = 0, k500 = 0, knix = 0;
    double b250 = BssfSmartSupersetCost(db, {250, 2}, dt, dq, &k250);
    double b500 = BssfSmartSupersetCost(db, {500, 2}, dt, dq, &k500);
    double n_cost = NixSmartSupersetCost(db, nix, dt, dq, &knix);
    MeasuredCost b_meas = bench.Measure(&bench.bssf(), QueryKind::kSuperset,
                                        dq, kTrials, 600 + dq,
                                        static_cast<size_t>(k250));
    MeasuredCost n_meas = bench.Measure(&bench.nix(), QueryKind::kSuperset,
                                        dq, kTrials, 700 + dq,
                                        static_cast<size_t>(knix));
    const double fdq = static_cast<double>(dq);
    EmitBenchRecord("bssf.smart_superset",
                    {{"dq", fdq},
                     {"f", 250},
                     {"m", 2},
                     {"k", static_cast<double>(k250)}},
                    b_meas, b250);
    EmitBenchRecord("nix.smart_superset",
                    {{"dq", fdq}, {"k", static_cast<double>(knix)}}, n_meas,
                    n_cost);
    table.AddRow({TablePrinter::Int(dq), TablePrinter::Num(b250),
                  TablePrinter::Num(b500), TablePrinter::Num(n_cost),
                  TablePrinter::Int(k250), TablePrinter::Int(knix),
                  TablePrinter::Num(b_meas.pages),
                  TablePrinter::Num(n_meas.pages)});
  }
  table.Print(std::cout);
  std::printf(
      "\nShape check (paper): both curves flat for Dq >= 2 (BSSF ~4 pages, "
      "NIX ~6 pages); NIX wins only at Dq=1.\n");
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) {
  sigsetdb::BenchJson::Global().Init("fig6", argc, argv);
  sigsetdb::PrintBenchHeader("Figure 6",
                             "smart retrieval cost for T ⊇ Q (Dt=10)");
  sigsetdb::Run();
  return 0;
}
