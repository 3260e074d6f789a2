// Ablation — how many query elements should the smart T ⊇ Q strategy use?
//
// For a Dq=10 query, sweeps k (elements used to form the query signature /
// NIX look-ups) and prints the cost decomposition: index/slice reads grow
// with k while the candidate count shrinks.  The model says the sweet spot
// is tiny (k=2 for m=2); the measured column confirms it on the real
// structures.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "model/actual_drops.h"
#include "model/cost_bssf.h"
#include "model/cost_nix.h"
#include "model/false_drop.h"
#include "util/table_printer.h"

namespace sigsetdb {
namespace {

void Run() {
  const DatabaseParams db;
  const NixParams nix;
  const int64_t dt = 10;
  const int64_t dq = 10;
  const SignatureParams sig{500, 2};

  BenchDb::Options options;
  options.dt = dt;
  options.sig = {500, 2};
  options.build_ssf = false;
  BenchDb bench(options);
  const int kTrials = 5;

  TablePrinter table({"k", "slice reads", "candidates", "BSSF RC(k)",
                      "NIX RC(k)", "BSSF meas", "NIX meas"});
  for (int64_t k = 1; k <= dq; ++k) {
    double m_q = ExpectedSignatureWeight(sig, k);
    double a_k = ActualDropsSuperset(db, dt, k);
    double fd_k = FalseDropSuperset(sig, dt, k);
    double candidates = a_k + fd_k * (static_cast<double>(db.n) - a_k);
    double bssf_rc = BssfRetrievalSuperset(db, sig, dt, k);
    double nix_rc = static_cast<double>(NixLookupCost(db, nix, dt)) *
                        static_cast<double>(k) +
                    a_k;
    double bssf_meas = bench.MeasureMean(&bench.bssf(), QueryKind::kSuperset,
                                         dq, kTrials, 1300 + k,
                                         static_cast<size_t>(k));
    double nix_meas = bench.MeasureMean(&bench.nix(), QueryKind::kSuperset,
                                        dq, kTrials, 1400 + k,
                                        static_cast<size_t>(k));
    table.AddRow({TablePrinter::Int(k), TablePrinter::Num(m_q),
                  TablePrinter::Num(candidates, 2),
                  TablePrinter::Num(bssf_rc), TablePrinter::Num(nix_rc),
                  TablePrinter::Num(bssf_meas), TablePrinter::Num(nix_meas)});
  }
  table.Print(std::cout);
  int64_t best_k = 0;
  BssfSmartSupersetCost(db, sig, dt, dq, &best_k);
  std::printf("\nModel-chosen k for BSSF: %lld (paper §5.1.3: two arbitrary "
              "elements for m=2).\n",
              static_cast<long long>(best_k));
}

}  // namespace
}  // namespace sigsetdb

int main() {
  sigsetdb::PrintBenchHeader(
      "Ablation", "smart T ⊇ Q: choice of k (Dt=10, Dq=10, F=500, m=2)");
  sigsetdb::Run();
  return 0;
}
