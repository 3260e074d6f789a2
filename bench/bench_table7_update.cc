// Table 7 — update costs UC_I (insert) and UC_D (delete) of the three
// facilities, model and measured.
//
// Measurement notes (see EXPERIMENTS.md):
//  * the paper's 1993 model counts one "disk access" per touched page; the
//    measured columns therefore report page *writes* for inserts (the
//    read half of a read-modify-write is listed separately) and page reads
//    for the delete-flag scan;
//  * BSSF is measured in both the paper's worst case (touch all F slices)
//    and the sparse mode the paper anticipates in §6 (touch only the m_t
//    one-bit slices);
//  * the BSSF and NIX deletes and the inserts into freed slots report
//    both reads and writes.

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "model/cost_bssf.h"
#include "model/cost_nix.h"
#include "model/cost_ssf.h"
#include "util/table_printer.h"

namespace sigsetdb {
namespace {

// Measures the mean write/read cost of inserting `trials` new objects, whose
// OIDs are (first_page + t, 0).  Into a facility with tombstoned slots, each
// insert reuses one.
struct MeasuredUpdate {
  double writes;
  double reads;
};

MeasuredUpdate MeasureInserts(StorageManager& storage,
                              SetAccessFacility* facility, int64_t v,
                              int64_t dt, int trials, uint64_t seed,
                              uint32_t first_page = 50000) {
  Rng rng(seed);
  uint64_t writes = 0, reads = 0;
  for (int t = 0; t < trials; ++t) {
    ElementSet set = rng.SampleWithoutReplacement(
        static_cast<uint64_t>(v), static_cast<uint64_t>(dt));
    storage.ResetStats();
    CheckOk(facility->Insert(Oid::FromLocation(first_page + t, 0), set),
            "insert");
    IoStats io = storage.TotalStats();
    writes += io.page_writes;
    reads += io.page_reads;
  }
  return {static_cast<double>(writes) / trials,
          static_cast<double>(reads) / trials};
}

// Measures the mean write/read cost of deleting `trials` distinct random
// objects of `bench` from `facility` (a victim drawn twice is redrawn).
MeasuredUpdate MeasureDeletes(BenchDb& bench, SetAccessFacility* facility,
                              int trials, uint64_t seed) {
  Rng rng(seed);
  uint64_t writes = 0, reads = 0;
  for (int t = 0; t < trials; ++t) {
    size_t victim = rng.NextBelow(bench.oids().size());
    bench.storage().ResetStats();
    Status status = facility->Remove(bench.oids()[victim],
                                     bench.sets()[victim]);
    if (!status.ok()) {
      --t;
      continue;
    }
    IoStats io = bench.storage().TotalStats();
    writes += io.page_writes;
    reads += io.page_reads;
  }
  return {static_cast<double>(writes) / trials,
          static_cast<double>(reads) / trials};
}

void Run() {
  const DatabaseParams db;
  const NixParams nix;

  struct Config {
    int64_t dt;
    uint32_t f;
    uint32_t m;
  };
  const Config configs[] = {
      {10, 250, 2}, {10, 500, 2}, {100, 1000, 2}, {100, 2500, 3}};

  TablePrinter table({"Dt", "F", "SSF UC_I", "BSSF UC_I", "BSSF UC_I sparse",
                      "NIX UC_I", "UC_D (sig)", "NIX UC_D"});
  for (const Config& c : configs) {
    table.AddRow({TablePrinter::Int(c.dt), TablePrinter::Int(c.f),
                  TablePrinter::Num(SsfInsertCost()),
                  TablePrinter::Num(BssfInsertCost({c.f, c.m})),
                  TablePrinter::Num(BssfInsertCostSparse({c.f, c.m}, c.dt)),
                  TablePrinter::Num(NixInsertCost(db, nix, c.dt)),
                  TablePrinter::Num(SsfDeleteCost(db)),
                  TablePrinter::Num(NixDeleteCost(db, nix, c.dt))});
  }
  std::printf("Model (paper Table 7):\n");
  table.Print(std::cout);

  // --- measured, for the Dt=10, F=250 configuration at full scale ---
  std::printf("\nMeasured (Dt=10, F=250, m=2, full scale):\n");
  BenchDb::Options options;
  options.dt = 10;
  options.sig = {250, 2};
  BenchDb bench(options);

  // Fresh naive-mode and sparse-mode BSSFs (insert cost is independent of
  // the population, so empty facilities measure it cleanly).
  StorageManager extra;
  auto naive = ValueOrDie(
      BitSlicedSignatureFile::Create({250, 2}, 1024,
                                     extra.CreateOrOpen("naive.slices"),
                                     extra.CreateOrOpen("naive.oid"),
                                     BssfInsertMode::kTouchAllSlices),
      "naive bssf");
  auto sparse = ValueOrDie(
      BitSlicedSignatureFile::Create({250, 2}, 1024,
                                     extra.CreateOrOpen("sparse.slices"),
                                     extra.CreateOrOpen("sparse.oid"),
                                     BssfInsertMode::kSparse),
      "sparse bssf");

  const int kTrials = 10;
  MeasuredUpdate ssf_ins =
      MeasureInserts(bench.storage(), &bench.ssf(), 13000, 10, kTrials, 1);
  MeasuredUpdate naive_ins =
      MeasureInserts(extra, naive.get(), 13000, 10, kTrials, 2);
  MeasuredUpdate sparse_ins =
      MeasureInserts(extra, sparse.get(), 13000, 10, kTrials, 3);
  MeasuredUpdate nix_ins =
      MeasureInserts(bench.storage(), &bench.nix(), 13000, 10, kTrials, 4);
  std::printf("  SSF insert:         %.1f writes (model UC_I = 2)\n",
              ssf_ins.writes);
  std::printf(
      "  BSSF insert naive:  %.1f writes + %.1f RMW reads (model F+1 = "
      "251)\n",
      naive_ins.writes, naive_ins.reads);
  std::printf(
      "  BSSF insert sparse: %.1f writes + %.1f RMW reads (model m_t+1 = "
      "%.1f)\n",
      sparse_ins.writes, sparse_ins.reads,
      BssfInsertCostSparse({250, 2}, 10));
  std::printf(
      "  NIX insert:         %.1f writes + %.1f traversal reads (model "
      "rc*Dt = 30)\n",
      nix_ins.writes, nix_ins.reads);
  auto update_cost = [](const MeasuredUpdate& u) {
    return MeasuredCost{.pages = u.writes + u.reads, .reads = u.reads,
                        .writes = u.writes, .wall_ms = -1};
  };
  EmitBenchRecord("ssf.insert", {{"dt", 10}, {"f", 250}, {"m", 2}},
                  update_cost(ssf_ins), SsfInsertCost());
  EmitBenchRecord("bssf.insert.naive", {{"dt", 10}, {"f", 250}, {"m", 2}},
                  update_cost(naive_ins), BssfInsertCost({250, 2}));
  EmitBenchRecord("bssf.insert.sparse", {{"dt", 10}, {"f", 250}, {"m", 2}},
                  update_cost(sparse_ins),
                  BssfInsertCostSparse({250, 2}, 10));
  EmitBenchRecord("nix.insert", {{"dt", 10}},
                  update_cost(nix_ins), NixInsertCost(db, nix, 10));

  // Delete-flag scan cost, averaged over random victims.
  const int kDeletes = 10;
  MeasuredUpdate ssf_del = MeasureDeletes(bench, &bench.ssf(), kDeletes, 5);
  std::printf(
      "  SSF/BSSF delete:    %.1f scan reads on average (model SC_OID/2 = "
      "%.1f)\n",
      ssf_del.reads, SsfDeleteCost(db));
  EmitBenchRecord(
      "ssf.delete", {{"dt", 10}, {"f", 250}, {"m", 2}},
      MeasuredCost{.pages = ssf_del.reads, .reads = ssf_del.reads,
                   .wall_ms = -1},
      SsfDeleteCost(db));

  // The remaining singleton costs: a sparse BSSF delete (the OID scan plus
  // the m_t clears of the victim's column), the NIX delete (one descent and
  // posting rewrite per element, UC_D = rc·Dt), and inserts that reuse the
  // slots these deletes freed.  A freed BSSF column is all-zero, so a
  // sparse insert into it writes only its m_t one-bit slices, like an
  // append.
  MeasuredUpdate bssf_del = MeasureDeletes(bench, &bench.bssf(), kDeletes, 6);
  MeasuredUpdate nix_del = MeasureDeletes(bench, &bench.nix(), kDeletes, 7);
  MeasuredUpdate ssf_reuse = MeasureInserts(bench.storage(), &bench.ssf(),
                                            13000, 10, kTrials, 8, 60000);
  MeasuredUpdate bssf_reuse = MeasureInserts(bench.storage(), &bench.bssf(),
                                             13000, 10, kTrials, 9, 60000);
  std::printf(
      "  BSSF delete sparse: %.1f writes + %.1f reads (model SC_OID/2 = "
      "%.1f)\n",
      bssf_del.writes, bssf_del.reads, BssfDeleteCost(db));
  std::printf(
      "  NIX delete:         %.1f writes + %.1f traversal reads (model "
      "rc*Dt = 30)\n",
      nix_del.writes, nix_del.reads);
  std::printf(
      "  SSF reuse insert:   %.1f writes + %.1f reads (model UC_I = 2)\n",
      ssf_reuse.writes, ssf_reuse.reads);
  std::printf(
      "  BSSF reuse sparse:  %.1f writes + %.1f reads (model m_t+1 = %.1f)\n",
      bssf_reuse.writes, bssf_reuse.reads,
      BssfInsertCostSparse({250, 2}, 10));
  EmitBenchRecord("bssf.delete", {{"dt", 10}, {"f", 250}, {"m", 2}},
                  update_cost(bssf_del), BssfDeleteCost(db));
  EmitBenchRecord("nix.delete", {{"dt", 10}}, update_cost(nix_del),
                  NixDeleteCost(db, nix, 10));
  EmitBenchRecord("ssf.reuse_insert", {{"dt", 10}, {"f", 250}, {"m", 2}},
                  update_cost(ssf_reuse), SsfInsertCost());
  EmitBenchRecord("bssf.reuse_insert.sparse",
                  {{"dt", 10}, {"f", 250}, {"m", 2}}, update_cost(bssf_reuse),
                  BssfInsertCostSparse({250, 2}, 10));
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) {
  sigsetdb::BenchJson::Global().Init("table7", argc, argv);
  sigsetdb::PrintBenchHeader("Table 7", "update costs UC_I and UC_D");
  sigsetdb::Run();
  return 0;
}
