// Ablation — buffer pool vs. the no-caching cost model.
//
// The paper's model charges every logical page access (no cache).  This
// bench layers an LRU buffer pool over the BSSF slice store and the OID
// file and reports physical accesses (misses) per query as the pool grows.
// With a pool comparable to the hot set (query slices + OID pages), repeat
// queries become almost free — quantifying how far a 1993-style model
// drifts from a cached system, and why the *relative* ranking of the
// facilities still holds (all of them benefit alike).

#include <cstdio>
#include <iostream>

#include "bench_util.h"
#include "storage/buffer_pool.h"
#include "util/table_printer.h"

namespace sigsetdb {
namespace {

void Run() {
  const int64_t dt = 10;
  const int64_t dq = 3;

  // A dedicated storage stack so the cache can wrap the slice/OID files.
  StorageManager storage;
  WorkloadConfig wconfig{32000, 13000, CardinalitySpec::Fixed(dt),
                         SkewKind::kUniform, 0.99, 7};
  auto sets = MakeDatabase(wconfig);
  MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
  std::vector<Oid> oids;
  for (const auto& set : sets) {
    oids.push_back(ValueOrDie(store.Insert({set}), "insert"));
  }

  TablePrinter table({"pool pages", "logical/query", "physical/query",
                      "hit rate"});
  for (size_t pool : {0u, 8u, 32u, 128u, 512u}) {
    InMemoryPageFile* slices_base =
        static_cast<InMemoryPageFile*>(storage.CreateOrOpen(
            "slices." + std::to_string(pool)));
    InMemoryPageFile* oid_base = static_cast<InMemoryPageFile*>(
        storage.CreateOrOpen("oid." + std::to_string(pool)));
    CachedPageFile cached_slices(slices_base, pool);
    CachedPageFile cached_oids(oid_base, pool / 4 + 1);
    auto bssf = ValueOrDie(
        BitSlicedSignatureFile::Create({500, 2}, 32064, &cached_slices,
                                       &cached_oids, BssfInsertMode::kSparse),
        "bssf");
    CheckOk(bssf->BulkLoad(oids, sets), "bulk");
    cached_slices.Invalidate();
    cached_slices.stats().Reset();
    slices_base->stats().Reset();
    cached_oids.stats().Reset();
    oid_base->stats().Reset();

    // A small working set of repeating queries (the regime where a cache
    // pays off).
    Rng rng(11);
    std::vector<ElementSet> queries;
    for (int i = 0; i < 5; ++i) {
      queries.push_back(rng.SampleWithoutReplacement(
          13000, static_cast<uint64_t>(dq)));
    }
    const int kRounds = 20;
    for (int round = 0; round < kRounds; ++round) {
      for (const auto& query : queries) {
        CheckOk(ExecuteSetQuery(bssf.get(), store, QueryKind::kSuperset,
                                query)
                    .status(),
                "query");
      }
    }
    double total_queries = kRounds * static_cast<double>(queries.size());
    double logical =
        static_cast<double>(cached_slices.stats().total() +
                            cached_oids.stats().total()) /
        total_queries;
    double physical = static_cast<double>(slices_base->stats().total() +
                                          oid_base->stats().total()) /
                      total_queries;
    double hits = static_cast<double>(cached_slices.hits() +
                                      cached_oids.hits());
    double accesses = hits + static_cast<double>(cached_slices.misses() +
                                                 cached_oids.misses());
    table.AddRow({TablePrinter::Int(static_cast<int64_t>(pool)),
                  TablePrinter::Num(logical), TablePrinter::Num(physical),
                  TablePrinter::Num(hits / accesses, 3)});
  }
  table.Print(std::cout);
  std::printf(
      "\nThe model's no-cache assumption corresponds to pool=0; logical "
      "accesses stay constant while physical accesses collapse once the "
      "hot slices fit.\n");
}

}  // namespace
}  // namespace sigsetdb

int main() {
  sigsetdb::PrintBenchHeader("Ablation",
                             "buffer pool vs. the no-caching cost model");
  sigsetdb::Run();
  return 0;
}
