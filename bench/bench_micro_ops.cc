// Micro-benchmarks (google-benchmark) for the in-memory hot paths: element
// signature hashing, set-signature construction, bit-packed extraction,
// slice combination, B+-tree look-ups, object fetches, one selection's
// lookups and fetches from a cold cache (one at a time and grouped), whole
// kAuto selections (also right after a write), the planner's fixed costs
// (the live V estimate and the access-path advisor), the drift watchdog, and
// singleton facility writes.  These are CPU-cost
// complements to the page-access experiments (the paper's model is
// I/O-only).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>

#include "bench_util.h"
#include "db/set_index.h"
#include "nix/btree.h"
#include "obs/drift_watchdog.h"
#include "query/advisor.h"
#include "sig/bitpack.h"
#include "sig/signature.h"
#include "util/hyperloglog.h"

namespace sigsetdb {
namespace {

void BM_ElementSignature(benchmark::State& state) {
  SignatureConfig config{static_cast<uint32_t>(state.range(0)),
                         static_cast<uint32_t>(state.range(1))};
  uint64_t e = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeElementSignature(e++, config));
  }
}
BENCHMARK(BM_ElementSignature)->Args({250, 2})->Args({500, 35})->Args({2500, 17});

void BM_SetSignature(benchmark::State& state) {
  SignatureConfig config{static_cast<uint32_t>(state.range(0)), 2};
  Rng rng(1);
  ElementSet set = rng.SampleWithoutReplacement(13000,
                                                static_cast<uint64_t>(
                                                    state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(MakeSetSignature(set, config));
  }
}
BENCHMARK(BM_SetSignature)->Args({250, 10})->Args({500, 10})->Args({2500, 100});

void BM_BitpackExtract(benchmark::State& state) {
  const size_t f = static_cast<size_t>(state.range(0));
  std::vector<uint8_t> page(kPageSize, 0xa5);
  BitVector out(f);
  size_t slot = 0;
  const size_t slots = kPageBits / f;
  for (auto _ : state) {
    ExtractBits(page.data(), (slot++ % slots) * f, &out);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f / 8));
}
BENCHMARK(BM_BitpackExtract)->Arg(250)->Arg(500)->Arg(2500);

void BM_SupersetMatch(benchmark::State& state) {
  SignatureConfig config{500, 2};
  Rng rng(2);
  BitVector target = MakeSetSignature(
      rng.SampleWithoutReplacement(13000, 10), config);
  BitVector query = MakeSetSignature(
      rng.SampleWithoutReplacement(13000, 3), config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatchesSuperset(target, query));
  }
}
BENCHMARK(BM_SupersetMatch);

void BM_SliceAndCombine(benchmark::State& state) {
  // Word-wise AND of a page worth of slice bits into an accumulator —
  // the inner loop of every BSSF superset query.
  std::vector<uint64_t> slice(kPageSize / 8, ~0ull);
  BitVector acc(kPageBits);
  acc.SetAll();
  for (auto _ : state) {
    uint64_t* words = acc.mutable_words();
    for (size_t i = 0; i < slice.size(); ++i) words[i] &= slice[i];
    benchmark::DoNotOptimize(words);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kPageSize));
}
BENCHMARK(BM_SliceAndCombine);

void BM_BTreeLookup(benchmark::State& state) {
  static StorageManager storage;
  static std::unique_ptr<BTree> tree = [] {
    auto t = ValueOrDie(BTree::Create(storage.CreateOrOpen("bt")), "create");
    std::vector<BTreeEntry> entries;
    for (uint64_t k = 0; k < 13000; ++k) {
      entries.push_back({k, {Oid::FromLocation(static_cast<PageId>(k), 0)}});
    }
    CheckOk(t->BulkLoad(entries), "bulk");
    return t;
  }();
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Lookup(rng.NextBelow(13000)));
  }
}
BENCHMARK(BM_BTreeLookup);

void BM_BTreeInsert(benchmark::State& state) {
  StorageManager storage;
  int file_id = 0;
  auto tree = ValueOrDie(
      BTree::Create(storage.CreateOrOpen("bt" + std::to_string(file_id++))),
      "create");
  Rng rng(4);
  uint64_t i = 0;
  for (auto _ : state) {
    CheckOk(tree->Insert(rng.NextBelow(100000),
                         Oid::FromLocation(static_cast<PageId>(i++), 0)),
            "insert");
  }
}
BENCHMARK(BM_BTreeInsert);

// The live V estimate every kAuto plan and snapshot publish reads.
// Arguments: precision, distinct values added (13,000 = the paper's V).
void BM_HyperLogLogEstimate(benchmark::State& state) {
  HyperLogLog hll(static_cast<int>(state.range(0)));
  for (int64_t v = 0; v < state.range(1); ++v) {
    hll.Add(static_cast<uint64_t>(v));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(hll.Estimate());
  }
}
BENCHMARK(BM_HyperLogLogEstimate)->Args({12, 13000});

// The access-path advisor as a kAuto plan calls it, at the Table-2
// parameters (N = 32,000, V = 13,000, Dt = 10, F = 250, m = 2, smart
// strategies allowed).  Arguments: QueryKind, Dq.
void BM_AdviseAccessPaths(benchmark::State& state) {
  const QueryKind kind = static_cast<QueryKind>(state.range(0));
  const int64_t dq = state.range(1);
  const DatabaseParams db;
  const SignatureParams sig{250, 2};
  const NixParams nix;
  for (auto _ : state) {
    benchmark::DoNotOptimize(AdviseAccessPaths(db, sig, nix, /*dt=*/10, dq,
                                               kind, /*allow_smart=*/true));
  }
}
BENCHMARK(BM_AdviseAccessPaths)
    ->Args({static_cast<int64_t>(QueryKind::kSuperset), 5})
    ->Args({static_cast<int64_t>(QueryKind::kSubset), 40})
    ->Args({static_cast<int64_t>(QueryKind::kEquals), 10});

// --- singleton facility writes at the Table-2 parameters -------------------
//
// Each case runs one insert or delete per iteration through the facility's
// public Insert/Remove on in-memory files (N = 32,000, V = 13,000, Dt = 10,
// F = 250, m = 2).  Iteration counts are fixed, because every iteration
// changes the facility.

// The Table-2 database and a seeded permutation of its objects.
struct PaperObjects {
  std::vector<Oid> oids;
  std::vector<ElementSet> sets;
  std::vector<size_t> order;
};

const PaperObjects& Objects() {
  static const PaperObjects objects = [] {
    PaperObjects o;
    o.sets = MakeDatabase(WorkloadConfig{32000, 13000,
                                         CardinalitySpec::Fixed(10),
                                         SkewKind::kUniform, 0.99, 1});
    for (size_t i = 0; i < o.sets.size(); ++i) {
      o.oids.push_back(Oid::FromLocation(static_cast<PageId>(i), 0));
      o.order.push_back(i);
    }
    Rng rng(5);
    for (size_t i = o.order.size(); i > 1; --i) {
      std::swap(o.order[i - 1], o.order[rng.NextBelow(i)]);
    }
    return o;
  }();
  return objects;
}

std::unique_ptr<BitSlicedSignatureFile> MakeSparseBssf(
    StorageManager& storage) {
  return ValueOrDie(BitSlicedSignatureFile::Create(
                        {250, 2}, 32064, storage.CreateOrOpen("slices"),
                        storage.CreateOrOpen("oid"), BssfInsertMode::kSparse),
                    "bssf create");
}

// A sparse-mode append into a fresh slot (m_t + 1 pages).
void BM_BssfFreshInsert(benchmark::State& state) {
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto bssf = MakeSparseBssf(storage);
  size_t i = 0;
  for (auto _ : state) {
    CheckOk(bssf->Insert(o.oids[i], o.sets[i]), "insert");
    ++i;
  }
}
BENCHMARK(BM_BssfFreshInsert)->Iterations(32000);

// A delete (OID scan plus m_t clears) and the sparse insert that reuses
// its slot (m_t set bits, like a fresh append).
void BM_BssfRemoveReuseCycle(benchmark::State& state) {
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto bssf = MakeSparseBssf(storage);
  CheckOk(bssf->BulkLoad(o.oids, o.sets), "bulk load");
  size_t i = 0;
  for (auto _ : state) {
    const size_t victim = o.order[i++];
    CheckOk(bssf->Remove(o.oids[victim], o.sets[victim]), "remove");
    CheckOk(bssf->Insert(o.oids[victim], o.sets[victim]), "insert");
  }
}
BENCHMARK(BM_BssfRemoveReuseCycle)->Iterations(4000);

// One ApplyBatch of 1,000 fresh inserts into a sparse BSSF, from an empty
// store up to 32,000 signatures: perfbench's load shape.
void BM_BssfApplyBatch(benchmark::State& state) {
  constexpr size_t kBatch = 1000;
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto bssf = MakeSparseBssf(storage);
  std::vector<BatchOp> batch(kBatch);
  size_t i = 0;
  for (auto _ : state) {
    for (BatchOp& op : batch) {
      op = BatchOp{BatchOp::Kind::kInsert, o.oids[i], o.sets[i]};
      ++i;
    }
    CheckOk(bssf->ApplyBatch(batch), "apply batch");
  }
}
BENCHMARK(BM_BssfApplyBatch)->Iterations(32);

// One posting insert per element (rc·Dt page accesses), into a NIX over the
// first half of the database.
void BM_NixInsert(benchmark::State& state) {
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto nix = ValueOrDie(NestedIndex::Create(storage.CreateOrOpen("nix")),
                        "nix create");
  const size_t half = o.oids.size() / 2;
  CheckOk(nix->BulkBuild({o.oids.begin(), o.oids.begin() + half},
                         {o.sets.begin(), o.sets.begin() + half}),
          "bulk build");
  size_t i = half;
  for (auto _ : state) {
    CheckOk(nix->Insert(o.oids[i], o.sets[i]), "insert");
    ++i;
  }
}
BENCHMARK(BM_NixInsert)->Iterations(16000);

// One ApplyBatch of 1,000 inserts (K distinct keys, one descent each) into
// a NIX bulk-built over the first half of the database: perfbench's load
// shape.
void BM_NixApplyBatch(benchmark::State& state) {
  constexpr size_t kBatch = 1000;
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto nix = ValueOrDie(NestedIndex::Create(storage.CreateOrOpen("nix")),
                        "nix create");
  const size_t half = o.oids.size() / 2;
  CheckOk(nix->BulkBuild({o.oids.begin(), o.oids.begin() + half},
                         {o.sets.begin(), o.sets.begin() + half}),
          "bulk build");
  std::vector<BatchOp> batch(kBatch);
  size_t i = half;
  for (auto _ : state) {
    for (BatchOp& op : batch) {
      op = BatchOp{BatchOp::Kind::kInsert, o.oids[i], o.sets[i]};
      ++i;
    }
    CheckOk(nix->ApplyBatch(batch), "apply batch");
  }
}
BENCHMARK(BM_NixApplyBatch)->Iterations(16);

// One posting removal per element, from a NIX over the whole database.
void BM_NixRemove(benchmark::State& state) {
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto nix = ValueOrDie(NestedIndex::Create(storage.CreateOrOpen("nix")),
                        "nix create");
  CheckOk(nix->BulkBuild(o.oids, o.sets), "bulk build");
  size_t i = 0;
  for (auto _ : state) {
    const size_t victim = o.order[i++];
    CheckOk(nix->Remove(o.oids[victim], o.sets[victim]), "remove");
  }
}
BENCHMARK(BM_NixRemove)->Iterations(16000);

// A one-OID delete scan: an SSF delete only sets the victim's delete flag,
// found by scanning the 32,000-entry OID file from the start.
void BM_SsfDeleteScan(benchmark::State& state) {
  const PaperObjects& o = Objects();
  StorageManager storage;
  auto ssf = ValueOrDie(
      SequentialSignatureFile::Create({250, 2}, storage.CreateOrOpen("sig"),
                                      storage.CreateOrOpen("oid")),
      "ssf create");
  std::vector<BatchOp> load;
  for (size_t i = 0; i < o.oids.size(); ++i) {
    load.push_back(BatchOp{BatchOp::Kind::kInsert, o.oids[i], o.sets[i]});
  }
  CheckOk(ssf->ApplyBatch(load), "load");
  size_t i = 0;
  for (auto _ : state) {
    const size_t victim = o.order[i++];
    CheckOk(ssf->Remove(o.oids[victim], o.sets[victim]), "remove");
  }
}
BENCHMARK(BM_SsfDeleteScan)->Iterations(16000);

// --- reads over the Table-2 database ---------------------------------------
//
// N = 32,000 objects of Dt = 10 elements from V = 13,000, in memory.

// Stores the Table-2 objects in a one-attribute object file "objects" in
// `storage`; returns their OIDs.
std::vector<Oid> StoreObjects(StorageManager* storage) {
  MultiObjectStore store(storage->CreateOrOpen("objects"), 1);
  std::vector<Oid> stored;
  for (const ElementSet& set : Objects().sets) {
    stored.push_back(ValueOrDie(store.Insert({set}), "insert"));
  }
  return stored;
}

// One object fetch, the unit of candidate resolution: the object file's
// page read (a view of the in-memory page) and the record decode.
void BM_ObjectGetInto(benchmark::State& state) {
  static StorageManager storage;
  static const std::vector<Oid> oids = StoreObjects(&storage);
  const MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
  MultiSetObject object;
  Rng rng(6);
  for (auto _ : state) {
    CheckOk(store.GetInto(oids[rng.NextBelow(oids.size())], &object),
            "get");
    benchmark::DoNotOptimize(object);
  }
}
BENCHMARK(BM_ObjectGetInto);

// --- one selection's page reads from a cold cache ---------------------------
//
// Each iteration first streams a 32 MiB buffer, outside the timed region,
// so the pages a selection reads start out of the core's caches, as they
// mostly do inside a mixed query stream; a warm loop over one query would
// hide the misses that grouping overlaps.  Argument 0 runs the pages one at
// a time, argument 1 the grouped call.  Iteration counts are fixed, because
// the streaming, not the timed region, sets each iteration's cost.

// Writes one byte per cache line of a 32 MiB buffer.
void StreamColdBuffer() {
  static std::vector<uint8_t> buffer(size_t{32} << 20);
  for (size_t i = 0; i < buffer.size(); i += 64) ++buffer[i];
  benchmark::DoNotOptimize(buffer.data());
  benchmark::ClobberMemory();
}

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// An = query's NIX lookups: the 10 elements of a stored object (Dq = Dt =
// 10), in a NIX bulk-built over the Table-2 database.  The one-at-a-time
// arm calls LookupMany per key, so only the grouping differs.
void BM_NixLookupCold(benchmark::State& state) {
  static StorageManager storage;
  static const std::unique_ptr<NestedIndex> nix = [] {
    auto index =
        ValueOrDie(NestedIndex::Create(storage.CreateOrOpen("nix")), "create");
    CheckOk(index->BulkBuild(Objects().oids, Objects().sets), "bulk build");
    return index;
  }();
  const BTree& tree = nix->tree();
  const std::vector<ElementSet>& sets = Objects().sets;
  const bool grouped = state.range(0) != 0;
  Rng rng(8);
  std::vector<std::vector<Oid>> lists;
  std::vector<std::vector<Oid>> one;
  for (auto _ : state) {
    const ElementSet& keys = sets[rng.NextBelow(sets.size())];
    StreamColdBuffer();
    const auto start = std::chrono::steady_clock::now();
    if (grouped) {
      CheckOk(tree.LookupMany(keys, &lists), "lookup");
    } else {
      lists.resize(keys.size());
      for (size_t i = 0; i < keys.size(); ++i) {
        CheckOk(tree.LookupMany({&keys[i], 1}, &one), "lookup");
        lists[i] = std::move(one.front());
      }
    }
    state.SetIterationTime(SecondsSince(start));
    benchmark::DoNotOptimize(lists);
  }
}
BENCHMARK(BM_NixLookupCold)->Arg(0)->Arg(1)->UseManualTime()->Iterations(400);

// An overlap query's resolution: 73 random candidates (ascending, as
// facilities deliver them) fetched from the Table-2 object file, by
// GetInto each or by one GetMany.
void BM_ObjectGetManyCold(benchmark::State& state) {
  static StorageManager storage;
  static const std::vector<Oid> stored = StoreObjects(&storage);
  const MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
  const bool grouped = state.range(0) != 0;
  Rng rng(9);
  std::vector<Oid> oids(73);
  MultiSetObject object;
  for (auto _ : state) {
    for (Oid& oid : oids) oid = stored[rng.NextBelow(stored.size())];
    std::sort(oids.begin(), oids.end());
    StreamColdBuffer();
    const auto start = std::chrono::steady_clock::now();
    if (grouped) {
      CheckOk(store.GetMany(oids, nullptr, &object,
                            [](size_t, const Status& got,
                               const MultiSetObject& fetched) {
                              benchmark::DoNotOptimize(fetched);
                              return got;
                            }),
              "get");
    } else {
      for (Oid oid : oids) {
        CheckOk(store.GetInto(oid, &object), "get");
        benchmark::DoNotOptimize(object);
      }
    }
    state.SetIterationTime(SecondsSince(start));
  }
}
BENCHMARK(BM_ObjectGetManyCold)
    ->Arg(0)
    ->Arg(1)
    ->UseManualTime()
    ->Iterations(400);

// One kAuto selection through SetIndex (BSSF + NIX, F = 250, m = 2): plan,
// candidate selection and resolution.  Each iteration runs the next of 256
// seeded queries; a query of Dq <= Dt (>= Dt) is drawn to hit a stored
// object for ⊇ (⊆), else uniformly.  Arguments: QueryKind, Dq.
void BM_SetIndexSelect(benchmark::State& state) {
  static StorageManager storage;
  static const std::unique_ptr<SetIndex> index = [] {
    SetIndex::Options options;
    options.capacity = 32064;
    auto created = ValueOrDie(SetIndex::Create(&storage, "select", options),
                              "create");
    WriteBatch batch;
    for (const ElementSet& set : Objects().sets) batch.Insert(set);
    CheckOk(created->ApplyBatch(batch).status(), "load");
    return created;
  }();
  const QueryKind kind = static_cast<QueryKind>(state.range(0));
  const int64_t dq = state.range(1);
  const std::vector<ElementSet>& sets = Objects().sets;
  Rng rng(7);
  std::vector<ElementSet> queries(256);
  for (ElementSet& query : queries) {
    const ElementSet& target = sets[rng.NextBelow(sets.size())];
    const int64_t dt = static_cast<int64_t>(target.size());
    const QueryKind ck = CandidateKind(kind);
    if (ck == QueryKind::kSuperset && dq <= dt) {
      query = MakeHittingSupersetQuery(target, dq, rng);
    } else if (ck == QueryKind::kSubset && dq >= dt) {
      query = MakeHittingSubsetQuery(target, 13000, dq, rng);
    } else {
      query = rng.SampleWithoutReplacement(13000, static_cast<uint64_t>(dq));
    }
  }
  size_t next = 0;
  for (auto _ : state) {
    auto result = index->Query(kind, queries[next++ % queries.size()]);
    CheckOk(result.status(), "select");
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SetIndexSelect)
    ->Args({static_cast<int64_t>(QueryKind::kSuperset), 2})
    ->Args({static_cast<int64_t>(QueryKind::kSubset), 40})
    ->Args({static_cast<int64_t>(QueryKind::kEquals), 10})
    ->Args({static_cast<int64_t>(QueryKind::kOverlaps), 3});

// paper_mem's set-up without the join pair: the 32,000 Table-2 objects
// loaded into a default SetIndex in memory (BSSF and NIX) in 1,000-object
// ApplyBatch calls, then a checkpoint.  Each iteration loads a new index.
void BM_SetIndexLoad(benchmark::State& state) {
  constexpr size_t kBatch = 1000;
  const std::vector<ElementSet>& sets = Objects().sets;
  for (auto _ : state) {
    StorageManager storage;
    SetIndex::Options options;
    options.capacity = sets.size() + 768;
    auto index =
        ValueOrDie(SetIndex::Create(&storage, "load", options), "create");
    WriteBatch batch;
    for (size_t i = 0; i < sets.size(); ++i) {
      batch.Insert(sets[i]);
      if (batch.size() == kBatch || i + 1 == sets.size()) {
        CheckOk(index->ApplyBatch(batch).status(), "load batch");
        batch.Clear();
      }
    }
    CheckOk(index->Checkpoint(), "checkpoint");
  }
}
BENCHMARK(BM_SetIndexLoad)->Iterations(4)->Unit(benchmark::kMillisecond);

// A kAuto selection right after a write, over a Table-2 SetIndex in memory
// with telemetry on, as a live database serves reads between writes.  Each
// iteration inserts a copy of a stored set or deletes the copy it inserted
// with the timer paused, so N steps by one (V and Dt hold) before every
// timed selection; the timed region is the plan, candidate selection,
// resolution and the telemetry (metrics, flight event, drift watchdog).
// Arguments: QueryKind, Dq.
void BM_SelectAfterWrite(benchmark::State& state) {
  static StorageManager storage;
  static const std::unique_ptr<SetIndex> index = [] {
    SetIndex::Options options;
    options.capacity = 32064;
    options.enable_telemetry = true;
    auto created = ValueOrDie(
        SetIndex::Create(&storage, "after_write", options), "create");
    WriteBatch batch;
    for (const ElementSet& set : Objects().sets) batch.Insert(set);
    CheckOk(created->ApplyBatch(batch).status(), "load");
    return created;
  }();
  const QueryKind kind = static_cast<QueryKind>(state.range(0));
  const int64_t dq = state.range(1);
  const std::vector<ElementSet>& sets = Objects().sets;
  Rng rng(9);
  std::vector<ElementSet> queries(256);
  for (ElementSet& query : queries) {
    const ElementSet& target = sets[rng.NextBelow(sets.size())];
    query = CandidateKind(kind) == QueryKind::kSuperset
                ? MakeHittingSupersetQuery(target, dq, rng)
                : MakeHittingSubsetQuery(target, 13000, dq, rng);
  }
  size_t next = 0;
  Oid copy;
  bool inserted = false;
  for (auto _ : state) {
    state.PauseTiming();
    if (inserted) {
      CheckOk(index->Delete(copy), "delete");
    } else {
      copy = ValueOrDie(index->Insert(sets[next % sets.size()]), "insert");
    }
    inserted = !inserted;
    state.ResumeTiming();
    auto result = index->Query(kind, queries[next++ % queries.size()]);
    CheckOk(result.status(), "select");
    benchmark::DoNotOptimize(result);
  }
  if (inserted) CheckOk(index->Delete(copy), "delete");
}
BENCHMARK(BM_SelectAfterWrite)
    ->Args({static_cast<int64_t>(QueryKind::kSuperset), 3})
    ->Args({static_cast<int64_t>(QueryKind::kSubset), 20});

// The drift watchdog fed one live selection's trace: its candidate
// selection and resolution stages and the whole plan's total, three
// observations under one facility.
void BM_DriftObserveTrace(benchmark::State& state) {
  MetricsRegistry registry;
  DriftWatchdog watchdog(&registry, nullptr, DriftOptions{});
  QueryTrace trace;
  trace.plan = "bssf smart(k=2)";
  TraceSpan* candidates = trace.AddStage("candidate selection");
  candidates->page_reads = 4;
  candidates->predicted_pages = 3.9;
  TraceSpan* resolution = trace.AddStage("resolution");
  resolution->page_reads = 7;
  resolution->predicted_pages = 6.4;
  trace.predicted_total = 10.3;
  for (auto _ : state) watchdog.ObserveTrace(trace);
}
BENCHMARK(BM_DriftObserveTrace);

}  // namespace
}  // namespace sigsetdb

BENCHMARK_MAIN();
