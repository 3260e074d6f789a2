// Micro-benchmarks (google-benchmark) for the in-memory hot paths: element
// signature hashing, set-signature construction, bit-packed extraction,
// slice combination, B+-tree look-ups, object fetches, whole kAuto
// selections, the planner's fixed costs (the live V estimate and the
// access-path advisor), and singleton facility writes.  These are CPU-cost
// complements to the page-access experiments (the paper's model is
// I/O-only).

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "db/set_index.h"
#include "nix/btree.h"
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

// One object fetch, the unit of candidate resolution: the object file's
// page read (a view of the in-memory page) and the record decode.
void BM_ObjectGetInto(benchmark::State& state) {
  static StorageManager storage;
  static const std::vector<Oid> oids = [] {
    MultiObjectStore store(storage.CreateOrOpen("objects"), 1);
    std::vector<Oid> stored;
    for (const ElementSet& set : Objects().sets) {
      stored.push_back(ValueOrDie(store.Insert({set}), "insert"));
    }
    return stored;
  }();
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

}  // namespace
}  // namespace sigsetdb

BENCHMARK_MAIN();
