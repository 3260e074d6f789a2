// Shared infrastructure for the figure/table reproduction benches: builds
// the paper's database (N objects, V-element domain, Dt-element sets) at
// full scale, materializes the requested access facilities, and measures
// page accesses per query.

#ifndef SIGSET_BENCH_BENCH_UTIL_H_
#define SIGSET_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "model/params.h"
#include "obs/json.h"
#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "query/executor.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/storage_manager.h"
#include "workload/generator.h"

namespace sigsetdb {

// Aborts with a message on error status — benches have no error recovery.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL %s: %s\n", what, status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T ValueOrDie(StatusOr<T> v, const char* what) {
  CheckOk(v.status(), what);
  return std::move(v).value();
}

// One measurement: mean page accesses split into reads/writes, plus mean
// wall-clock per query.  `pages == reads + writes` (the paper's RC metric).
// A negative wall_ms means "not measured" (e.g. storage-size records).
struct MeasuredCost {
  double pages = 0;
  double reads = 0;
  double writes = 0;
  double skipped = 0;  // pages elided by the slice skip index
  double cow = 0;      // copy-on-write page copies (snapshot traffic)
  double hot = 0;      // slice reads served by the pinned hot tier
  double wall_ms = 0;
};

// Machine-readable bench output, enabled with `--json <path>` on any wired
// bench.  Each measurement becomes one JSON object per line (JSONL):
//
//   {"bench":"fig4","label":"bssf.superset.meas","params":{"dq":3,...},
//    "measured":{"pages":6.2,"reads":6.2,"writes":0,
//                "pages_skipped":1.5,"pages_cow":0},
//    "predicted_pages":6.31,"wall_ms":0.42}
//
// `predicted_pages` is the analytical model's value for the same point and
// is null when the record has no model counterpart; `wall_ms` is null for
// records without a timed run.  The human-readable tables keep printing to
// stdout unchanged — the JSONL file is a side channel for plotting and
// regression tooling.
class BenchJson {
 public:
  struct Record {
    std::string label;
    std::vector<std::pair<std::string, double>> params;
    MeasuredCost measured;
    double predicted_pages = -1.0;  // < 0 -> null
  };

  static BenchJson& Global() {
    static BenchJson global;
    return global;
  }

  // Parses `--json <path>` out of argv (call once, from main).  Without the
  // flag the writer stays disabled and Write() is a no-op.
  void Init(const char* bench, int argc, char** argv) {
    bench_ = bench;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::string(argv[i]) == "--json") {
        out_ = std::fopen(argv[i + 1], "w");
        if (out_ == nullptr) {
          std::fprintf(stderr, "FATAL cannot open --json file %s\n",
                       argv[i + 1]);
          std::abort();
        }
        return;
      }
    }
  }

  bool enabled() const { return out_ != nullptr; }

  void Write(const Record& record) {
    if (out_ == nullptr) return;
    JsonWriter w;
    w.BeginObject();
    w.Field("bench", bench_);
    w.Field("label", record.label);
    w.Key("params");
    w.BeginObject();
    for (const auto& [key, value] : record.params) w.Field(key, value);
    w.EndObject();
    w.Key("measured");
    w.BeginObject();
    w.Field("pages", record.measured.pages);
    w.Field("reads", record.measured.reads);
    w.Field("writes", record.measured.writes);
    w.Field("pages_skipped", record.measured.skipped);
    w.Field("pages_cow", record.measured.cow);
    w.Field("pages_hot", record.measured.hot);
    w.EndObject();
    w.FieldOrNull("predicted_pages", record.predicted_pages);
    w.FieldOrNull("wall_ms", record.measured.wall_ms);
    w.EndObject();
    std::fprintf(out_, "%s\n", w.str().c_str());
    std::fflush(out_);
  }

  ~BenchJson() {
    if (out_ != nullptr) std::fclose(out_);
  }

 private:
  BenchJson() = default;
  std::string bench_;
  std::FILE* out_ = nullptr;
};

// Emits one record to the global writer (no-op without --json).
inline void EmitBenchRecord(
    const std::string& label,
    std::initializer_list<std::pair<const char*, double>> params,
    const MeasuredCost& measured, double predicted_pages = -1.0) {
  BenchJson::Record record;
  record.label = label;
  for (const auto& [key, value] : params) record.params.emplace_back(key, value);
  record.measured = measured;
  record.predicted_pages = predicted_pages;
  BenchJson::Global().Write(record);
}

// A fully materialized experimental database.
class BenchDb {
 public:
  struct Options {
    int64_t n = 32000;
    int64_t v = 13000;
    int64_t dt = 10;
    SignatureConfig sig{250, 2};
    uint32_t nix_fanout = kPaperFanout;
    uint64_t seed = 19930526;  // SIGMOD'93
    bool build_ssf = true;
    bool build_bssf = true;
    bool build_nix = true;
    // Empty = in-memory backend; otherwise pages live in files under this
    // directory (which must exist) and every access is a real syscall.
    std::string directory;
  };

  explicit BenchDb(const Options& options)
      : options_(options), storage_(options.directory) {
    WorkloadConfig wconfig{options.n, options.v,
                           CardinalitySpec::Fixed(options.dt),
                           SkewKind::kUniform, 0.99, options.seed};
    sets_ = MakeDatabase(wconfig);
    store_ = std::make_unique<MultiObjectStore>(
        storage_.CreateOrOpen("objects"), 1);
    oids_.reserve(sets_.size());
    for (const auto& set : sets_) {
      oids_.push_back(ValueOrDie(store_->Insert({set}), "object insert"));
    }
    if (options.build_ssf) {
      ssf_ = ValueOrDie(
          SequentialSignatureFile::Create(options.sig,
                                          storage_.CreateOrOpen("ssf.sig"),
                                          storage_.CreateOrOpen("ssf.oid")),
          "ssf create");
      for (size_t i = 0; i < sets_.size(); ++i) {
        CheckOk(ssf_->Insert(oids_[i], sets_[i]), "ssf insert");
      }
    }
    if (options.build_bssf) {
      bssf_ = ValueOrDie(
          BitSlicedSignatureFile::Create(
              options.sig, static_cast<uint64_t>(options.n) + 64,
              storage_.CreateOrOpen("bssf.slices"),
              storage_.CreateOrOpen("bssf.oid"), BssfInsertMode::kSparse),
          "bssf create");
      CheckOk(bssf_->BulkLoad(oids_, sets_), "bssf bulk load");
    }
    if (options.build_nix) {
      nix_ = ValueOrDie(
          NestedIndex::Create(storage_.CreateOrOpen("nix"),
                              options.nix_fanout),
          "nix create");
      CheckOk(nix_->BulkBuild(oids_, sets_), "nix bulk build");
    }
    storage_.ResetStats();
  }

  // Runs `trials` seeded Dq-element queries through `run` and averages the
  // storage counters and wall clock over them.
  template <typename RunQuery>
  MeasuredCost MeasureLoop(int64_t dq, int trials, uint64_t seed,
                           RunQuery&& run) {
    Rng rng(seed);
    MeasuredCost total;
    for (int t = 0; t < trials; ++t) {
      ElementSet query = rng.SampleWithoutReplacement(
          static_cast<uint64_t>(options_.v), static_cast<uint64_t>(dq));
      storage_.ResetStats();
      auto start = std::chrono::steady_clock::now();
      run(query);
      auto end = std::chrono::steady_clock::now();
      IoStats io = storage_.TotalStats();
      total.reads += static_cast<double>(io.reads());
      total.writes += static_cast<double>(io.writes());
      total.skipped += static_cast<double>(io.skips());
      total.cow += static_cast<double>(io.cows());
      total.hot += static_cast<double>(io.hots());
      total.wall_ms +=
          std::chrono::duration<double, std::milli>(end - start).count();
    }
    total.reads /= trials;
    total.writes /= trials;
    total.skipped /= trials;
    total.cow /= trials;
    total.hot /= trials;
    total.wall_ms /= trials;
    total.pages = total.reads + total.writes;
    return total;
  }

  // Mean measured cost per query over `trials` random Dq-element query sets
  // (the paper's mostly-unsuccessful-search regime).  A non-zero `param`
  // runs the facility's smart strategy (paper §5.1.3 / §5.2.2).
  MeasuredCost Measure(SetAccessFacility* facility, QueryKind kind,
                       int64_t dq, int trials, uint64_t seed,
                       size_t param = 0) {
    return MeasureLoop(dq, trials, seed, [&](const ElementSet& query) {
      CheckOk(ExecuteSetQuery(facility, *store_, kind, query, param).status(),
              "query");
    });
  }

  // Page-count-only shorthand for table columns.
  double MeasureMean(SetAccessFacility* facility, QueryKind kind, int64_t dq,
                     int trials, uint64_t seed, size_t param = 0) {
    return Measure(facility, kind, dq, trials, seed, param).pages;
  }

  const Options& options() const { return options_; }
  StorageManager& storage() { return storage_; }
  MultiObjectStore& store() { return *store_; }
  SequentialSignatureFile& ssf() { return *ssf_; }
  BitSlicedSignatureFile& bssf() { return *bssf_; }
  NestedIndex& nix() { return *nix_; }
  const std::vector<ElementSet>& sets() const { return sets_; }
  const std::vector<Oid>& oids() const { return oids_; }

  // Model-parameter view of this database.
  DatabaseParams ModelDb() const {
    DatabaseParams db;
    db.n = options_.n;
    db.v = options_.v;
    return db;
  }
  SignatureParams ModelSig() const {
    return SignatureParams{options_.sig.f, options_.sig.m};
  }

 private:
  Options options_;
  StorageManager storage_;
  std::unique_ptr<MultiObjectStore> store_;
  std::unique_ptr<SequentialSignatureFile> ssf_;
  std::unique_ptr<BitSlicedSignatureFile> bssf_;
  std::unique_ptr<NestedIndex> nix_;
  std::vector<ElementSet> sets_;
  std::vector<Oid> oids_;
};

// Rounds m_opt = F·ln2/Dt to the nearest integer >= 1.
inline uint32_t RoundedMopt(int64_t f, int64_t dt) {
  double m = static_cast<double>(f) * std::log(2.0) / static_cast<double>(dt);
  long rounded = std::lround(m);
  return rounded < 1 ? 1u : static_cast<uint32_t>(rounded);
}

// Prints the standard bench header.
inline void PrintBenchHeader(const char* id, const char* title) {
  std::printf("==================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("==================================================\n");
}

}  // namespace sigsetdb

#endif  // SIGSET_BENCH_BENCH_UTIL_H_
