// The telemetry layer's integration contract:
//   - enable_telemetry NEVER changes measured page accesses or query
//     answers (the paper-pinned counts stay bit-identical),
//   - every public entry point lands in its latency histogram and the
//     flight recorder,
//   - a fatal status captures a parseable postmortem (in memory and, when
//     postmortem_dir is set, on disk),
//   - the drift watchdog raises structured warnings within bounds,
//   - epoch pins and WAL fsyncs surface as metrics.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/set_index.h"
#include "db/snapshot.h"
#include "db/synchronized_set_index.h"
#include "db/write_batch.h"
#include "json_validate.h"
#include "storage/fault_injecting_page_file.h"
#include "storage/storage_manager.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

constexpr uint64_t kV = 400;
constexpr uint64_t kDt = 8;
constexpr uint64_t kSeed = 777;

std::vector<ElementSet> MakeSets(int n, uint64_t seed = kSeed) {
  Rng rng(seed);
  std::vector<ElementSet> sets;
  for (int i = 0; i < n; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(kV, kDt);
    NormalizeSet(&set);
    sets.push_back(std::move(set));
  }
  return sets;
}

std::vector<std::pair<QueryKind, ElementSet>> MakeQueries(int n) {
  Rng rng(kSeed + 1);
  std::vector<std::pair<QueryKind, ElementSet>> queries;
  for (int i = 0; i < n; ++i) {
    QueryKind kind = i % 3 == 0   ? QueryKind::kSubset
                     : i % 3 == 1 ? QueryKind::kSuperset
                                  : QueryKind::kEquals;
    ElementSet query = rng.SampleWithoutReplacement(kV, 1 + (i % 4));
    NormalizeSet(&query);
    queries.emplace_back(kind, std::move(query));
  }
  return queries;
}

struct WorkloadObservation {
  std::vector<uint64_t> pages;               // per query
  std::vector<std::vector<uint64_t>> oids;   // per query, sorted
};

// Runs the canonical insert + query workload and returns its per-query
// page accesses and answers.  `index_out` optionally keeps the index alive.
WorkloadObservation RunWorkload(StorageManager* storage,
                                const SetIndex::Options& options,
                                std::unique_ptr<SetIndex>* index_out) {
  auto index_or = SetIndex::Create(storage, "idx", options);
  EXPECT_TRUE(index_or.ok()) << index_or.status().ToString();
  std::unique_ptr<SetIndex> index = std::move(index_or).value();
  for (const ElementSet& set : MakeSets(40)) {
    auto oid = index->Insert(set);
    EXPECT_TRUE(oid.ok()) << oid.status().ToString();
  }
  WorkloadObservation obs;
  for (const auto& [kind, query] : MakeQueries(12)) {
    auto result = index->Query(kind, query);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    obs.pages.push_back(result->page_accesses);
    std::vector<uint64_t> oids;
    for (Oid oid : result->result.oids) oids.push_back(oid.value());
    std::sort(oids.begin(), oids.end());
    obs.oids.push_back(std::move(oids));
  }
  if (index_out != nullptr) *index_out = std::move(index);
  return obs;
}

// The load-bearing differential: identical workloads with telemetry off and
// on must produce bit-identical page counts and answers.  This is what lets
// the paper benches stay valid with the observability layer linked in.
TEST(TelemetryDifferentialTest, PageCountsAreBitIdenticalWithTelemetryOn) {
  SetIndex::Options off;
  StorageManager storage_off;
  WorkloadObservation base = RunWorkload(&storage_off, off, nullptr);

  SetIndex::Options on = off;
  on.enable_telemetry = true;
  StorageManager storage_on;
  WorkloadObservation telemetry = RunWorkload(&storage_on, on, nullptr);

  ASSERT_EQ(base.pages.size(), telemetry.pages.size());
  for (size_t i = 0; i < base.pages.size(); ++i) {
    EXPECT_EQ(base.pages[i], telemetry.pages[i])
        << "telemetry changed page accesses of query " << i;
    EXPECT_EQ(base.oids[i], telemetry.oids[i])
        << "telemetry changed the answer of query " << i;
  }
}

// Same differential with the full concurrent feature set stacked on.
TEST(TelemetryDifferentialTest, IdenticalUnderSnapshotsWalAndThreads) {
  SetIndex::Options off;
  off.enable_snapshots = true;
  off.enable_wal = true;
  off.num_threads = 4;
  StorageManager storage_off;
  WorkloadObservation base = RunWorkload(&storage_off, off, nullptr);

  SetIndex::Options on = off;
  on.enable_telemetry = true;
  StorageManager storage_on;
  WorkloadObservation telemetry = RunWorkload(&storage_on, on, nullptr);

  ASSERT_EQ(base.pages.size(), telemetry.pages.size());
  for (size_t i = 0; i < base.pages.size(); ++i) {
    EXPECT_EQ(base.pages[i], telemetry.pages[i]);
    EXPECT_EQ(base.oids[i], telemetry.oids[i]);
  }
}

TEST(TelemetryTest, EveryEntryPointLandsInItsHistogram) {
  StorageManager storage;
  SetIndex::Options options;
  options.enable_telemetry = true;
  auto index = SetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(index.ok());
  SetIndex* idx = index->get();
  ASSERT_NE(idx->flight_recorder(), nullptr);
  ASSERT_NE(idx->drift_watchdog(), nullptr);

  std::vector<ElementSet> sets = MakeSets(30);
  std::vector<Oid> oids;
  for (const ElementSet& set : sets) {
    auto oid = idx->Insert(set);
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(idx->Delete(oids[i]).ok());
  WriteBatch batch;
  batch.Delete(oids[5]);
  batch.Insert(sets[0]);
  ASSERT_TRUE(idx->ApplyBatch(batch).ok());
  ASSERT_TRUE(idx->Checkpoint().ok());
  ASSERT_TRUE(idx->Compact().ok());
  int supersets = 0, subsets = 0, equals = 0;
  for (const auto& [kind, query] : MakeQueries(12)) {
    ASSERT_TRUE(idx->Query(kind, query).ok());
    if (kind == QueryKind::kSuperset) ++supersets;
    if (kind == QueryKind::kSubset) ++subsets;
    if (kind == QueryKind::kEquals) ++equals;
  }

  MetricsRegistry* metrics = idx->metrics();
  auto hist_count = [&](const char* name) {
    const Histogram* h = metrics->FindHistogram(name);
    return h == nullptr ? uint64_t{0} : h->count();
  };
  EXPECT_EQ(hist_count("op.insert.latency_us"), 30u);
  EXPECT_EQ(hist_count("op.delete.latency_us"), 5u);
  EXPECT_EQ(hist_count("op.batch.latency_us"), 1u);
  EXPECT_EQ(hist_count("op.compact.latency_us"), 1u);
  // One explicit checkpoint plus the one Compact commits through.
  EXPECT_EQ(hist_count("op.checkpoint.latency_us"), 2u);
  EXPECT_EQ(hist_count("query.superset.latency_us"),
            static_cast<uint64_t>(supersets));
  EXPECT_EQ(hist_count("query.subset.latency_us"),
            static_cast<uint64_t>(subsets));
  EXPECT_EQ(hist_count("query.equals.latency_us"),
            static_cast<uint64_t>(equals));

  // Every op above also became a flight event.
  EXPECT_GE(idx->flight_recorder()->total_recorded(), 30u + 5 + 1 + 1 + 12);
}

TEST(TelemetryTest, QueryEventsCarryStableFingerprints) {
  StorageManager storage;
  SetIndex::Options options;
  options.enable_telemetry = true;
  options.flight_recorder_capacity = 1024;
  auto index = SetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(index.ok());
  SetIndex* idx = index->get();
  for (const ElementSet& set : MakeSets(10)) {
    ASSERT_TRUE(idx->Insert(set).ok());
  }
  const ElementSet query = {3, 17};
  ASSERT_TRUE(idx->Query(QueryKind::kSuperset, query).ok());
  ASSERT_TRUE(idx->Query(QueryKind::kSuperset, query).ok());
  ASSERT_TRUE(idx->Query(QueryKind::kSubset, query).ok());

  std::vector<uint64_t> fingerprints;
  for (const FlightEvent& event : idx->flight_recorder()->Events()) {
    if (event.op == FlightOp::kQuery) {
      EXPECT_NE(event.fingerprint, 0u);
      EXPECT_NE(event.detail[0], '\0') << "query event lost its plan detail";
      fingerprints.push_back(event.fingerprint);
    }
  }
  ASSERT_EQ(fingerprints.size(), 3u);
  EXPECT_EQ(fingerprints[0], fingerprints[1]);  // same kind + query set
  EXPECT_NE(fingerprints[0], fingerprints[2]);  // kind differs
}

TEST(TelemetryTest, FatalStatusCapturesParseablePostmortem) {
  FaultInjector injector;
  StorageManager storage;
  storage.SetInterceptor(
      [&injector](std::unique_ptr<PageFile> base) -> std::unique_ptr<
                                                      PageFile> {
        return std::make_unique<FaultInjectingPageFile>(std::move(base),
                                                        &injector);
      });
  SetIndex::Options options;
  options.enable_telemetry = true;
  options.postmortem_dir = ::testing::TempDir();
  const std::string prefix = options.postmortem_dir + "/idx.postmortem";
  std::remove((prefix + ".txt").c_str());
  std::remove((prefix + ".json").c_str());

  auto index = SetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  SetIndex* idx = index->get();
  std::vector<ElementSet> sets = MakeSets(8);
  ASSERT_TRUE(idx->Insert(sets[0]).ok());
  EXPECT_TRUE(idx->last_postmortem_json().empty());

  // Every page I/O from here on fails: the next mutation dies with an
  // injected I/O error, which is fatal, which must one-shot the postmortem.
  injector.CrashAt(injector.ops());
  Status failed = Status::OK();
  for (size_t i = 1; i < sets.size() && failed.ok(); ++i) {
    failed = idx->Insert(sets[i]).status();
  }
  ASSERT_FALSE(failed.ok()) << "fault injection never fired";

  const std::string& json = idx->last_postmortem_json();
  ASSERT_FALSE(json.empty());
  std::string error;
  EXPECT_TRUE(testjson::IsValidJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("fatal status"), std::string::npos);

  // And the on-disk artifacts (plain stdio, so they write despite the
  // page-layer faults).
  std::ifstream text_file(prefix + ".txt");
  EXPECT_TRUE(text_file.good());
  std::ifstream json_file(prefix + ".json");
  ASSERT_TRUE(json_file.good());
  std::stringstream disk_json;
  disk_json << json_file.rdbuf();
  EXPECT_TRUE(testjson::IsValidJson(disk_json.str(), &error)) << error;
  std::remove((prefix + ".txt").c_str());
  std::remove((prefix + ".json").c_str());
}

TEST(TelemetryTest, DriftWatchdogRaisesStructuredWarning) {
  StorageManager storage;
  SetIndex::Options options;
  options.enable_telemetry = true;
  // Impossible bounds: any residual (every stage has one; measured and
  // fractional predicted pages never coincide exactly) trips the warning.
  options.drift.rel_tolerance = -1.0;
  options.drift.abs_tolerance_pages = -1.0;
  options.drift.min_samples = 1;
  auto index = SetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(index.ok());
  SetIndex* idx = index->get();
  for (const ElementSet& set : MakeSets(20)) {
    ASSERT_TRUE(idx->Insert(set).ok());
  }
  for (const auto& [kind, query] : MakeQueries(6)) {
    ASSERT_TRUE(idx->Query(kind, query).ok());
  }

  EXPECT_GE(idx->drift_watchdog()->warnings(), 1u);
  EXPECT_GE(idx->metrics()->CounterValue("drift.warnings"), 1u);
  EXPECT_FALSE(idx->drift_watchdog()->Stats().empty());

  // The residual means export as drift.* gauges.
  bool found_drift_gauge = false;
  for (const auto& gauge : idx->metrics()->Snapshot().gauges) {
    if (gauge.first.rfind("drift.", 0) == 0) found_drift_gauge = true;
  }
  EXPECT_TRUE(found_drift_gauge);

  // And the warning became a structured flight event naming the stage.
  bool found_warning_event = false;
  for (const FlightEvent& event : idx->flight_recorder()->Events()) {
    if (event.op == FlightOp::kDriftWarning) {
      found_warning_event = true;
      EXPECT_NE(event.detail[0], '\0');
    }
  }
  EXPECT_TRUE(found_warning_event);
}

// A trace with one top-level stage per (name, measured pages, predicted
// pages) and the whole plan's prediction.
QueryTrace MakeTrace(
    const std::string& plan,
    const std::vector<std::tuple<const char*, uint64_t, double>>& stages,
    double predicted_total) {
  QueryTrace trace;
  trace.plan = plan;
  for (const auto& [name, measured, predicted] : stages) {
    TraceSpan* span = trace.AddStage(name);
    span->page_reads = measured;
    span->predicted_pages = predicted;
  }
  trace.predicted_total = predicted_total;
  return trace;
}

// Pins the watchdog's exports for a fixed trace sequence over two
// facilities: every drift.* gauge, Stats() in key order, and the rising
// edges (one stage leaves its bounds, returns, and leaves them again).
TEST(DriftWatchdogPinTest, GaugesStatsAndRisingEdgesAreExact) {
  MetricsRegistry registry;
  FlightRecorder recorder(64);
  DriftOptions options;
  options.rel_tolerance = 0.5;
  options.abs_tolerance_pages = 4.0;
  options.min_samples = 2;
  DriftWatchdog watchdog(&registry, &recorder, options);

  const QueryTrace bssf_near = MakeTrace(
      "bssf smart(k=2)",
      {{"candidate selection", 10, 10.0},
       {"oid lookup", 2, 1.5},
       {"resolution", 4, 4.5}},
      16.0);
  const QueryTrace bssf_far = MakeTrace(
      "bssf smart(k=2)",
      {{"candidate selection", 40, 10.0},
       {"oid lookup", 2, 1.5},
       {"resolution", 4, 4.5}},
      16.0);
  // A Database plan names its attribute; the unpredicted stage is skipped.
  const QueryTrace nix_far = MakeTrace(
      "tags via nix plain",
      {{"candidate selection", 30, 6.0},
       {"resolution", 1, 1.0},
       {"join probe", 5, -1.0}},
      7.0);
  const QueryTrace unplanned =
      MakeTrace("", {{"candidate selection", 9, 1.0}}, 1.0);

  watchdog.ObserveTrace(bssf_near);
  watchdog.ObserveTrace(nix_far);
  watchdog.ObserveTrace(unplanned);
  EXPECT_EQ(watchdog.warnings(), 0u);  // one sample each: below min_samples
  watchdog.ObserveTrace(bssf_far);     // bssf.candidate_selection, bssf.total
  watchdog.ObserveTrace(nix_far);      // nix.candidate_selection, nix.total
  EXPECT_EQ(watchdog.warnings(), 4u);
  // Near traces pull bssf.candidate_selection's mean |residual| of 30 pages
  // over n samples under 4 pages at n = 8, which re-arms it; the far trace
  // then raises it again.  bssf.total falls back inside at n = 4 (mean 7.5
  // pages, relative 0.47).
  for (int i = 0; i < 6; ++i) watchdog.ObserveTrace(bssf_near);
  EXPECT_EQ(watchdog.warnings(), 4u);
  watchdog.ObserveTrace(bssf_far);
  EXPECT_EQ(watchdog.warnings(), 5u);
  watchdog.Observe("nix.resolution", 3.0, 1.0);

  struct Expected {
    const char* key;
    uint64_t samples;
    double sum_measured, sum_predicted, sum_abs_residual;
    bool warning;
  };
  const Expected expected[] = {
      {"bssf.candidate_selection", 9, 150, 90, 60, true},
      {"bssf.oid_lookup", 9, 18, 13.5, 4.5, false},
      {"bssf.resolution", 9, 36, 40.5, 4.5, false},
      {"bssf.total", 9, 204, 144, 60, false},
      {"nix.candidate_selection", 2, 60, 12, 48, true},
      {"nix.resolution", 3, 5, 3, 2, false},
      {"nix.total", 2, 72, 14, 58, true},
  };
  const auto stats = watchdog.Stats();
  ASSERT_EQ(stats.size(), std::size(expected));
  for (size_t i = 0; i < stats.size(); ++i) {
    const Expected& e = expected[i];
    const DriftWatchdog::StageStats& got = stats[i].second;
    EXPECT_EQ(stats[i].first, e.key);
    EXPECT_EQ(got.samples, e.samples) << e.key;
    EXPECT_EQ(got.sum_measured, e.sum_measured) << e.key;
    EXPECT_EQ(got.sum_predicted, e.sum_predicted) << e.key;
    EXPECT_EQ(got.sum_abs_residual, e.sum_abs_residual) << e.key;
    EXPECT_EQ(got.warning, e.warning) << e.key;
    const double mean_abs = e.sum_abs_residual / e.samples;
    const double mean_pred = e.sum_predicted / e.samples;
    const double mean_rel = mean_abs / (mean_pred < 1.0 ? 1.0 : mean_pred);
    const std::string prefix = std::string("drift.") + e.key;
    EXPECT_EQ(registry.GaugeValue(prefix + ".mean_abs_residual"), mean_abs)
        << e.key;
    EXPECT_EQ(registry.GaugeValue(prefix + ".mean_rel_residual"), mean_rel)
        << e.key;
    EXPECT_EQ(registry.GaugeValue(prefix + ".samples"),
              static_cast<double>(e.samples))
        << e.key;
  }
  size_t drift_gauges = 0;
  for (const auto& gauge : registry.Snapshot().gauges) {
    if (gauge.first.rfind("drift.", 0) == 0) ++drift_gauges;
  }
  EXPECT_EQ(drift_gauges, 3 * std::size(expected));
  EXPECT_EQ(registry.CounterValue("drift.warnings"), 5u);

  std::vector<std::string> details;
  for (const FlightEvent& event : recorder.Events()) {
    if (event.op == FlightOp::kDriftWarning) details.push_back(event.detail);
  }
  const std::vector<std::string> want = {
      "bssf.candidate_selection abs=" + std::to_string(15.0),
      "bssf.total abs=" + std::to_string(15.0),
      "nix.candidate_selection abs=" + std::to_string(24.0),
      "nix.total abs=" + std::to_string(29.0),
      "bssf.candidate_selection abs=" + std::to_string(60.0 / 9),
  };
  EXPECT_EQ(details, want);
}

// Readers plan and feed the drift watchdog while a writer moves N under
// them, so the plan memo and the watchdog are shared across threads
// (tools/run_sanitizers.sh telemetry runs this under TSan).
TEST(TelemetryConcurrencyTest, ReadersPlanAndObserveBesideAWriter) {
  StorageManager storage;
  SetIndex::Options options;
  options.enable_telemetry = true;
  auto created = SynchronizedSetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  SynchronizedSetIndex& index = **created;
  const std::vector<ElementSet> sets = MakeSets(160);
  std::vector<Oid> oids;
  for (int i = 0; i < 80; ++i) {
    auto oid = index.Insert(sets[i]);
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }

  constexpr int kReaders = 3;
  constexpr int kQueriesPerReader = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(kSeed + 10 + t);
      for (int q = 0; q < kQueriesPerReader; ++q) {
        const QueryKind kind = q % 3 == 0   ? QueryKind::kSubset
                               : q % 3 == 1 ? QueryKind::kSuperset
                                            : QueryKind::kOverlaps;
        ElementSet query = rng.SampleWithoutReplacement(
            kV, kind == QueryKind::kSubset ? 20 + q % 40 : 1 + q % 4);
        if (!index.Query(kind, query).ok()) failures.fetch_add(1);
      }
    });
  }
  // One write per step: N moves by one between the readers' plans.
  for (int i = 80; i < 160; ++i) {
    auto oid = index.Insert(sets[i]);
    ASSERT_TRUE(oid.ok());
    if (i % 2 == 0) {
      ASSERT_TRUE(index.Delete(oids[static_cast<size_t>(i - 80)]).ok());
    }
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);
  SetIndex* idx = index.index();
  EXPECT_EQ(idx->metrics()->CounterValue("query.count"),
            static_cast<uint64_t>(kReaders * kQueriesPerReader));
  // Overlap plans carry no stage predictions, so only the ⊆ and ⊇ queries
  // reach the watchdog, each once under its facility's total.
  uint64_t totals = 0;
  for (const auto& [key, stats] : idx->drift_watchdog()->Stats()) {
    if (key.size() > 6 && key.compare(key.size() - 6, 6, ".total") == 0) {
      totals += stats.samples;
    }
  }
  EXPECT_EQ(totals, static_cast<uint64_t>(kReaders * kQueriesPerReader * 2 / 3));
}

TEST(TelemetryTest, EpochPinsAndSnapshotQueriesSurfaceAsMetrics) {
  StorageManager storage;
  SetIndex::Options options;
  options.enable_telemetry = true;
  options.enable_snapshots = true;
  auto index = SetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(index.ok());
  SetIndex* idx = index->get();
  for (const ElementSet& set : MakeSets(10)) {
    ASSERT_TRUE(idx->Insert(set).ok());
  }
  MetricsRegistry* metrics = idx->metrics();

  {
    auto snapshot = idx->GetSnapshot();
    ASSERT_TRUE(snapshot.ok());
    EXPECT_DOUBLE_EQ(metrics->GaugeValue("epoch.pins"), 1.0);
    auto result = (*snapshot)->Query(QueryKind::kSuperset, {1});
    ASSERT_TRUE(result.ok());
    const Histogram* h = metrics->FindHistogram("query.snapshot.latency_us");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->count(), 1u);
  }
  // Pin released: the gauge returns to zero and the duration was recorded.
  EXPECT_DOUBLE_EQ(metrics->GaugeValue("epoch.pins"), 0.0);
  const Histogram* pin_us = metrics->FindHistogram("epoch.pin_us");
  ASSERT_NE(pin_us, nullptr);
  EXPECT_EQ(pin_us->count(), 1u);

  bool found_snapshot_event = false;
  for (const FlightEvent& event : idx->flight_recorder()->Events()) {
    if (event.op == FlightOp::kSnapshotQuery) {
      found_snapshot_event = true;
      EXPECT_NE(event.fingerprint, 0u);
      EXPECT_GT(event.epoch, 0u);
    }
  }
  EXPECT_TRUE(found_snapshot_event);
}

TEST(TelemetryTest, WalFsyncLatencySurfacesAsHistogram) {
  StorageManager storage;
  SetIndex::Options options;
  options.enable_telemetry = true;
  options.enable_wal = true;
  auto index = SetIndex::Create(&storage, "idx", options);
  ASSERT_TRUE(index.ok());
  SetIndex* idx = index->get();
  for (const ElementSet& set : MakeSets(3)) {
    ASSERT_TRUE(idx->Insert(set).ok());
  }
  const Histogram* fsync = idx->metrics()->FindHistogram("wal.fsync_us");
  ASSERT_NE(fsync, nullptr);
  EXPECT_GE(fsync->count(), 3u);

  // Insert events carry the WAL position they committed at.
  bool found_lsn = false;
  for (const FlightEvent& event : idx->flight_recorder()->Events()) {
    if (event.op == FlightOp::kInsert && event.wal_lsn > 0) found_lsn = true;
  }
  EXPECT_TRUE(found_lsn);
}

// The multi-attribute Database facade mirrors the SetIndex contract.
TEST(DatabaseTelemetryTest, DifferentialAndHistograms) {
  Database::Options options;
  Database::AttributeOptions attr_a;
  attr_a.name = "a";
  attr_a.sig = {64, 2};
  Database::AttributeOptions attr_b;
  attr_b.name = "b";
  attr_b.maintain_bssf = false;
  attr_b.sig = {64, 2};
  options.attributes = {attr_a, attr_b};
  options.capacity = 256;

  Rng rng(kSeed + 2);
  std::vector<std::vector<ElementSet>> values;
  for (int i = 0; i < 20; ++i) {
    std::vector<ElementSet> v = {rng.SampleWithoutReplacement(64, 5),
                                 rng.SampleWithoutReplacement(64, 5)};
    NormalizeSet(&v[0]);
    NormalizeSet(&v[1]);
    values.push_back(std::move(v));
  }
  std::vector<ElementSet> probes;
  for (int i = 0; i < 6; ++i) {
    ElementSet probe = rng.SampleWithoutReplacement(64, 1 + (i % 2));
    NormalizeSet(&probe);
    probes.push_back(std::move(probe));
  }

  auto run = [&](bool telemetry, StorageManager* storage,
                 std::unique_ptr<Database>* db_out) {
    Database::Options opts = options;
    opts.enable_telemetry = telemetry;
    auto db = Database::Create(storage, "class", opts);
    EXPECT_TRUE(db.ok()) << db.status().ToString();
    for (const auto& v : values) EXPECT_TRUE((*db)->Insert(v).ok());
    std::vector<uint64_t> pages;
    for (const ElementSet& probe : probes) {
      auto result = (*db)->Query({{"a", QueryKind::kSuperset, probe}});
      EXPECT_TRUE(result.ok()) << result.status().ToString();
      pages.push_back(result->page_accesses);
    }
    if (db_out != nullptr) *db_out = std::move(db).value();
    return pages;
  };

  StorageManager storage_off;
  std::vector<uint64_t> base = run(false, &storage_off, nullptr);
  StorageManager storage_on;
  std::unique_ptr<Database> db;
  std::vector<uint64_t> telemetry = run(true, &storage_on, &db);
  EXPECT_EQ(base, telemetry)
      << "telemetry changed Database page accesses";

  EXPECT_EQ(db->metrics()->FindHistogram("op.insert.latency_us")->count(),
            20u);
  EXPECT_EQ(db->metrics()->FindHistogram("query.superset.latency_us")->count(),
            probes.size());
  EXPECT_GE(db->flight_recorder()->total_recorded(), 26u);
}

}  // namespace
}  // namespace sigsetdb
