// Telemetry bench: quantifies the observability layer's overhead and
// exercises the exporters end to end.
//
//   1. Histogram/flight-recorder hot-path cost: median ns per Record()
//      across batches (the tentpole budget is < 100 ns median per op).
//   2. End-to-end overhead: the same query stream through a SetIndex with
//      telemetry off vs on (latency histograms + flight events + internal
//      traces + drift watchdog), in alternating rounds; each side prints
//      its median and IQR over the rounds.
//   3. Exporters: with `--metrics-out <path>` the full registry is written
//      as an OpenMetrics exposition; with `--trace-out <path>` the traced
//      queries (num_threads=4, so parallel worker sub-spans appear) are
//      written as Chrome trace-event JSON loadable in Perfetto.
//
// `--json <path>` additionally emits the usual JSONL records.

#include <algorithm>
#include <cstring>

#include "bench_util.h"
#include "db/set_index.h"
#include "obs/flight_recorder.h"
#include "obs/openmetrics.h"
#include "obs/trace_event.h"

namespace sigsetdb {
namespace {

const char* FindFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

// Median of per-batch mean cost: runs `batches` batches of `per_batch`
// calls to `op`, returns the median batch's per-op nanoseconds.  Batching
// amortizes the clock reads out of the measured loop.
template <typename Op>
double MedianNsPerOp(int batches, int per_batch, Op&& op) {
  std::vector<double> per_op(batches);
  for (int b = 0; b < batches; ++b) {
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < per_batch; ++i) op(b * per_batch + i);
    auto end = std::chrono::steady_clock::now();
    per_op[b] =
        std::chrono::duration<double, std::nano>(end - start).count() /
        per_batch;
  }
  std::sort(per_op.begin(), per_op.end());
  return per_op[per_op.size() / 2];
}

void RunHotPathBench() {
  std::printf("\n-- hot-path cost (median ns per Record) --\n");
  MetricsRegistry registry;
  Histogram* hist = registry.histogram("bench.latency_us");
  const double hist_ns = MedianNsPerOp(64, 100000, [&](int i) {
    hist->Record(static_cast<uint64_t>(i & 0xfff));
  });
  std::printf("  histogram Record       %8.1f ns\n", hist_ns);

  FlightRecorder recorder(512);
  FlightEvent event;
  event.op = FlightOp::kQuery;
  event.SetDetail("bssf smart(s=91)");
  const double ring_ns = MedianNsPerOp(64, 100000, [&](int i) {
    event.fingerprint = static_cast<uint64_t>(i);
    recorder.Record(event);
  });
  std::printf("  flight-recorder Record %8.1f ns\n", ring_ns);
  std::printf("  budget: < 100 ns median per recorded op  [%s]\n",
              hist_ns < 100.0 && ring_ns < 100.0 ? "ok" : "OVER");

  EmitBenchRecord("histogram.record.ns", {{"batches", 64}},
                  MeasuredCost{.wall_ms = hist_ns * 1e-6});
  EmitBenchRecord("flight_recorder.record.ns", {{"batches", 64}},
                  MeasuredCost{.wall_ms = ring_ns * 1e-6});
}

// A small indexed workload: `n` Table-2-shaped sets in a SetIndex with
// telemetry off or on.
std::unique_ptr<SetIndex> BuildIndex(bool telemetry, int n,
                                     StorageManager* storage) {
  SetIndex::Options options;
  options.num_threads = 4;
  options.enable_telemetry = telemetry;
  auto index =
      ValueOrDie(SetIndex::Create(storage, "tele", options), "create");
  Rng rng(19930526);
  for (int i = 0; i < n; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(13000, 10);
    ValueOrDie(index->Insert(set), "insert");
  }
  return index;
}

// Runs every query of `stream` once; returns mean wall ms per query.
double TimeStream(SetIndex* index,
                  const std::vector<std::pair<QueryKind, ElementSet>>& stream) {
  const auto start = std::chrono::steady_clock::now();
  for (const auto& [kind, query] : stream) {
    CheckOk(index->Query(kind, query).status(), "query");
  }
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(end - start).count() /
         static_cast<double>(stream.size());
}

struct Quartiles {
  double q1, median, q3;
};

Quartiles QuartilesOf(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
  };
  return {at(0.25), at(0.5), at(0.75)};
}

// Times the same `queries`-query stream through two indexes over the same
// data, telemetry off and on, in `rounds` alternating rounds (the side that
// runs first alternates too), and prints each side's median and IQR of the
// per-round ms/query.  One run per side cannot separate a 10 % cost from
// the machine's noise; the rounds' spread says how far the medians can be
// trusted.
void RunOverheadBench(int n, int queries, int rounds) {
  std::printf("\n-- end-to-end overhead (%d objects, %d queries, %d rounds) "
              "--\n",
              n, queries, rounds);
  StorageManager storage_off;
  StorageManager storage_on;
  const std::unique_ptr<SetIndex> index_off =
      BuildIndex(/*telemetry=*/false, n, &storage_off);
  const std::unique_ptr<SetIndex> index_on =
      BuildIndex(/*telemetry=*/true, n, &storage_on);
  Rng rng(19930527);
  std::vector<std::pair<QueryKind, ElementSet>> stream;
  for (int q = 0; q < queries; ++q) {
    stream.emplace_back(
        q % 3 == 0 ? QueryKind::kSubset : QueryKind::kSuperset,
        rng.SampleWithoutReplacement(13000, 1 + (q % 6)));
  }
  // One untimed pass each warms the plan memos and the caches.
  TimeStream(index_off.get(), stream);
  TimeStream(index_on.get(), stream);
  std::vector<double> off_ms, on_ms;
  for (int r = 0; r < rounds; ++r) {
    if (r % 2 == 0) {
      off_ms.push_back(TimeStream(index_off.get(), stream));
      on_ms.push_back(TimeStream(index_on.get(), stream));
    } else {
      on_ms.push_back(TimeStream(index_on.get(), stream));
      off_ms.push_back(TimeStream(index_off.get(), stream));
    }
  }
  const Quartiles off = QuartilesOf(off_ms);
  const Quartiles on = QuartilesOf(on_ms);
  std::printf("  telemetry off  median %8.2f us/query  IQR %.2f-%.2f\n",
              off.median * 1e3, off.q1 * 1e3, off.q3 * 1e3);
  std::printf(
      "  telemetry on   median %8.2f us/query  IQR %.2f-%.2f  (%+.1f%%)\n",
      on.median * 1e3, on.q1 * 1e3, on.q3 * 1e3,
      off.median > 0 ? (on.median - off.median) / off.median * 100.0 : 0.0);
  for (const auto& [label, side] :
       {std::pair{"workload.telemetry_off", off},
        std::pair{"workload.telemetry_on", on}}) {
    EmitBenchRecord(label,
                    {{"n", static_cast<double>(n)},
                     {"queries", static_cast<double>(queries)},
                     {"rounds", static_cast<double>(rounds)}},
                    MeasuredCost{.wall_ms = side.median});
  }

  const FlightRecorder* rec = index_on->flight_recorder();
  std::printf("  flight events recorded: %llu (ring capacity %zu)\n",
              static_cast<unsigned long long>(rec->total_recorded()),
              rec->capacity());
}

void RunExporters(const char* metrics_out, const char* trace_out) {
  std::printf("\n-- exporters --\n");
  StorageManager storage;
  SetIndex::Options options;
  options.num_threads = 4;  // parallel worker sub-spans in the traces
  options.enable_telemetry = true;
  auto index =
      ValueOrDie(SetIndex::Create(&storage, "tele", options), "create");
  FlightRecorder::InstallSignalHandler(index->flight_recorder());
  Rng rng(42);
  for (int i = 0; i < 4000; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(13000, 10);
    ValueOrDie(index->Insert(set), "insert");
  }
  TraceEventWriter writer;
  for (int q = 0; q < 32; ++q) {
    ElementSet query = rng.SampleWithoutReplacement(13000, 1 + (q % 6));
    QueryKind kind =
        (q % 3 == 0) ? QueryKind::kSubset : QueryKind::kSuperset;
    auto explained = ValueOrDie(index->Explain(kind, query), "explain");
    writer.AddTrace(explained.trace);
  }
  if (metrics_out != nullptr) {
    CheckOk(WriteOpenMetricsFile(*index->metrics(), metrics_out),
            "write metrics");
    std::printf("  OpenMetrics exposition -> %s\n", metrics_out);
  } else {
    std::printf("  (pass --metrics-out <path> for an OpenMetrics file)\n");
  }
  if (trace_out != nullptr) {
    CheckOk(writer.WriteFile(trace_out), "write trace");
    std::printf("  Perfetto trace (%zu events) -> %s\n", writer.num_events(),
                trace_out);
  } else {
    std::printf("  (pass --trace-out <path> for a Perfetto trace)\n");
  }
  const DriftWatchdog* watchdog = index->drift_watchdog();
  std::printf("  drift stages observed: %zu, warnings: %llu\n",
              watchdog->Stats().size(),
              static_cast<unsigned long long>(watchdog->warnings()));
  FlightRecorder::InstallSignalHandler(nullptr);
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) {
  using namespace sigsetdb;
  BenchJson::Global().Init("telemetry", argc, argv);
  PrintBenchHeader("telemetry",
                   "observability overhead and exporter smoke test");
  RunHotPathBench();
  RunOverheadBench(/*n=*/4000, /*queries=*/64, /*rounds=*/11);
  RunExporters(FindFlag(argc, argv, "--metrics-out"),
               FindFlag(argc, argv, "--trace-out"));
  return 0;
}
