// bench_wal — WAL group-commit throughput: acknowledged writes per second
// as the number of concurrent committers grows.
//
// The log's durability cost is the fsync, so a simulated-latency PageFile
// (--fsync-us, default 200us — a fast disk's flush) stands in for the
// device.  One writer means one fsync per acknowledged record; with many
// concurrent writers the leader/follower protocol retires a whole group of
// commits per fsync, and throughput should scale toward writers/fsync — the
// acceptance target is >= 3x the singleton rate at 64 writers.
//
//   bench_wal [--fsync-us N] [--writes N] [--json out.jsonl]
//
// JSONL records carry {threads, fsync_us, writes, writes_per_sec, fsyncs,
// mean_group, speedup} in params; wall_ms is the measured wall clock.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "db/log_record.h"
#include "db/wal.h"
#include "storage/page_file.h"

namespace sigsetdb {
namespace {

// InMemoryPageFile whose Sync() costs a fixed wall-clock latency — the only
// part of a real device the group-commit protocol cares about.
class SlowSyncPageFile : public PageFile {
 public:
  SlowSyncPageFile(std::string name, uint32_t sync_us)
      : base_(std::move(name)), sync_us_(sync_us) {}

  using PageFile::Read;
  using PageFile::Write;

  const std::string& name() const override { return base_.name(); }
  PageId num_pages() const override { return base_.num_pages(); }
  StatusOr<PageId> Allocate() override { return base_.Allocate(); }
  Status Read(PageId id, Page* out, IoStats* io) override {
    return base_.Read(id, out, io);
  }
  Status Write(PageId id, const Page& page, IoStats* io) override {
    return base_.Write(id, page, io);
  }
  Status Sync() override {
    if (sync_us_ > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(sync_us_));
    }
    syncs_.fetch_add(1, std::memory_order_relaxed);
    return base_.Sync();
  }
  IoStats& stats() override { return base_.stats(); }
  const IoStats& stats() const override { return base_.stats(); }

  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }

 private:
  InMemoryPageFile base_;
  uint32_t sync_us_;
  std::atomic<uint64_t> syncs_{0};
};

struct RunResult {
  double writes_per_sec = 0;
  uint64_t fsyncs = 0;
  double mean_group = 0;
  double wall_ms = 0;
};

RunResult RunGroupCommit(size_t threads, uint64_t total_writes,
                         uint32_t fsync_us) {
  SlowSyncPageFile file("wal", fsync_us);
  auto log = ValueOrDie(WriteAheadLog::Create(&file, 0, nullptr),
                        "wal create");

  std::atomic<uint64_t> next{0};
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&log, &next, total_writes] {
      const ElementSet set{3, 17, 42, 99, 1040};
      for (;;) {
        const uint64_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= total_writes) break;
        LogRecord rec = LogRecord::Mutation({}, {LogEntry{Oid{i}, {set}}});
        CheckOk(log->AppendAndCommit(rec).status(), "append+commit");
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const auto end = std::chrono::steady_clock::now();

  RunResult r;
  r.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
  r.writes_per_sec =
      static_cast<double>(total_writes) / (r.wall_ms / 1000.0);
  r.fsyncs = file.syncs();
  r.mean_group = r.fsyncs > 0
                     ? static_cast<double>(total_writes) /
                           static_cast<double>(r.fsyncs)
                     : 0.0;
  return r;
}

int Main(int argc, char** argv) {
  BenchJson::Global().Init("wal", argc, argv);
  uint32_t fsync_us = 200;
  uint64_t total_writes = 2000;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--fsync-us") == 0) {
      fsync_us = static_cast<uint32_t>(std::atoi(argv[i + 1]));
    } else if (std::strcmp(argv[i], "--writes") == 0) {
      total_writes = static_cast<uint64_t>(std::atoll(argv[i + 1]));
    }
  }

  PrintBenchHeader("bench_wal",
                   "WAL group commit: acked writes/sec vs concurrent writers");
  std::printf("fsync latency %u us, %llu acknowledged writes per point\n\n",
              fsync_us, static_cast<unsigned long long>(total_writes));
  std::printf("%8s %14s %10s %12s %10s\n", "writers", "writes/sec", "fsyncs",
              "mean group", "speedup");

  double singleton = 0;
  for (size_t threads : {size_t{1}, size_t{8}, size_t{64}, size_t{256}}) {
    RunResult r = RunGroupCommit(threads, total_writes, fsync_us);
    if (threads == 1) singleton = r.writes_per_sec;
    const double speedup =
        singleton > 0 ? r.writes_per_sec / singleton : 0.0;
    std::printf("%8zu %14.0f %10llu %12.1f %9.2fx\n", threads,
                r.writes_per_sec, static_cast<unsigned long long>(r.fsyncs),
                r.mean_group, speedup);
    MeasuredCost measured;
    measured.wall_ms = r.wall_ms;
    EmitBenchRecord(
        "wal.group_commit",
        {{"threads", static_cast<double>(threads)},
         {"fsync_us", static_cast<double>(fsync_us)},
         {"writes", static_cast<double>(total_writes)},
         {"writes_per_sec", r.writes_per_sec},
         {"fsyncs", static_cast<double>(r.fsyncs)},
         {"mean_group", r.mean_group},
         {"speedup", speedup}},
        measured);
  }
  std::printf(
      "\ntarget: >= 3x singleton throughput at 64 concurrent writers\n");
  return 0;
}

}  // namespace
}  // namespace sigsetdb

int main(int argc, char** argv) { return sigsetdb::Main(argc, argv); }
