// Tracing for the traced run, built only from the engine's public surface:
//
//   * TimingPageFile — a PageFile decorator installed with
//     StorageManager::SetInterceptor before Create/Open.  It forwards every
//     call (counts land on the wrapped file exactly as without it) and
//     records the call's file class, operation and interval.
//   * Tracer — times each call the client makes into the engine as a
//     top-level span, attaches the storage intervals the call covered and
//     the stage spans Explain/ExplainSetJoin return, and keeps the spans in
//     memory until the run writes them out.
//
// Self time is a span minus its children.  Stages are children of the
// facade call; storage intervals are children of the stage that reads their
// file class (object files: resolution; facility files: candidate
// selection), or of the call itself when it reports no stages.

#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "harness.h"
#include "storage/page_file.h"
#include "storage/storage_manager.h"

namespace perfbench {

// Page files grouped by the layer that owns them.
enum StorageClass { kObjects, kSig, kNix, kWal, kMeta, kNumClasses };
enum IoOp { kRead, kWrite, kSync, kNumOps };

const char* StorageClassName(int cls);
StorageClass ClassifyFile(const std::string& file_name);

// Storage time and call counts, per class and operation.
struct IoTotals {
  int64_t ns[kNumClasses][kNumOps] = {};
  uint64_t calls[kNumClasses][kNumOps] = {};

  IoTotals operator-(const IoTotals& other) const;
  IoTotals& operator+=(const IoTotals& other);
  int64_t TotalNs() const;
  int64_t ClassNs(int cls) const;
};

// Receives the intervals recorded by TimingPageFile.  Single client thread:
// the engine runs with num_threads = 1, so every page-file call of a
// measured operation happens on the caller's thread.
class IoClock {
 public:
  void Record(StorageClass cls, IoOp op, int64_t start_ns, int64_t end_ns) {
    totals_.ns[cls][op] += end_ns - start_ns;
    ++totals_.calls[cls][op];
  }
  const IoTotals& totals() const { return totals_; }

 private:
  IoTotals totals_;
};

class TimingPageFile final : public sigsetdb::PageFile {
 public:
  TimingPageFile(std::unique_ptr<sigsetdb::PageFile> base, IoClock* clock)
      : base_(std::move(base)),
        clock_(clock),
        cls_(ClassifyFile(base_->name())) {}

  using sigsetdb::PageFile::Read;
  using sigsetdb::PageFile::Write;

  const std::string& name() const override { return base_->name(); }
  sigsetdb::PageId num_pages() const override { return base_->num_pages(); }
  // Allocation extends the file with a zeroed page on the disk backend, so
  // its time is charged as a write (IoStats does not count it).
  sigsetdb::StatusOr<sigsetdb::PageId> Allocate() override;
  sigsetdb::Status Read(sigsetdb::PageId id, sigsetdb::Page* out,
                        sigsetdb::IoStats* io) override;
  sigsetdb::Status Write(sigsetdb::PageId id, const sigsetdb::Page& page,
                         sigsetdb::IoStats* io) override;
  sigsetdb::Status Sync() override;
  sigsetdb::IoStats& stats() override { return base_->stats(); }
  const sigsetdb::IoStats& stats() const override { return base_->stats(); }

 private:
  std::unique_ptr<sigsetdb::PageFile> base_;
  IoClock* clock_;
  StorageClass cls_;
};

// Installs the timing decorator on every file `storage` builds from now on.
void InstallTiming(sigsetdb::StorageManager* storage, IoClock* clock);

// Self time per layer over a traced stream, in nanoseconds.  The fields
// partition the stream's wall time: every top-level span is split between
// db/query/sig/nix self time and storage, and the client's own time between
// calls is client_self.
struct LayerTimes {
  int64_t db_self = 0;
  int64_t db_domain_estimate = 0;
  int64_t query_plan = 0;
  int64_t query_resolve_self = 0;
  int64_t query_join_self = 0;
  int64_t sig_self = 0;
  int64_t nix_self = 0;
  int64_t client_self = 0;
  IoTotals io;            // storage inside top-level spans
  int64_t top_level = 0;  // sum of top-level span durations

  int64_t Sum() const {
    return db_self + db_domain_estimate + query_plan + query_resolve_self +
           query_join_self + sig_self + nix_self + client_self + io.TotalNs();
  }
};

class Tracer {
 public:
  explicit Tracer(const IoClock* clock) : clock_(clock) {}

  struct Stage {
    std::string name;
    int64_t dur_ns;
  };
  struct Mark {
    int64_t start_ns;
    IoTotals io;
  };
  struct Closed {
    int64_t dur_ns;
    IoTotals io;  // storage intervals inside the span
  };

  Mark Begin() const { return {NowNs(), clock_->totals()}; }
  // Closes a top-level span of operation `op`, keeps it for the dump and
  // adds its duration and storage time to layers().
  Closed End(const Mark& mark, uint64_t op, const char* name);
  // Attaches the stage spans an Explain call returned to the last span.
  void SetStages(std::vector<Stage> stages) {
    spans_.back().stages = std::move(stages);
  }

  LayerTimes& layers() { return layers_; }
  const LayerTimes& layers() const { return layers_; }

  // Writes one JSON object per top-level span.
  bool WriteJsonl(const std::string& path) const;

 private:
  struct Span {
    uint64_t op;
    const char* name;
    int64_t start_ns;
    int64_t dur_ns;
    std::vector<Stage> stages;
    IoTotals io;
  };

  const IoClock* clock_;
  LayerTimes layers_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
