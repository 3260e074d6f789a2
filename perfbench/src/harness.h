// Shared plumbing of the perfbench binary: command-line arguments, the
// pausable wall clock of the timed region, latency samples, the run report
// (metrics + attempted/failed accounting) and the environment line.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Exact-count replay also runs for this second seed when set.
  bool has_replay_seed = false;
  uint64_t replay_seed = 0;
  // Directory for disk-backend page files (emptied by the caller).
  std::string work_dir;
  // Directory the traced run writes its span dump to.
  std::string spans_dir;
};

// Wall clock of a timed region.  Pause()/Resume() bracket the oracle checks
// that run between operations, so the checks never count as measured time.
class TimedWall {
 public:
  void Start() {
    elapsed_ns_ = 0;
    start_ns_ = NowNs();
    running_ = true;
  }
  void Pause() {
    if (!running_) return;
    elapsed_ns_ += NowNs() - start_ns_;
    running_ = false;
  }
  void Resume() {
    if (running_) return;
    start_ns_ = NowNs();
    running_ = true;
  }
  double Seconds() const {
    const int64_t live = running_ ? NowNs() - start_ns_ : 0;
    return static_cast<double>(elapsed_ns_ + live) * 1e-9;
  }

 private:
  int64_t start_ns_ = 0;
  int64_t elapsed_ns_ = 0;
  bool running_ = false;
};

// Latency samples of one operation class.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  // Nearest-rank quantile, q in [0, 1]; 0 when empty.
  double Quantile(double q) const;
  double Median() const { return Quantile(0.5); }

 private:
  std::vector<double> values_;
};

// Everything a run reports: metrics in insertion order, human-readable
// notes, and the attempted/failed operation counts behind error_rate.
class RunReport {
 public:
  void Attempt() { ++attempted_; }
  // Counts one failed (errored or wrong) operation; the first few are
  // printed with their reason.
  void Fail(const std::string& what);
  // Fails the operation unless `status` is OK; returns status.ok().
  bool Check(const sigsetdb::Status& status, const std::string& what);
  void Set(const std::string& name, double value, const std::string& unit);
  void Note(const std::string& line) { notes_.push_back(line); }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  // Prints the notes and metrics, then — as the last stdout line — one JSON
  // object {"workload", "trace", "correct", "attempted", "failed",
  // "metrics": {name: {"value", "unit"}}} for perfbench/run.py to filter.
  void Print(const Args& args) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

// Set-up failures abort the run: nothing can be measured without the
// database, so there is no result to print.
[[noreturn]] inline void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: FATAL: %s\n", what.c_str());
  std::exit(3);
}
inline void Must(const sigsetdb::Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}
template <typename T>
T Must(sigsetdb::StatusOr<T> value, const std::string& what) {
  if (!value.ok()) Die(what + ": " + value.status().ToString());
  return std::move(value).value();
}

// syncfs(2) on the filesystem holding `dir`, so writeback of set-up writes
// (and of the files deleted with earlier set-ups) does not run during the
// measured window.
void SyncFilesystem(const std::string& dir);

// Peak resident set size of this process (VmHWM), MiB.
double PeakRssMiB();

// rss_mb is the peak after set-up and this many measured operations (or the
// whole window, if shorter): peak RSS then compares equal work, however fast
// the window runs, and excludes the client's own bookkeeping, which grows
// with every operation.
inline constexpr uint64_t kRssOps = 10000;

// One line describing the machine: nproc, CPU model, the dispatched
// signature kernels, build type and the filesystem holding `data_dir`.
std::string EnvironmentLine(const std::string& data_dir);

// Median of `values` (0 when empty).
double MedianOf(std::vector<double> values);

// Formats like printf into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
