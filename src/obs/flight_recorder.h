// FlightRecorder: a fixed-size lock-free ring of recent database events —
// the "what was the system doing just before it died" instrument.
//
// Every entry point (mutations, queries, snapshot reads, WAL commits)
// records one FlightEvent: op type, query fingerprint, epoch, WAL LSN, the
// op's page-delta summary, and its Status.  The ring keeps the most recent
// `capacity` events; on a fatal Status, a failpoint crash, or a signal the
// recorder renders them as a human-readable and a JSON postmortem, so every
// simulated crash in the recovery matrix leaves an inspectable artifact.
//
// Concurrency: a producer takes a ticket with one fetch_add, claims the
// ticket's slot with one CAS on the slot's state word, stores the payload
// as relaxed atomic words and marks the slot complete.  Only the claimant
// writes a slot's payload, so two producers a whole ring apart (ticket t
// and t + capacity) can never interleave their words.  A producer that
// finds its slot already holding or claimed by a later ticket drops its
// event, which the ring has overwritten anyway; one that finds an earlier
// ticket still writing waits for it (yielding), which happens only when
// the ring wraps within one Record.  Readers follow the seqlock
// discipline: a reader accepts a slot only when its state reads "complete
// at the expected ticket" both before and after it copies the words, so
// concurrent Record/Events interleavings are race-free under the C++
// memory model (TSan-clean, asserted by the stress test).  Dumping never
// blocks recording and vice versa.

#ifndef SIGSET_OBS_FLIGHT_RECORDER_H_
#define SIGSET_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "util/status.h"

namespace sigsetdb {

// What kind of operation an event records.
enum class FlightOp : uint8_t {
  kInsert = 0,
  kDelete,
  kBatch,
  kCompact,
  kCheckpoint,
  kQuery,
  kSnapshotQuery,
  kJoin,
  kWalCommit,
  kDriftWarning,
  kFatal,
};

// Stable lower-case name ("insert", "drift_warning", ...).
const char* FlightOpName(FlightOp op);

// One recorded event.  Trivially copyable by design: the ring stores the
// raw bytes as atomic words, and the signal-handler dump walks them without
// allocating.
struct FlightEvent {
  uint64_t seq = 0;     // assigned by Record(): global order across producers
  uint64_t micros = 0;  // steady-clock offset from recorder construction
  uint64_t fingerprint = 0;  // query fingerprint; 0 for non-queries
  uint64_t epoch = 0;        // published epoch at record time (0 = none)
  uint64_t wal_lsn = 0;      // last WAL lsn at record time (0 = no WAL)
  uint32_t page_reads = 0;   // the op's IoStats delta
  uint32_t page_writes = 0;
  uint32_t pages_skipped = 0;
  uint32_t pages_cow = 0;
  uint32_t pages_hot = 0;
  int32_t status_code = 0;  // StatusCode as int; 0 = OK
  FlightOp op = FlightOp::kQuery;
  char detail[47] = {};  // plan / error message, NUL-terminated, truncated

  void SetDetail(const std::string& s);
  void SetDelta(const IoStats& delta);
};

// The ring's slot layout is fixed: an event is 14 words, and its counters
// are named 32-bit fields rather than a walk of the page-counter table, so
// the signal-handler dump can read them without allocating.  A new field
// must fit in the padding or shrink `detail`.
static_assert(sizeof(FlightEvent) == 14 * 8, "FlightEvent must stay 14 words");

class FlightRecorder {
 public:
  // `capacity` is rounded up to a power of two (minimum 8).
  explicit FlightRecorder(size_t capacity = 512);

  // Records one event (seq and micros are stamped here).  Callable from
  // any thread, including concurrently with Events(); it waits only for an
  // earlier writer of the same slot (see "Concurrency" above).
  void Record(FlightEvent event);

  // The most recent events, oldest first.  Slots a concurrent writer is
  // mid-overwrite in are dropped (detectably torn), so the result is always
  // a consistent subset.
  std::vector<FlightEvent> Events() const;

  // Postmortem renderings of Events() plus `reason` as the headline.
  std::string PostmortemText(const std::string& reason) const;
  std::string PostmortemJson(const std::string& reason) const;

  // Writes "<path_prefix>.txt" and "<path_prefix>.json" via stdio — never
  // the PageFile layer, so fault injection and page-access counts are
  // untouched by a dump.
  Status WritePostmortem(const std::string& path_prefix,
                         const std::string& reason) const;

  // Events recorded over the recorder's lifetime (>= capacity() means the
  // ring has wrapped and old events were overwritten).
  uint64_t total_recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return mask_ + 1; }

  // Stable fingerprint of a query predicate (kind + element set), so
  // postmortems can correlate repeated shapes without logging the set.
  static uint64_t Fingerprint(int kind, const std::vector<uint64_t>& set);

  // Installs a best-effort SIGSEGV/SIGBUS/SIGABRT handler that dumps
  // `recorder`'s postmortem text to stderr, then re-raises with the default
  // disposition.  One recorder per process; nullptr uninstalls.  Meant for
  // benches and tools, not tests (gtest death tests install their own).
  static void InstallSignalHandler(FlightRecorder* recorder);

 private:
  // Event payload as relaxed-atomic words (seqlock data) and the slot's
  // state: 0 when never written, else (ticket + 1) << 1 for the ticket
  // whose payload it holds or is getting, with the low bit set while that
  // writer is storing the words.
  static constexpr size_t kWords = (sizeof(FlightEvent) + 7) / 8;
  struct Slot {
    std::atomic<uint64_t> state{0};
    std::atomic<uint64_t> words[kWords] = {};
  };

  std::unique_ptr<Slot[]> slots_;
  size_t mask_;
  std::atomic<uint64_t> next_{0};
  std::chrono::steady_clock::time_point start_time_;
};

}  // namespace sigsetdb

#endif  // SIGSET_OBS_FLIGHT_RECORDER_H_
