// Logical write-ahead-log records.
//
// The WAL (wal.h) is redo-only and logical: each record describes one
// *mutation of the object store* — a group of deletes and inserts applied
// atomically, or a compaction commit — in enough detail that recovery can
// re-apply it at the exact same physical location without consulting any
// facility.  Two design points follow from the crash-test matrix's
// "no acknowledged write lost, no phantom write invented" contract:
//
//   * Inserts carry the *predicted* OID (MultiObjectStore::PeekOids),
//     computed before the store is touched.  Replay re-applies at that
//     (page, slot), so OIDs — which are physical — are stable across a
//     crash, and a record whose apply never started is indistinguishable
//     from one fully applied then replayed (replay is idempotent).
//
//   * Deletes carry the victim's full PREIMAGE (its value sets).  If the
//     apply of a committed record fails midway (a transient I/O fault, not a
//     crash), the engine appends an Abort record referencing it and poisons
//     the index; at recovery the aborted delete's objects are *restored*
//     from the preimage — the slotted page keeps a tombstone's bytes in the
//     heap, so resurrection is a directory-entry rewrite.
//
// Every mutation record comes from LogRecord::Mutation, which chooses the
// record type from the record's contents: a lone insert or a lone delete
// is written in its single-entry form (kInsert, kDelete: the entry alone),
// anything else as kBatch (the entries after two u32 counts).  The
// single-entry forms save Database::Insert and Delete, which are batches
// of one, 8 bytes a record, and they are the form existing logs hold.
//
// Payloads are little-endian byte strings framed (length, CRC32C, LSN,
// double stamp) by the WAL; this file only defines the logical content.

#ifndef SIGSET_DB_LOG_RECORD_H_
#define SIGSET_DB_LOG_RECORD_H_

#include <cstdint>
#include <vector>

#include "obj/object.h"
#include "util/status.h"

namespace sigsetdb {

enum class LogRecordType : uint32_t {
  kInsert = 1,         // a mutation of one insert
  kDelete = 2,         // a mutation of one delete (preimage retained)
  kBatch = 3,          // any other mutation: deletes then inserts, atomic
  kCompactCommit = 4,  // generation G+1 files are complete and swapped in
  kAbort = 5,          // the record at ref_lsn failed to apply; index poisoned
};

// One object touched by a record: its physical OID plus its value sets (one
// ElementSet per attribute; SetIndex has exactly one).  For inserts the sets
// are the new value; for deletes they are the preimage.
struct LogEntry {
  Oid oid;
  std::vector<ElementSet> sets;
};

struct LogRecord {
  LogRecordType type = LogRecordType::kInsert;
  uint64_t lsn = 0;  // assigned by WriteAheadLog::Append

  std::vector<LogEntry> inserts;  // kInsert (1 entry), kBatch
  std::vector<LogEntry> deletes;  // kDelete (1 entry), kBatch; sets = preimage
  uint64_t generation = 0;        // kCompactCommit: the new live generation
  uint64_t ref_lsn = 0;           // kAbort: LSN of the record that failed

  // The record of a mutation: kInsert or kDelete for a lone entry, else
  // kBatch.
  static LogRecord Mutation(std::vector<LogEntry> deletes,
                            std::vector<LogEntry> inserts);
  static LogRecord CompactCommit(uint64_t generation);
  static LogRecord Abort(uint64_t ref_lsn);

  // Little-endian payload (framing is the WAL's job).
  std::vector<uint8_t> SerializePayload() const;

  // Inverse of SerializePayload.  kCorruption on any structural violation —
  // a short buffer, trailing bytes, an unknown type.  Leaves `lsn` at 0;
  // the WAL's frame scanner fills it in.
  static StatusOr<LogRecord> ParsePayload(uint32_t type, const uint8_t* data,
                                          size_t n);
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_LOG_RECORD_H_
