// WriteAheadLog frame-format and recovery-scan unit tests.
//
// The crash matrix (crash_recovery_test.cc) proves the end-to-end "no
// acknowledged write lost" contract; these tests pin the log's on-disk
// mechanics in isolation: framing round trips for every record type, the
// double-signature + CRC scan truncates torn and corrupt tails cleanly,
// strict LSN sequencing makes pre-truncation stale bytes unreachable, a
// torn header falls back to the manifest's checkpoint lsn, replay is
// idempotent, and a transient apply fault (not a crash) aborts + poisons a
// WAL-enabled index until reopen.

#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/log_record.h"
#include "db/set_index.h"
#include "db/wal.h"
#include "storage/fault_injecting_page_file.h"
#include "storage/page_file.h"
#include "storage/storage_manager.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

// Mirror of the private frame geometry in wal.cc:
//   magic u32 | type u32 | payload_len u32 | lsn u64 | crc u32 | head_stamp
// then the payload, then tail_stamp u32.
constexpr size_t kFrameHeaderBytes = 28;
constexpr size_t kFrameTailBytes = 4;

size_t FrameSize(const LogRecord& rec) {
  return kFrameHeaderBytes + rec.SerializePayload().size() + kFrameTailBytes;
}

// Flips one byte of the record region (byte-addressed from page 1).
void CorruptRecordByte(PageFile* file, size_t offset) {
  const PageId page_id = 1 + static_cast<PageId>(offset / kPageSize);
  Page page;
  ASSERT_TRUE(file->Read(page_id, &page).ok());
  page.bytes[offset % kPageSize] ^= 0xFF;
  ASSERT_TRUE(file->Write(page_id, page).ok());
}

ElementSet Set(std::initializer_list<uint64_t> elems) {
  return ElementSet(elems);
}

void ExpectSameRecord(const LogRecord& got, const LogRecord& want,
                      uint64_t want_lsn) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.lsn, want_lsn);
  ASSERT_EQ(got.inserts.size(), want.inserts.size());
  for (size_t i = 0; i < want.inserts.size(); ++i) {
    EXPECT_EQ(got.inserts[i].oid, want.inserts[i].oid);
    EXPECT_EQ(got.inserts[i].sets, want.inserts[i].sets);
  }
  ASSERT_EQ(got.deletes.size(), want.deletes.size());
  for (size_t i = 0; i < want.deletes.size(); ++i) {
    EXPECT_EQ(got.deletes[i].oid, want.deletes[i].oid);
    EXPECT_EQ(got.deletes[i].sets, want.deletes[i].sets);
  }
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.ref_lsn, want.ref_lsn);
}

// All five record types, in one sequence the scanner must reproduce.
std::vector<LogRecord> SampleRecords() {
  std::vector<LogRecord> recs;
  recs.push_back(LogRecord::Mutation(
      {}, {{Oid::FromLocation(3, 1), {Set({1, 5, 9}), Set({2, 4})}}}));
  recs.push_back(
      LogRecord::Mutation({{Oid::FromLocation(3, 1), {Set({1, 5, 9})}}}, {}));
  recs.push_back(LogRecord::Mutation(
      {{Oid::FromLocation(4, 0), {Set({7})}}},
      {{Oid::FromLocation(4, 1), {Set({8, 11})}},
       {Oid::FromLocation(4, 2), {Set({12, 13, 14})}}}));
  recs.push_back(LogRecord::CompactCommit(6));
  recs.push_back(LogRecord::Abort(2));
  return recs;
}

TEST(WalLogTest, RoundTripAllRecordTypes) {
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, /*start_lsn=*/0, nullptr);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  const std::vector<LogRecord> recs = SampleRecords();
  for (size_t i = 0; i < recs.size(); ++i) {
    auto lsn = (*log)->AppendAndCommit(recs[i]);
    ASSERT_TRUE(lsn.ok()) << lsn.status().ToString();
    EXPECT_EQ(*lsn, i + 1);
  }
  EXPECT_EQ((*log)->last_lsn(), recs.size());
  EXPECT_EQ((*log)->durable_lsn(), recs.size());

  auto reopened = WriteAheadLog::Open(&file, /*fallback_start_lsn=*/0, nullptr);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_FALSE(reopened->tail_truncated);
  ASSERT_EQ(reopened->records.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    ExpectSameRecord(reopened->records[i], recs[i], i + 1);
  }
  EXPECT_EQ(reopened->log->start_lsn(), 0u);
  EXPECT_EQ(reopened->log->last_lsn(), recs.size());
}

// Mutation writes a lone insert or a lone delete in its single-entry form
// and anything else as a batch.  A single-entry payload is the entry alone,
// 8 bytes shorter than the batch form with its two counts.
TEST(WalLogTest, MutationPicksTheRecordTypeFromItsEntries) {
  const LogEntry a{Oid::FromLocation(3, 1), {Set({1, 5, 9})}};
  const LogEntry b{Oid::FromLocation(3, 2), {Set({2})}};
  EXPECT_EQ(LogRecord::Mutation({}, {a}).type, LogRecordType::kInsert);
  EXPECT_EQ(LogRecord::Mutation({a}, {}).type, LogRecordType::kDelete);
  EXPECT_EQ(LogRecord::Mutation({a}, {b}).type, LogRecordType::kBatch);
  EXPECT_EQ(LogRecord::Mutation({}, {a, b}).type, LogRecordType::kBatch);
  EXPECT_EQ(LogRecord::Mutation({a, b}, {}).type, LogRecordType::kBatch);
  EXPECT_EQ(LogRecord::Mutation({}, {}).type, LogRecordType::kBatch);
  LogRecord as_batch = LogRecord::Mutation({}, {a});
  as_batch.type = LogRecordType::kBatch;
  EXPECT_EQ(LogRecord::Mutation({}, {a}).SerializePayload().size() + 8,
            as_batch.SerializePayload().size());
}

TEST(WalLogTest, EmptyLogScansToNothing) {
  InMemoryPageFile file("wal");
  ASSERT_TRUE(WriteAheadLog::Create(&file, /*start_lsn=*/4, nullptr).ok());
  auto reopened = WriteAheadLog::Open(&file, /*fallback_start_lsn=*/0, nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->records.empty());
  EXPECT_FALSE(reopened->tail_truncated);
  // The header, not the fallback, carries the start lsn.
  EXPECT_EQ(reopened->log->start_lsn(), 4u);
  EXPECT_EQ(reopened->log->last_lsn(), 4u);
}

TEST(WalLogTest, ReplayIsIdempotent) {
  // Opening the same log twice — recovery that crashes and recovers again —
  // yields byte-identical record sequences both times.
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  for (const LogRecord& rec : SampleRecords()) {
    ASSERT_TRUE((*log)->AppendAndCommit(rec).ok());
  }
  auto first = WriteAheadLog::Open(&file, 0, nullptr);
  auto second = WriteAheadLog::Open(&file, 0, nullptr);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->records.size(), second->records.size());
  for (size_t i = 0; i < first->records.size(); ++i) {
    EXPECT_EQ(first->records[i].SerializePayload(),
              second->records[i].SerializePayload());
    EXPECT_EQ(first->records[i].lsn, second->records[i].lsn);
  }
}

TEST(WalLogTest, TornWriteTailIsTruncated) {
  // Record 1 commits durably; record 2's flush crashes with a torn write
  // that persists only part of its frame header.  The scan must return
  // exactly record 1 and flag the truncation.
  InMemoryPageFile base("wal");
  FaultInjector injector;
  FaultInjectingPageFile file(&base, &injector);
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  const std::vector<LogRecord> recs = SampleRecords();
  ASSERT_TRUE((*log)->AppendAndCommit(recs[0]).ok());

  // The next flush rewrites the tail page whole (frame 1 + frame 2); tear
  // it 12 bytes into frame 2's header — magic and type land, the stamp
  // never does.
  injector.CrashAt(injector.ops());
  injector.SetTornWrite(FrameSize(recs[0]) + 12);
  auto lsn = (*log)->AppendAndCommit(recs[1]);
  EXPECT_FALSE(lsn.ok());
  // The log is poisoned: durability of anything after the failed sync is
  // unknown, so later commits must not pretend otherwise.
  EXPECT_FALSE((*log)->AppendAndCommit(recs[2]).ok());

  auto reopened = WriteAheadLog::Open(&base, 0, nullptr);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->records.size(), 1u);
  ExpectSameRecord(reopened->records[0], recs[0], 1);
  EXPECT_TRUE(reopened->tail_truncated);
}

TEST(WalLogTest, PayloadBitFlipFailsCrc) {
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  const std::vector<LogRecord> recs = SampleRecords();
  ASSERT_TRUE((*log)->AppendAndCommit(recs[0]).ok());
  ASSERT_TRUE((*log)->AppendAndCommit(recs[1]).ok());
  // Flip one payload byte of frame 2: head/tail stamps still match, the CRC
  // catches it, and the scan stops before the damaged record.
  CorruptRecordByte(&file, FrameSize(recs[0]) + kFrameHeaderBytes);
  auto reopened = WriteAheadLog::Open(&file, 0, nullptr);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->records.size(), 1u);
  ExpectSameRecord(reopened->records[0], recs[0], 1);
  EXPECT_TRUE(reopened->tail_truncated);
}

TEST(WalLogTest, TailStampMismatchIsRejected) {
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  const std::vector<LogRecord> recs = SampleRecords();
  ASSERT_TRUE((*log)->AppendAndCommit(recs[0]).ok());
  ASSERT_TRUE((*log)->AppendAndCommit(recs[1]).ok());
  // Break frame 2's tail stamp — the classic torn shape where the head of a
  // frame lands but its end does not.
  const size_t tail_off = FrameSize(recs[0]) + kFrameHeaderBytes +
                          recs[1].SerializePayload().size();
  CorruptRecordByte(&file, tail_off);
  auto reopened = WriteAheadLog::Open(&file, 0, nullptr);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->records.size(), 1u);
  EXPECT_TRUE(reopened->tail_truncated);
}

TEST(WalLogTest, HeadStampMismatchIsRejected) {
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  const std::vector<LogRecord> recs = SampleRecords();
  ASSERT_TRUE((*log)->AppendAndCommit(recs[0]).ok());
  ASSERT_TRUE((*log)->AppendAndCommit(recs[1]).ok());
  CorruptRecordByte(&file, FrameSize(recs[0]) + 24);  // frame 2 head_stamp
  auto reopened = WriteAheadLog::Open(&file, 0, nullptr);
  ASSERT_TRUE(reopened.ok());
  ASSERT_EQ(reopened->records.size(), 1u);
  EXPECT_TRUE(reopened->tail_truncated);
}

TEST(WalLogTest, TruncateMakesStaleFramesUnreachable) {
  // Truncate only rewrites the header, so old frame bytes survive in the
  // body.  Strict lsn sequencing must hide them: a scan expecting lsn 3
  // rejects the stale lsn-1 frame at position 0.
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  const std::vector<LogRecord> recs = SampleRecords();
  ASSERT_TRUE((*log)->AppendAndCommit(recs[0]).ok());
  ASSERT_TRUE((*log)->AppendAndCommit(recs[1]).ok());
  ASSERT_TRUE((*log)->Truncate(2).ok());
  EXPECT_EQ((*log)->start_lsn(), 2u);

  {
    auto reopened = WriteAheadLog::Open(&file, 0, nullptr);
    ASSERT_TRUE(reopened.ok());
    EXPECT_TRUE(reopened->records.empty())
        << "stale pre-truncation frame leaked into replay";
    EXPECT_EQ(reopened->log->start_lsn(), 2u);
    EXPECT_EQ(reopened->log->last_lsn(), 2u);

    // Appends continue past the truncation point: lsn 3 overwrites the
    // stale region and becomes the one replayable record.
    auto lsn = reopened->log->AppendAndCommit(recs[2]);
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 3u);
  }
  auto again = WriteAheadLog::Open(&file, 0, nullptr);
  ASSERT_TRUE(again.ok());
  ASSERT_EQ(again->records.size(), 1u);
  ExpectSameRecord(again->records[0], recs[2], 3);
}

TEST(WalLogTest, TruncateRequiresEverythingDurable) {
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AppendAndCommit(SampleRecords()[0]).ok());
  Status s = (*log)->Truncate(0);  // not the last lsn
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  auto pending = (*log)->Append(SampleRecords()[1]);  // appended, not durable
  ASSERT_TRUE(pending.ok());
  s = (*log)->Truncate(*pending);
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
}

TEST(WalLogTest, TornHeaderFallsBackToCheckpointLsn) {
  // The header is rewritten only by Truncate, which runs strictly after a
  // checkpoint made every record redundant — so a torn header may be
  // reinitialized at the manifest's checkpoint lsn without losing an
  // unreplayed record.
  InMemoryPageFile file("wal");
  auto log = WriteAheadLog::Create(&file, 0, nullptr);
  ASSERT_TRUE(log.ok());
  ASSERT_TRUE((*log)->AppendAndCommit(SampleRecords()[0]).ok());
  Page header;
  ASSERT_TRUE(file.Read(0, &header).ok());
  header.bytes[2] ^= 0xFF;
  ASSERT_TRUE(file.Write(0, header).ok());

  auto reopened = WriteAheadLog::Open(&file, /*fallback_start_lsn=*/7, nullptr);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(reopened->records.empty());
  EXPECT_TRUE(reopened->tail_truncated);
  EXPECT_EQ(reopened->log->start_lsn(), 7u);
  auto lsn = reopened->log->AppendAndCommit(SampleRecords()[1]);
  ASSERT_TRUE(lsn.ok());
  EXPECT_EQ(*lsn, 8u);

  // The fallback rewrote a valid header: the next open needs no fallback.
  auto again = WriteAheadLog::Open(&file, /*fallback_start_lsn=*/0, nullptr);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->log->start_lsn(), 7u);
  ASSERT_EQ(again->records.size(), 1u);
  EXPECT_EQ(again->records[0].lsn, 8u);
}

// A transient apply fault — a one-shot I/O error, not a crash — after a
// record committed must abort + poison the index (mutations, queries, and
// checkpoints all refuse with kFailedPrecondition) until a reopen replays
// or inverts the record.  Sweeping the fault across every I/O index also
// covers faults in the pre-commit path, which must NOT poison.
TEST(WalLogTest, TransientApplyFaultPoisonsIndexUntilReopen) {
  SetIndex::Options options;
  options.maintain_ssf = true;
  options.maintain_bssf = true;
  options.maintain_nix = true;
  options.sig = {64, 2};
  options.capacity = 128;
  options.enable_wal = true;

  std::vector<ElementSet> sets;
  Rng rng(0xFA0175EEDULL);
  for (int i = 0; i < 3; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(48, 5);
    NormalizeSet(&set);
    sets.push_back(std::move(set));
  }

  auto intercept = [](StorageManager* storage, FaultInjector* injector) {
    storage->SetInterceptor(
        [injector](
            std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
          return std::make_unique<FaultInjectingPageFile>(std::move(base),
                                                          injector);
        });
  };

  uint64_t total_ops = 0;
  {
    FaultInjector injector;
    StorageManager storage;
    intercept(&storage, &injector);
    auto index = SetIndex::Create(&storage, "pidx", options);
    ASSERT_TRUE(index.ok());
    for (const ElementSet& set : sets) {
      ASSERT_TRUE((*index)->Insert(set).ok());
    }
    total_ops = injector.ops();
  }
  ASSERT_GT(total_ops, 0u);

  size_t poisoned_cells = 0;
  for (uint64_t k = 0; k < total_ops; ++k) {
    SCOPED_TRACE("transient fault at op " + std::to_string(k));
    FaultInjector injector;
    StorageManager storage;
    intercept(&storage, &injector);
    injector.FailAt(k);
    auto index_or = SetIndex::Create(&storage, "pidx", options);
    if (!index_or.ok()) continue;  // fault inside Create: nothing acked
    SetIndex* index = index_or->get();

    std::map<size_t, Oid> acked;
    bool failed = false;
    for (size_t i = 0; i < sets.size(); ++i) {
      auto oid = index->Insert(sets[i]);
      if (!oid.ok()) {
        failed = true;
        break;
      }
      acked[i] = *oid;
    }
    if (failed) {
      // The fault either hit the pre-commit path / WAL (sticky I/O error,
      // nothing applied) or the apply path (abort + poison).  Probe with a
      // read-only query: only poison refuses reads.
      auto probe =
          index->Query(QueryKind::kSuperset, sets[0], PlanMode::kAuto);
      if (!probe.ok() &&
          probe.status().code() == StatusCode::kFailedPrecondition) {
        ++poisoned_cells;
        EXPECT_EQ(index->Insert(sets[0]).status().code(),
                  StatusCode::kFailedPrecondition);
        EXPECT_EQ(index->Checkpoint().code(),
                  StatusCode::kFailedPrecondition);
      }
    }

    injector.Disarm();
    auto reopened = SetIndex::Open(&storage, "pidx", options);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    for (const auto& [i, oid] : acked) {
      auto got = (*reopened)->Get(oid);
      ASSERT_TRUE(got.ok()) << "acked insert " << i << " lost";
      EXPECT_EQ(got->set_value, sets[i]);
    }
    ElementSet extra = Set({40, 41, 42});
    auto extra_oid = (*reopened)->Insert(extra);
    ASSERT_TRUE(extra_oid.ok());
    EXPECT_TRUE((*reopened)->Checkpoint().ok());
  }
  // The sweep must have exercised the abort + poison path at least once
  // (a fault between the record's fsync and the end of its apply).
  EXPECT_GT(poisoned_cells, 0u);
}

}  // namespace
}  // namespace sigsetdb
