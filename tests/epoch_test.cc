// Snapshot-read machinery (DESIGN.md §14): the epoch pin/publish/reclaim
// protocol, the copy-on-write page versions behind it, and the end-to-end
// SetIndex/Database snapshot views — including crash-at-every-I/O schedules
// proving a crash mid-CoW-publish leaves the pre-publish epoch intact.

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/set_index.h"
#include "db/snapshot.h"
#include "storage/storage_manager.h"
#include "storage/versioned_page_file.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

// ---------------------------------------------------------------------------
// EpochManager protocol
// ---------------------------------------------------------------------------

std::shared_ptr<const SnapshotState> MakeState(uint64_t epoch) {
  auto state = std::make_shared<SnapshotState>();
  state->epoch = epoch;
  return state;
}

TEST(EpochManagerTest, PublishAdvancesAndPinsTrackEpochs) {
  EpochManager epochs;
  EXPECT_EQ(epochs.published(), 0u);
  EXPECT_EQ(epochs.write_epoch(), 1u);
  EXPECT_EQ(epochs.pinned_count(), 0u);
  EXPECT_EQ(epochs.OldestPinned(), 0u);

  epochs.Publish(MakeState(1));
  EXPECT_EQ(epochs.published(), 1u);
  EXPECT_EQ(epochs.write_epoch(), 2u);

  EpochPin p1 = epochs.Pin();
  ASSERT_TRUE(p1.pinned());
  EXPECT_EQ(p1.epoch(), 1u);
  ASSERT_NE(p1.state(), nullptr);
  EXPECT_EQ(p1.state()->epoch, 1u);
  EXPECT_EQ(epochs.pinned_count(), 1u);
  EXPECT_EQ(epochs.OldestPinned(), 1u);

  epochs.Publish(MakeState(2));
  EpochPin p2 = epochs.Pin();
  EXPECT_EQ(p2.epoch(), 2u);
  // The oldest pin holds the floor.
  EXPECT_EQ(epochs.OldestPinned(), 1u);
  EXPECT_EQ(epochs.pinned_count(), 2u);

  p1.Release();
  EXPECT_FALSE(p1.pinned());
  EXPECT_EQ(epochs.OldestPinned(), 2u);
  EXPECT_EQ(epochs.pinned_count(), 1u);

  p2.Release();
  EXPECT_EQ(epochs.pinned_count(), 0u);
  // Nothing pinned: the floor is the published epoch itself.
  EXPECT_EQ(epochs.OldestPinned(), 2u);
}

TEST(EpochManagerTest, PinIsMoveOnlyAndIdempotentOnRelease) {
  EpochManager epochs;
  epochs.Publish(MakeState(1));
  EpochPin a = epochs.Pin();
  EpochPin b = std::move(a);
  EXPECT_FALSE(a.pinned());
  EXPECT_TRUE(b.pinned());
  EXPECT_EQ(epochs.pinned_count(), 1u);
  b.Release();
  b.Release();  // idempotent
  EXPECT_EQ(epochs.pinned_count(), 0u);
}

TEST(EpochManagerTest, PinEpochAlwaysMatchesPinnedState) {
  // The (epoch, state) pair returned by Pin must be consistent even while
  // publishes interleave — the manager hands both out under one mutex.
  EpochManager epochs;
  for (uint64_t e = 1; e <= 32; ++e) {
    epochs.Publish(MakeState(e));
    EpochPin pin = epochs.Pin();
    ASSERT_EQ(pin.epoch(), e);
    ASSERT_EQ(pin.state()->epoch, e);
  }
}

TEST(EpochManagerTest, ShutdownIsIdempotent) {
  EpochManager epochs;
  epochs.Publish(MakeState(1));
  epochs.Shutdown();
  epochs.Shutdown();
}

// ---------------------------------------------------------------------------
// VersionedPageFile: chains, reclaim floor, flush-through
// ---------------------------------------------------------------------------

Page FilledPage(uint8_t byte) {
  Page page;
  std::memset(page.data(), byte, kPageSize);
  return page;
}

class VersionedPageFileTest : public ::testing::Test {
 protected:
  // A private epoch cell stands in for the EpochManager so reclamation is
  // fully deterministic (no background thread).
  std::atomic<uint64_t> published_{0};
  InMemoryPageFile base_{"base"};
};

TEST_F(VersionedPageFileTest, AdoptsBasePagesAndVersionsWrites) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;
  // Adoption: one epoch-0 node per base page, charged as a CoW copy.
  EXPECT_EQ(file.resident_versions(), 1u);
  EXPECT_EQ(base_.stats().cows(), 1u);

  // Write at write-epoch 1 (published = 0): a second version node.
  ASSERT_TRUE(file.Write(0, FilledPage('B')).ok());
  EXPECT_EQ(file.resident_versions(), 2u);
  EXPECT_EQ(base_.stats().cows(), 2u);

  Page out;
  // A reader pinned at 0 sees the adopted image; the writer sees its own.
  ASSERT_TRUE(file.ReadAtEpoch(0, 0, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'A');
  ASSERT_TRUE(file.ReadAtEpoch(0, kLatestEpoch, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'B');

  // Second write in the same (unpublished) mutation updates in place.
  ASSERT_TRUE(file.Write(0, FilledPage('C')).ok());
  EXPECT_EQ(file.resident_versions(), 2u);
  ASSERT_TRUE(file.ReadAtEpoch(0, 0, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'A');
  ASSERT_TRUE(file.ReadAtEpoch(0, 1, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'C');

  // CoW copies are bookkeeping, not logical I/O: total() excludes them, and
  // logical writes through the wrapper still count one each (1 pre-wrap
  // base write + 2 wrapper writes), keeping paper page counts unchanged.
  EXPECT_EQ(base_.stats().cows(), 2u);
  EXPECT_EQ(base_.stats().writes(), 3u);
  EXPECT_EQ(base_.stats().total(),
            base_.stats().reads() + base_.stats().writes());
}

TEST_F(VersionedPageFileTest, ReclaimKeepsTheNewestVersionAtOrBelowTheFloor) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;

  // Build a chain with epochs {0, 1, 2, 3}.
  ASSERT_TRUE(file.Write(0, FilledPage('B')).ok());  // epoch 1
  published_.store(1);
  ASSERT_TRUE(file.Write(0, FilledPage('C')).ok());  // epoch 2
  published_.store(2);
  ASSERT_TRUE(file.Write(0, FilledPage('D')).ok());  // epoch 3
  published_.store(3);
  ASSERT_EQ(file.resident_versions(), 4u);

  // Oldest pin at 1: the epoch-1 node is K; only epoch 0 is reclaimable.
  EXPECT_EQ(file.Reclaim(1), 1u);
  EXPECT_EQ(file.resident_versions(), 3u);
  EXPECT_EQ(file.reclaimed_versions(), 1u);
  Page out;
  ASSERT_TRUE(file.ReadAtEpoch(0, 1, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'B');  // the pinned epoch's image survived
  ASSERT_TRUE(file.ReadAtEpoch(0, 2, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'C');

  // Floor raised to 3 (nothing pinned): only the head remains.
  EXPECT_EQ(file.Reclaim(3), 2u);
  EXPECT_EQ(file.resident_versions(), 1u);
  ASSERT_TRUE(file.ReadAtEpoch(0, 3, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'D');
  // Reclaim at the same floor again frees nothing (the head is never freed).
  EXPECT_EQ(file.Reclaim(3), 0u);
}

TEST_F(VersionedPageFileTest, PagesAllocatedAfterTheEpochReadAsZeroes) {
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;
  ASSERT_TRUE(file.Allocate().ok());  // at write epoch 1
  ASSERT_TRUE(file.Write(0, FilledPage('X')).ok());
  Page out;
  // Pinned at 0, the page "does not exist yet": zeroes, not 'X'.
  ASSERT_TRUE(file.ReadAtEpoch(0, 0, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 0);
  ASSERT_TRUE(file.ReadAtEpoch(0, 1, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'X');
}

TEST_F(VersionedPageFileTest, FlushToBaseWritesNewestVersionsThrough) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  auto wrapped = VersionedPageFile::Wrap(&base_, &published_);
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile& file = **wrapped;
  ASSERT_TRUE(file.Write(0, FilledPage('B')).ok());
  // Base still holds the old image until the flush.
  Page out;
  IoStats scratch;
  ASSERT_TRUE(base_.Read(0, &out, &scratch).ok());
  EXPECT_EQ(out.data()[0], 'A');
  ASSERT_TRUE(file.FlushToBase().ok());
  ASSERT_TRUE(base_.Read(0, &out, &scratch).ok());
  EXPECT_EQ(out.data()[0], 'B');
}

TEST_F(VersionedPageFileTest, ManagerDrivenReclaimRespectsPins) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  EpochManager epochs;
  auto wrapped = VersionedPageFile::Wrap(&base_, epochs.published_cell());
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile* file = wrapped->get();
  epochs.RegisterReclaimer(
      [file](uint64_t oldest) { return file->Reclaim(oldest); });

  ASSERT_TRUE(file->Write(0, FilledPage('B')).ok());
  epochs.Publish(MakeState(1));
  EpochPin pin = epochs.Pin();  // holds epoch 1

  ASSERT_TRUE(file->Write(0, FilledPage('C')).ok());
  epochs.Publish(MakeState(2));
  ASSERT_TRUE(file->Write(0, FilledPage('D')).ok());
  epochs.Publish(MakeState(3));

  // The pin at 1 keeps the 'B' node alive through any number of passes.
  epochs.ReclaimNow();
  Page out;
  ASSERT_TRUE(file->ReadAtEpoch(0, pin.epoch(), &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'B');

  // Releasing the pin raises the floor to published (3): everything below
  // the head goes.
  pin.Release();
  epochs.ReclaimNow();
  EXPECT_EQ(file->resident_versions(), 1u);
  EXPECT_GE(epochs.total_reclaimed(), 3u);
  ASSERT_TRUE(file->ReadAtEpoch(0, 3, &out, nullptr).ok());
  EXPECT_EQ(out.data()[0], 'D');
  epochs.Shutdown();
}

// A view lends the pinned version node in place.  The pin keeps that node
// alive: rewriting the page, publishing and reclaiming (whose freed nodes
// the writer then reuses) leave the viewed bytes as they were, while a
// reader thread keeps checking them.
TEST_F(VersionedPageFileTest, PinnedViewSurvivesRewritesAndReclaim) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  EpochManager epochs;
  auto wrapped = VersionedPageFile::Wrap(&base_, epochs.published_cell());
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile* file = wrapped->get();
  epochs.RegisterReclaimer(
      [file](uint64_t oldest) { return file->Reclaim(oldest); });
  ASSERT_TRUE(file->Write(0, FilledPage('B')).ok());
  epochs.Publish(MakeState(1));

  EpochPin pin = epochs.Pin();  // holds epoch 1
  EpochReadView view(file, pin.epoch());
  Page scratch;
  auto pinned = view.View(0, &scratch);
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  const Page* bytes = *pinned;
  ASSERT_NE(bytes, &scratch);
  const Page expected = FilledPage('B');

  std::atomic<bool> done{false};
  std::atomic<uint64_t> mismatches{0};
  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      if (std::memcmp(bytes->data(), expected.data(), kPageSize) != 0) {
        mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(file->Write(0, FilledPage(static_cast<uint8_t>('C' + i % 20)))
                    .ok());
    epochs.Publish(MakeState(2 + i));
    if (i % 10 == 0) epochs.ReclaimNow();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GT(epochs.total_reclaimed(), 0u);
  EXPECT_EQ(std::memcmp(bytes->data(), expected.data(), kPageSize), 0);
  // A second view at the pin lends the same node.
  auto again = view.View(0, &scratch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, bytes);
  EXPECT_EQ(view.stats().reads(), 2u);
  pin.Release();
  epochs.Shutdown();
}

// Edit lends the node at the write epoch, and later edits in the epoch
// change it in place.  A reader thread re-pins and re-views the page while
// the writer edits, publishes and reclaims: pinned readers walk past the
// write-epoch node and never read its bytes (TSan would see the race; a
// torn page would mix two fill bytes), and the reclaimer frees neither it
// nor the head.
TEST_F(VersionedPageFileTest, PinnedReadersNeverSeeTheEditedWriteEpochNode) {
  ASSERT_TRUE(base_.Allocate().ok());
  ASSERT_TRUE(base_.Write(0, FilledPage('A')).ok());
  EpochManager epochs;
  auto wrapped = VersionedPageFile::Wrap(&base_, epochs.published_cell());
  ASSERT_TRUE(wrapped.ok());
  VersionedPageFile* file = wrapped->get();
  epochs.RegisterReclaimer(
      [file](uint64_t oldest) { return file->Reclaim(oldest); });
  epochs.Publish(MakeState(1));
  const uint64_t cows = base_.stats().cows();

  std::atomic<bool> done{false};
  std::atomic<uint64_t> torn{0};
  std::atomic<uint64_t> views{0};
  std::thread reader([&] {
    Page scratch;
    while (!done.load(std::memory_order_acquire)) {
      EpochPin pin = epochs.Pin();
      EpochReadView view(file, pin.epoch());
      auto page = view.View(0, &scratch);
      if (!page.ok()) {
        torn.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      // Every published version is one fill byte throughout.
      const uint8_t* bytes = (*page)->data();
      if (std::memcmp(bytes, bytes + 1, kPageSize - 1) != 0) {
        torn.fetch_add(1, std::memory_order_relaxed);
      }
      views.fetch_add(1, std::memory_order_relaxed);
    }
  });
  while (views.load(std::memory_order_relaxed) == 0) std::this_thread::yield();
  constexpr int kEpochs = 300;
  Page scratch;
  for (int i = 0; i < kEpochs; ++i) {
    for (int k = 0; k < 3; ++k) {
      auto edit = file->Edit(0, &scratch);
      if (!edit.ok()) {
        ADD_FAILURE() << edit.status().ToString();
        break;
      }
      std::memset((*edit)->data(), 'C' + (i + k) % 20, kPageSize);
      EXPECT_TRUE(file->Write(0, **edit).ok());
    }
    epochs.Publish(MakeState(2 + i));
    if (i % 10 == 0) epochs.ReclaimNow();
    std::this_thread::yield();
  }
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(torn.load(), 0u);
  // One node per write epoch, however many edits it took.
  EXPECT_EQ(base_.stats().cows(), cows + kEpochs);
  EXPECT_EQ(file->resident_versions() + file->reclaimed_versions(),
            1u + kEpochs);
  EXPECT_GT(epochs.total_reclaimed(), 0u);
  Page read;
  ASSERT_TRUE(file->Read(0, &read).ok());
  EXPECT_EQ(read.data()[0], 'C' + (kEpochs - 1 + 2) % 20);
  epochs.Shutdown();
}

// ---------------------------------------------------------------------------
// SetIndex snapshots end to end
// ---------------------------------------------------------------------------

SetIndex::Options SnapshotOptions(bool wal = false) {
  SetIndex::Options options;
  options.maintain_ssf = true;
  options.maintain_bssf = true;
  options.maintain_nix = true;
  options.sig = {120, 3};
  options.capacity = 4096;
  options.enable_snapshots = true;
  options.enable_wal = wal;
  return options;
}

std::vector<uint64_t> SortedValues(const std::vector<Oid>& oids) {
  std::vector<uint64_t> out;
  for (Oid oid : oids) out.push_back(oid.value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(SetIndexSnapshotTest, DisabledByDefault) {
  StorageManager storage;
  SetIndex::Options options;
  options.maintain_ssf = true;
  auto index = SetIndex::Create(&storage, "t", options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ((*index)->current_epoch(), 0u);
  auto snap = (*index)->GetSnapshot();
  EXPECT_FALSE(snap.ok());
  EXPECT_EQ(snap.status().code(), StatusCode::kFailedPrecondition);
}

TEST(SetIndexSnapshotTest, ReaderPinnedAcrossChurnSeesTheOldEpoch) {
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SetIndex> index = std::move(*created);
  EXPECT_EQ(index->current_epoch(), 1u);  // Create publishes the empty index

  std::vector<Oid> oids;
  std::map<uint64_t, ElementSet> oracle;
  for (uint64_t i = 0; i < 10; ++i) {
    ElementSet set{i, i + 1, i + 2, 100 + i};
    auto oid = index->Insert(set);
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
    oracle[oid->value()] = set;
  }

  auto pinned = index->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  std::unique_ptr<Snapshot> snap = std::move(*pinned);
  EXPECT_EQ(snap->epoch(), index->current_epoch());
  EXPECT_EQ(snap->num_objects(), 10u);

  // Churn the live index hard: deletes, inserts, a compaction.
  for (size_t i = 0; i < oids.size(); i += 2) {
    ASSERT_TRUE(index->Delete(oids[i]).ok());
  }
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(index->Insert({i * 3, i * 3 + 1, 200 + i}).ok());
  }
  ASSERT_TRUE(index->Compact().ok());

  // The pinned reader still sees all ten original objects, bit for bit.
  for (const auto& [value, set] : oracle) {
    auto got = snap->Get(Oid{value});
    ASSERT_TRUE(got.ok()) << "oid " << value;
    EXPECT_EQ(got->set_value, set);
  }
  const ElementSet probe{3, 4};
  for (PlanMode mode :
       {PlanMode::kForceSsf, PlanMode::kForceBssf, PlanMode::kForceNix}) {
    auto result = snap->Query(QueryKind::kSuperset, probe, mode);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    std::vector<uint64_t> expected;
    for (const auto& [value, set] : oracle) {
      if (std::includes(set.begin(), set.end(), probe.begin(), probe.end())) {
        expected.push_back(value);
      }
    }
    EXPECT_EQ(SortedValues(result->result.oids), expected)
        << "plan=" << result->plan;
  }
  // Equals pins the exact old image (the live index deleted this object).
  auto equals = snap->Query(QueryKind::kEquals, oracle.begin()->second);
  ASSERT_TRUE(equals.ok());
  EXPECT_EQ(SortedValues(equals->result.oids),
            std::vector<uint64_t>{oracle.begin()->first});

  // A NEW snapshot sees the post-churn, post-compaction state.
  auto fresh = index->GetSnapshot();
  ASSERT_TRUE(fresh.ok());
  EXPECT_GT((*fresh)->epoch(), snap->epoch());
  EXPECT_EQ((*fresh)->num_objects(), index->num_objects());
  auto live = index->Query(QueryKind::kSuperset, {3, 4});
  auto snap_now = (*fresh)->Query(QueryKind::kSuperset, {3, 4});
  ASSERT_TRUE(live.ok());
  ASSERT_TRUE(snap_now.ok());
  EXPECT_EQ(SortedValues(snap_now->result.oids),
            SortedValues(live->result.oids));

  // Writer outlives reader: release the old pin, reclaim, and the fresh
  // snapshot (and the live index) keep answering.
  snap.reset();
  ASSERT_NE(index->epochs(), nullptr);
  index->epochs()->ReclaimNow();
  snap_now = (*fresh)->Query(QueryKind::kSuperset, {3, 4});
  ASSERT_TRUE(snap_now.ok());
  EXPECT_EQ(SortedValues(snap_now->result.oids),
            SortedValues(live->result.oids));
}

TEST(SetIndexSnapshotTest, SnapshotChargesItsOwnPageAccesses) {
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SetIndex> index = std::move(*created);
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(index->Insert({i, i + 1, i + 2}).ok());
  }
  auto snap = index->GetSnapshot();
  ASSERT_TRUE(snap.ok());
  const IoStats before_live = storage.TotalStats();
  auto result = (*snap)->Query(QueryKind::kSuperset, {2, 3});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->page_accesses, 0u);
  // Snapshot reads never touch the live files' counters.
  const IoStats after_live = storage.TotalStats();
  EXPECT_EQ(after_live.reads(), before_live.reads());
  EXPECT_EQ((*snap)->TotalStats().reads(), result->page_accesses);
}

// ---------------------------------------------------------------------------
// Crash mid-CoW-publish: every versioned write of one mutation fails in
// turn; the published epoch must never move, a pre-crash pin must keep
// answering, and recovery must roll the unacknowledged mutation back.
// ---------------------------------------------------------------------------

TEST(SetIndexSnapshotCrashTest, CrashAtEveryCowWriteRecoversToPrePublishEpoch) {
  for (uint64_t countdown = 1;; ++countdown) {
    StorageManager storage;
    auto created = SetIndex::Create(&storage, "t", SnapshotOptions(true));
    ASSERT_TRUE(created.ok());
    std::unique_ptr<SetIndex> index = std::move(*created);

    std::map<uint64_t, ElementSet> oracle;
    for (uint64_t i = 0; i < 6; ++i) {
      ElementSet set{i, i + 7, i + 20};
      auto oid = index->Insert(set);
      ASSERT_TRUE(oid.ok());
      oracle[oid->value()] = set;
    }
    auto pinned = index->GetSnapshot();
    ASSERT_TRUE(pinned.ok());
    std::unique_ptr<Snapshot> snap = std::move(*pinned);
    const uint64_t pre_crash_epoch = index->current_epoch();

    FailpointRegistry::Instance().ArmCountdown("versioned.write", countdown);
    auto status = index->Insert({1, 2, 3}).status();
    FailpointRegistry::Instance().DisarmAll();

    if (status.ok()) {
      // The mutation touches fewer than `countdown` versioned writes: the
      // failpoint never fired and the schedule space is exhausted.
      ASSERT_GT(countdown, 1u);
      break;
    }

    // The failed mutation never published: pre-crash epoch intact.
    EXPECT_EQ(index->current_epoch(), pre_crash_epoch)
        << "countdown=" << countdown;

    // The pinned reader is unperturbed by the torn mutation.
    for (const auto& [value, set] : oracle) {
      auto got = snap->Get(Oid{value});
      ASSERT_TRUE(got.ok()) << "countdown=" << countdown;
      EXPECT_EQ(got->set_value, set);
    }
    auto q = snap->Query(QueryKind::kSuperset, {7});
    ASSERT_TRUE(q.ok()) << "countdown=" << countdown;
    std::vector<uint64_t> expected;
    for (const auto& [value, set] : oracle) {
      if (std::binary_search(set.begin(), set.end(), 7u)) {
        expected.push_back(value);
      }
    }
    EXPECT_EQ(SortedValues(q->result.oids), expected)
        << "countdown=" << countdown;

    // Recovery: the unacknowledged insert is rolled back; the acked six
    // survive.  (The pin must be released before the index dies.)
    snap.reset();
    index.reset();
    auto reopened = SetIndex::Open(&storage, "t", SnapshotOptions(true));
    ASSERT_TRUE(reopened.ok())
        << "countdown=" << countdown << ": " << reopened.status().ToString();
    index = std::move(*reopened);
    EXPECT_EQ(index->num_objects(), oracle.size()) << "countdown=" << countdown;
    auto recovered = index->GetSnapshot();
    ASSERT_TRUE(recovered.ok());
    auto rq = (*recovered)->Query(QueryKind::kSuperset, {7});
    ASSERT_TRUE(rq.ok());
    EXPECT_EQ(SortedValues(rq->result.oids), expected)
        << "countdown=" << countdown;
  }
}

// ---------------------------------------------------------------------------
// DatabaseSnapshot: pinned conjunction evaluation
// ---------------------------------------------------------------------------

TEST(DatabaseSnapshotTest, PinnedConjunctionSeesTheOldEpoch) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  courses.maintain_ssf = true;
  courses.maintain_bssf = true;
  courses.maintain_nix = true;
  courses.sig = {120, 3};
  Database::AttributeOptions hobbies = courses;
  hobbies.name = "hobbies";
  options.attributes = {courses, hobbies};
  options.capacity = 4096;
  options.enable_snapshots = true;
  auto created = Database::Create(&storage, "db", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);

  std::vector<Oid> oids;
  for (uint64_t i = 0; i < 8; ++i) {
    auto oid = db->Insert({{i, i + 1, 50}, {i + 10, 90}});
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  auto pinned = db->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  std::unique_ptr<DatabaseSnapshot> snap = std::move(*pinned);
  EXPECT_EQ(snap->num_objects(), 8u);

  // Churn: delete every object the pinned conjunction will match.
  std::vector<SetPredicate> conj{{"courses", QueryKind::kSuperset, {3, 50}},
                                 {"hobbies", QueryKind::kSuperset, {90}}};
  auto live_before = db->Query(conj);
  ASSERT_TRUE(live_before.ok());
  ASSERT_FALSE(live_before->oids.empty());
  for (Oid oid : live_before->oids) ASSERT_TRUE(db->Delete(oid).ok());
  auto live_after = db->Query(conj);
  ASSERT_TRUE(live_after.ok());
  EXPECT_TRUE(live_after->oids.empty());

  // The snapshot still returns the pre-delete answer.
  auto snap_result = snap->Query(conj);
  ASSERT_TRUE(snap_result.ok()) << snap_result.status().ToString();
  EXPECT_EQ(SortedValues(snap_result->oids),
            SortedValues(live_before->oids));
  // And per-object fetches serve the deleted objects' old values.
  for (Oid oid : live_before->oids) {
    auto got = snap->Get(oid);
    ASSERT_TRUE(got.ok());
    ASSERT_EQ(got->attrs.size(), 2u);
    EXPECT_TRUE(std::binary_search(got->attrs[0].begin(),
                                   got->attrs[0].end(), 50u));
  }
  // Unknown attributes still fail cleanly at the snapshot layer.
  auto bad = snap->Query({{"nope", QueryKind::kSuperset, {1}}});
  EXPECT_FALSE(bad.ok());
}

// One courses-like attribute with every facility, snapshots on.
Database::Options OneAttributeSnapshotOptions(uint64_t capacity) {
  Database::Options options;
  Database::AttributeOptions attr;
  attr.name = "a";
  attr.maintain_ssf = true;
  attr.sig = {120, 2};
  options.attributes = {attr};
  options.capacity = capacity;
  options.enable_snapshots = true;
  return options;
}

// A pin trusts the published NIX shape: it checks the root and loads the
// ∅ roster (height + 2 reads) instead of walking the whole tree.
TEST(DatabaseSnapshotTest, PinSkipsTheNixRecoveryWalk) {
  StorageManager storage;
  auto created =
      Database::Create(&storage, "db", OneAttributeSnapshotOptions(8192));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);
  Rng rng(91);
  for (int chunk = 0; chunk < 8; ++chunk) {
    MultiWriteBatch batch;
    for (int i = 0; i < 1000; ++i) {
      batch.Insert({rng.SampleWithoutReplacement(20000, 10)});
    }
    ASSERT_TRUE(db->ApplyBatch(batch).ok());
  }
  uint64_t height = 0;
  {
    EpochPin pin = db->epochs()->Pin();
    const IndexedAttribute::Shape& shape = pin.state()->attrs[0].shape;
    ASSERT_GE(shape.nix_leaves + shape.nix_internal, 200u);
    height = shape.nix_height;
  }
  FailpointRegistry::Instance().ArmCountdown("versioned.read", height + 3);
  auto pinned = db->GetSnapshot();
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  // The view answers like the live database.
  const std::vector<SetPredicate> probe = {
      {"a", QueryKind::kSuperset, rng.SampleWithoutReplacement(20000, 1)}};
  auto live = db->Query(probe);
  auto snap = (*pinned)->Query(probe);
  ASSERT_TRUE(live.ok() && snap.ok());
  EXPECT_EQ(SortedValues(snap->oids), SortedValues(live->oids));
}

// Each compaction supersedes the signature files' CoW wrappers.  They are
// destroyed, and their reclaim callbacks unregistered, once no pin is older
// than the swap; a pin held across a swap keeps them until it is released.
TEST(DatabaseSnapshotTest, CompactionFreesTheSupersededGeneration) {
  StorageManager storage;
  auto created =
      Database::Create(&storage, "db", OneAttributeSnapshotOptions(1024));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);
  std::vector<Oid> oids;
  for (uint64_t i = 0; i < 60; ++i) {
    auto oid = db->Insert({{i, i + 1, 300 + i % 7}});
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
  }
  auto churn_and_compact = [&](size_t round) {
    ASSERT_TRUE(db->Delete(oids[round]).ok());
    ASSERT_TRUE(db->Compact().ok());
  };
  churn_and_compact(0);
  const size_t after_one = db->epochs()->reclaimer_count();
  churn_and_compact(1);
  churn_and_compact(2);
  EXPECT_EQ(db->epochs()->reclaimer_count(), after_one);

  auto pinned = db->GetSnapshot();
  ASSERT_TRUE(pinned.ok());
  churn_and_compact(3);
  EXPECT_GT(db->epochs()->reclaimer_count(), after_one);
  // The pinned reader still reads the superseded files.
  auto old = (*pinned)->Query({{"a", QueryKind::kSuperset, {3, 4}}});
  ASSERT_TRUE(old.ok()) << old.status().ToString();
  EXPECT_EQ(SortedValues(old->oids), std::vector<uint64_t>{oids[3].value()});
  pinned->reset();
  ASSERT_TRUE(db->Insert({{7, 8}}).ok());  // the next publish frees them
  EXPECT_EQ(db->epochs()->reclaimer_count(), after_one);
}

// ---------------------------------------------------------------------------
// Live and pinned reads agree.  With snapshots on and no write after the
// pin, a snapshot runs the engine's own read path over the pinned files, so
// every read matches the live index exactly: OIDs, plan, candidates, false
// drops and page accesses.
// ---------------------------------------------------------------------------

constexpr QueryKind kAllKinds[] = {
    QueryKind::kSuperset,      QueryKind::kSubset, QueryKind::kProperSuperset,
    QueryKind::kProperSubset,  QueryKind::kEquals, QueryKind::kOverlaps};

// A query of `kind` that usually hits objects: part of a stored set for the
// superset kinds, a widened stored set for the subset kinds, a stored set
// for equality, two random elements for overlap.
ElementSet ProbeFor(QueryKind kind, const std::vector<ElementSet>& stored,
                    uint64_t domain, Rng* rng) {
  ElementSet set = stored[rng->NextBelow(stored.size())];
  switch (CandidateKind(kind)) {
    case QueryKind::kSuperset:
      set.resize(1 + rng->NextBelow(set.size()));
      break;
    case QueryKind::kSubset:
      for (uint64_t e : rng->SampleWithoutReplacement(domain, 12)) {
        set.push_back(e);
      }
      break;
    case QueryKind::kOverlaps:
      set = rng->SampleWithoutReplacement(domain, 2);
      break;
    default:
      break;
  }
  NormalizeSet(&set);
  return set;
}

std::vector<std::pair<uint64_t, uint64_t>> SortedPairs(const JoinResult& r) {
  std::vector<std::pair<uint64_t, uint64_t>> out;
  for (const JoinPair& p : r.pairs) out.emplace_back(p.r.value(), p.s.value());
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LivePinnedAgreementTest, SetIndexSelectionsAndJoins) {
  StorageManager storage;
  auto created = SetIndex::Create(&storage, "t", SnapshotOptions());
  ASSERT_TRUE(created.ok());
  std::unique_ptr<SetIndex> index = std::move(*created);
  Rng rng(23);
  std::vector<ElementSet> stored;
  for (int i = 0; i < 300; ++i) {
    stored.push_back(rng.SampleWithoutReplacement(60, 1 + rng.NextBelow(8)));
    NormalizeSet(&stored.back());
    ASSERT_TRUE(index->Insert(stored.back()).ok());
  }
  auto pinned = index->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  std::unique_ptr<Snapshot> snap = std::move(*pinned);

  for (QueryKind kind : kAllKinds) {
    for (PlanMode mode : {PlanMode::kAuto, PlanMode::kForceSsf,
                          PlanMode::kForceBssf, PlanMode::kForceNix}) {
      for (int q = 0; q < 10; ++q) {
        const ElementSet query = ProbeFor(kind, stored, 60, &rng);
        auto live = index->Query(kind, query, mode);
        auto pin = snap->Query(kind, query, mode);
        ASSERT_TRUE(live.ok()) << live.status().ToString();
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        const std::string where = std::string(QueryKindName(kind)) +
                                  " plan=" + live->plan;
        EXPECT_EQ(pin->result.oids, live->result.oids) << where;
        EXPECT_EQ(pin->plan, live->plan) << where;
        EXPECT_EQ(pin->result.num_candidates, live->result.num_candidates)
            << where;
        EXPECT_EQ(pin->result.num_false_drops, live->result.num_false_drops)
            << where;
        EXPECT_EQ(pin->page_accesses, live->page_accesses) << where;
      }
    }
  }
  for (JoinStrategy strategy :
       {JoinStrategy::kAuto, JoinStrategy::kNestedLoop,
        JoinStrategy::kSignatureHash, JoinStrategy::kAdaptive}) {
    JoinSpec spec;
    spec.strategy = strategy;
    auto live = index->ExecuteSetJoin(index.get(), spec);
    auto pin = snap->ExecuteSetJoin(snap.get(), spec);
    ASSERT_TRUE(live.ok()) << live.status().ToString();
    ASSERT_TRUE(pin.ok()) << pin.status().ToString();
    EXPECT_FALSE(live->join.pairs.empty());
    EXPECT_EQ(SortedPairs(pin->join), SortedPairs(live->join)) << live->plan;
    EXPECT_EQ(pin->plan, live->plan);
    EXPECT_EQ(pin->page_accesses, live->page_accesses) << live->plan;
  }
}

TEST(LivePinnedAgreementTest, DatabaseConjunctions) {
  StorageManager storage;
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  courses.maintain_ssf = true;
  courses.sig = {120, 3};
  Database::AttributeOptions hobbies = courses;
  hobbies.name = "hobbies";
  hobbies.maintain_ssf = false;
  options.attributes = {courses, hobbies};
  options.capacity = 4096;
  options.enable_snapshots = true;
  auto created = Database::Create(&storage, "db", options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<Database> db = std::move(*created);
  Rng rng(29);
  std::vector<ElementSet> course_sets, hobby_sets;
  for (int i = 0; i < 300; ++i) {
    course_sets.push_back(
        rng.SampleWithoutReplacement(60, 1 + rng.NextBelow(8)));
    hobby_sets.push_back(
        rng.SampleWithoutReplacement(20, 1 + rng.NextBelow(4)));
    NormalizeSet(&course_sets.back());
    NormalizeSet(&hobby_sets.back());
    ASSERT_TRUE(db->Insert({course_sets.back(), hobby_sets.back()}).ok());
  }
  auto pinned = db->GetSnapshot();
  ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
  std::unique_ptr<DatabaseSnapshot> snap = std::move(*pinned);

  for (QueryKind kind : kAllKinds) {
    for (int q = 0; q < 10; ++q) {
      std::vector<SetPredicate> conj = {
          {"courses", kind, ProbeFor(kind, course_sets, 60, &rng)}};
      for (int width = 1; width <= 2; ++width) {
        if (width == 2) {
          const QueryKind other = kAllKinds[rng.NextBelow(6)];
          conj.push_back(
              {"hobbies", other, ProbeFor(other, hobby_sets, 20, &rng)});
        }
        auto live = db->Query(conj);
        auto pin = snap->Query(conj);
        ASSERT_TRUE(live.ok()) << live.status().ToString();
        ASSERT_TRUE(pin.ok()) << pin.status().ToString();
        EXPECT_EQ(pin->oids, live->oids) << live->driver;
        EXPECT_EQ(pin->driver, live->driver);
        EXPECT_EQ(pin->num_candidates, live->num_candidates) << live->driver;
        EXPECT_EQ(pin->num_false_drops, live->num_false_drops) << live->driver;
        EXPECT_EQ(pin->page_accesses, live->page_accesses) << live->driver;
      }
    }
  }
  auto live = db->ExecuteSetJoin("courses", "courses");
  auto pin = snap->ExecuteSetJoin("courses", "courses");
  ASSERT_TRUE(live.ok() && pin.ok());
  EXPECT_EQ(SortedPairs(pin->join), SortedPairs(live->join));
  EXPECT_EQ(pin->plan, live->plan);
  EXPECT_EQ(pin->page_accesses, live->page_accesses);
}

}  // namespace
}  // namespace sigsetdb
