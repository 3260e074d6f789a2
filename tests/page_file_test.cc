#include "storage/page_file.h"

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "storage/buffer_pool.h"
#include "storage/disk_page_file.h"
#include "storage/fault_injecting_page_file.h"
#include "storage/storage_manager.h"
#include "storage/versioned_page_file.h"
#include "util/failpoint.h"

namespace sigsetdb {
namespace {

TEST(InMemoryPageFileTest, AllocateGrowsFile) {
  InMemoryPageFile f("t");
  EXPECT_EQ(f.num_pages(), 0u);
  auto p0 = f.Allocate();
  ASSERT_TRUE(p0.ok());
  EXPECT_EQ(*p0, 0u);
  auto p1 = f.Allocate();
  ASSERT_TRUE(p1.ok());
  EXPECT_EQ(*p1, 1u);
  EXPECT_EQ(f.num_pages(), 2u);
}

TEST(InMemoryPageFileTest, AllocatedPagesAreZeroed) {
  InMemoryPageFile f("t");
  ASSERT_TRUE(f.Allocate().ok());
  Page page;
  page.bytes.fill(0xab);
  ASSERT_TRUE(f.Read(0, &page).ok());
  for (uint8_t b : page.bytes) EXPECT_EQ(b, 0);
}

TEST(InMemoryPageFileTest, WriteReadRoundTrip) {
  InMemoryPageFile f("t");
  ASSERT_TRUE(f.Allocate().ok());
  Page out;
  out.WriteAt<uint64_t>(0, 0xdeadbeefULL);
  out.WriteAt<uint32_t>(kPageSize - 4, 77u);
  ASSERT_TRUE(f.Write(0, out).ok());
  Page in;
  ASSERT_TRUE(f.Read(0, &in).ok());
  EXPECT_EQ(in.ReadAt<uint64_t>(0), 0xdeadbeefULL);
  EXPECT_EQ(in.ReadAt<uint32_t>(kPageSize - 4), 77u);
}

TEST(InMemoryPageFileTest, OutOfRangeAccessFails) {
  InMemoryPageFile f("t");
  Page page;
  EXPECT_EQ(f.Read(0, &page).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(f.Write(0, page).code(), StatusCode::kOutOfRange);
}

TEST(InMemoryPageFileTest, StatsCountEveryAccess) {
  InMemoryPageFile f("t");
  ASSERT_TRUE(f.Allocate().ok());
  Page page;
  ASSERT_TRUE(f.Read(0, &page).ok());
  ASSERT_TRUE(f.Read(0, &page).ok());
  ASSERT_TRUE(f.Write(0, page).ok());
  EXPECT_EQ(f.stats().page_reads, 2u);
  EXPECT_EQ(f.stats().page_writes, 1u);
  EXPECT_EQ(f.stats().total(), 3u);
  f.stats().Reset();
  EXPECT_EQ(f.stats().total(), 0u);
}

TEST(InMemoryPageFileTest, FailedAccessDoesNotCount) {
  InMemoryPageFile f("t");
  Page page;
  (void)f.Read(5, &page);
  EXPECT_EQ(f.stats().total(), 0u);
}

TEST(IoStatsTest, DeltaArithmetic) {
  IoStats a{10, 5};
  IoStats b{4, 2};
  IoStats d = a - b;
  EXPECT_EQ(d.page_reads, 6u);
  EXPECT_EQ(d.page_writes, 3u);
  b += d;
  EXPECT_EQ(b.page_reads, 10u);
  EXPECT_EQ(b.page_writes, 5u);
}

TEST(StorageManagerTest, CreateOpenLifecycle) {
  StorageManager mgr;
  auto created = mgr.Create("a");
  ASSERT_TRUE(created.ok());
  EXPECT_EQ(mgr.Create("a").status().code(), StatusCode::kAlreadyExists);
  auto opened = mgr.Open("a");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*created, *opened);
  EXPECT_EQ(mgr.Open("b").status().code(), StatusCode::kNotFound);
  PageFile* b = mgr.CreateOrOpen("b");
  EXPECT_EQ(mgr.CreateOrOpen("b"), b);
}

TEST(StorageManagerTest, AggregatesStatsAndPages) {
  StorageManager mgr;
  PageFile* a = mgr.CreateOrOpen("a");
  PageFile* b = mgr.CreateOrOpen("b");
  ASSERT_TRUE(a->Allocate().ok());
  ASSERT_TRUE(b->Allocate().ok());
  ASSERT_TRUE(b->Allocate().ok());
  Page page;
  ASSERT_TRUE(a->Read(0, &page).ok());
  ASSERT_TRUE(b->Write(1, page).ok());
  IoStats total = mgr.TotalStats();
  EXPECT_EQ(total.page_reads, 1u);
  EXPECT_EQ(total.page_writes, 1u);
  EXPECT_EQ(mgr.TotalPages(), 3u);
  mgr.ResetStats();
  EXPECT_EQ(mgr.TotalStats().total(), 0u);
}

// ---------------------------------------------------------------------------
// PageFile::View: one page read, the bytes Read returns, Read's errors
// ---------------------------------------------------------------------------

Page Filled(uint8_t byte) {
  Page page;
  std::memset(page.data(), byte, kPageSize);
  return page;
}

// One implementation under test: `file` holds kPages pages, page i filled
// with 'a' + i; `arm` (null for InMemoryPageFile and OnDiskPageFile, which
// have no read fault of their own) arms a fault its next page read must
// fire; `in_place` says whether View lends the stored bytes instead of
// filling the scratch page.
struct ViewCase {
  PageFile* file = nullptr;
  std::function<void()> arm;
  bool in_place = false;
};

constexpr PageId kPages = 3;

// Allocates kPages pages in `file` and fills them.
void FillPages(PageFile* file) {
  for (PageId id = 0; id < kPages; ++id) {
    ASSERT_TRUE(file->Allocate().ok());
    ASSERT_TRUE(file->Write(id, Filled(static_cast<uint8_t>('a' + id))).ok());
  }
}

class PageViewTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    const std::string& type = GetParam();
    if (type == "in_memory") {
      FillPages(&memory_);
      case_ = {&memory_, nullptr, /*in_place=*/true};
    } else if (type == "on_disk") {
      path_ = ::testing::TempDir() + "sigsetdb_view_" +
              std::to_string(::getpid()) + ".pages";
      auto disk = OnDiskPageFile::Open("disk", path_);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      disk_ = std::move(*disk);
      FillPages(disk_.get());
      case_ = {disk_.get(), nullptr, /*in_place=*/false};
    } else if (type == "cached") {
      // The pool's misses read through an injecting base, so an armed
      // fault fires on a View that misses.
      faulty_ = std::make_unique<FaultInjectingPageFile>(&memory_, &injector_);
      cached_ = std::make_unique<CachedPageFile>(faulty_.get(), 1);
      FillPages(cached_.get());
      cached_->Invalidate();
      case_ = {cached_.get(), [this] { injector_.FailAt(injector_.ops()); },
               /*in_place=*/false};
    } else if (type == "fault_injecting") {
      faulty_ = std::make_unique<FaultInjectingPageFile>(&memory_, &injector_);
      FillPages(faulty_.get());
      case_ = {faulty_.get(), [this] { injector_.FailAt(injector_.ops()); },
               /*in_place=*/false};
    } else {
      auto versioned = VersionedPageFile::Wrap(&memory_, &published_);
      ASSERT_TRUE(versioned.ok()) << versioned.status().ToString();
      versioned_ = std::move(*versioned);
      FillPages(versioned_.get());
      auto arm = [] {
        FailpointRegistry::Instance().ArmCountdown("versioned.read", 1);
      };
      if (type == "versioned") {
        case_ = {versioned_.get(), arm, /*in_place=*/true};
      } else {
        published_.store(1);
        epoch_view_ = std::make_unique<EpochReadView>(versioned_.get(), 1);
        case_ = {epoch_view_.get(), arm, /*in_place=*/true};
      }
    }
  }

  void TearDown() override {
    FailpointRegistry::Instance().DisarmAll();
    disk_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  InMemoryPageFile memory_{"memory"};
  std::string path_;
  std::unique_ptr<OnDiskPageFile> disk_;
  FaultInjector injector_;
  std::unique_ptr<FaultInjectingPageFile> faulty_;
  std::unique_ptr<CachedPageFile> cached_;
  std::atomic<uint64_t> published_{0};
  std::unique_ptr<VersionedPageFile> versioned_;
  std::unique_ptr<EpochReadView> epoch_view_;
  ViewCase case_;
};

TEST_P(PageViewTest, ViewReturnsReadBytesAndChargesOneRead) {
  PageFile* file = case_.file;
  for (PageId id = 0; id < kPages; ++id) {
    Page read;
    const uint64_t before = file->stats().reads();
    ASSERT_TRUE(file->Read(id, &read).ok());
    ASSERT_EQ(file->stats().reads(), before + 1);
    ASSERT_EQ(read.data()[0], 'a' + id);

    Page scratch = Filled(0xee);
    auto view = file->View(id, &scratch);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_EQ(file->stats().reads(), before + 2);
    EXPECT_EQ(std::memcmp((*view)->data(), read.data(), kPageSize), 0);
    if (case_.in_place) {
      // The stored bytes, lent in place: the scratch page is untouched.
      EXPECT_NE(*view, &scratch);
      EXPECT_EQ(scratch.data()[0], 0xee);
    } else {
      EXPECT_EQ(*view, &scratch);
    }

    // A caller-supplied IoStats takes the charge instead.
    IoStats io;
    ASSERT_TRUE(file->View(id, &scratch, &io).ok());
    EXPECT_EQ(io.reads(), 1u);
    EXPECT_EQ(io.total(), 1u);
    EXPECT_EQ(file->stats().reads(), before + 2);
  }
}

TEST_P(PageViewTest, OutOfRangeViewFailsLikeRead) {
  PageFile* file = case_.file;
  Page page;
  const IoStats before = file->stats();
  const Status read = file->Read(kPages + 2, &page);
  const IoStats after_read = file->stats();
  ASSERT_FALSE(read.ok());
  auto view = file->View(kPages + 2, &page);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status(), read) << view.status().ToString();
  EXPECT_EQ((file->stats() - after_read).total(),
            (after_read - before).total());
}

// The implementations with a read fault of their own.
using PageViewFaultTest = PageViewTest;

TEST_P(PageViewFaultTest, ArmedReadFaultFiresOnView) {
  ASSERT_TRUE(case_.arm);
  PageFile* file = case_.file;
  Page scratch;
  case_.arm();
  auto view = file->View(1, &scratch);
  ASSERT_FALSE(view.ok());
  EXPECT_EQ(view.status().code(), StatusCode::kIoError)
      << view.status().ToString();
  // The fault was one-shot: the next view succeeds.
  auto again = file->View(1, &scratch);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->data()[0], 'b');
}

INSTANTIATE_TEST_SUITE_P(EveryPageFile, PageViewTest,
                         ::testing::Values("in_memory", "on_disk", "cached",
                                           "fault_injecting", "versioned",
                                           "epoch_read_view"));
INSTANTIATE_TEST_SUITE_P(FaultablePageFiles, PageViewFaultTest,
                         ::testing::Values("cached", "fault_injecting",
                                           "versioned", "epoch_read_view"));

// --- Edit: the writable view ------------------------------------------------

// The files a write path edits (a snapshot's EpochReadView is read-only).
using PageEditTest = PageViewTest;

// One read per Edit and one write per Write, the page's bytes, and where
// they sit: lent in place, or read into the caller's scratch page.
TEST_P(PageEditTest, EditChargesOneReadAndItsWriteOneWrite) {
  PageFile* file = case_.file;
  for (PageId id = 0; id < kPages; ++id) {
    Page read;
    ASSERT_TRUE(file->Read(id, &read).ok());
    const IoStats before = file->stats();
    Page scratch = Filled(0xee);
    auto edit = file->Edit(id, &scratch);
    ASSERT_TRUE(edit.ok()) << edit.status().ToString();
    EXPECT_EQ((file->stats() - before).reads(), 1u);
    EXPECT_EQ((file->stats() - before).total(), 1u);
    EXPECT_EQ(std::memcmp((*edit)->data(), read.data(), kPageSize), 0);
    if (case_.in_place) {
      EXPECT_NE(*edit, &scratch);
      EXPECT_EQ(scratch.data()[0], 0xee);
    } else {
      EXPECT_EQ(*edit, &scratch);
    }
    (*edit)->data()[7] = static_cast<uint8_t>('A' + id);
    ASSERT_TRUE(file->Write(id, **edit).ok());
    EXPECT_EQ((file->stats() - before).writes(), 1u);
    EXPECT_EQ((file->stats() - before).reads(), 1u);
    ASSERT_TRUE(file->Read(id, &read).ok());
    EXPECT_EQ(read.data()[7], 'A' + id);
    EXPECT_EQ(read.data()[6], 'a' + id);

    // A caller-supplied IoStats takes the charge instead.
    IoStats io;
    ASSERT_TRUE(file->Edit(id, &scratch, &io).ok());
    EXPECT_EQ(io.reads(), 1u);
    EXPECT_EQ(io.total(), 1u);
  }
}

// Edit then Write copies a page on write just as Read then Write does: a
// VersionedPageFile pushes one node for the first write to a page in a
// write epoch and none for the next, and the other files never copy.
TEST_P(PageEditTest, EditAndWriteCopyOnWriteLikeReadAndWrite) {
  PageFile* file = case_.file;
  for (uint64_t epoch = 1; epoch <= 2; ++epoch) {
    published_.store(epoch);
    for (int round = 0; round < 2; ++round) {
      Page page;
      uint64_t cows = file->stats().cows();
      ASSERT_TRUE(file->Read(0, &page).ok());
      ASSERT_TRUE(file->Write(0, page).ok());
      const uint64_t read_write = file->stats().cows() - cows;

      cows = file->stats().cows();
      auto edit = file->Edit(1, &page);
      ASSERT_TRUE(edit.ok()) << edit.status().ToString();
      ASSERT_TRUE(file->Write(1, **edit).ok());
      EXPECT_EQ(file->stats().cows() - cows, read_write)
          << "epoch " << epoch << " round " << round;
      if (versioned_ != nullptr) {
        EXPECT_EQ(read_write, round == 0 ? 1u : 0u);
      }
    }
  }
}

TEST_P(PageEditTest, OutOfRangeEditFailsLikeRead) {
  PageFile* file = case_.file;
  Page page;
  const IoStats before = file->stats();
  const Status read = file->Read(kPages + 2, &page);
  const IoStats after_read = file->stats();
  ASSERT_FALSE(read.ok());
  auto edit = file->Edit(kPages + 2, &page);
  ASSERT_FALSE(edit.ok());
  EXPECT_EQ(edit.status(), read) << edit.status().ToString();
  EXPECT_EQ((file->stats() - after_read).total(),
            (after_read - before).total());
}

// A lent edit stays valid across writes to the file's other pages.
TEST_P(PageEditTest, EditSurvivesWritesToOtherPages) {
  PageFile* file = case_.file;
  published_.store(1);
  Page scratch;
  auto edit = file->Edit(0, &scratch);
  ASSERT_TRUE(edit.ok()) << edit.status().ToString();
  ASSERT_TRUE(file->Write(1, Filled('x')).ok());
  ASSERT_TRUE(file->Allocate().ok());
  ASSERT_TRUE(file->Write(kPages, Filled('y')).ok());
  (*edit)->data()[0] = 'z';
  ASSERT_TRUE(file->Write(0, **edit).ok());
  Page read;
  ASSERT_TRUE(file->Read(0, &read).ok());
  EXPECT_EQ(read.data()[0], 'z');
  EXPECT_EQ(read.data()[1], 'a');
  ASSERT_TRUE(file->Read(1, &read).ok());
  EXPECT_EQ(read.data()[0], 'x');
}

using PageEditFaultTest = PageViewTest;

TEST_P(PageEditFaultTest, ArmedReadFaultFiresOnEdit) {
  ASSERT_TRUE(case_.arm);
  PageFile* file = case_.file;
  Page scratch;
  case_.arm();
  auto edit = file->Edit(1, &scratch);
  ASSERT_FALSE(edit.ok());
  EXPECT_EQ(edit.status().code(), StatusCode::kIoError)
      << edit.status().ToString();
  auto again = file->Edit(1, &scratch);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ((*again)->data()[0], 'b');
}

INSTANTIATE_TEST_SUITE_P(WritablePageFiles, PageEditTest,
                         ::testing::Values("in_memory", "on_disk", "cached",
                                           "fault_injecting", "versioned"));
INSTANTIATE_TEST_SUITE_P(FaultableWritablePageFiles, PageEditFaultTest,
                         ::testing::Values("cached", "fault_injecting",
                                           "versioned"));

// The first edit of a page in a write epoch pushes its node at once, so a
// mutation that fails between Edit and Write leaves that node, with
// whatever the caller changed, where a Read would have left nothing.  It
// is unpublished: a reader pinned at the published epoch still sees the
// old bytes, the node is not dirty (a checkpoint does not flush it), and
// recovery rolls the mutation back.
TEST(VersionedPageFileEditTest, EditWithoutWriteLeavesAnUnpublishedNode) {
  InMemoryPageFile base("base");
  ASSERT_TRUE(base.Allocate().ok());
  ASSERT_TRUE(base.Write(0, Filled('a')).ok());
  std::atomic<uint64_t> published{1};
  auto wrapped = VersionedPageFile::Wrap(&base, &published);
  ASSERT_TRUE(wrapped.ok()) << wrapped.status().ToString();
  VersionedPageFile* file = wrapped->get();
  EpochReadView pinned(file, 1);
  const uint64_t cows = base.stats().cows();
  const uint64_t resident = file->resident_versions();

  Page scratch;
  auto edit = file->Edit(0, &scratch);
  ASSERT_TRUE(edit.ok()) << edit.status().ToString();
  (*edit)->data()[0] = 'x';
  EXPECT_EQ(base.stats().cows(), cows + 1);
  EXPECT_EQ(file->resident_versions(), resident + 1);
  EXPECT_EQ(base.stats().writes(), 1u);  // the setup's write only

  Page read;
  ASSERT_TRUE(file->Read(0, &read).ok());
  EXPECT_EQ(read.data()[0], 'x');  // the writer's own view
  ASSERT_TRUE(pinned.Read(0, &read).ok());
  EXPECT_EQ(read.data()[0], 'a');
  ASSERT_TRUE(file->FlushToBase().ok());
  ASSERT_TRUE(base.Read(0, &read).ok());
  EXPECT_EQ(read.data()[0], 'a');

  // A second edit in the epoch lends the same node, and its Write copies
  // nothing more.
  auto again = file->Edit(0, &scratch);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *edit);
  ASSERT_TRUE(file->Write(0, **again).ok());
  EXPECT_EQ(base.stats().cows(), cows + 1);
  EXPECT_EQ(file->resident_versions(), resident + 1);
}

// A view pinned at an epoch sees a page allocated after it as zeroes, like
// ReadAtEpoch, and charges one read to the view's counter.
TEST(EpochReadViewTest, PageAllocatedAfterThePinViewsAsZeroes) {
  InMemoryPageFile base("base");
  std::atomic<uint64_t> published{0};
  auto versioned = VersionedPageFile::Wrap(&base, &published);
  ASSERT_TRUE(versioned.ok());
  EpochReadView pinned(versioned->get(), 0);
  ASSERT_TRUE((*versioned)->Allocate().ok());  // at write epoch 1
  ASSERT_TRUE((*versioned)->Write(0, Filled('x')).ok());
  published.store(1);

  Page scratch = Filled(0xee);
  auto view = pinned.View(0, &scratch);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  for (size_t i = 0; i < kPageSize; ++i) {
    ASSERT_EQ((*view)->data()[i], 0) << "byte " << i;
  }
  EXPECT_EQ(scratch.data()[0], 0xee);
  EXPECT_EQ(pinned.stats().reads(), 1u);
  // The writer's own view sees the write.
  auto newest = (*versioned)->View(0, &scratch);
  ASSERT_TRUE(newest.ok());
  EXPECT_EQ((*newest)->data()[0], 'x');
}

}  // namespace
}  // namespace sigsetdb
