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
