// VersionedPageFile: copy-on-write page versions for epoch-based snapshots.
//
// SynchronizedSetIndex serializes every scan against every write because the
// facilities mutate pages in place.  This decorator removes the conflict at
// the storage layer: every Write() pushes a fresh immutable version node
// tagged with the *write epoch* (published epoch + 1) onto a lock-free
// per-page chain instead of touching the base file, so a reader pinned at
// epoch E can walk the chain to the newest node with epoch <= E — without a
// lock, concurrently with the writer — and always sees the page exactly as
// it was when E was published.
//
// Protocol (see DESIGN.md §14):
//   - Adoption: construction copies every existing base page into an
//     epoch-0 node (charged to IoStats::pages_cow), so readers never touch
//     base pages and no read can race a base write.  Allocate() installs a
//     zeroed node immediately for the same reason.
//   - Writer: the single writer (the SetIndex write lock) pushes new head
//     nodes at write epoch W = published + 1; a second write to the same
//     page within one mutation updates the W-node in place (readers cannot
//     be pinned at W until it is published, and in-flight readers skip past
//     W-nodes without copying them).  Edit lends the W-node itself: the
//     first edit of a page in a mutation pushes one node copied from the
//     head, later edits change that node directly, and the Write that
//     hands it back copies nothing, so a page costs one copy per write
//     epoch.
//   - Publish: the EpochManager advances the published epoch only after the
//     mutation completed, so readers never observe a partial mutation.
//   - Reclaim(oldest_pinned): for each page, keep the newest node K with
//     epoch <= oldest_pinned and free everything strictly older.  Any
//     reader is pinned at some E >= oldest_pinned and stops its walk at or
//     before K, so the freed tail is unreachable.  The head is never freed
//     and the reclaimer only edits K->next while the writer only edits the
//     head pointer, so the two never contend.  Freed nodes go to a spare
//     list the writer takes its next nodes from, instead of to the
//     allocator: a pass frees thousands of 4 KiB nodes, and freeing them on
//     the reclaimer thread held the allocator's lock against the client
//     thread for the whole pass (a snapshot pin right after an unpin waited
//     it out).
//   - FlushToBase(): called under the write lock (Checkpoint) to write
//     dirty head versions through to the base file for durability; flush
//     I/O is physical background work charged to a scratch IoStats so the
//     paper's logical access counts stay clean.
//
// The chains live in RAM: with snapshots enabled the wrapped file is
// effectively duplicated in memory (one node per page minimum).  That is the
// deliberate trade — Options::enable_snapshots is off by default, and the
// workloads that turn it on (concurrent scans during churn) are bounded by
// the same capacity the bit-sliced store pre-allocates.

#ifndef SIGSET_STORAGE_VERSIONED_PAGE_FILE_H_
#define SIGSET_STORAGE_VERSIONED_PAGE_FILE_H_

#include <array>
#include <atomic>
#include <limits>
#include <memory>
#include <mutex>
#include <string>

#include "storage/page_file.h"

namespace sigsetdb {

// Epoch value meaning "read the newest version".
inline constexpr uint64_t kLatestEpoch = std::numeric_limits<uint64_t>::max();

// Copy-on-write decorator over a PageFile.  Not owned: `base` and
// `published_epoch` (the EpochManager's published-epoch cell) must outlive
// the wrapper.  Thread contract: Allocate/Write/FlushToBase from the single
// writer; ReadAtEpoch from any thread; Reclaim from one reclaimer thread.
class VersionedPageFile : public PageFile {
 public:
  static StatusOr<std::unique_ptr<VersionedPageFile>> Wrap(
      PageFile* base, const std::atomic<uint64_t>* published_epoch);

  ~VersionedPageFile() override;

  using PageFile::Edit;
  using PageFile::Read;
  using PageFile::View;
  using PageFile::Write;

  const std::string& name() const override { return base_->name(); }
  PageId num_pages() const override {
    return num_pages_.load(std::memory_order_acquire);
  }

  StatusOr<PageId> Allocate() override;
  // Read() and View() serve the newest version (the writer's own view);
  // View returns the head node's page in place.
  Status Read(PageId id, Page* out, IoStats* io) override;
  StatusOr<const Page*> View(PageId id, Page* scratch, IoStats* io) override;
  // The page of the node at the write epoch, pushed (one pages_cow) when
  // the head is older; `scratch` is unused.  Writer only, with Read's
  // failpoint and range error.  The node is visible to the writer's own
  // reads at once and to pinned readers never, until W is published; a
  // mutation that fails between Edit and Write leaves it, changed or not,
  // as it leaves its written pages, and recovery rolls it back.
  StatusOr<Page*> Edit(PageId id, Page* scratch, IoStats* io) override;
  Status Write(PageId id, const Page& page, IoStats* io) override;
  Status Sync() override;

  // Stats are shared with the base file so StorageManager::TotalStats()
  // aggregation (and the per-query deltas built on it) keep working.
  IoStats& stats() override { return base_->stats(); }
  const IoStats& stats() const override { return base_->stats(); }

  // Lock-free snapshot view: the newest version with epoch <= at
  // (kLatestEpoch = newest), in place, or a shared all-zero page when the
  // page was allocated after `at` was published.  Charges one page read to
  // `*io`.  A reader pinned at `at` may hold the pointer until it unpins:
  // Reclaim never frees the node a pinned epoch sees.
  StatusOr<const Page*> ViewAtEpoch(PageId id, uint64_t at, IoStats* io) const;

  // ViewAtEpoch copied into `*out`.
  Status ReadAtEpoch(PageId id, uint64_t at, Page* out, IoStats* io) const;

  // Writes every dirty head version through to the base file (writer lock
  // context).  Flush I/O goes to an internal scratch IoStats.
  Status FlushToBase();

  // Frees, per page, every version strictly older than the newest one with
  // epoch <= oldest_pinned.  Returns the number of nodes freed.
  uint64_t Reclaim(uint64_t oldest_pinned);

  // Version nodes currently resident / freed so far (tests, metrics).
  uint64_t resident_versions() const {
    return resident_.load(std::memory_order_relaxed);
  }
  uint64_t reclaimed_versions() const {
    return reclaimed_.load(std::memory_order_relaxed);
  }

  PageFile* base() const { return base_; }

 private:
  struct VersionNode {
    uint64_t epoch = 0;
    std::atomic<VersionNode*> next{nullptr};
    Page page;
  };
  struct PageMeta {
    std::atomic<VersionNode*> head{nullptr};
    std::atomic<bool> dirty{false};
  };
  // Lock-free growable page directory: a fixed array of lazily allocated
  // fixed-size segments.  Only the writer installs segments (release);
  // readers load acquire.
  static constexpr size_t kSegmentBits = 10;
  static constexpr size_t kSegmentSize = size_t{1} << kSegmentBits;  // 1024
  static constexpr size_t kMaxSegments = 1u << 14;  // 16M pages max
  struct Segment {
    std::array<PageMeta, kSegmentSize> pages;
  };

  explicit VersionedPageFile(PageFile* base,
                             const std::atomic<uint64_t>* published_epoch)
      : base_(base), published_(published_epoch) {}

  uint64_t WriteEpoch() const {
    return published_->load(std::memory_order_relaxed) + 1;
  }

  // The PageMeta for `id`; creates the segment if `create` (writer only).
  PageMeta* Meta(PageId id, bool create);
  const PageMeta* Meta(PageId id) const;

  // Installs `page` as the version at the current write epoch (new head
  // node, or in-place update when the head already carries this epoch;
  // no copy when `page` is that node's, lent by Edit).
  void PushVersion(PageMeta* meta, const Page& page);

  // Makes `node` the head at the current write epoch, in front of `head`
  // (one pages_cow).
  void LinkHead(PageMeta* meta, VersionNode* head, VersionNode* node);

  // A node for the writer: a spare one Reclaim freed, else a new one.
  VersionNode* NewNode();

  PageFile* base_;
  const std::atomic<uint64_t>* published_;
  std::atomic<PageId> num_pages_{0};
  std::array<std::atomic<Segment*>, kMaxSegments> segments_{};
  std::atomic<uint64_t> resident_{0};
  std::atomic<uint64_t> reclaimed_{0};
  // Freed nodes, chained through `next`: Reclaim adds its pass's nodes
  // under spare_mu_, and the writer moves them all to writer_spare_ when
  // it runs out.
  std::mutex spare_mu_;
  VersionNode* spare_ = nullptr;  // guarded by spare_mu_
  VersionNode* writer_spare_ = nullptr;
  // Sink for adoption/flush I/O so logical per-file counts stay clean.
  IoStats scratch_;
};

// A fixed-epoch, read-only PageFile adapter over a VersionedPageFile.  Each
// Snapshot builds one per wrapped file; the view keeps its OWN IoStats so a
// snapshot query's page accounting is isolated from the live index and from
// other concurrent snapshots.
class EpochReadView : public PageFile {
 public:
  EpochReadView(const VersionedPageFile* file, uint64_t epoch)
      : file_(file), epoch_(epoch), name_(file->name() + "@snapshot") {}

  using PageFile::Read;
  using PageFile::View;

  const std::string& name() const override { return name_; }
  PageId num_pages() const override { return file_->num_pages(); }

  StatusOr<PageId> Allocate() override {
    return Status::FailedPrecondition("snapshot view is read-only");
  }
  Status Read(PageId id, Page* out, IoStats* io) override {
    return file_->ReadAtEpoch(id, epoch_, out, io);
  }
  // The version visible at the epoch, in place; `scratch` is unused.
  StatusOr<const Page*> View(PageId id, Page* /*scratch*/,
                             IoStats* io) override {
    return file_->ViewAtEpoch(id, epoch_, io);
  }
  Status Write(PageId, const Page&, IoStats*) override {
    return Status::FailedPrecondition("snapshot view is read-only");
  }

  IoStats& stats() override { return stats_; }
  const IoStats& stats() const override { return stats_; }

  uint64_t epoch() const { return epoch_; }

 private:
  const VersionedPageFile* file_;
  uint64_t epoch_;
  std::string name_;
  IoStats stats_;
};

}  // namespace sigsetdb

#endif  // SIGSET_STORAGE_VERSIONED_PAGE_FILE_H_
