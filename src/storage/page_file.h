// PageFile: a counted, page-granular file abstraction.
//
// The cost model of the paper charges one unit per page read or written, with
// no caching (it models cold random I/O on a 1993 disk).  InMemoryPageFile
// therefore keeps data in RAM but *counts every logical access*; the counts —
// not wall-clock time — are what the benchmarks compare against the model.
// CachedPageFile (see buffer_pool.h) layers an LRU cache on top for the
// buffer-pool ablation study.

#ifndef SIGSET_STORAGE_PAGE_FILE_H_
#define SIGSET_STORAGE_PAGE_FILE_H_

#include <memory>
#include <string>
#include <vector>

#include "storage/io_stats.h"
#include "storage/page.h"
#include "util/status.h"

namespace sigsetdb {

// The most page views a grouped reader (BTree::LookupMany,
// MultiObjectStore::GetMany) holds at once: the cache misses one selection
// keeps in flight.  A view that returned the reader's scratch page ends
// its group early, so a copying file reads one page at a time.
inline constexpr size_t kViewGroupSize = 16;

// Abstract page-granular file.  Implementations must count one page access
// per Read/Write call — into `*io` when the caller supplies one, into the
// file's own stats() otherwise.  The redirect exists for parallel query
// workers: each counts into a thread-local IoStats and the owner merges the
// locals into stats() on join, keeping the paper's logical page-access
// totals exact without contending on shared counters.
class PageFile {
 public:
  virtual ~PageFile() = default;

  // File name (for diagnostics and the storage-manager registry).
  virtual const std::string& name() const = 0;

  // Number of allocated pages.
  virtual PageId num_pages() const = 0;

  // Appends a zeroed page; returns its id.
  virtual StatusOr<PageId> Allocate() = 0;

  // Reads page `id` into `*out`, charging one page read to `*io`.
  virtual Status Read(PageId id, Page* out, IoStats* io) = 0;

  // Writes `page` at `id`, charging one page write to `*io`.
  virtual Status Write(PageId id, const Page& page, IoStats* io) = 0;

  // A read-only view of page `id`: charges one page read to `*io`, with
  // the failpoints and range errors of Read, and returns the page's bytes.
  // Where they already sit in memory (InMemoryPageFile, the CoW version
  // nodes) it returns them in place; otherwise it reads into `*scratch` and
  // returns `scratch`, which is this default.  Lifetime rule: the caller
  // uses the view only inside the function that took it.  It is never
  // stored in a member or returned, and its scratch is never passed to a
  // callee.  A function may hold several views of one file at once (the
  // grouped readers hold up to kViewGroupSize), but never across a write
  // to the viewed page; at most one held view is in a given scratch page,
  // and it is the last one taken into it, so a view that returned
  // `scratch` is used before the next View call with that scratch.  For
  // an EpochReadView, the reader's pin keeps the viewed version nodes
  // alive.  CachedPageFile keeps this default: another thread can evict a
  // frame, so a pointer into the pool would need a pin.
  virtual StatusOr<const Page*> View(PageId id, Page* scratch, IoStats* io) {
    SIGSET_RETURN_IF_ERROR(Read(id, scratch, io));
    return scratch;
  }

  // The writable form of View, for a read-modify-write: charges one page
  // read to `*io`, with the failpoints and range errors of Read, and
  // returns the page's bytes for the caller to change and hand back with
  // Write(id, *page), which charges the one write.  Where the bytes sit in
  // memory (InMemoryPageFile's stored page, VersionedPageFile's node at
  // the write epoch) the caller edits them in place and that Write copies
  // nothing; otherwise it reads into `*scratch` and returns `scratch`,
  // which is this default.  Lifetime rule: an edit is used only inside the
  // function that took it and is written back there with Write(id,
  // *page); a caller that may not write a page takes a View instead, and
  // one that may fail checks before it changes a byte.  A lent edit or
  // view stays valid across writes to other pages of its file (stored
  // pages and version nodes do not move), and a copying file's scratch
  // belongs to the caller.
  virtual StatusOr<Page*> Edit(PageId id, Page* scratch, IoStats* io) {
    SIGSET_RETURN_IF_ERROR(Read(id, scratch, io));
    return scratch;
  }

  // Convenience forms charging this file's own counters.
  Status Read(PageId id, Page* out) { return Read(id, out, &stats()); }
  Status Write(PageId id, const Page& page) {
    return Write(id, page, &stats());
  }
  StatusOr<const Page*> View(PageId id, Page* scratch) {
    return View(id, scratch, &stats());
  }
  StatusOr<Page*> Edit(PageId id, Page* scratch) {
    return Edit(id, scratch, &stats());
  }

  // Flushes buffered writes to stable storage.  The in-memory backend is
  // trivially "stable" (a no-op); OnDiskPageFile fsyncs; the fault-injecting
  // decorator counts the sync as an operation so crash schedules enumerate
  // fsync points.  The write-ahead log's commit point is a Sync.
  virtual Status Sync() { return Status::OK(); }

  // Access counters (mutable so callers can Reset between measurements).
  virtual IoStats& stats() = 0;
  virtual const IoStats& stats() const = 0;
};

// Writes `page` at index `p` of `file`, first allocating the pages up to
// it.  Compaction targets may hold stale pages from a crashed earlier
// attempt, so plain Allocate-then-Write would mis-place pages on retry.
Status WriteOrAllocate(PageFile* file, PageId p, const Page& page);

// Heap-backed PageFile.  Deterministic and fast; all experiment I/O costs are
// taken from the access counters, so a RAM backing store does not distort
// any reproduced metric.  Concurrent Reads are safe; Allocate/Write must not
// race with other accesses to the same page (query execution is read-only).
class InMemoryPageFile : public PageFile {
 public:
  explicit InMemoryPageFile(std::string name) : name_(std::move(name)) {}

  using PageFile::Edit;
  using PageFile::Read;
  using PageFile::View;
  using PageFile::Write;

  const std::string& name() const override { return name_; }
  PageId num_pages() const override {
    return static_cast<PageId>(pages_.size());
  }

  StatusOr<PageId> Allocate() override;
  Status Read(PageId id, Page* out, IoStats* io) override;
  // View and Edit return the stored page itself; `scratch` is unused.
  StatusOr<const Page*> View(PageId id, Page* scratch, IoStats* io) override;
  StatusOr<Page*> Edit(PageId id, Page* scratch, IoStats* io) override;
  // Copies nothing when `page` is the stored page an Edit lent.
  Status Write(PageId id, const Page& page, IoStats* io) override;

  IoStats& stats() override { return stats_; }
  const IoStats& stats() const override { return stats_; }

 private:
  // The range error of Read, View and Edit.
  Status ReadPastEnd(PageId id) const;

  std::string name_;
  std::vector<std::unique_ptr<Page>> pages_;
  IoStats stats_;
};

}  // namespace sigsetdb

#endif  // SIGSET_STORAGE_PAGE_FILE_H_
