#include "storage/versioned_page_file.h"

#include <cstring>
#include <utility>

#include "util/failpoint.h"

namespace sigsetdb {

StatusOr<std::unique_ptr<VersionedPageFile>> VersionedPageFile::Wrap(
    PageFile* base, const std::atomic<uint64_t>* published_epoch) {
  std::unique_ptr<VersionedPageFile> file(
      new VersionedPageFile(base, published_epoch));
  // Adoption: every base page gets an epoch-0 version node, so readers walk
  // chains exclusively — a reader can never touch base-file bytes that a
  // later FlushToBase would overwrite.
  const PageId existing = base->num_pages();
  if (existing > kMaxSegments * kSegmentSize) {
    return Status::InvalidArgument("file too large for the version directory");
  }
  Page scratch_page;
  for (PageId id = 0; id < existing; ++id) {
    SIGSET_RETURN_IF_ERROR(base->Read(id, &scratch_page, &file->scratch_));
    PageMeta* meta = file->Meta(id, /*create=*/true);
    auto* node = new VersionNode();
    node->epoch = 0;
    std::memcpy(node->page.data(), scratch_page.data(), kPageSize);
    meta->head.store(node, std::memory_order_release);
    file->resident_.fetch_add(1, std::memory_order_relaxed);
  }
  base->stats().AddCow(existing);
  file->num_pages_.store(existing, std::memory_order_release);
  return file;
}

VersionedPageFile::~VersionedPageFile() {
  for (VersionNode* spare : {spare_, writer_spare_}) {
    while (spare != nullptr) {
      VersionNode* next = spare->next.load(std::memory_order_relaxed);
      delete spare;
      spare = next;
    }
  }
  for (size_t s = 0; s < kMaxSegments; ++s) {
    Segment* seg = segments_[s].load(std::memory_order_acquire);
    if (seg == nullptr) continue;
    for (PageMeta& meta : seg->pages) {
      VersionNode* node = meta.head.load(std::memory_order_acquire);
      while (node != nullptr) {
        VersionNode* next = node->next.load(std::memory_order_acquire);
        delete node;
        node = next;
      }
    }
    delete seg;
  }
}

VersionedPageFile::PageMeta* VersionedPageFile::Meta(PageId id, bool create) {
  const size_t seg_idx = id >> kSegmentBits;
  if (seg_idx >= kMaxSegments) return nullptr;
  Segment* seg = segments_[seg_idx].load(std::memory_order_acquire);
  if (seg == nullptr) {
    if (!create) return nullptr;
    seg = new Segment();
    segments_[seg_idx].store(seg, std::memory_order_release);
  }
  return &seg->pages[id & (kSegmentSize - 1)];
}

const VersionedPageFile::PageMeta* VersionedPageFile::Meta(PageId id) const {
  const size_t seg_idx = id >> kSegmentBits;
  if (seg_idx >= kMaxSegments) return nullptr;
  Segment* seg = segments_[seg_idx].load(std::memory_order_acquire);
  if (seg == nullptr) return nullptr;
  return &seg->pages[id & (kSegmentSize - 1)];
}

VersionedPageFile::VersionNode* VersionedPageFile::NewNode() {
  if (writer_spare_ == nullptr) {
    std::lock_guard<std::mutex> lock(spare_mu_);
    std::swap(writer_spare_, spare_);
  }
  VersionNode* node = writer_spare_;
  if (node == nullptr) return new VersionNode();
  writer_spare_ = node->next.load(std::memory_order_relaxed);
  return node;
}

void VersionedPageFile::LinkHead(PageMeta* meta, VersionNode* head,
                                 VersionNode* node) {
  node->epoch = WriteEpoch();
  node->next.store(head, std::memory_order_relaxed);
  meta->head.store(node, std::memory_order_release);
  resident_.fetch_add(1, std::memory_order_relaxed);
  base_->stats().AddCow(1);
}

void VersionedPageFile::PushVersion(PageMeta* meta, const Page& page) {
  VersionNode* head = meta->head.load(std::memory_order_relaxed);
  if (head != nullptr && head->epoch == WriteEpoch()) {
    // Second write to this page within the same (unpublished) mutation: no
    // reader can be pinned at W yet, and pinned readers skip this node by
    // epoch without copying it, so updating in place is race-free and
    // keeps batches from growing the chain by one node per touch.  An
    // edited page is already here.
    if (&page != &head->page) {
      std::memcpy(head->page.data(), page.data(), kPageSize);
    }
    return;
  }
  VersionNode* node = NewNode();
  std::memcpy(node->page.data(), page.data(), kPageSize);
  LinkHead(meta, head, node);
}

StatusOr<PageId> VersionedPageFile::Allocate() {
  SIGSET_FAILPOINT("versioned.allocate");
  SIGSET_ASSIGN_OR_RETURN(PageId id, base_->Allocate());
  PageMeta* meta = Meta(id, /*create=*/true);
  if (meta == nullptr) {
    return Status::InvalidArgument("page id exceeds the version directory");
  }
  // Install a zeroed node tagged with the write epoch before exposing the
  // page: readers pinned at earlier epochs fall through to the zero-page
  // default, matching "this page did not exist yet".
  VersionNode* node = NewNode();
  node->epoch = WriteEpoch();
  node->page.Zero();
  node->next.store(nullptr, std::memory_order_relaxed);
  meta->head.store(node, std::memory_order_release);
  resident_.fetch_add(1, std::memory_order_relaxed);
  num_pages_.store(id + 1, std::memory_order_release);
  return id;
}

Status VersionedPageFile::Read(PageId id, Page* out, IoStats* io) {
  return ReadAtEpoch(id, kLatestEpoch, out, io);
}

StatusOr<const Page*> VersionedPageFile::View(PageId id, Page* /*scratch*/,
                                              IoStats* io) {
  return ViewAtEpoch(id, kLatestEpoch, io);
}

StatusOr<Page*> VersionedPageFile::Edit(PageId id, Page* /*scratch*/,
                                        IoStats* io) {
  SIGSET_FAILPOINT("versioned.read");
  if (id >= num_pages()) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   " out of range in " + name());
  }
  PageMeta* meta = Meta(id, /*create=*/false);
  VersionNode* head =
      meta != nullptr ? meta->head.load(std::memory_order_relaxed) : nullptr;
  if (head == nullptr) {
    return Status::Internal("page " + std::to_string(id) + " of " + name() +
                            " has no version");
  }
  if (io != nullptr) io->AddRead(1);
  if (head->epoch == WriteEpoch()) return &head->page;
  // The first edit of this page in the mutation: the W-node starts as a
  // copy of the head, the one copy Write would have made.
  VersionNode* node = NewNode();
  std::memcpy(node->page.data(), head->page.data(), kPageSize);
  LinkHead(meta, head, node);
  return &node->page;
}

Status VersionedPageFile::ReadAtEpoch(PageId id, uint64_t at, Page* out,
                                      IoStats* io) const {
  SIGSET_ASSIGN_OR_RETURN(const Page* page, ViewAtEpoch(id, at, io));
  std::memcpy(out->data(), page->data(), kPageSize);
  return Status::OK();
}

StatusOr<const Page*> VersionedPageFile::ViewAtEpoch(PageId id, uint64_t at,
                                                     IoStats* io) const {
  // Allocated after `at` was published (or never adopted): the page did
  // not exist at the pinned epoch, so it reads as zeroes, the allocate-time
  // image.
  static const Page kZeroPage;
  SIGSET_FAILPOINT("versioned.read");
  if (id >= num_pages()) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   " out of range in " + name());
  }
  if (io != nullptr) io->AddRead(1);
  const PageMeta* meta = Meta(id);
  const VersionNode* node =
      meta != nullptr ? meta->head.load(std::memory_order_acquire) : nullptr;
  while (node != nullptr && node->epoch > at) {
    node = node->next.load(std::memory_order_acquire);
  }
  return node != nullptr ? &node->page : &kZeroPage;
}

Status VersionedPageFile::Write(PageId id, const Page& page, IoStats* io) {
  SIGSET_FAILPOINT("versioned.write");
  if (id >= num_pages()) {
    return Status::InvalidArgument("page " + std::to_string(id) +
                                   " out of range in " + name());
  }
  PageMeta* meta = Meta(id, /*create=*/true);
  if (meta == nullptr) {
    return Status::InvalidArgument("page id exceeds the version directory");
  }
  PushVersion(meta, page);
  meta->dirty.store(true, std::memory_order_relaxed);
  if (io != nullptr) io->AddWrite(1);
  return Status::OK();
}

Status VersionedPageFile::FlushToBase() {
  SIGSET_FAILPOINT("versioned.flush");
  const PageId n = num_pages();
  for (PageId id = 0; id < n; ++id) {
    PageMeta* meta = Meta(id, /*create=*/false);
    if (meta == nullptr || !meta->dirty.load(std::memory_order_relaxed)) {
      continue;
    }
    VersionNode* head = meta->head.load(std::memory_order_relaxed);
    if (head == nullptr) continue;
    // Base may be shorter than the directory when the crashed base Allocate
    // path raced a failpoint; allocate up to `id` before writing through.
    while (base_->num_pages() <= id) {
      SIGSET_RETURN_IF_ERROR(base_->Allocate().status());
    }
    SIGSET_RETURN_IF_ERROR(base_->Write(id, head->page, &scratch_));
    meta->dirty.store(false, std::memory_order_relaxed);
  }
  return Status::OK();
}

Status VersionedPageFile::Sync() {
  SIGSET_RETURN_IF_ERROR(FlushToBase());
  return base_->Sync();
}

uint64_t VersionedPageFile::Reclaim(uint64_t oldest_pinned) {
  uint64_t freed = 0;
  VersionNode* spares = nullptr;  // this pass's freed nodes
  VersionNode* last_spare = nullptr;
  const PageId n = num_pages();
  for (PageId id = 0; id < n; ++id) {
    PageMeta* meta = Meta(id, /*create=*/false);
    if (meta == nullptr) continue;
    VersionNode* node = meta->head.load(std::memory_order_acquire);
    // Find K: the newest node with epoch <= oldest_pinned.  Every reader is
    // pinned at some E >= oldest_pinned and stops its chain walk at or
    // before K, so nodes strictly after K are unreachable to all readers.
    while (node != nullptr && node->epoch > oldest_pinned) {
      node = node->next.load(std::memory_order_acquire);
    }
    if (node == nullptr) continue;
    VersionNode* stale = node->next.exchange(nullptr,
                                             std::memory_order_acq_rel);
    if (stale == nullptr) continue;
    VersionNode* tail = stale;
    ++freed;
    while (VersionNode* next = tail->next.load(std::memory_order_relaxed)) {
      tail = next;
      ++freed;
    }
    if (last_spare == nullptr) last_spare = tail;
    tail->next.store(spares, std::memory_order_relaxed);
    spares = stale;
  }
  if (freed > 0) {
    {
      std::lock_guard<std::mutex> lock(spare_mu_);
      last_spare->next.store(spare_, std::memory_order_relaxed);
      spare_ = spares;
    }
    resident_.fetch_sub(freed, std::memory_order_relaxed);
    reclaimed_.fetch_add(freed, std::memory_order_relaxed);
  }
  return freed;
}

}  // namespace sigsetdb
