#include "nix/btree.h"

#include <algorithm>
#include <cstring>
#include <type_traits>

#include "util/failpoint.h"

namespace sigsetdb {

namespace {

constexpr uint8_t kLeafType = 1;
constexpr uint8_t kInternalType = 2;
constexpr size_t kHeaderBytes = 8;      // type, pad, num_entries, next_leaf
constexpr size_t kInternalEntryStride = 12;  // key(8) + child(4)
constexpr size_t kInternalFixed = kHeaderBytes + 4;  // + child0

// Leaf record count-field sentinel marking an overflow record.
constexpr uint16_t kOverflowMarker = 0xffff;
// Largest inline posting list: the record (8 key + 2 count + 8n) plus its
// 2-byte directory slot must fit a leaf page.
constexpr size_t kMaxInlinePostings =
    (kPageSize - kHeaderBytes - 2 - 10) / 8;  // 509
// Overflow page: next(4) + count(2) + pad(2), then OIDs.
constexpr size_t kOverflowHeader = 8;
constexpr size_t kOverflowCapacity = (kPageSize - kOverflowHeader) / 8;  // 511

// Leaf records copy posting lists to and from the page with one memcpy.
static_assert(sizeof(Oid) == sizeof(uint64_t) &&
              std::is_trivially_copyable_v<Oid>);

uint8_t NodeType(const Page& page) { return page.ReadAt<uint8_t>(0); }
uint16_t NumEntries(const Page& page) { return page.ReadAt<uint16_t>(2); }

// ---- internal nodes, read in place ----

// Child `i` of an internal node: child0 sits right after the header and
// child i ≥ 1 ends the (key, child) entry i - 1, so both are one stride
// apart.
PageId ChildAt(const Page& page, size_t i) {
  return page.ReadAt<uint32_t>(kHeaderBytes + i * kInternalEntryStride);
}

// Index of the child to follow for `key`: children[i] holds keys < keys[i];
// children[n] holds keys >= keys[n-1].  An upper_bound over the node's
// fixed-stride keys.
size_t ChildIndex(const Page& page, uint64_t key) {
  size_t lo = 0;
  size_t hi = NumEntries(page);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (page.ReadAt<uint64_t>(kInternalFixed + mid * kInternalEntryStride) <=
        key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// ---- internal node serialization ----

struct ParsedInternal {
  std::vector<uint64_t> keys;
  std::vector<PageId> children;  // keys.size() + 1
};

ParsedInternal ParseInternal(const Page& page) {
  ParsedInternal node;
  uint16_t n = NumEntries(page);
  node.keys.reserve(n);
  node.children.reserve(n + 1);
  node.children.push_back(page.ReadAt<uint32_t>(kHeaderBytes));
  size_t off = kInternalFixed;
  for (uint16_t i = 0; i < n; ++i, off += kInternalEntryStride) {
    node.keys.push_back(page.ReadAt<uint64_t>(off));
    node.children.push_back(page.ReadAt<uint32_t>(off + 8));
  }
  return node;
}

void WriteInternal(const ParsedInternal& node, Page* page) {
  page->Zero();
  page->WriteAt<uint8_t>(0, kInternalType);
  page->WriteAt<uint16_t>(2, static_cast<uint16_t>(node.keys.size()));
  page->WriteAt<uint32_t>(4, kInvalidPage);
  page->WriteAt<uint32_t>(kHeaderBytes, node.children[0]);
  size_t off = kInternalFixed;
  for (size_t i = 0; i < node.keys.size(); ++i, off += kInternalEntryStride) {
    page->WriteAt<uint64_t>(off, node.keys[i]);
    page->WriteAt<uint32_t>(off + 8, node.children[i + 1]);
  }
}

// Maximum number of keys per internal node given the fanout cap and the
// page's byte capacity.
size_t InternalMaxKeys(uint32_t max_fanout) {
  size_t by_bytes = (kPageSize - kInternalFixed) / kInternalEntryStride;
  size_t by_fanout = max_fanout - 1;
  return std::min(by_bytes, by_fanout);
}

}  // namespace

// ---- leaf node serialization ----

// Parsed leaf record: either an inline posting list or a pointer to an
// overflow chain.
struct LeafRecord {
  uint64_t key = 0;
  bool overflow = false;
  std::vector<Oid> inline_postings;   // when !overflow
  uint32_t total = 0;                 // when overflow
  PageId first_page = kInvalidPage;   // when overflow
};

namespace {

// Serialized bytes of one leaf record including its directory slot.
size_t LeafRecordBytes(const LeafRecord& record) {
  if (record.overflow) return 2 + 8 + 2 + 4 + 4;
  return 2 + 8 + 2 + record.inline_postings.size() * 8;
}

size_t LeafBytes(const std::vector<LeafRecord>& records) {
  size_t total = kHeaderBytes;
  for (const auto& r : records) total += LeafRecordBytes(r);
  return total;
}

PageId LeafNext(const Page& page) { return page.ReadAt<uint32_t>(4); }

// Leaf directory slot `i`: the page offset of record i.
size_t RecordOffset(const Page& page, size_t i) {
  return page.ReadAt<uint16_t>(kHeaderBytes + i * 2);
}

// The directory slot of the first record whose key is >= `key` (a
// lower_bound over the leaf's sorted offset directory).
size_t FindSlot(const Page& page, uint64_t key) {
  size_t lo = 0;
  size_t hi = NumEntries(page);
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (page.ReadAt<uint64_t>(RecordOffset(page, mid)) < key) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

std::vector<LeafRecord> ParseLeaf(const Page& page) {
  uint16_t n = NumEntries(page);
  std::vector<LeafRecord> records;
  records.reserve(n);
  for (uint16_t i = 0; i < n; ++i) {
    uint16_t off = page.ReadAt<uint16_t>(kHeaderBytes + i * 2);
    LeafRecord record;
    record.key = page.ReadAt<uint64_t>(off);
    uint16_t count = page.ReadAt<uint16_t>(off + 8);
    if (count == kOverflowMarker) {
      record.overflow = true;
      record.total = page.ReadAt<uint32_t>(off + 10);
      record.first_page = page.ReadAt<uint32_t>(off + 14);
    } else {
      record.inline_postings.reserve(count);
      for (uint16_t j = 0; j < count; ++j) {
        record.inline_postings.push_back(
            Oid(page.ReadAt<uint64_t>(off + 10 + j * 8)));
      }
    }
    records.push_back(std::move(record));
  }
  return records;
}

// Serializes `records` (sorted by key) into `page`; returns false when they
// do not fit.
bool WriteLeaf(const std::vector<LeafRecord>& records, PageId next_leaf,
               Page* page) {
  if (LeafBytes(records) > kPageSize) return false;
  page->Zero();
  page->WriteAt<uint8_t>(0, kLeafType);
  page->WriteAt<uint16_t>(2, static_cast<uint16_t>(records.size()));
  page->WriteAt<uint32_t>(4, next_leaf);
  size_t heap = kPageSize;
  for (size_t i = 0; i < records.size(); ++i) {
    const LeafRecord& r = records[i];
    size_t rec = LeafRecordBytes(r) - 2;  // minus the directory slot
    heap -= rec;
    page->WriteAt<uint16_t>(kHeaderBytes + i * 2, static_cast<uint16_t>(heap));
    page->WriteAt<uint64_t>(heap, r.key);
    if (r.overflow) {
      page->WriteAt<uint16_t>(heap + 8, kOverflowMarker);
      page->WriteAt<uint32_t>(heap + 10, r.total);
      page->WriteAt<uint32_t>(heap + 14, r.first_page);
    } else {
      page->WriteAt<uint16_t>(
          heap + 8, static_cast<uint16_t>(r.inline_postings.size()));
      for (size_t j = 0; j < r.inline_postings.size(); ++j) {
        page->WriteAt<uint64_t>(heap + 10 + j * 8,
                                r.inline_postings[j].value());
      }
    }
  }
  return true;
}

// Whether records [0, cut) and [cut, end) each fit a leaf page.
bool HalvesFit(const std::vector<LeafRecord>& records, size_t cut) {
  size_t left = kHeaderBytes;
  size_t right = kHeaderBytes;
  for (size_t i = 0; i < records.size(); ++i) {
    (i < cut ? left : right) += LeafRecordBytes(records[i]);
  }
  return left <= kPageSize && right <= kPageSize;
}

// Where a full leaf splits (`records` holds at least two, since any single
// record fits a page), or 0 when no two-way cut fits.  The first choice is
// the shortest prefix holding at least half of the records' bytes.  When
// that fails, its left half is the one overflowing, and the only other cut
// that can fit ends just before the record straddling the middle: a cut
// further right grows the left half, one further left grows the right.
size_t SplitCut(const std::vector<LeafRecord>& records) {
  size_t total = LeafBytes(records) - kHeaderBytes;
  size_t acc = 0;
  size_t cut = 0;
  while (cut + 1 < records.size() && acc < total / 2) {
    acc += LeafRecordBytes(records[cut]);
    ++cut;
  }
  if (cut == 0) cut = 1;
  if (HalvesFit(records, cut)) return cut;
  if (cut > 1 && HalvesFit(records, cut - 1)) return cut - 1;
  return 0;
}

// `oids` itself when ascending, else a sorted copy in `*scratch`.
const std::vector<Oid>& Ascending(const std::vector<Oid>& oids,
                                  std::vector<Oid>* scratch) {
  if (std::is_sorted(oids.begin(), oids.end())) return oids;
  scratch->assign(oids.begin(), oids.end());
  std::sort(scratch->begin(), scratch->end());
  return *scratch;
}

// Merges the `count` ascending inline postings at page offset `at`, minus
// `removes` (one occurrence each) plus `adds`, into `*merged` in ascending
// order.  kNotFound when a remove matches no posting.
Status MergePostings(const Page& page, size_t at, size_t count, uint64_t key,
                     const std::vector<Oid>& adds,
                     const std::vector<Oid>& removes,
                     std::vector<Oid>* merged) {
  std::vector<Oid> sorted_adds;
  std::vector<Oid> sorted_removes;
  const std::vector<Oid>& add = Ascending(adds, &sorted_adds);
  const std::vector<Oid>& remove = Ascending(removes, &sorted_removes);
  merged->clear();
  merged->reserve(count + add.size());
  size_t a = 0;
  size_t r = 0;
  for (size_t i = 0; i < count; ++i) {
    const Oid oid(page.ReadAt<uint64_t>(at + i * 8));
    if (r < remove.size() && remove[r] < oid) break;  // matches no posting
    if (r < remove.size() && remove[r] == oid) {
      ++r;  // one occurrence per remove
      continue;
    }
    while (a < add.size() && add[a] < oid) merged->push_back(add[a++]);
    merged->push_back(oid);
  }
  if (r < remove.size()) {
    return Status::NotFound("oid not in posting list of key " +
                            std::to_string(key));
  }
  merged->insert(merged->end(), add.begin() + static_cast<ptrdiff_t>(a),
                 add.end());
  return Status::OK();
}

// Rewrites inline record `slot` of the leaf in `page` to hold `postings`,
// in place: `old_bytes` is the record's current size (0 inserts a new
// record for `key` at `slot`), and empty `postings` drop the record.  The
// records below it (higher slots, lower offsets) move by the size change,
// the directory offsets after it shift with them, and every byte vacated is
// zeroed, so a leaf in WriteLeaf's packed layout stays exactly what
// WriteLeaf would write for the changed records.  Returns false, with the
// page untouched, when the result does not fit the page (the caller
// repacks and splits) or the leaf is not in that layout.
bool SpliceRecord(Page* page, size_t slot, size_t old_bytes, uint64_t key,
                  const std::vector<Oid>& postings) {
  const size_t n = NumEntries(*page);
  const size_t new_bytes = postings.empty() ? 0 : 10 + postings.size() * 8;
  const size_t new_n = n + (old_bytes == 0 ? 1 : 0) - (new_bytes == 0 ? 1 : 0);
  // The heap spans [heap, kPageSize); the record spans [begin, end).
  const size_t heap = n == 0 ? kPageSize : RecordOffset(*page, n - 1);
  const size_t end = slot == 0 ? kPageSize : RecordOffset(*page, slot - 1);
  const size_t begin = end - old_bytes;
  if (heap < kHeaderBytes + n * 2 || end > kPageSize || begin < heap ||
      (old_bytes != 0 && RecordOffset(*page, slot) != begin)) {
    return false;
  }
  // WriteLeaf's LeafBytes(records) <= kPageSize, for the changed records.
  if (heap + old_bytes < new_bytes + kHeaderBytes + new_n * 2) return false;

  uint8_t* const bytes = page->data();
  // The records below move so they end where the changed record begins.
  const size_t new_begin = end - new_bytes;
  const size_t new_heap = heap + new_begin - begin;
  if (new_heap != heap) {
    std::memmove(bytes + new_heap, bytes + heap, begin - heap);
    if (new_heap > heap) std::memset(bytes + heap, 0, new_heap - heap);
  }
  const size_t first_below = old_bytes == 0 ? slot : slot + 1;
  for (size_t i = first_below; i < n; ++i) {
    page->WriteAt<uint16_t>(
        kHeaderBytes + i * 2,
        static_cast<uint16_t>(RecordOffset(*page, i) + new_heap - heap));
  }
  uint8_t* const dir = bytes + kHeaderBytes;
  if (new_bytes == 0) {
    std::memmove(dir + slot * 2, dir + (slot + 1) * 2, (n - slot - 1) * 2);
    std::memset(dir + (n - 1) * 2, 0, 2);
  } else {
    if (old_bytes == 0) {
      std::memmove(dir + (slot + 1) * 2, dir + slot * 2, (n - slot) * 2);
    }
    page->WriteAt<uint16_t>(kHeaderBytes + slot * 2,
                            static_cast<uint16_t>(new_begin));
    page->WriteAt<uint64_t>(new_begin, key);
    page->WriteAt<uint16_t>(new_begin + 8,
                            static_cast<uint16_t>(postings.size()));
    std::memcpy(bytes + new_begin + 10, postings.data(), postings.size() * 8);
  }
  page->WriteAt<uint16_t>(2, static_cast<uint16_t>(new_n));
  return true;
}

}  // namespace

// ---- page recycling ----

StatusOr<PageId> BTree::AllocatePage() {
  if (free_list_head_ == kInvalidPage) return file_->Allocate();
  PageId id = free_list_head_;
  Page page;
  SIGSET_RETURN_IF_ERROR(file_->Read(id, &page));
  free_list_head_ = page.ReadAt<uint32_t>(0);
  --free_pages_;
  return id;
}

Status BTree::FreeChain(PageId first) {
  // Walk to the chain's tail, then splice the whole chain onto the list.
  Page page;
  PageId current = first;
  while (true) {
    SIGSET_RETURN_IF_ERROR(file_->Read(current, &page));
    ++free_pages_;
    --overflow_pages_;
    PageId next = page.ReadAt<uint32_t>(0);
    if (next == kInvalidPage) break;
    current = next;
  }
  page.WriteAt<uint32_t>(0, free_list_head_);
  SIGSET_RETURN_IF_ERROR(file_->Write(current, page));
  free_list_head_ = first;
  return Status::OK();
}

// ---- overflow chains ----

Status BTree::ReadOverflowChain(PageId first, uint32_t expected,
                                std::vector<Oid>* out) const {
  out->reserve(out->size() + expected);
  thread_local Page scratch;
  PageId current = first;
  while (current != kInvalidPage) {
    SIGSET_ASSIGN_OR_RETURN(const Page* page, file_->View(current, &scratch));
    uint16_t count = page->ReadAt<uint16_t>(4);
    for (uint16_t i = 0; i < count; ++i) {
      out->push_back(Oid(page->ReadAt<uint64_t>(kOverflowHeader + i * 8)));
    }
    current = page->ReadAt<uint32_t>(0);
  }
  return Status::OK();
}

StatusOr<PageId> BTree::WriteOverflowChain(const std::vector<Oid>& postings) {
  // Build the chain back to front so each page links to the next.
  PageId next = kInvalidPage;
  Page page;
  size_t remaining = postings.size();
  while (remaining > 0) {
    size_t chunk = remaining % kOverflowCapacity;
    if (chunk == 0) chunk = kOverflowCapacity;
    size_t begin = remaining - chunk;
    page.Zero();
    page.WriteAt<uint32_t>(0, next);
    page.WriteAt<uint16_t>(4, static_cast<uint16_t>(chunk));
    for (size_t i = 0; i < chunk; ++i) {
      page.WriteAt<uint64_t>(kOverflowHeader + i * 8,
                             postings[begin + i].value());
    }
    SIGSET_ASSIGN_OR_RETURN(PageId id, AllocatePage());
    SIGSET_RETURN_IF_ERROR(file_->Write(id, page));
    ++overflow_pages_;
    next = id;
    remaining = begin;
  }
  return next;
}

Status BTree::EditOverflowChain(LeafRecord* record,
                                const std::vector<Oid>& adds,
                                const std::vector<Oid>& removes) {
  struct ChainPage {
    PageId id;
    Page page;
    bool dirty;
  };
  std::vector<ChainPage> pages;  // read so far, head first
  auto read = [&](PageId id) {
    pages.push_back(ChainPage{id, Page{}, false});
    return file_->Read(id, &pages.back().page);
  };
  // The removes: one pass from the head, ending at the page holding the
  // last victim, each victim taking one matching entry.  A match is
  // swap-removed with its page's last OID, so chains are the one place
  // postings stay unordered on disk (Lookup sorts a chain once when it
  // materializes the list).
  std::vector<Oid> victims = removes;
  std::sort(victims.begin(), victims.end());
  PageId next = record->first_page;
  while (!victims.empty() && next != kInvalidPage) {
    SIGSET_RETURN_IF_ERROR(read(next));
    Page& page = pages.back().page;
    uint16_t count = page.ReadAt<uint16_t>(4);
    for (uint16_t i = 0; i < count && !victims.empty();) {
      const Oid oid(page.ReadAt<uint64_t>(kOverflowHeader + i * 8));
      auto v = std::lower_bound(victims.begin(), victims.end(), oid);
      if (v == victims.end() || *v != oid) {
        ++i;
        continue;
      }
      victims.erase(v);
      --count;
      page.WriteAt<uint64_t>(
          kOverflowHeader + i * 8,
          page.ReadAt<uint64_t>(kOverflowHeader + count * 8));
      page.WriteAt<uint16_t>(4, count);
      pages.back().dirty = true;
    }
    next = page.ReadAt<uint32_t>(0);
  }
  if (!victims.empty()) {
    // Nothing has been written yet.
    return Status::NotFound("oid not in posting list of key " +
                            std::to_string(record->key));
  }
  // The adds fill the head page's free room, then fresh pages prepended to
  // the chain, so adds never walk it.
  size_t added = 0;
  if (!adds.empty()) {
    if (pages.empty()) SIGSET_RETURN_IF_ERROR(read(record->first_page));
    Page& head = pages.front().page;
    for (uint16_t count = head.ReadAt<uint16_t>(4);
         added < adds.size() && count < kOverflowCapacity; ++added) {
      head.WriteAt<uint64_t>(kOverflowHeader + count * 8, adds[added].value());
      head.WriteAt<uint16_t>(4, ++count);
      pages.front().dirty = true;
    }
  }
  for (const ChainPage& chain_page : pages) {
    if (chain_page.dirty) {
      SIGSET_RETURN_IF_ERROR(file_->Write(chain_page.id, chain_page.page));
    }
  }
  while (added < adds.size()) {
    const size_t chunk =
        std::min<size_t>(kOverflowCapacity, adds.size() - added);
    Page page;
    page.WriteAt<uint32_t>(0, record->first_page);
    page.WriteAt<uint16_t>(4, static_cast<uint16_t>(chunk));
    for (size_t i = 0; i < chunk; ++i, ++added) {
      page.WriteAt<uint64_t>(kOverflowHeader + i * 8, adds[added].value());
    }
    SIGSET_ASSIGN_OR_RETURN(PageId id, AllocatePage());
    SIGSET_RETURN_IF_ERROR(file_->Write(id, page));
    ++overflow_pages_;
    record->first_page = id;
  }
  record->total = static_cast<uint32_t>(record->total - removes.size() +
                                        adds.size());
  return Status::OK();
}

// ---- tree lifecycle ----

StatusOr<std::unique_ptr<BTree>> BTree::Create(PageFile* file,
                                               uint32_t max_fanout) {
  if (max_fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  if (file->num_pages() != 0) {
    return Status::InvalidArgument("BTree::Create requires an empty file");
  }
  std::unique_ptr<BTree> tree(new BTree(file, max_fanout));
  SIGSET_ASSIGN_OR_RETURN(tree->root_, file->Allocate());
  Page page;
  if (!WriteLeaf({}, kInvalidPage, &page)) {
    return Status::Internal("empty leaf must fit");
  }
  SIGSET_RETURN_IF_ERROR(file->Write(tree->root_, page));
  tree->leaf_pages_ = 1;
  // Creation I/O is setup, not an experiment cost.
  file->stats().Reset();
  return tree;
}

StatusOr<std::unique_ptr<BTree>> BTree::CreateResetting(PageFile* file,
                                                        uint32_t max_fanout) {
  if (file->num_pages() == 0) return Create(file, max_fanout);
  if (max_fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  // WAL recovery path: the file holds a tree whose metadata (or pages) may
  // be stale relative to the replayed object store.  Start over with a
  // fresh empty root page and let BulkLoad repack; the old pages become
  // unreachable orphans, which is safe — StoragePages() reports the
  // structural counters, not the file size, and the next Compact() rewrites
  // the file densely anyway.
  std::unique_ptr<BTree> tree(new BTree(file, max_fanout));
  SIGSET_ASSIGN_OR_RETURN(tree->root_, file->Allocate());
  Page page;
  if (!WriteLeaf({}, kInvalidPage, &page)) {
    return Status::Internal("empty leaf must fit");
  }
  SIGSET_RETURN_IF_ERROR(file->Write(tree->root_, page));
  tree->leaf_pages_ = 1;
  file->stats().Reset();
  return tree;
}

StatusOr<std::unique_ptr<BTree>> BTree::CreateFromExisting(
    PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
    uint64_t leaf_pages, uint64_t internal_pages, uint64_t overflow_pages) {
  SIGSET_ASSIGN_OR_RETURN(
      std::unique_ptr<BTree> tree,
      CreateReadView(file, max_fanout, root, height, leaf_pages,
                     internal_pages, overflow_pages));
  // Full structural walk: a crash after the checkpoint can leave the pages
  // ahead of this (stale) metadata; refuse to serve such a tree rather than
  // risk wrong answers.
  SIGSET_RETURN_IF_ERROR(tree->ValidateStructure());
  // Recovery I/O is setup, not an experiment cost.
  file->stats().Reset();
  return tree;
}

StatusOr<std::unique_ptr<BTree>> BTree::CreateReadView(
    PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
    uint64_t leaf_pages, uint64_t internal_pages, uint64_t overflow_pages) {
  if (max_fanout < 2) {
    return Status::InvalidArgument("fanout must be at least 2");
  }
  if (root >= file->num_pages()) {
    return Status::Corruption("recovered root page out of range");
  }
  std::unique_ptr<BTree> tree(new BTree(file, max_fanout));
  tree->root_ = root;
  tree->height_ = height;
  tree->leaf_pages_ = leaf_pages;
  tree->internal_pages_ = internal_pages;
  tree->overflow_pages_ = overflow_pages;
  // Sanity check: the root page must parse as a node of the right kind.
  Page page;
  SIGSET_RETURN_IF_ERROR(file->Read(root, &page));
  uint8_t type = page.ReadAt<uint8_t>(0);
  if ((height == 0 && type != kLeafType) ||
      (height > 0 && type != kInternalType)) {
    return Status::Corruption("recovered root has wrong node type");
  }
  file->stats().Reset();
  return tree;
}

// ---- recovery validation ----

Status BTree::ValidateOverflowChain(PageId first, uint32_t total,
                                    std::vector<bool>* visited,
                                    uint64_t* overflow) const {
  Page page;
  PageId current = first;
  uint64_t sum = 0;
  while (current != kInvalidPage) {
    if (current >= file_->num_pages()) {
      return Status::Corruption("overflow page out of range");
    }
    if ((*visited)[current]) {
      return Status::Corruption("overflow chain revisits a page");
    }
    (*visited)[current] = true;
    ++*overflow;
    SIGSET_RETURN_IF_ERROR(file_->Read(current, &page));
    uint16_t count = page.ReadAt<uint16_t>(4);
    if (count > kOverflowCapacity) {
      return Status::Corruption("overflow page count exceeds capacity");
    }
    sum += count;
    current = page.ReadAt<uint32_t>(0);
  }
  if (sum != total) {
    return Status::Corruption("overflow chain total does not match record");
  }
  return Status::OK();
}

Status BTree::ValidateNode(PageId page_id, uint32_t depth,
                           std::vector<bool>* visited,
                           std::vector<std::pair<PageId, PageId>>* leaves,
                           uint64_t* internals, uint64_t* overflow) const {
  if (page_id >= file_->num_pages()) {
    return Status::Corruption("node page out of range");
  }
  if ((*visited)[page_id]) {
    return Status::Corruption("tree reaches a page twice");
  }
  (*visited)[page_id] = true;
  Page page;
  SIGSET_RETURN_IF_ERROR(file_->Read(page_id, &page));
  uint8_t type = NodeType(page);
  uint16_t n = NumEntries(page);
  if (depth == height_) {
    if (type != kLeafType) {
      return Status::Corruption("expected a leaf at the tree's height");
    }
    // Bounds-checked leaf parse: directory and every record must lie inside
    // the page (a garbage page can carry arbitrary uint16 offsets).
    if (kHeaderBytes + static_cast<size_t>(n) * 2 > kPageSize) {
      return Status::Corruption("leaf directory exceeds page");
    }
    uint64_t prev_key = 0;
    for (uint16_t i = 0; i < n; ++i) {
      uint16_t off = page.ReadAt<uint16_t>(kHeaderBytes + i * 2);
      if (off < kHeaderBytes + static_cast<size_t>(n) * 2 ||
          static_cast<size_t>(off) + 10 > kPageSize) {
        return Status::Corruption("leaf record offset out of bounds");
      }
      uint64_t key = page.ReadAt<uint64_t>(off);
      if (i > 0 && key <= prev_key) {
        return Status::Corruption("leaf keys not strictly increasing");
      }
      prev_key = key;
      uint16_t count = page.ReadAt<uint16_t>(off + 8);
      if (count == kOverflowMarker) {
        if (static_cast<size_t>(off) + 18 > kPageSize) {
          return Status::Corruption("overflow record exceeds page");
        }
        uint32_t total = page.ReadAt<uint32_t>(off + 10);
        PageId first = page.ReadAt<uint32_t>(off + 14);
        SIGSET_RETURN_IF_ERROR(
            ValidateOverflowChain(first, total, visited, overflow));
      } else if (off + 10 + static_cast<size_t>(count) * 8 > kPageSize) {
        return Status::Corruption("leaf posting list exceeds page");
      }
    }
    leaves->emplace_back(page_id, LeafNext(page));
    return Status::OK();
  }
  if (type != kInternalType) {
    return Status::Corruption("expected an internal node above the leaves");
  }
  // A 0-key internal node (single child) is legal: bulk load emits one when
  // a level's tail group holds a single node.
  if (n > InternalMaxKeys(max_fanout_) ||
      kInternalFixed + static_cast<size_t>(n) * kInternalEntryStride >
          kPageSize) {
    return Status::Corruption("internal node entry count out of bounds");
  }
  uint64_t prev_key = 0;
  for (uint16_t i = 0; i < n; ++i) {
    uint64_t key = page.ReadAt<uint64_t>(kInternalFixed + i *
                                         kInternalEntryStride);
    if (i > 0 && key <= prev_key) {
      return Status::Corruption("internal keys not strictly increasing");
    }
    prev_key = key;
  }
  // Copy the child ids out before recursing (the recursion reuses the page
  // buffer), then validate each subtree left to right.
  std::vector<PageId> children;
  children.reserve(n + 1);
  children.push_back(page.ReadAt<uint32_t>(kHeaderBytes));
  for (uint16_t i = 0; i < n; ++i) {
    children.push_back(
        page.ReadAt<uint32_t>(kInternalFixed + i * kInternalEntryStride + 8));
  }
  for (PageId child : children) {
    SIGSET_RETURN_IF_ERROR(
        ValidateNode(child, depth + 1, visited, leaves, internals, overflow));
  }
  ++*internals;
  return Status::OK();
}

Status BTree::ValidateStructure() const {
  if (root_ >= file_->num_pages()) {
    return Status::Corruption("recovered root page out of range");
  }
  std::vector<bool> visited(file_->num_pages(), false);
  std::vector<std::pair<PageId, PageId>> leaves;
  uint64_t internals = 0;
  uint64_t overflow = 0;
  SIGSET_RETURN_IF_ERROR(
      ValidateNode(root_, 0, &visited, &leaves, &internals, &overflow));
  if (leaves.size() != leaf_pages_ || internals != internal_pages_ ||
      overflow != overflow_pages_) {
    return Status::Corruption(
        "reachable page counts do not match checkpointed metadata");
  }
  // The leaf chain must thread the reachable leaves in exactly tree order; a
  // post-checkpoint leaf split leaves the chain pointing at a leaf the stale
  // root cannot reach, which this catches.
  for (size_t i = 0; i < leaves.size(); ++i) {
    PageId want = i + 1 < leaves.size() ? leaves[i + 1].first : kInvalidPage;
    if (leaves[i].second != want) {
      return Status::Corruption("leaf chain diverges from tree structure");
    }
  }
  return Status::OK();
}

// ---- operations ----

Status BTree::LookupMany(std::span<const uint64_t> keys,
                         std::vector<std::vector<Oid>>* out) const {
  out->clear();
  out->resize(keys.size());
  return LookupInto(keys, *out);
}

StatusOr<std::vector<Oid>> BTree::Lookup(uint64_t key) const {
  std::vector<Oid> postings;
  SIGSET_RETURN_IF_ERROR(LookupInto({&key, 1}, {&postings, 1}));
  return postings;
}

Status BTree::LookupInto(std::span<const uint64_t> keys,
                         std::span<std::vector<Oid>> out) const {
  // Lookups run on concurrent readers, so the scratch page is per thread;
  // reusing it spares zero-filling a fresh 4 KiB Page on every call, and
  // an in-memory file's view needs no scratch at all.
  thread_local Page scratch;
  // The held leaves are those of keys [searched, searched + held).
  const Page* leaves[kViewGroupSize];
  size_t searched = 0;
  size_t held = 0;
  for (const uint64_t key : keys) {
    const Page* view = nullptr;
    PageId current = root_;
    while (true) {
      SIGSET_ASSIGN_OR_RETURN(view, file_->View(current, &scratch));
      if (NodeType(*view) == kLeafType) break;
      current = ChildAt(*view, ChildIndex(*view, key));
    }
    // The header and the start of the offset directory: FindSlot's first
    // reads.
    __builtin_prefetch(view->data());
    leaves[held++] = view;
    if (held < kViewGroupSize && view != &scratch &&
        searched + held < keys.size()) {
      continue;
    }
    for (size_t i = 0; i < held; ++i, ++searched) {
      SIGSET_RETURN_IF_ERROR(
          CopyPostings(*leaves[i], keys[searched], &out[searched]));
    }
    held = 0;
  }
  return Status::OK();
}

Status BTree::CopyPostings(const Page& leaf, uint64_t key,
                           std::vector<Oid>* out) const {
  const size_t slot = FindSlot(leaf, key);
  if (slot == NumEntries(leaf)) return Status::OK();
  const size_t off = RecordOffset(leaf, slot);
  if (leaf.ReadAt<uint64_t>(off) != key) return Status::OK();
  // Inline postings are kept sorted at write time (LeafApply merges adds in
  // order; BulkLoad's callers pass sorted lists), so they are copied out
  // as-is.  Overflow chains are unordered on disk by design — one sort
  // here, when the chain is materialized, is what lets every reader above
  // assume ascending postings without re-sorting per query.
  const uint16_t count = leaf.ReadAt<uint16_t>(off + 8);
  if (count != kOverflowMarker) {
    out->resize(count);
    if (count != 0) std::memcpy(out->data(), leaf.data() + off + 10, count * 8);
    return Status::OK();
  }
  SIGSET_RETURN_IF_ERROR(ReadOverflowChain(leaf.ReadAt<uint32_t>(off + 14),
                                           leaf.ReadAt<uint32_t>(off + 10),
                                           out));
  std::sort(out->begin(), out->end());
  return Status::OK();
}

Status BTree::StoreLeaf(PageId page_id, Page* page,
                        std::vector<LeafRecord>* records, PageId next_leaf,
                        bool* split, uint64_t* promoted, PageId* new_child) {
  *split = false;
  size_t cut = 0;
  while (true) {
    if (WriteLeaf(*records, next_leaf, page)) {
      return file_->Write(page_id, *page);
    }
    // Split by bytes so both halves fit even with skewed posting sizes.
    SIGSET_FAILPOINT("btree.split");
    cut = SplitCut(*records);
    if (cut != 0) break;
    // No two-way cut fits: a large inline posting list shares the leaf with
    // neighbours on both sides (Apply can grow a list by hundreds of OIDs at
    // once).  Move the largest inline list to an overflow chain, which
    // leaves a 20-byte record behind, and try again.
    auto largest = std::max_element(
        records->begin(), records->end(),
        [](const LeafRecord& a, const LeafRecord& b) {
          return a.inline_postings.size() < b.inline_postings.size();
        });
    if (largest->inline_postings.size() < 2) {
      // Spilling a one-OID list saves no bytes.
      return Status::Internal("leaf split halves do not fit");
    }
    SIGSET_ASSIGN_OR_RETURN(PageId first,
                            WriteOverflowChain(largest->inline_postings));
    largest->overflow = true;
    largest->total = static_cast<uint32_t>(largest->inline_postings.size());
    largest->first_page = first;
    largest->inline_postings.clear();
    largest->inline_postings.shrink_to_fit();
  }
  std::vector<LeafRecord> left(records->begin(),
                               records->begin() + static_cast<ptrdiff_t>(cut));
  std::vector<LeafRecord> right(records->begin() + static_cast<ptrdiff_t>(cut),
                                records->end());
  SIGSET_ASSIGN_OR_RETURN(PageId right_id, file_->Allocate());
  Page right_page;
  if (!WriteLeaf(right, next_leaf, &right_page) ||
      !WriteLeaf(left, right_id, page)) {
    return Status::Internal("leaf split halves do not fit");
  }
  SIGSET_RETURN_IF_ERROR(file_->Write(page_id, *page));
  SIGSET_RETURN_IF_ERROR(file_->Write(right_id, right_page));
  ++leaf_pages_;
  *split = true;
  *promoted = right.front().key;
  *new_child = right_id;
  return Status::OK();
}

Status BTree::Insert(uint64_t key, Oid oid) { return Apply(key, {oid}, {}); }

Status BTree::LeafApply(PageId page_id, Page* page, uint64_t key,
                        const std::vector<Oid>& adds,
                        const std::vector<Oid>& removes, bool* split,
                        uint64_t* promoted, PageId* new_child) {
  *split = false;
  const size_t slot = FindSlot(*page, key);
  const bool found = slot < NumEntries(*page) &&
                     page->ReadAt<uint64_t>(RecordOffset(*page, slot)) == key;
  if (!found && !removes.empty()) {
    return Status::NotFound("key not in index: " + std::to_string(key));
  }
  const size_t off = found ? RecordOffset(*page, slot) : 0;
  const uint16_t count = found ? page->ReadAt<uint16_t>(off + 8) : 0;
  if (count == kOverflowMarker) {
    // The chain is edited in place; its leaf record changes its first page
    // and total, or goes when the chain drains.
    std::vector<LeafRecord> records = ParseLeaf(*page);
    LeafRecord& record = records[slot];
    SIGSET_RETURN_IF_ERROR(EditOverflowChain(&record, adds, removes));
    if (record.total == 0) {
      // Recycle the drained chain's pages and drop the record.
      SIGSET_RETURN_IF_ERROR(FreeChain(record.first_page));
      records.erase(records.begin() + static_cast<ptrdiff_t>(slot));
    }
    return StoreLeaf(page_id, page, &records, LeafNext(*page), split,
                     promoted, new_child);
  }
  // Inline postings stay ascending on disk, so Lookup never sorts them.
  SIGSET_RETURN_IF_ERROR(
      MergePostings(*page, off + 10, count, key, adds, removes, &merged_));
  const size_t old_bytes = found ? 10 + static_cast<size_t>(count) * 8 : 0;
  if (merged_.size() <= kMaxInlinePostings &&
      SpliceRecord(page, slot, old_bytes, key, merged_)) {
    return file_->Write(page_id, *page);
  }
  // A list past the inline limit, or a leaf that must split: parse, change
  // the record, repack.
  std::vector<LeafRecord> records = ParseLeaf(*page);
  if (!found) {
    LeafRecord record;
    record.key = key;
    records.insert(records.begin() + static_cast<ptrdiff_t>(slot),
                   std::move(record));
  }
  LeafRecord& record = records[slot];
  if (merged_.empty()) {
    records.erase(records.begin() + static_cast<ptrdiff_t>(slot));
  } else if (merged_.size() > kMaxInlinePostings) {
    // Spill the whole posting list into an overflow chain.
    SIGSET_ASSIGN_OR_RETURN(record.first_page, WriteOverflowChain(merged_));
    record.overflow = true;
    record.total = static_cast<uint32_t>(merged_.size());
    record.inline_postings.clear();
  } else {
    record.inline_postings = merged_;
  }
  return StoreLeaf(page_id, page, &records, LeafNext(*page), split, promoted,
                   new_child);
}

Page* BTree::LevelBuffer(uint32_t depth) {
  if (depth >= levels_.size()) levels_.resize(depth + 1);
  if (levels_[depth] == nullptr) levels_[depth] = std::make_unique<Page>();
  return levels_[depth].get();
}

Status BTree::ApplyRec(PageId page_id, uint32_t depth, uint64_t key,
                       const std::vector<Oid>& adds,
                       const std::vector<Oid>& removes, bool* split,
                       uint64_t* promoted, PageId* new_child) {
  Page* buffer = LevelBuffer(depth);
  if (depth == height_) {
    // The leaf is edited where its bytes sit; LeafApply checks every
    // change before it touches the page, and writes it back.
    SIGSET_ASSIGN_OR_RETURN(Page* leaf, file_->Edit(page_id, buffer));
    if (NodeType(*leaf) != kLeafType) {
      return Status::Corruption("expected a leaf at the tree's height");
    }
    return LeafApply(page_id, leaf, key, adds, removes, split, promoted,
                     new_child);
  }
  // An internal node is only read on the way down.  A copying file reads
  // it into this level's buffer and the descent below uses the next
  // level's, so the view still holds this node if its child splits.
  SIGSET_ASSIGN_OR_RETURN(const Page* page, file_->View(page_id, buffer));
  if (NodeType(*page) != kInternalType) {
    return Status::Corruption("expected an internal node above the leaves");
  }
  const size_t ci = ChildIndex(*page, key);
  bool child_split = false;
  uint64_t child_promoted = 0;
  PageId child_new = kInvalidPage;
  SIGSET_RETURN_IF_ERROR(ApplyRec(ChildAt(*page, ci), depth + 1, key, adds,
                                  removes, &child_split, &child_promoted,
                                  &child_new));
  if (!child_split) {
    *split = false;
    return Status::OK();
  }
  // Only a child split changes this node: add the separator and repack it
  // in the level buffer.
  ParsedInternal node = ParseInternal(*page);
  node.keys.insert(node.keys.begin() + static_cast<ptrdiff_t>(ci),
                   child_promoted);
  node.children.insert(node.children.begin() + static_cast<ptrdiff_t>(ci) + 1,
                       child_new);
  if (node.keys.size() <= InternalMaxKeys(max_fanout_)) {
    WriteInternal(node, buffer);
    SIGSET_RETURN_IF_ERROR(file_->Write(page_id, *buffer));
    *split = false;
    return Status::OK();
  }
  SIGSET_FAILPOINT("btree.split");
  size_t mid = node.keys.size() / 2;
  ParsedInternal left;
  left.keys.assign(node.keys.begin(), node.keys.begin() + mid);
  left.children.assign(node.children.begin(),
                       node.children.begin() + mid + 1);
  ParsedInternal right;
  right.keys.assign(node.keys.begin() + mid + 1, node.keys.end());
  right.children.assign(node.children.begin() + mid + 1,
                        node.children.end());
  SIGSET_ASSIGN_OR_RETURN(PageId right_id, file_->Allocate());
  Page right_page;
  WriteInternal(left, buffer);
  WriteInternal(right, &right_page);
  SIGSET_RETURN_IF_ERROR(file_->Write(page_id, *buffer));
  SIGSET_RETURN_IF_ERROR(file_->Write(right_id, right_page));
  ++internal_pages_;
  *split = true;
  *promoted = node.keys[mid];
  *new_child = right_id;
  return Status::OK();
}

Status BTree::Apply(uint64_t key, const std::vector<Oid>& adds,
                    const std::vector<Oid>& removes) {
  if (adds.empty() && removes.empty()) return Status::OK();
  bool split = false;
  uint64_t promoted = 0;
  PageId new_child = kInvalidPage;
  SIGSET_RETURN_IF_ERROR(ApplyRec(root_, 0, key, adds, removes, &split,
                                  &promoted, &new_child));
  if (!split) return Status::OK();
  ParsedInternal new_root;
  new_root.keys = {promoted};
  new_root.children = {root_, new_child};
  SIGSET_ASSIGN_OR_RETURN(PageId root_id, file_->Allocate());
  // The old root's buffer is done with; the new root is packed in it.
  Page* page = LevelBuffer(0);
  WriteInternal(new_root, page);
  SIGSET_RETURN_IF_ERROR(file_->Write(root_id, *page));
  root_ = root_id;
  ++internal_pages_;
  ++height_;
  return Status::OK();
}

Status BTree::Remove(uint64_t key, Oid oid) { return Apply(key, {}, {oid}); }

Status BTree::BulkLoad(const std::vector<BTreeEntry>& sorted_entries) {
  if (leaf_pages_ != 1 || internal_pages_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty tree");
  }
  {
    Page root_page;
    SIGSET_RETURN_IF_ERROR(file_->Read(root_, &root_page));
    if (NumEntries(root_page) != 0) {
      return Status::FailedPrecondition("BulkLoad requires an empty tree");
    }
  }
  for (size_t i = 0; i + 1 < sorted_entries.size(); ++i) {
    if (sorted_entries[i].key >= sorted_entries[i + 1].key) {
      return Status::InvalidArgument("BulkLoad input must be sorted unique");
    }
  }
  // Convert to leaf records, spilling giant postings into overflow chains.
  std::vector<LeafRecord> records;
  records.reserve(sorted_entries.size());
  for (const BTreeEntry& e : sorted_entries) {
    LeafRecord record;
    record.key = e.key;
    if (e.postings.size() > kMaxInlinePostings) {
      SIGSET_ASSIGN_OR_RETURN(record.first_page,
                              WriteOverflowChain(e.postings));
      record.overflow = true;
      record.total = static_cast<uint32_t>(e.postings.size());
    } else {
      record.inline_postings = e.postings;
    }
    records.push_back(std::move(record));
  }

  // Pack leaves greedily to capacity (the model's ⌊P/Il⌋ per page).
  struct NodeRef {
    uint64_t min_key;
    PageId id;
  };
  std::vector<std::vector<LeafRecord>> leaf_groups;
  std::vector<LeafRecord> current;
  size_t bytes = kHeaderBytes;
  for (LeafRecord& r : records) {
    size_t rb = LeafRecordBytes(r);
    if (bytes + rb > kPageSize) {
      leaf_groups.push_back(std::move(current));
      current.clear();
      bytes = kHeaderBytes;
    }
    current.push_back(std::move(r));
    bytes += rb;
  }
  leaf_groups.push_back(std::move(current));  // may be empty for empty input

  // Allocate page ids: group 0 reuses the root page, the rest are fresh.
  std::vector<NodeRef> level;
  level.reserve(leaf_groups.size());
  for (size_t i = 0; i < leaf_groups.size(); ++i) {
    PageId id = root_;
    if (i > 0) {
      SIGSET_ASSIGN_OR_RETURN(id, file_->Allocate());
    }
    uint64_t min_key = leaf_groups[i].empty() ? 0 : leaf_groups[i].front().key;
    level.push_back(NodeRef{min_key, id});
  }
  Page page;
  for (size_t i = 0; i < leaf_groups.size(); ++i) {
    PageId next = (i + 1 < level.size()) ? level[i + 1].id : kInvalidPage;
    if (!WriteLeaf(leaf_groups[i], next, &page)) {
      return Status::Internal("bulk leaf does not fit");
    }
    SIGSET_RETURN_IF_ERROR(file_->Write(level[i].id, page));
  }
  leaf_pages_ = leaf_groups.size();

  // Build packed internal levels until one node remains.
  size_t max_children = InternalMaxKeys(max_fanout_) + 1;
  height_ = 0;
  while (level.size() > 1) {
    std::vector<NodeRef> parent_level;
    for (size_t start = 0; start < level.size(); start += max_children) {
      size_t end = std::min(start + max_children, level.size());
      ParsedInternal node;
      node.children.push_back(level[start].id);
      for (size_t i = start + 1; i < end; ++i) {
        node.keys.push_back(level[i].min_key);
        node.children.push_back(level[i].id);
      }
      SIGSET_ASSIGN_OR_RETURN(PageId id, file_->Allocate());
      WriteInternal(node, &page);
      SIGSET_RETURN_IF_ERROR(file_->Write(id, page));
      ++internal_pages_;
      parent_level.push_back(NodeRef{level[start].min_key, id});
    }
    level = std::move(parent_level);
    ++height_;
  }
  root_ = level.front().id;
  // Bulk-build I/O is setup, not an experiment cost.
  file_->stats().Reset();
  return Status::OK();
}

Status BTree::ForEachEntry(
    const std::function<void(const BTreeEntry&)>& fn) const {
  // Descend to the leftmost leaf, then follow the chain.
  Page page;
  PageId current = root_;
  while (true) {
    SIGSET_RETURN_IF_ERROR(file_->Read(current, &page));
    if (NodeType(page) == kLeafType) break;
    current = ChildAt(page, 0);
  }
  while (true) {
    for (LeafRecord& r : ParseLeaf(page)) {
      BTreeEntry entry;
      entry.key = r.key;
      if (r.overflow) {
        SIGSET_RETURN_IF_ERROR(
            ReadOverflowChain(r.first_page, r.total, &entry.postings));
        // Same contract as Lookup: postings surface in ascending order.
        std::sort(entry.postings.begin(), entry.postings.end());
      } else {
        entry.postings = std::move(r.inline_postings);
      }
      fn(entry);
    }
    PageId next = LeafNext(page);
    if (next == kInvalidPage) break;
    SIGSET_RETURN_IF_ERROR(file_->Read(next, &page));
  }
  return Status::OK();
}

}  // namespace sigsetdb
