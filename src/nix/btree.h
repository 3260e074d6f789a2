// A page-based B+-tree mapping 64-bit keys to OID posting lists — the
// storage engine behind the nested index (paper §4.3).
//
// Layout
//   Internal node:  header | child0 | (key, child)*        (fanout-capped)
//   Leaf node:      header | sorted offset directory | record heap
//   Leaf record:    key (8) | count (2) | count × OID (8)
//
// The paper's NIX stores, per distinct set-element value, the list of OIDs
// of objects containing it ("[DB], {s1, s2}").  Leaf entries are exactly
// that: Il = d·oid + kl + oidn bytes.  The internal fanout is capped at the
// paper's f = 218 by default so that the reproduced tree has the same page
// counts (Table 5) and height (rc = 3) as the model.
//
// Reads and writes work on the page bytes.  A descent binary-searches each
// internal node's fixed-stride keys and the leaf's offset directory;
// a lookup copies out only the matched record's OIDs.  LookupMany, the one
// read path, descends for its keys in order but holds up to kViewGroupSize
// leaf views, prefetching each one's header and directory line, and
// searches them only once the group is viewed, so an in-memory file's leaf
// misses overlap instead of following one another.  Apply views the
// internal nodes on its way down, edits the leaf where its bytes sit
// (PageFile::Edit), merges the key's removes and adds once and splices the
// changed inline record into the leaf: the heap below it moves, the later
// directory offsets shift, and every vacated byte is zeroed, so the page
// stays exactly what a full repack would write.  Only three cases still
// parse the leaf and repack it: an overflow-chain record, a list that
// spills past 509 OIDs, and a leaf that must split.  An internal node is parsed only when a child split adds a
// separator key to it.  Deletion removes an OID from a posting (and the
// entry when the posting empties) without rebalancing — matching the
// paper's update model, which "does not consider node splits".
//
// Posting lists larger than one page spill into *overflow chains*: the leaf
// entry then stores [key | marker | total | first-overflow-page] and the
// OIDs live in chained overflow pages, edited in place.  A chain stays a
// chain until it drains to zero, when its pages are recycled.  The paper's
// parameters (d = Dt·N/V ≤ 246 postings) never overflow, so the reproduced
// page counts are unaffected; the chains make the index robust under skewed
// workloads.  A full leaf that no two-way cut can split (one large list
// between two neighbours) also moves its largest inline list to a chain.
//
// BulkLoad packs leaves to capacity and builds packed upper levels, which is
// what the paper's storage formulas assume (lp = ⌈V / ⌊P/Il⌋⌉).

#ifndef SIGSET_NIX_BTREE_H_
#define SIGSET_NIX_BTREE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "obj/oid.h"
#include "storage/page_file.h"
#include "util/status.h"

namespace sigsetdb {

// The paper's non-leaf fanout (Table 4: f = 218).
inline constexpr uint32_t kPaperFanout = 218;

// A leaf record as the tree's own code parses it (defined in btree.cc).
struct LeafRecord;

// One leaf entry in parsed form.
struct BTreeEntry {
  uint64_t key;
  std::vector<Oid> postings;
};

// B+-tree with OID posting lists.
class BTree {
 public:
  // Creates an empty tree in `file` (not owned; must be empty).
  // `max_fanout` caps the number of children per internal node.
  static StatusOr<std::unique_ptr<BTree>> Create(
      PageFile* file, uint32_t max_fanout = kPaperFanout);

  // Discards whatever tree `file` holds and starts an empty one: a fresh
  // root leaf is allocated at the file's end and the old pages are left as
  // unreachable orphans.  Used by WAL recovery, which rebuilds the index
  // from the replayed object store via BulkLoad (an empty file just
  // delegates to Create).
  static StatusOr<std::unique_ptr<BTree>> CreateResetting(
      PageFile* file, uint32_t max_fanout = kPaperFanout);

  // Reopens a tree over a previously populated file.  The structural
  // metadata (root page, height, page counts) comes from the manifest
  // written by SetIndex::Checkpoint().  Recovery walks the whole tree
  // (ValidateStructure): a crash can leave pages ahead of the manifest.
  static StatusOr<std::unique_ptr<BTree>> CreateFromExisting(
      PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
      uint64_t leaf_pages, uint64_t internal_pages,
      uint64_t overflow_pages = 0);

  // A tree over a snapshot's fixed-epoch view: the shape was published
  // with the epoch, so only the root's node type is checked (one read).
  static StatusOr<std::unique_ptr<BTree>> CreateReadView(
      PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
      uint64_t leaf_pages, uint64_t internal_pages, uint64_t overflow_pages);

  // The current root page id (persisted at checkpoint time).
  PageId root() const { return root_; }

  // Head of the free-page list (drained overflow pages are recycled;
  // persisted at checkpoint time).  kInvalidPage when empty.
  PageId free_list_head() const { return free_list_head_; }

  // Restores the free list after reopen (metadata from the manifest).
  void RestoreFreeList(PageId head, uint64_t pages) {
    free_list_head_ = head;
    free_pages_ = pages;
  }

  // Number of pages currently parked on the free list.
  uint64_t free_pages() const { return free_pages_; }

  // Applies a group of posting changes to `key` with ONE descent: removes
  // first (each takes one occurrence of its oid; an emptied posting drops
  // the entry), then adds (creating the entry if absent).  A missing key or
  // oid gives kNotFound before anything is written.  Costs rc + O(1) page
  // accesses per distinct key instead of per posting, which is what makes
  // batched NIX updates amortize; only one record changes, so at most one
  // leaf split (plus promotions) can occur.  On an overflow chain the
  // removes read from the head to the last victim's page and write each
  // changed page once, and the adds fill the head page, then prepend
  // pages: one add costs (height + 1) + 1 reads and 2 writes while the head
  // has room, one remove writes 2 pages, k adds write ≤ ⌈k/511⌉ + 2.
  Status Apply(uint64_t key, const std::vector<Oid>& adds,
               const std::vector<Oid>& removes);

  // Apply with one add or one remove.
  Status Insert(uint64_t key, Oid oid);
  Status Remove(uint64_t key, Oid oid);

  // Sets `(*out)[i]` to the posting list of `keys[i]` in ascending OID
  // order (empty when the key is absent; the traversal still costs
  // height()+1 page reads).  Inline records are stored sorted so this is
  // free; an overflow chain — unordered on disk — is sorted once here, not
  // per reader.  Keys may repeat and come in any order.
  //
  // The descents run in the order of `keys` and make exactly the View calls
  // one-key lookups would, each internal node consumed as soon as viewed.
  // Each leaf view is held, its first line prefetched, until
  // kViewGroupSize leaves are held, the keys run out, or a View returns
  // the scratch page (a copying file: that leaf is searched at once); then
  // the held leaves are searched in order.  An overflow chain is read when
  // its record is searched, after its group's descents: the same pages,
  // charged the same.  If a chain read fails, up to kViewGroupSize - 1
  // later keys' descents have already been charged.
  Status LookupMany(std::span<const uint64_t> keys,
                    std::vector<std::vector<Oid>>* out) const;

  // LookupMany of one key.
  StatusOr<std::vector<Oid>> Lookup(uint64_t key) const;

  // Bulk-builds a packed tree from entries sorted by strictly increasing
  // key.  The tree must be freshly created (empty).
  Status BulkLoad(const std::vector<BTreeEntry>& sorted_entries);

  // Visits every entry in key order (used by tests and integrity checks).
  Status ForEachEntry(
      const std::function<void(const BTreeEntry&)>& fn) const;

  // Walks the tree reachable from the recovered root with bounds-checked
  // parsing and verifies it against the checkpointed metadata: node types
  // match their depth, keys are ordered, no page is reached twice, the leaf
  // chain equals the tree's left-to-right leaf order, overflow chains carry
  // exactly their recorded totals, and the reachable leaf/internal/overflow
  // page counts equal the manifest's.  Any mismatch is a clean kCorruption
  // error — the defense that turns a torn post-checkpoint split into a
  // refused open instead of wrong query answers.
  Status ValidateStructure() const;

  // Structural counters (the model's lp / nlp / height).
  uint64_t leaf_pages() const { return leaf_pages_; }
  uint64_t internal_pages() const { return internal_pages_; }
  uint64_t overflow_pages() const { return overflow_pages_; }
  uint64_t total_pages() const {
    return leaf_pages_ + internal_pages_ + overflow_pages_;
  }
  // Number of internal levels above the leaves (paper: 2 at V = 13,000, so
  // a lookup costs height()+1 = 3 page reads).
  uint32_t height() const { return height_; }

  // The backing page file (for access-counter snapshots in query tracing).
  const PageFile& file() const { return *file_; }

 private:
  BTree(PageFile* file, uint32_t max_fanout)
      : file_(file), max_fanout_(max_fanout) {}

  // Writes `records` (sorted by key) to leaf `page_id`, splitting the leaf
  // when they overflow it; same promotion contract as ApplyRec.  The split
  // balances bytes; when no two-way cut fits, the largest inline posting
  // list moves to an overflow chain first (see SplitCut in btree.cc).
  Status StoreLeaf(PageId page_id, Page* page,
                   std::vector<LeafRecord>* records, PageId next_leaf,
                   bool* split, uint64_t* promoted, PageId* new_child);

  // Recursive descent for Apply(): an internal node at `depth` is viewed,
  // with that level's buffer as the scratch page, and the view is held
  // while its subtree changes; the leaf, at depth height(), is edited.  A
  // node whose type does not match its depth is kCorruption.  Sets
  // `*promoted`/`*new_child` when `page_id` split.
  Status ApplyRec(PageId page_id, uint32_t depth, uint64_t key,
                  const std::vector<Oid>& adds,
                  const std::vector<Oid>& removes, bool* split,
                  uint64_t* promoted, PageId* new_child);
  Status LeafApply(PageId page_id, Page* page, uint64_t key,
                   const std::vector<Oid>& adds,
                   const std::vector<Oid>& removes, bool* split,
                   uint64_t* promoted, PageId* new_child);
  // Apply's page buffer for tree level `depth` (0 = the root), made on
  // first use and reused by every later descent: the scratch page of that
  // level's view or edit, and where a split repacks the node.
  Page* LevelBuffer(uint32_t depth);

  // LookupMany's body: sets each empty `out[i]` to `keys[i]`'s postings.
  // Lookup passes one local vector, so it allocates no list of lists.
  Status LookupInto(std::span<const uint64_t> keys,
                    std::span<std::vector<Oid>> out) const;
  // Sets `*out` to `key`'s postings in leaf `leaf` (LookupInto's search
  // of a held leaf), reading its overflow chain if it has one.
  Status CopyPostings(const Page& leaf, uint64_t key,
                      std::vector<Oid>* out) const;

  // Overflow-chain helpers (declared here because they touch file_ and the
  // overflow page counter); see btree.cc for the record/page formats.
  Status ReadOverflowChain(PageId first, uint32_t expected,
                           std::vector<Oid>* out) const;
  StatusOr<PageId> WriteOverflowChain(const std::vector<Oid>& postings);
  // Apply's removes and adds on `record`'s overflow chain, in place.
  Status EditOverflowChain(LeafRecord* record, const std::vector<Oid>& adds,
                           const std::vector<Oid>& removes);

  // Page recycling: drained overflow chains go onto a free list (linked
  // through each page's first word) and are reused before growing the file.
  StatusOr<PageId> AllocatePage();
  Status FreeChain(PageId first);

  // ValidateStructure helpers.  `leaves` collects (leaf page, next pointer)
  // in left-to-right order; `visited` guards against cycles and sharing.
  Status ValidateNode(PageId page_id, uint32_t depth,
                      std::vector<bool>* visited,
                      std::vector<std::pair<PageId, PageId>>* leaves,
                      uint64_t* internals, uint64_t* overflow) const;
  Status ValidateOverflowChain(PageId first, uint32_t total,
                               std::vector<bool>* visited,
                               uint64_t* overflow) const;

  PageFile* file_;
  uint32_t max_fanout_;
  PageId root_ = kInvalidPage;
  uint64_t leaf_pages_ = 0;
  uint64_t internal_pages_ = 0;
  uint64_t overflow_pages_ = 0;
  PageId free_list_head_ = kInvalidPage;
  uint64_t free_pages_ = 0;
  uint32_t height_ = 0;
  // Apply's scratch, owned by the tree so a splicing descent allocates
  // nothing: one page buffer per level and the merged posting list of the
  // changed key.  LookupMany, which runs on concurrent readers, uses
  // neither.
  std::vector<std::unique_ptr<Page>> levels_;
  std::vector<Oid> merged_;
};

}  // namespace sigsetdb

#endif  // SIGSET_NIX_BTREE_H_
