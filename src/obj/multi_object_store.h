// MultiObjectStore: the object file.
//
// Objects are stored in slotted pages ("objects are straightforwardly
// stored in the object file; no type of decomposition is applied" — paper
// §4), the whole object in one record.  OIDs are physical (page, slot), so
// Get costs exactly one page read, realizing the model's P_s = P_u = 1 page
// access per object retrieval.  The paper's Student class carries two set
// attributes (`courses`, `hobbies`), each indexed by its own access
// facility; a one-attribute store is the paper's single-attribute object
// file.
//
// Space reuse: a delete leaves a tombstone and frees its record's bytes.
// An insert goes to the page where a delete most recently freed enough
// room for it, never the tail page; else to the tail page; else to a fresh
// page.  Either page's heap is compacted when the record fits only after
// compaction, which a page without deletes never needs.  A record
// always takes a fresh slot number, so no OID is ever handed out twice and
// a stale facility entry resolves to kNotFound.  The room list lives in
// memory: after a reopen, pages freed since the reopen are refilled.  An
// insert costs one page read and one page write either way.  Inserts and
// deletes edit their page where it sits (PageFile::Edit) and check the
// change before they make it.

#ifndef SIGSET_OBJ_MULTI_OBJECT_STORE_H_
#define SIGSET_OBJ_MULTI_OBJECT_STORE_H_

#include <functional>
#include <list>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "obj/object.h"
#include "obj/oid.h"
#include "storage/page_file.h"
#include "storage/slotted_page.h"

namespace sigsetdb {

// An object with `attrs.size()` set-valued attributes (all normalized).
struct MultiSetObject {
  Oid oid;
  std::vector<ElementSet> attrs;
};

// Heap file of multi-attribute objects with physical OIDs.
class MultiObjectStore {
 public:
  // Does not take ownership of `file`; `file` must outlive the store and be
  // empty or previously populated by a store with the same
  // `num_attributes`, which is fixed per store (one class per store, as in
  // the paper's schema).
  MultiObjectStore(PageFile* file, uint16_t num_attributes);

  // Stores an object (see "Space reuse" above); `attr_values.size()` must
  // equal num_attributes().
  StatusOr<Oid> Insert(const std::vector<ElementSet>& attr_values);

  // The kInvalidArgument Insert would return for `attr_values` (a wrong
  // attribute count, or a record too large for one page), or OK; reads no
  // page, so a batch can be checked whole before its first write.
  Status CheckRecord(const std::vector<ElementSet>& attr_values) const;

  // Fetches an object (one page read).  A non-null `io` receives the charge
  // instead of the file's counters (thread-local accounting for parallel
  // resolution workers).
  StatusOr<MultiSetObject> Get(Oid oid, IoStats* io = nullptr) const;

  // GetMany of one: Get into `*out`, reusing its sets' storage.
  Status GetInto(Oid oid, MultiSetObject* out, IoStats* io = nullptr) const;

  // Fetches each of `oids` into `*obj`, reusing its sets' storage, and
  // calls `fn(i, status, *obj)` once per OID, in order: `status` is OK
  // with `oids[i]`'s object in `*obj`, or kNotFound (a tombstone or a slot
  // past the page's count; `*obj` is then stale), exactly what GetInto
  // returns.  `fn` returns a Status; the first non-OK one ends the call and
  // is returned.  An invalid OID or a failed page read ends the call with
  // GetInto's error after `fn` has seen every OID before it; a corrupt
  // record ends it with kCorruption.  One page read per OID, in order,
  // charged to `*io` (the file's counters when null).
  //
  // Candidate resolution fetches through here.  It works in groups of up
  // to kViewGroupSize OIDs, in three passes: view each page in order and
  // prefetch its slot entry; locate each record and prefetch it; decode
  // each record and call `fn`.  So an in-memory file's page misses
  // overlap.  A View that returned the scratch page ends its group, so a
  // copying file decodes each page before it reads the next.  On a corrupt
  // record or a non-OK status from `fn`, up to kViewGroupSize - 1 later
  // OIDs of the group have already been charged a read.
  template <typename Fn>
  Status GetMany(std::span<const Oid> oids, IoStats* io, MultiSetObject* obj,
                 Fn fn) const;

  // Removes the object (one page read + one page write).  The OID becomes
  // dangling; access facilities are responsible for their own bookkeeping.
  // Unless the page is the tail page, it becomes the first place the next
  // inserts look for room.
  Status Delete(Oid oid);

  // --- Write-ahead-log support -------------------------------------------
  // OIDs are physical, so the WAL must log the OID an insert WILL get
  // before touching the store (log-before-apply); these predict it by
  // simulating Insert's choice: the room list from memory, the tail page
  // on a scratch copy.

  // The OIDs a sequence of Inserts would assign (simulates room-page and
  // tail-page fills and fresh-page starts across the whole batch).
  StatusOr<std::vector<Oid>> PeekOids(
      const std::vector<std::vector<ElementSet>>& objects) const;

  // Recovery redo: make the object at exactly `oid` exist with
  // `attr_values`.  Verifies if already present (idempotent), appends if
  // the slot is next in sequence, fills the slot if tombstoned (an aborted
  // delete, or a slot ReplayEnsureAbsent reserved), compacting the page
  // when the record fits only after compaction; kCorruption if the slot
  // holds a different record or is out of sequence.
  Status ReplayEnsurePresent(Oid oid,
                             const std::vector<ElementSet>& attr_values);

  // Recovery redo: make `oid` not exist.  A slot next in sequence is
  // reserved as a tombstone, so the page's later slots replay in sequence
  // even when this record is never materialized.
  Status ReplayEnsureAbsent(Oid oid);

  // Scans every live object in physical order.  Recovery rebuilds the
  // access facilities and counters from this — the store is the single
  // source of truth after replay.
  Status ForEachLive(
      const std::function<Status(Oid, const std::vector<ElementSet>&)>& fn)
      const;

  // Restores the live-object counter after reopening a populated file
  // (physical OIDs need no other recovery; the page data is the state).
  void RecoverCount(uint64_t num_objects) { num_objects_ = num_objects; }

  uint16_t num_attributes() const { return num_attributes_; }
  uint64_t num_objects() const { return num_objects_; }
  PageId num_pages() const { return file_->num_pages(); }

  // The backing file's access counters (parallel workers merge their
  // thread-local stats here on join).
  IoStats& stats() const { return file_->stats(); }

 private:
  // What Insert knows of a page in the room list without reading it.
  struct Room {
    PageId page = kInvalidPage;
    uint16_t free = 0;       // SlottedPage::CompactedFreeSpace()
    uint16_t num_slots = 0;  // the slot number its next record gets
  };
  using Placed = std::unordered_map<PageId, Room>;

  // The most recently freed room page that can take a record of `len`
  // bytes, or null.  `placed` overrides the rooms a simulated batch has
  // already filled (null for a real insert).
  const Room* FindRoom(size_t len, const Placed* placed) const;
  // Records page `page`'s room after a delete (`freed`: it moves to the
  // back of the list) or an insert; a page too full for the smallest
  // record leaves the list.
  void NoteRoom(PageId page, const SlottedPage& sp, bool freed);
  // Loads `oid`'s page for replay, allocating and formatting it if needed,
  // and makes the slot exist (a next-in-sequence slot becomes a
  // tombstone).  `*changed` tells whether `*page` differs from the file.
  Status LoadReplaySlot(Oid oid, Page* page, bool* changed);
  // Writes a replayed page and drops it from the room list.
  Status WriteReplayed(Oid oid, const Page& page);
  // GetMany's per-thread scratch page.
  static Page& ReadScratch();
  // Decodes `oid`'s record (`rec`, `len` bytes; null for no object) into
  // `*out`: OK, kNotFound or kCorruption.
  Status Decode(Oid oid, const uint8_t* rec, uint16_t len,
                MultiSetObject* out) const;

  PageFile* file_;
  uint16_t num_attributes_;
  PageId tail_page_ = kInvalidPage;
  // The tail page's CompactedFreeSpace(), once this store has read or
  // written the tail since it opened: Insert edits the tail only when it
  // knows the record fits, since an edit must be written back.
  std::optional<size_t> tail_free_;
  uint64_t num_objects_ = 0;
  // Room pages, least recently freed first, and where each one sits.
  std::list<Room> rooms_;
  std::unordered_map<PageId, std::list<Room>::iterator> room_of_;
};

template <typename Fn>
Status MultiObjectStore::GetMany(std::span<const Oid> oids, IoStats* io,
                                 MultiSetObject* obj, Fn fn) const {
  Page& scratch = ReadScratch();
  if (io == nullptr) io = &file_->stats();
  const Page* pages[kViewGroupSize];
  const uint8_t* records[kViewGroupSize];
  uint16_t lens[kViewGroupSize];
  for (size_t begin = 0; begin < oids.size();) {
    // Pass 1: the group's page reads, in order.  A failed one ends the
    // group; the members before it are still decoded and handed to `fn`.
    Status failed;
    size_t end = begin;
    while (end < oids.size() && end - begin < kViewGroupSize) {
      const Oid oid = oids[end];
      if (!oid.valid()) {
        failed = Status::InvalidArgument("invalid oid");
        break;
      }
      StatusOr<const Page*> page = file_->View(oid.page(), &scratch, io);
      if (!page.ok()) {
        failed = page.status();
        break;
      }
      SlottedPage::PrefetchSlot(**page, oid.slot());
      pages[end++ - begin] = *page;
      if (*page == &scratch) break;
    }
    // Pass 2: each record's location, and a prefetch of its bytes.
    for (size_t i = begin; i < end; ++i) {
      const size_t k = i - begin;
      lens[k] = 0;
      records[k] = SlottedPage::Get(*pages[k], oids[i].slot(), &lens[k]);
      if (records[k] != nullptr) {
        __builtin_prefetch(records[k]);
        __builtin_prefetch(records[k] + lens[k] - 1);
      }
    }
    // Pass 3: decode and hand over.
    for (size_t i = begin; i < end; ++i) {
      const size_t k = i - begin;
      Status got = Decode(oids[i], records[k], lens[k], obj);
      if (!got.ok() && got.code() != StatusCode::kNotFound) return got;
      SIGSET_RETURN_IF_ERROR(fn(i, got, *obj));
    }
    SIGSET_RETURN_IF_ERROR(failed);
    begin = end;
  }
  return Status::OK();
}

}  // namespace sigsetdb

#endif  // SIGSET_OBJ_MULTI_OBJECT_STORE_H_
