// OidFile: the OID file shared by both signature-file organizations.
//
// The paper's signature files store, for the i-th signature, the OID of the
// corresponding object as the i-th entry of a sequential OID file
// (O_d = ⌊P/oid⌋ = 512 entries per page).  Deletion sets a delete flag in
// the OID entry (found by sequential scan, expected SC_OID/2 page accesses),
// leaving a dangling signature that is filtered at lookup time.
//
// The delete flag doubles as the persistent free-slot record: recovery
// rescans the used pages and rebuilds the in-memory free list from the
// flags, so tombstoned slots can be handed back out to later inserts
// (SetMany overwrites the entry in place and clears the flag).  A slot
// tombstoned at run time joins the free list only when its facility
// releases it (ReleaseSlots), which BSSF does once the old signature's
// bits are cleared; a facility hands a slot out by claiming it
// (ClaimFreeSlots) before writing into it.  The entry count
// `num_entries_` stays a high-water mark — the checkpoint format is
// unchanged — while `num_live_` tracks the unflagged population.

#ifndef SIGSET_OBJ_OID_FILE_H_
#define SIGSET_OBJ_OID_FILE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "obj/oid.h"
#include "storage/page_file.h"

namespace sigsetdb {

// Number of OID entries per page (paper Table 2: O_d = 512).
inline constexpr uint32_t kOidsPerPage = kPageSize / kOidBytes;

// Sequential file of 8-byte OID entries addressed by slot number.
class OidFile {
 public:
  // Does not take ownership of `file`.  The appender buffers its tail page
  // in memory, so appends never read.  `file` is assumed empty; to reopen a
  // populated file call Recover() with the persisted entry count.
  explicit OidFile(PageFile* file);

  // Restores appender state over a populated file: validates the page count
  // against `num_entries`, reloads the tail-page image, and rescans the used
  // pages to rebuild the free-slot list from persisted delete flags (one
  // read per used page; callers treat recovery I/O as setup).
  Status Recover(uint64_t num_entries);

  // Restores the counters WITHOUT the recovery scan, for read-only snapshot
  // views: Get/GetMany work immediately, while the write paths (which need
  // the tail image and free list the scan rebuilds) must not be called.
  void AttachReadOnly(uint64_t num_entries, uint64_t num_live) {
    num_entries_ = num_entries;
    num_live_ = num_live;
  }

  // Appends `oids` as one contiguous run of fresh slots (slot ==
  // signature position), writing each touched tail page once: one OID
  // costs exactly one page write, the model's UC_I charge for the OID
  // file, and n OIDs about ⌈n/O_d⌉.  Returns the slot of the first
  // appended entry; the rest follow consecutively.
  StatusOr<uint64_t> AppendMany(const std::vector<Oid>& oids);

  // Reads the entry at `slot` (one page read).  Returns an invalid Oid if
  // the entry is delete-flagged.
  StatusOr<Oid> Get(uint64_t slot) const;

  // Resolves many slots to OIDs with one page read per *distinct page*
  // (`slots` must be sorted ascending) — this is the behaviour behind the
  // paper's look-up cost LC_OID = SC_OID · min(Fd(O_d−α)+α, 1).
  // Delete-flagged entries are skipped.
  StatusOr<std::vector<Oid>> GetMany(const std::vector<uint64_t>& slots) const;

  // Sets the delete flag of every oid in `oids` with ONE scan from the
  // start, stopping at the page holding the last victim, and one write per
  // dirty page.  For one oid that is (slot/O_d + 1) page reads + 1 write;
  // averaged over uniform victims, the model's UC_D = SC_OID/2.  Fails
  // without writing anything if any oid is absent (or listed twice).  A
  // page is known to be dirty only once it is read, and nothing is
  // written before every victim is found, so the scan views each page
  // and copies only the dirty ones into write buffers.
  // Returns the tombstoned slots aligned with the input order.  They do
  // not join the free list until the caller passes them to ReleaseSlots.
  StatusOr<std::vector<uint64_t>> MarkDeletedMany(const std::vector<Oid>& oids);

  // Appends tombstoned `slots` to the free list, in order (the last one is
  // handed out first).  The caller vouches that each slot's facility data
  // is ready for reuse.
  void ReleaseSlots(const std::vector<uint64_t>& slots);

  // Removes up to `n` slots from the back of the free list (most recently
  // freed first) and returns them in that order.  A claimed slot stays
  // tombstoned until SetMany publishes it; if the write in between fails,
  // it is off the list until the next Recover.
  std::vector<uint64_t> ClaimFreeSlots(size_t n);

  // Overwrites each tombstoned entry `slot` with its `oid` (clearing the
  // delete flag), editing and writing each distinct page once: one page
  // read-modify-write for one entry.  A page's entries are all checked
  // before it changes.  This is the commit point of slot
  // reuse: callers claim the slot, deposit the new signature, then SetMany
  // publishes it.  `entries` must be sorted by slot.
  Status SetMany(const std::vector<std::pair<uint64_t, Oid>>& entries);

  // All live (unflagged) entries as (slot, oid), in slot order — one read
  // per used page.  This is the compaction source stream.
  StatusOr<std::vector<std::pair<uint64_t, Oid>>> LiveEntries() const;

  // Tombstoned slots available for reuse (most recently freed last).
  const std::vector<uint64_t>& free_slots() const { return free_slots_; }

  // Total entries appended (including delete-flagged ones).
  uint64_t num_entries() const { return num_entries_; }

  // Entries not delete-flagged.
  uint64_t num_live() const { return num_live_; }

  // Pages in the file (== ⌈num_entries/O_d⌉), the model's SC_OID.
  PageId num_pages() const { return file_->num_pages(); }

  // Access counters of the backing file (for query tracing).
  const IoStats& stats() const { return file_->stats(); }

 private:
  static constexpr uint64_t kDeleteFlag = uint64_t{1} << 63;

  // Pages holding entries < num_entries_ (extra allocated pages from a
  // crashed append are invisible).
  PageId UsedPages() const {
    return static_cast<PageId>((num_entries_ + kOidsPerPage - 1) /
                               kOidsPerPage);
  }

  PageFile* file_;
  uint64_t num_entries_ = 0;
  uint64_t num_live_ = 0;
  std::vector<uint64_t> free_slots_;
  // In-memory image of the tail page being filled.
  Page tail_;
  PageId tail_page_ = kInvalidPage;
};

}  // namespace sigsetdb

#endif  // SIGSET_OBJ_OID_FILE_H_
