// SlottedPage: the classic variable-length record page layout used by the
// object store.
//
// Layout (offsets in bytes):
//   [0..2)   uint16 num_slots
//   [2..4)   uint16 free_space_offset (start of the record heap, grows down)
//   [4..)    slot directory: num_slots entries of (uint16 offset, uint16 len)
//   ...      free space
//   [free_space_offset..kPageSize)  record heap (records grow downward)
//
// A slot with length 0 is a tombstone.  Records never span pages.  Slot
// numbers are never reused: a tombstone keeps its directory entry, and
// Compact() reclaims only heap bytes.

#ifndef SIGSET_STORAGE_SLOTTED_PAGE_H_
#define SIGSET_STORAGE_SLOTTED_PAGE_H_

#include <cstdint>
#include <optional>

#include "storage/page.h"

namespace sigsetdb {

// A non-owning view manipulating `page` in slotted layout.  All methods are
// bounds-checked against kPageSize; Insert returns nullopt when the record
// (plus a directory entry) does not fit.
class SlottedPage {
 public:
  // Directory bytes per slot.
  static constexpr size_t kSlotEntryBytes = 4;

  // Wraps an existing page without reformatting it.
  explicit SlottedPage(Page* page) : page_(page) {}

  // Formats `page` as an empty slotted page.
  static void Init(Page* page);

  uint16_t num_slots() const { return page_->ReadAt<uint16_t>(0); }

  // Bytes available for one more record (including its directory entry).
  size_t FreeSpace() const;

  // FreeSpace() once Compact() has run: the page size less the header, the
  // directory with one more entry, and the live records.
  size_t CompactedFreeSpace() const;

  // Packs the live records against the page end, so FreeSpace() becomes
  // CompactedFreeSpace().  Every slot keeps its number and every live
  // record its bytes; tombstones lose their retained heap bytes (their
  // offset becomes 0, which Resurrect reads as "none retained").
  void Compact();

  // Appends a tombstone directory entry and returns its slot number, or
  // nullopt if the entry does not fit.  WAL replay uses it to keep a page's
  // slot numbering when a logged record must not be materialized.
  std::optional<uint16_t> AppendTombstone();

  // Appends a record; returns its slot number, or nullopt if full.
  std::optional<uint16_t> Insert(const uint8_t* data, uint16_t len);

  // Returns a pointer into `page` for slot `slot`, or nullptr for
  // tombstones / out-of-range slots.  `*len` receives the record length.
  // Readers holding a read-only page view use this form.
  static const uint8_t* Get(const Page& page, uint16_t slot, uint16_t* len);

  // Starts loading the cache lines Get(page, slot, ...) reads first: the
  // header and the slot's directory entry.  A hint; it changes nothing.
  static void PrefetchSlot(const Page& page, uint16_t slot) {
    __builtin_prefetch(page.data());
    const size_t entry = SlotDirOffset(slot);
    if (entry < kPageSize) __builtin_prefetch(page.data() + entry);
  }

  // Get on the wrapped page.
  const uint8_t* Get(uint16_t slot, uint16_t* len) const {
    return Get(*page_, slot, len);
  }
  uint8_t* GetMutable(uint16_t slot, uint16_t* len);

  // Marks `slot` as deleted.  Its heap bytes stay in place until Compact().
  void Delete(uint16_t slot);

  // Fills a tombstoned slot with a record.  If the tombstone retains its
  // heap bytes (Delete zeroes only the length field, and only Compact()
  // drops the offset), the record is rewritten there and `len` must equal
  // the original record length.  Otherwise — the page was compacted after
  // the delete, or AppendTombstone made the slot — the record takes the
  // free gap.  Returns false if the slot is out of range or not a
  // tombstone, or the record does not fit (callers may Compact() and
  // retry).  WAL recovery uses this to restore the victims of an aborted
  // delete from their logged preimages.
  bool Resurrect(uint16_t slot, const uint8_t* data, uint16_t len);

  // Replaces the record in `slot` when the new record has length <= the old
  // one (in-place); returns false otherwise.
  bool UpdateInPlace(uint16_t slot, const uint8_t* data, uint16_t len);

 private:
  static constexpr size_t kHeaderBytes = 4;

  static size_t SlotDirOffset(uint16_t slot) {
    return kHeaderBytes + static_cast<size_t>(slot) * kSlotEntryBytes;
  }

  Page* page_;
};

}  // namespace sigsetdb

#endif  // SIGSET_STORAGE_SLOTTED_PAGE_H_
