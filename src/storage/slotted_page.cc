#include "storage/slotted_page.h"

#include <cstring>

namespace sigsetdb {

void SlottedPage::Init(Page* page) {
  page->Zero();
  page->WriteAt<uint16_t>(0, 0);                             // num_slots
  page->WriteAt<uint16_t>(2, static_cast<uint16_t>(kPageSize));  // heap start
}

size_t SlottedPage::FreeSpace() const {
  size_t dir_end = SlotDirOffset(num_slots());
  size_t heap_start = page_->ReadAt<uint16_t>(2);
  if (heap_start < dir_end + kSlotEntryBytes) return 0;
  return heap_start - dir_end - kSlotEntryBytes;
}

size_t SlottedPage::CompactedFreeSpace() const {
  const uint16_t slots = num_slots();
  size_t used = SlotDirOffset(slots) + kSlotEntryBytes;
  for (uint16_t s = 0; s < slots; ++s) {
    used += page_->ReadAt<uint16_t>(SlotDirOffset(s) + 2);
  }
  return used < kPageSize ? kPageSize - used : 0;
}

void SlottedPage::Compact() {
  const Page before = *page_;
  const uint16_t slots = num_slots();
  size_t heap_start = kPageSize;
  for (uint16_t s = 0; s < slots; ++s) {
    const uint16_t off = before.ReadAt<uint16_t>(SlotDirOffset(s));
    const uint16_t len = before.ReadAt<uint16_t>(SlotDirOffset(s) + 2);
    uint16_t new_off = 0;
    if (len != 0) {
      heap_start -= len;
      new_off = static_cast<uint16_t>(heap_start);
      std::memcpy(page_->data() + new_off, before.data() + off, len);
    }
    page_->WriteAt<uint16_t>(SlotDirOffset(s), new_off);
  }
  page_->WriteAt<uint16_t>(2, static_cast<uint16_t>(heap_start));
}

std::optional<uint16_t> SlottedPage::AppendTombstone() {
  const uint16_t slots = num_slots();
  if (SlotDirOffset(slots) + kSlotEntryBytes > page_->ReadAt<uint16_t>(2)) {
    return std::nullopt;
  }
  page_->WriteAt<uint16_t>(SlotDirOffset(slots), 0);
  page_->WriteAt<uint16_t>(SlotDirOffset(slots) + 2, 0);
  page_->WriteAt<uint16_t>(0, static_cast<uint16_t>(slots + 1));
  return slots;
}

std::optional<uint16_t> SlottedPage::Insert(const uint8_t* data, uint16_t len) {
  uint16_t slots = num_slots();
  size_t dir_end = SlotDirOffset(slots);
  size_t heap_start = page_->ReadAt<uint16_t>(2);
  // New directory entry plus the record must fit between dir_end and heap.
  if (dir_end + kSlotEntryBytes + len > heap_start) return std::nullopt;
  uint16_t rec_off = static_cast<uint16_t>(heap_start - len);
  std::memcpy(page_->data() + rec_off, data, len);
  page_->WriteAt<uint16_t>(SlotDirOffset(slots), rec_off);
  page_->WriteAt<uint16_t>(SlotDirOffset(slots) + 2, len);
  page_->WriteAt<uint16_t>(0, static_cast<uint16_t>(slots + 1));
  page_->WriteAt<uint16_t>(2, rec_off);
  return slots;
}

const uint8_t* SlottedPage::Get(const Page& page, uint16_t slot,
                                uint16_t* len) {
  if (slot >= page.ReadAt<uint16_t>(0)) return nullptr;
  uint16_t off = page.ReadAt<uint16_t>(SlotDirOffset(slot));
  uint16_t l = page.ReadAt<uint16_t>(SlotDirOffset(slot) + 2);
  if (l == 0) return nullptr;  // tombstone
  if (off + static_cast<size_t>(l) > kPageSize) return nullptr;
  *len = l;
  return page.data() + off;
}

uint8_t* SlottedPage::GetMutable(uint16_t slot, uint16_t* len) {
  const uint8_t* record = Get(slot, len);
  return record == nullptr ? nullptr
                           : page_->data() + (record - page_->data());
}

void SlottedPage::Delete(uint16_t slot) {
  if (slot >= num_slots()) return;
  page_->WriteAt<uint16_t>(SlotDirOffset(slot) + 2, 0);
}

bool SlottedPage::Resurrect(uint16_t slot, const uint8_t* data, uint16_t len) {
  if (slot >= num_slots() || len == 0) return false;
  if (page_->ReadAt<uint16_t>(SlotDirOffset(slot) + 2) != 0) return false;
  uint16_t off = page_->ReadAt<uint16_t>(SlotDirOffset(slot));
  const size_t dir_end = SlotDirOffset(num_slots());
  if (off == 0) {
    // No retained bytes: take the free gap, as Insert would.
    const size_t heap_start = page_->ReadAt<uint16_t>(2);
    if (dir_end + len > heap_start) return false;
    off = static_cast<uint16_t>(heap_start - len);
    page_->WriteAt<uint16_t>(2, off);
    page_->WriteAt<uint16_t>(SlotDirOffset(slot), off);
  } else if (off < dir_end || off + static_cast<size_t>(len) > kPageSize) {
    return false;
  }
  std::memcpy(page_->data() + off, data, len);
  page_->WriteAt<uint16_t>(SlotDirOffset(slot) + 2, len);
  return true;
}

bool SlottedPage::UpdateInPlace(uint16_t slot, const uint8_t* data,
                                uint16_t len) {
  uint16_t old_len = 0;
  uint8_t* dst = GetMutable(slot, &old_len);
  if (dst == nullptr || len > old_len) return false;
  std::memcpy(dst, data, len);
  page_->WriteAt<uint16_t>(SlotDirOffset(slot) + 2, len);
  return true;
}

}  // namespace sigsetdb
