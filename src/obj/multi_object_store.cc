#include "obj/multi_object_store.h"

#include <cstring>
#include <optional>

#include "storage/slotted_page.h"

namespace sigsetdb {

namespace {

// Record layout: per attribute [count:u32][elems:u64*].  The attribute
// count is fixed per store, so it is not stored.
std::vector<uint8_t> Serialize(const std::vector<ElementSet>& attrs) {
  size_t bytes = 0;
  for (const ElementSet& set : attrs) bytes += 4 + set.size() * 8;
  std::vector<uint8_t> buf(bytes);
  size_t off = 0;
  for (const ElementSet& set : attrs) {
    uint32_t count = static_cast<uint32_t>(set.size());
    std::memcpy(buf.data() + off, &count, 4);
    // An empty set's data() may be null, and memcpy from null is undefined
    // even for zero bytes.
    if (!set.empty()) {
      std::memcpy(buf.data() + off + 4, set.data(), set.size() * 8);
    }
    off += 4 + set.size() * 8;
  }
  return buf;
}

// Decodes into `*out`, reusing the storage of the sets already there.
Status Deserialize(const uint8_t* data, uint16_t len, uint16_t num_attrs,
                   std::vector<ElementSet>* out) {
  out->resize(num_attrs);
  size_t off = 0;
  for (ElementSet& set : *out) {
    if (off + 4 > len) return Status::Corruption("truncated attribute count");
    uint32_t count;
    std::memcpy(&count, data + off, 4);
    off += 4;
    if (off + static_cast<size_t>(count) * 8 > len) {
      return Status::Corruption("truncated attribute elements");
    }
    set.resize(count);
    if (count > 0) {
      std::memcpy(set.data(), data + off, static_cast<size_t>(count) * 8);
    }
    off += static_cast<size_t>(count) * 8;
  }
  if (off != len) return Status::Corruption("trailing bytes in record");
  return Status::OK();
}

// The record of `attrs`, or the error every write path reports for it.
StatusOr<std::vector<uint8_t>> Encode(const std::vector<ElementSet>& attrs,
                                      uint16_t num_attrs) {
  if (attrs.size() != num_attrs) {
    return Status::InvalidArgument("attribute count mismatch");
  }
  std::vector<uint8_t> record = Serialize(attrs);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("object too large for one page");
  }
  return record;
}

// Inserts `record`, compacting the page first when it fits only after
// compaction (a page without deletes never needs it).
std::optional<uint16_t> InsertCompacting(SlottedPage* sp,
                                         const std::vector<uint8_t>& record) {
  if (sp->FreeSpace() < record.size() &&
      sp->CompactedFreeSpace() >= record.size()) {
    sp->Compact();
  }
  return sp->Insert(record.data(), static_cast<uint16_t>(record.size()));
}

}  // namespace

MultiObjectStore::MultiObjectStore(PageFile* file, uint16_t num_attributes)
    : file_(file), num_attributes_(num_attributes) {
  if (file_->num_pages() > 0) tail_page_ = file_->num_pages() - 1;
}

const MultiObjectStore::Room* MultiObjectStore::FindRoom(
    size_t len, const Placed* placed) const {
  for (auto it = rooms_.rbegin(); it != rooms_.rend(); ++it) {
    const Room* room = &*it;
    if (placed != nullptr && !placed->empty()) {
      auto filled = placed->find(room->page);
      if (filled != placed->end()) room = &filled->second;
    }
    if (len <= room->free) return room;
  }
  return nullptr;
}

void MultiObjectStore::NoteRoom(PageId page, const SlottedPage& sp,
                                bool freed) {
  auto found = room_of_.find(page);
  const size_t free = sp.CompactedFreeSpace();
  // Every record carries a 4-byte count per attribute.
  if (free < 4 * static_cast<size_t>(num_attributes_)) {
    if (found != room_of_.end()) {
      rooms_.erase(found->second);
      room_of_.erase(found);
    }
    return;
  }
  if (found == room_of_.end()) {
    found = room_of_.emplace(page, rooms_.insert(rooms_.end(), Room{page}))
                .first;
  } else if (freed) {
    rooms_.splice(rooms_.end(), rooms_, found->second);
  }
  found->second->free = static_cast<uint16_t>(free);
  found->second->num_slots = sp.num_slots();
}

StatusOr<Oid> MultiObjectStore::Insert(
    const std::vector<ElementSet>& attr_values) {
  SIGSET_ASSIGN_OR_RETURN(std::vector<uint8_t> record,
                          Encode(attr_values, num_attributes_));
  const uint16_t len = static_cast<uint16_t>(record.size());
  Page page;
  if (const Room* room = FindRoom(len, nullptr)) {
    const PageId page_no = room->page;
    const uint16_t expected_slot = room->num_slots;
    SIGSET_RETURN_IF_ERROR(file_->Read(page_no, &page));
    SlottedPage sp(&page);
    auto slot = InsertCompacting(&sp, record);
    if (!slot.has_value() || *slot != expected_slot) {
      return Status::Internal("room list out of date for object page " +
                              std::to_string(page_no));
    }
    SIGSET_RETURN_IF_ERROR(file_->Write(page_no, page));
    NoteRoom(page_no, sp, /*freed=*/false);
    ++num_objects_;
    return Oid::FromLocation(page_no, *slot);
  }
  if (tail_page_ != kInvalidPage) {
    SIGSET_RETURN_IF_ERROR(file_->Read(tail_page_, &page));
    SlottedPage sp(&page);
    if (auto slot = InsertCompacting(&sp, record)) {
      SIGSET_RETURN_IF_ERROR(file_->Write(tail_page_, page));
      ++num_objects_;
      return Oid::FromLocation(tail_page_, *slot);
    }
  }
  SIGSET_ASSIGN_OR_RETURN(PageId new_page, file_->Allocate());
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  auto slot = sp.Insert(record.data(), len);
  if (!slot.has_value()) {
    return Status::Internal("record does not fit in an empty page");
  }
  SIGSET_RETURN_IF_ERROR(file_->Write(new_page, page));
  tail_page_ = new_page;
  ++num_objects_;
  return Oid::FromLocation(new_page, *slot);
}

Status MultiObjectStore::CheckRecord(
    const std::vector<ElementSet>& attr_values) const {
  return Encode(attr_values, num_attributes_).status();
}

StatusOr<std::vector<Oid>> MultiObjectStore::PeekOids(
    const std::vector<std::vector<ElementSet>>& objects) const {
  std::vector<Oid> oids;
  oids.reserve(objects.size());
  Placed placed;
  // The tail page (read on first need) or a simulated fresh page.
  Page scratch;
  PageId cur_page = kInvalidPage;
  bool tail_read = false;
  PageId pages_added = 0;
  for (const std::vector<ElementSet>& attrs : objects) {
    SIGSET_ASSIGN_OR_RETURN(std::vector<uint8_t> record,
                            Encode(attrs, num_attributes_));
    const uint16_t len = static_cast<uint16_t>(record.size());
    if (const Room* room = FindRoom(len, &placed)) {
      Room next = *room;
      oids.push_back(Oid::FromLocation(next.page, next.num_slots));
      // The record and its directory entry, floored at 0 as in
      // CompactedFreeSpace.
      const size_t used = len + SlottedPage::kSlotEntryBytes;
      next.free = static_cast<uint16_t>(next.free > used ? next.free - used
                                                         : 0);
      ++next.num_slots;
      placed[next.page] = next;
      continue;
    }
    if (!tail_read) {
      tail_read = true;
      if (tail_page_ != kInvalidPage) {
        SIGSET_RETURN_IF_ERROR(file_->Read(tail_page_, &scratch));
        cur_page = tail_page_;
      }
    }
    if (cur_page != kInvalidPage) {
      SlottedPage sp(&scratch);
      if (auto slot = InsertCompacting(&sp, record)) {
        oids.push_back(Oid::FromLocation(cur_page, *slot));
        continue;
      }
    }
    cur_page = file_->num_pages() + pages_added;
    ++pages_added;
    SlottedPage::Init(&scratch);
    SlottedPage sp(&scratch);
    auto slot = sp.Insert(record.data(), len);
    if (!slot.has_value()) {
      return Status::Internal("record does not fit in an empty page");
    }
    oids.push_back(Oid::FromLocation(cur_page, *slot));
  }
  return oids;
}

Status MultiObjectStore::LoadReplaySlot(Oid oid, Page* page, bool* changed) {
  *changed = false;
  while (file_->num_pages() <= oid.page()) {
    SIGSET_RETURN_IF_ERROR(file_->Allocate().status());
    *changed = true;
  }
  SIGSET_RETURN_IF_ERROR(file_->Read(oid.page(), page));
  if (page->ReadAt<uint16_t>(0) == 0 &&
      page->ReadAt<uint16_t>(2) != static_cast<uint16_t>(kPageSize)) {
    SlottedPage::Init(page);
    *changed = true;
  }
  SlottedPage sp(page);
  if (oid.slot() > sp.num_slots()) {
    return Status::Corruption("replay slot gap at " + oid.ToString());
  }
  if (oid.slot() == sp.num_slots()) {
    if (!sp.AppendTombstone().has_value()) {
      sp.Compact();
      if (!sp.AppendTombstone().has_value()) {
        return Status::Corruption("replay slot does not fit at " +
                                  oid.ToString());
      }
    }
    *changed = true;
  }
  return Status::OK();
}

Status MultiObjectStore::WriteReplayed(Oid oid, const Page& page) {
  SIGSET_RETURN_IF_ERROR(file_->Write(oid.page(), page));
  tail_page_ = file_->num_pages() - 1;
  auto found = room_of_.find(oid.page());
  if (found != room_of_.end()) {
    rooms_.erase(found->second);
    room_of_.erase(found);
  }
  return Status::OK();
}

Status MultiObjectStore::ReplayEnsurePresent(
    Oid oid, const std::vector<ElementSet>& attr_values) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  SIGSET_ASSIGN_OR_RETURN(std::vector<uint8_t> record,
                          Encode(attr_values, num_attributes_));
  const uint16_t len = static_cast<uint16_t>(record.size());
  Page page;
  bool changed = false;
  SIGSET_RETURN_IF_ERROR(LoadReplaySlot(oid, &page, &changed));
  SlottedPage sp(&page);
  uint16_t cur_len = 0;
  if (const uint8_t* cur = sp.Get(oid.slot(), &cur_len)) {
    if (cur_len != len || std::memcmp(cur, record.data(), len) != 0) {
      return Status::Corruption("replay mismatch at " + oid.ToString());
    }
    return Status::OK();
  }
  if (!sp.Resurrect(oid.slot(), record.data(), len)) {
    sp.Compact();
    if (!sp.Resurrect(oid.slot(), record.data(), len)) {
      return Status::Corruption("cannot place " + oid.ToString());
    }
  }
  return WriteReplayed(oid, page);
}

Status MultiObjectStore::ReplayEnsureAbsent(Oid oid) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  Page page;
  bool changed = false;
  SIGSET_RETURN_IF_ERROR(LoadReplaySlot(oid, &page, &changed));
  SlottedPage sp(&page);
  uint16_t len = 0;
  if (sp.Get(oid.slot(), &len) != nullptr) {
    sp.Delete(oid.slot());
    changed = true;
  }
  return changed ? WriteReplayed(oid, page) : Status::OK();
}

Status MultiObjectStore::ForEachLive(
    const std::function<Status(Oid, const std::vector<ElementSet>&)>& fn)
    const {
  const PageId num_pages = file_->num_pages();
  std::vector<ElementSet> attrs;  // reused across records
  for (PageId p = 0; p < num_pages; ++p) {
    Page page;
    SIGSET_RETURN_IF_ERROR(file_->Read(p, &page));
    SlottedPage sp(&page);
    const uint16_t slots = sp.num_slots();
    for (uint16_t s = 0; s < slots; ++s) {
      uint16_t len = 0;
      const uint8_t* rec = sp.Get(s, &len);
      if (rec == nullptr) continue;
      SIGSET_RETURN_IF_ERROR(Deserialize(rec, len, num_attributes_, &attrs));
      SIGSET_RETURN_IF_ERROR(fn(Oid::FromLocation(p, s), attrs));
    }
  }
  return Status::OK();
}

StatusOr<MultiSetObject> MultiObjectStore::Get(Oid oid, IoStats* io) const {
  MultiSetObject obj;
  SIGSET_RETURN_IF_ERROR(GetInto(oid, &obj, io));
  return obj;
}

Status MultiObjectStore::GetInto(Oid oid, MultiSetObject* out,
                                 IoStats* io) const {
  Status got;
  SIGSET_RETURN_IF_ERROR(GetMany(
      {&oid, 1}, io, out, [&](size_t, const Status& status,
                              const MultiSetObject&) {
        got = status;
        return Status::OK();
      }));
  return got;
}

Page& MultiObjectStore::ReadScratch() {
  // Resolution fetches on concurrent workers: a per-thread scratch page is
  // never zero-filled per call, and an in-memory file's view needs none.
  thread_local Page scratch;
  return scratch;
}

Status MultiObjectStore::Decode(Oid oid, const uint8_t* rec, uint16_t len,
                                MultiSetObject* out) const {
  if (rec == nullptr) {
    return Status::NotFound("no object at " + oid.ToString());
  }
  out->oid = oid;
  return Deserialize(rec, len, num_attributes_, &out->attrs);
}

Status MultiObjectStore::Delete(Oid oid) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  Page page;
  SIGSET_RETURN_IF_ERROR(file_->Read(oid.page(), &page));
  SlottedPage sp(&page);
  uint16_t len = 0;
  if (sp.Get(oid.slot(), &len) == nullptr) {
    return Status::NotFound("no object at " + oid.ToString());
  }
  sp.Delete(oid.slot());
  SIGSET_RETURN_IF_ERROR(file_->Write(oid.page(), page));
  if (num_objects_ > 0) --num_objects_;
  if (oid.page() != tail_page_) NoteRoom(oid.page(), sp, /*freed=*/true);
  return Status::OK();
}

}  // namespace sigsetdb
