#include "obj/object_store.h"

#include <cstring>

#include "storage/slotted_page.h"

namespace sigsetdb {

namespace {

// Serializes a set value as [count:u32][elem:u64]*.
std::vector<uint8_t> SerializeSet(const ElementSet& set) {
  std::vector<uint8_t> buf(4 + set.size() * 8);
  uint32_t count = static_cast<uint32_t>(set.size());
  std::memcpy(buf.data(), &count, 4);
  // An empty set's data() may be null; memcpy from null is undefined even
  // for zero bytes.
  if (!set.empty()) std::memcpy(buf.data() + 4, set.data(), set.size() * 8);
  return buf;
}

Status DeserializeSet(const uint8_t* data, uint16_t len, ElementSet* out) {
  if (len < 4) return Status::Corruption("object record too short");
  uint32_t count;
  std::memcpy(&count, data, 4);
  if (4 + static_cast<size_t>(count) * 8 != len) {
    return Status::Corruption("object record length mismatch");
  }
  out->resize(count);
  if (count > 0) {
    std::memcpy(out->data(), data + 4, static_cast<size_t>(count) * 8);
  }
  return Status::OK();
}

}  // namespace

ObjectStore::ObjectStore(PageFile* file) : file_(file) {
  // When reopening a populated file, keep appending to its last page.
  if (file_->num_pages() > 0) tail_page_ = file_->num_pages() - 1;
}

StatusOr<Oid> ObjectStore::Insert(const ElementSet& set_value) {
  std::vector<uint8_t> record = SerializeSet(set_value);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("set value too large for one page");
  }
  Page page;
  if (tail_page_ != kInvalidPage) {
    SIGSET_RETURN_IF_ERROR(file_->Read(tail_page_, &page));
    SlottedPage sp(&page);
    if (auto slot = sp.Insert(record.data(),
                              static_cast<uint16_t>(record.size()))) {
      SIGSET_RETURN_IF_ERROR(file_->Write(tail_page_, page));
      ++num_objects_;
      return Oid::FromLocation(tail_page_, *slot);
    }
  }
  // Tail page full (or no page yet): start a fresh page.
  SIGSET_ASSIGN_OR_RETURN(PageId new_page, file_->Allocate());
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  auto slot = sp.Insert(record.data(), static_cast<uint16_t>(record.size()));
  if (!slot.has_value()) {
    return Status::Internal("record does not fit in an empty page");
  }
  SIGSET_RETURN_IF_ERROR(file_->Write(new_page, page));
  tail_page_ = new_page;
  ++num_objects_;
  return Oid::FromLocation(new_page, *slot);
}

StatusOr<Oid> ObjectStore::PeekNextOid(const ElementSet& set_value) const {
  std::vector<uint8_t> record = SerializeSet(set_value);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("set value too large for one page");
  }
  Page scratch;
  if (tail_page_ != kInvalidPage) {
    SIGSET_RETURN_IF_ERROR(file_->Read(tail_page_, &scratch));
    SlottedPage sp(&scratch);
    if (auto slot = sp.Insert(record.data(),
                              static_cast<uint16_t>(record.size()))) {
      return Oid::FromLocation(tail_page_, *slot);
    }
  }
  SlottedPage::Init(&scratch);
  SlottedPage sp(&scratch);
  auto slot = sp.Insert(record.data(), static_cast<uint16_t>(record.size()));
  if (!slot.has_value()) {
    return Status::Internal("record does not fit in an empty page");
  }
  return Oid::FromLocation(file_->num_pages(), *slot);
}

StatusOr<std::vector<Oid>> ObjectStore::PeekOids(
    const std::vector<ElementSet>& set_values) const {
  std::vector<Oid> oids;
  oids.reserve(set_values.size());
  Page scratch;
  PageId cur_page = kInvalidPage;
  PageId pages_added = 0;
  if (tail_page_ != kInvalidPage) {
    SIGSET_RETURN_IF_ERROR(file_->Read(tail_page_, &scratch));
    cur_page = tail_page_;
  }
  for (const ElementSet& set : set_values) {
    std::vector<uint8_t> record = SerializeSet(set);
    if (record.size() > kPageSize - 8) {
      return Status::InvalidArgument("set value too large for one page");
    }
    if (cur_page != kInvalidPage) {
      SlottedPage sp(&scratch);
      if (auto slot = sp.Insert(record.data(),
                                static_cast<uint16_t>(record.size()))) {
        oids.push_back(Oid::FromLocation(cur_page, *slot));
        continue;
      }
    }
    cur_page = file_->num_pages() + pages_added;
    ++pages_added;
    SlottedPage::Init(&scratch);
    SlottedPage sp(&scratch);
    auto slot = sp.Insert(record.data(), static_cast<uint16_t>(record.size()));
    if (!slot.has_value()) {
      return Status::Internal("record does not fit in an empty page");
    }
    oids.push_back(Oid::FromLocation(cur_page, *slot));
  }
  return oids;
}

Status ObjectStore::ReplayEnsurePresent(Oid oid, const ElementSet& set_value) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  std::vector<uint8_t> record = SerializeSet(set_value);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("set value too large for one page");
  }
  const uint16_t len = static_cast<uint16_t>(record.size());
  // The crash may have hit before the page was allocated.
  while (file_->num_pages() <= oid.page()) {
    SIGSET_RETURN_IF_ERROR(file_->Allocate().status());
  }
  Page page;
  SIGSET_RETURN_IF_ERROR(file_->Read(oid.page(), &page));
  // A freshly allocated page is all zeros, which reads as num_slots == 0,
  // heap_start == 0 — not a formatted empty page (heap_start == kPageSize).
  if (page.ReadAt<uint16_t>(0) == 0 &&
      page.ReadAt<uint16_t>(2) != static_cast<uint16_t>(kPageSize)) {
    SlottedPage::Init(&page);
  }
  SlottedPage sp(&page);
  if (oid.slot() < sp.num_slots()) {
    uint16_t cur_len = 0;
    const uint8_t* cur = sp.Get(oid.slot(), &cur_len);
    if (cur != nullptr) {
      // Already applied: verify, don't re-apply (idempotent replay).
      if (cur_len != len || std::memcmp(cur, record.data(), len) != 0) {
        return Status::Corruption("replay mismatch at " + oid.ToString());
      }
      return Status::OK();
    }
    // Tombstoned by an aborted delete: restore from the logged preimage.
    if (!sp.Resurrect(oid.slot(), record.data(), len)) {
      return Status::Corruption("cannot resurrect " + oid.ToString());
    }
  } else if (oid.slot() == sp.num_slots()) {
    auto slot = sp.Insert(record.data(), len);
    if (!slot.has_value() || *slot != oid.slot()) {
      return Status::Corruption("replay append failed at " + oid.ToString());
    }
  } else {
    // Slots are assigned densely; a gap means the log and store disagree.
    return Status::Corruption("replay slot gap at " + oid.ToString());
  }
  SIGSET_RETURN_IF_ERROR(file_->Write(oid.page(), page));
  tail_page_ = file_->num_pages() - 1;
  return Status::OK();
}

Status ObjectStore::ReplayEnsureAbsent(Oid oid) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  if (oid.page() >= file_->num_pages()) return Status::OK();
  Page page;
  SIGSET_RETURN_IF_ERROR(file_->Read(oid.page(), &page));
  SlottedPage sp(&page);
  uint16_t len = 0;
  if (sp.Get(oid.slot(), &len) == nullptr) return Status::OK();
  sp.Delete(oid.slot());
  return file_->Write(oid.page(), page);
}

Status ObjectStore::ForEachLive(
    const std::function<Status(Oid, const ElementSet&)>& fn) const {
  const PageId num_pages = file_->num_pages();
  for (PageId p = 0; p < num_pages; ++p) {
    Page page;
    SIGSET_RETURN_IF_ERROR(file_->Read(p, &page));
    SlottedPage sp(&page);
    const uint16_t slots = sp.num_slots();
    for (uint16_t s = 0; s < slots; ++s) {
      uint16_t len = 0;
      const uint8_t* rec = sp.Get(s, &len);
      if (rec == nullptr) continue;
      ElementSet set;
      SIGSET_RETURN_IF_ERROR(DeserializeSet(rec, len, &set));
      SIGSET_RETURN_IF_ERROR(fn(Oid::FromLocation(p, s), set));
    }
  }
  return Status::OK();
}

StatusOr<StoredObject> ObjectStore::Get(Oid oid, IoStats* io) const {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  Page page;
  SIGSET_RETURN_IF_ERROR(
      file_->Read(oid.page(), &page, io != nullptr ? io : &file_->stats()));
  SlottedPage sp(&page);
  uint16_t len = 0;
  const uint8_t* rec = sp.Get(oid.slot(), &len);
  if (rec == nullptr) {
    return Status::NotFound("no object at " + oid.ToString());
  }
  StoredObject obj;
  obj.oid = oid;
  SIGSET_RETURN_IF_ERROR(DeserializeSet(rec, len, &obj.set_value));
  return obj;
}

Status ObjectStore::Delete(Oid oid) {
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
  return Status::OK();
}

}  // namespace sigsetdb
