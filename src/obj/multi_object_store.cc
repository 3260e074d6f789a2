#include "obj/multi_object_store.h"

#include <cstring>

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

}  // namespace

MultiObjectStore::MultiObjectStore(PageFile* file, uint16_t num_attributes)
    : file_(file), num_attributes_(num_attributes) {
  if (file_->num_pages() > 0) tail_page_ = file_->num_pages() - 1;
}

StatusOr<Oid> MultiObjectStore::Insert(
    const std::vector<ElementSet>& attr_values) {
  if (attr_values.size() != num_attributes_) {
    return Status::InvalidArgument("attribute count mismatch");
  }
  std::vector<uint8_t> record = Serialize(attr_values);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("object too large for one page");
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

StatusOr<Oid> MultiObjectStore::PeekNextOid(
    const std::vector<ElementSet>& attr_values) const {
  if (attr_values.size() != num_attributes_) {
    return Status::InvalidArgument("attribute count mismatch");
  }
  std::vector<uint8_t> record = Serialize(attr_values);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("object too large for one page");
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

StatusOr<std::vector<Oid>> MultiObjectStore::PeekOids(
    const std::vector<std::vector<ElementSet>>& objects) const {
  std::vector<Oid> oids;
  oids.reserve(objects.size());
  Page scratch;
  PageId cur_page = kInvalidPage;
  PageId pages_added = 0;
  if (tail_page_ != kInvalidPage) {
    SIGSET_RETURN_IF_ERROR(file_->Read(tail_page_, &scratch));
    cur_page = tail_page_;
  }
  for (const std::vector<ElementSet>& attrs : objects) {
    if (attrs.size() != num_attributes_) {
      return Status::InvalidArgument("attribute count mismatch");
    }
    std::vector<uint8_t> record = Serialize(attrs);
    if (record.size() > kPageSize - 8) {
      return Status::InvalidArgument("object too large for one page");
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

Status MultiObjectStore::ReplayEnsurePresent(
    Oid oid, const std::vector<ElementSet>& attr_values) {
  if (!oid.valid()) return Status::InvalidArgument("invalid oid");
  if (attr_values.size() != num_attributes_) {
    return Status::InvalidArgument("attribute count mismatch");
  }
  std::vector<uint8_t> record = Serialize(attr_values);
  if (record.size() > kPageSize - 8) {
    return Status::InvalidArgument("object too large for one page");
  }
  const uint16_t len = static_cast<uint16_t>(record.size());
  while (file_->num_pages() <= oid.page()) {
    SIGSET_RETURN_IF_ERROR(file_->Allocate().status());
  }
  Page page;
  SIGSET_RETURN_IF_ERROR(file_->Read(oid.page(), &page));
  if (page.ReadAt<uint16_t>(0) == 0 &&
      page.ReadAt<uint16_t>(2) != static_cast<uint16_t>(kPageSize)) {
    SlottedPage::Init(&page);
  }
  SlottedPage sp(&page);
  if (oid.slot() < sp.num_slots()) {
    uint16_t cur_len = 0;
    const uint8_t* cur = sp.Get(oid.slot(), &cur_len);
    if (cur != nullptr) {
      if (cur_len != len || std::memcmp(cur, record.data(), len) != 0) {
        return Status::Corruption("replay mismatch at " + oid.ToString());
      }
      return Status::OK();
    }
    if (!sp.Resurrect(oid.slot(), record.data(), len)) {
      return Status::Corruption("cannot resurrect " + oid.ToString());
    }
  } else if (oid.slot() == sp.num_slots()) {
    auto slot = sp.Insert(record.data(), len);
    if (!slot.has_value() || *slot != oid.slot()) {
      return Status::Corruption("replay append failed at " + oid.ToString());
    }
  } else {
    return Status::Corruption("replay slot gap at " + oid.ToString());
  }
  SIGSET_RETURN_IF_ERROR(file_->Write(oid.page(), page));
  tail_page_ = file_->num_pages() - 1;
  return Status::OK();
}

Status MultiObjectStore::ReplayEnsureAbsent(Oid oid) {
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
  return Status::OK();
}

}  // namespace sigsetdb
