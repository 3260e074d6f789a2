#include "obj/oid_file.h"

#include <algorithm>

#include "util/failpoint.h"

namespace sigsetdb {

OidFile::OidFile(PageFile* file) : file_(file) {}

Status OidFile::Recover(uint64_t num_entries) {
  uint64_t expected_pages =
      (num_entries + kOidsPerPage - 1) / kOidsPerPage;
  // Pages past the recovered count are tolerated (a crashed append can leave
  // an allocated page behind); every accessor is capped at num_entries_, so
  // they stay invisible.  Fewer pages than the count needs is corruption.
  if (file_->num_pages() < expected_pages) {
    return Status::Corruption(
        "oid file has fewer pages than recovered entry count needs");
  }
  num_entries_ = num_entries;
  num_live_ = 0;
  free_slots_.clear();
  // Rebuild the free list from the persisted delete flags: the tombstone bit
  // IS the durable free-slot record, so a rescan is all recovery needs.
  Page page;
  const PageId used_pages = UsedPages();
  for (PageId p = 0; p < used_pages; ++p) {
    SIGSET_RETURN_IF_ERROR(file_->Read(p, &page));
    uint64_t entries_on_page = std::min<uint64_t>(
        kOidsPerPage, num_entries_ - uint64_t{p} * kOidsPerPage);
    for (uint64_t i = 0; i < entries_on_page; ++i) {
      uint64_t slot = uint64_t{p} * kOidsPerPage + i;
      if (page.ReadAt<uint64_t>(i * kOidBytes) & kDeleteFlag) {
        free_slots_.push_back(slot);
      } else {
        ++num_live_;
      }
    }
    if (num_entries_ % kOidsPerPage != 0 && p + 1 == used_pages) {
      // The tail page is the one holding entry num_entries-1: keep the
      // appender image from it.
      tail_page_ = p;
      tail_ = page;
    }
  }
  return Status::OK();
}

StatusOr<uint64_t> OidFile::AppendMany(const std::vector<Oid>& oids) {
  const uint64_t first_slot = num_entries_;
  size_t i = 0;
  while (i < oids.size()) {
    SIGSET_FAILPOINT("oid_file.append");
    uint32_t offset_in_page =
        static_cast<uint32_t>(num_entries_ % kOidsPerPage);
    if (offset_in_page == 0) {
      SIGSET_ASSIGN_OR_RETURN(tail_page_, file_->Allocate());
      tail_.Zero();
    }
    // Fill the tail page as far as it goes, then write it once.
    while (i < oids.size() && offset_in_page < kOidsPerPage) {
      tail_.WriteAt<uint64_t>(offset_in_page * kOidBytes, oids[i].value());
      ++offset_in_page;
      ++i;
    }
    SIGSET_RETURN_IF_ERROR(file_->Write(tail_page_, tail_));
    num_entries_ = uint64_t{tail_page_} * kOidsPerPage + offset_in_page;
  }
  num_live_ += oids.size();
  return first_slot;
}

StatusOr<Oid> OidFile::Get(uint64_t slot) const {
  if (slot >= num_entries_) {
    return Status::OutOfRange("oid slot out of range");
  }
  thread_local Page scratch;
  SIGSET_ASSIGN_OR_RETURN(
      const Page* page,
      file_->View(static_cast<PageId>(slot / kOidsPerPage), &scratch));
  uint64_t raw =
      page->ReadAt<uint64_t>((slot % kOidsPerPage) * kOidBytes);
  if (raw & kDeleteFlag) return Oid();
  return Oid(raw);
}

StatusOr<std::vector<Oid>> OidFile::GetMany(
    const std::vector<uint64_t>& slots) const {
  std::vector<Oid> out;
  out.reserve(slots.size());
  thread_local Page scratch;
  const Page* page = nullptr;
  PageId loaded = kInvalidPage;
  for (uint64_t slot : slots) {
    if (slot >= num_entries_) {
      return Status::OutOfRange("oid slot out of range");
    }
    PageId page_no = static_cast<PageId>(slot / kOidsPerPage);
    if (page_no != loaded) {
      SIGSET_ASSIGN_OR_RETURN(page, file_->View(page_no, &scratch));
      loaded = page_no;
    }
    uint64_t raw = page->ReadAt<uint64_t>((slot % kOidsPerPage) * kOidBytes);
    if ((raw & kDeleteFlag) == 0) out.push_back(Oid(raw));
  }
  return out;
}

StatusOr<std::vector<uint64_t>> OidFile::MarkDeletedMany(
    const std::vector<Oid>& oids) {
  if (oids.empty()) return std::vector<uint64_t>{};
  // Locate everything first, buffering modified page images; nothing is
  // written until every victim is found, so a missing (or repeated) oid
  // fails cleanly with zero I/O side effects.  Victims are sorted by value
  // (with their input positions) so a page holding none of them, which is
  // almost every page of a small batch's scan, is passed over by one
  // branch-free range test per entry.
  std::vector<std::pair<uint64_t, size_t>> victims(oids.size());
  for (size_t i = 0; i < oids.size(); ++i) victims[i] = {oids[i].value(), i};
  std::sort(victims.begin(), victims.end());
  for (size_t i = 1; i < victims.size(); ++i) {
    if (victims[i].first == victims[i - 1].first) {
      return Status::InvalidArgument("duplicate oid in batch delete: " +
                                     Oid(victims[i].first).ToString());
    }
  }
  const uint64_t lo = victims.front().first;
  const uint64_t span = victims.back().first - lo;
  std::vector<uint64_t> slots(oids.size());
  // The scan views each page; a page is copied into `dirty` only when it
  // holds a victim, and written once every victim is found.
  std::vector<std::pair<PageId, Page>> dirty;
  size_t found = 0;
  Page scratch;
  const PageId used_pages = UsedPages();
  for (PageId p = 0; p < used_pages && found < oids.size(); ++p) {
    SIGSET_ASSIGN_OR_RETURN(const Page* page, file_->View(p, &scratch));
    const uint64_t entries_on_page = std::min<uint64_t>(
        kOidsPerPage, num_entries_ - uint64_t{p} * kOidsPerPage);
    bool in_range = false;
    for (uint64_t i = 0; i < entries_on_page; ++i) {
      in_range |= page->ReadAt<uint64_t>(i * kOidBytes) - lo <= span;
    }
    if (!in_range) continue;
    Page* image = nullptr;
    for (uint64_t i = 0; i < entries_on_page; ++i) {
      const uint64_t raw = page->ReadAt<uint64_t>(i * kOidBytes);
      if (raw - lo > span) continue;
      auto it = std::lower_bound(victims.begin(), victims.end(),
                                 std::make_pair(raw, size_t{0}));
      if (it == victims.end() || it->first != raw) continue;
      if (image == nullptr) image = &dirty.emplace_back(p, *page).second;
      image->WriteAt<uint64_t>(i * kOidBytes, raw | kDeleteFlag);
      slots[it->second] = uint64_t{p} * kOidsPerPage + i;
      ++found;
    }
  }
  if (found < oids.size()) {
    // A flagged entry no longer equals the oid value, so double deletes
    // land here too.
    return Status::NotFound("oid not present in batch delete");
  }
  for (auto& [p, image] : dirty) {
    SIGSET_FAILPOINT("oid_file.mark_deleted");
    SIGSET_RETURN_IF_ERROR(file_->Write(p, image));
    if (p == tail_page_) tail_ = image;
  }
  num_live_ -= oids.size();
  return slots;
}

void OidFile::ReleaseSlots(const std::vector<uint64_t>& slots) {
  free_slots_.insert(free_slots_.end(), slots.begin(), slots.end());
}

std::vector<uint64_t> OidFile::ClaimFreeSlots(size_t n) {
  n = std::min(n, free_slots_.size());
  std::vector<uint64_t> claimed(free_slots_.end() - static_cast<ptrdiff_t>(n),
                                free_slots_.end());
  std::reverse(claimed.begin(), claimed.end());
  free_slots_.resize(free_slots_.size() - n);
  return claimed;
}

Status OidFile::SetMany(
    const std::vector<std::pair<uint64_t, Oid>>& entries) {
  Page scratch;
  for (size_t begin = 0; begin < entries.size();) {
    // The entries on one page, each checked before the page is touched.
    const PageId page_no =
        static_cast<PageId>(entries[begin].first / kOidsPerPage);
    size_t end = begin;
    for (; end < entries.size() &&
           entries[end].first / kOidsPerPage == page_no;
         ++end) {
      if (entries[end].first >= num_entries_) {
        return Status::OutOfRange("oid slot out of range");
      }
      if (end > 0 && entries[end].first <= entries[end - 1].first) {
        return Status::InvalidArgument("SetMany entries must be slot-sorted");
      }
    }
    SIGSET_FAILPOINT("oid_file.append");
    SIGSET_ASSIGN_OR_RETURN(Page* page, file_->Edit(page_no, &scratch));
    for (size_t i = begin; i < end; ++i) {
      const uint64_t offset = (entries[i].first % kOidsPerPage) * kOidBytes;
      if ((page->ReadAt<uint64_t>(offset) & kDeleteFlag) == 0) {
        return Status::Internal("SetMany target slot is not tombstoned");
      }
    }
    for (size_t i = begin; i < end; ++i) {
      page->WriteAt<uint64_t>((entries[i].first % kOidsPerPage) * kOidBytes,
                              entries[i].second.value());
    }
    SIGSET_RETURN_IF_ERROR(file_->Write(page_no, *page));
    if (page_no == tail_page_) tail_ = *page;
    num_live_ += end - begin;
    begin = end;
  }
  return Status::OK();
}

StatusOr<std::vector<std::pair<uint64_t, Oid>>> OidFile::LiveEntries() const {
  std::vector<std::pair<uint64_t, Oid>> out;
  out.reserve(num_live_);
  thread_local Page scratch;
  const PageId used_pages = UsedPages();
  for (PageId p = 0; p < used_pages; ++p) {
    SIGSET_ASSIGN_OR_RETURN(const Page* page, file_->View(p, &scratch));
    uint64_t entries_on_page = std::min<uint64_t>(
        kOidsPerPage, num_entries_ - uint64_t{p} * kOidsPerPage);
    for (uint64_t i = 0; i < entries_on_page; ++i) {
      uint64_t raw = page->ReadAt<uint64_t>(i * kOidBytes);
      if ((raw & kDeleteFlag) == 0) {
        out.emplace_back(uint64_t{p} * kOidsPerPage + i, Oid(raw));
      }
    }
  }
  return out;
}

}  // namespace sigsetdb
