#include "storage/page_file.h"

namespace sigsetdb {

Status WriteOrAllocate(PageFile* file, PageId p, const Page& page) {
  while (file->num_pages() <= p) {
    SIGSET_ASSIGN_OR_RETURN(PageId allocated, file->Allocate());
    (void)allocated;
  }
  return file->Write(p, page);
}

StatusOr<PageId> InMemoryPageFile::Allocate() {
  if (pages_.size() >= kInvalidPage) {
    return Status::OutOfRange("page file full: " + name_);
  }
  pages_.push_back(std::make_unique<Page>());
  return static_cast<PageId>(pages_.size() - 1);
}

Status InMemoryPageFile::Read(PageId id, Page* out, IoStats* io) {
  SIGSET_ASSIGN_OR_RETURN(const Page* page,
                          InMemoryPageFile::View(id, out, io));
  *out = *page;
  return Status::OK();
}

StatusOr<const Page*> InMemoryPageFile::View(PageId id, Page* /*scratch*/,
                                             IoStats* io) {
  if (id >= pages_.size()) return ReadPastEnd(id);
  io->AddRead();
  return pages_[id].get();
}

StatusOr<Page*> InMemoryPageFile::Edit(PageId id, Page* /*scratch*/,
                                       IoStats* io) {
  if (id >= pages_.size()) return ReadPastEnd(id);
  io->AddRead();
  return pages_[id].get();
}

Status InMemoryPageFile::ReadPastEnd(PageId id) const {
  return Status::OutOfRange("read past end of " + name_ + " page " +
                            std::to_string(id));
}

Status InMemoryPageFile::Write(PageId id, const Page& page, IoStats* io) {
  if (id >= pages_.size()) {
    return Status::OutOfRange("write past end of " + name_ + " page " +
                              std::to_string(id));
  }
  if (&page != pages_[id].get()) *pages_[id] = page;
  io->AddWrite();
  return Status::OK();
}

}  // namespace sigsetdb
