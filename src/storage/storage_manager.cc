#include "storage/storage_manager.h"

#include <cstdio>
#include <cstdlib>

#include "storage/disk_page_file.h"
#include "util/failpoint.h"

namespace sigsetdb {

StatusOr<std::unique_ptr<PageFile>> StorageManager::MakeFile(
    const std::string& name) const {
  SIGSET_FAILPOINT("storage.make_file");
  std::unique_ptr<PageFile> file;
  if (directory_.empty()) {
    file = std::make_unique<InMemoryPageFile>(name);
  } else {
    SIGSET_ASSIGN_OR_RETURN(
        std::unique_ptr<OnDiskPageFile> disk,
        OnDiskPageFile::Open(name, directory_ + "/" + name + ".pages"));
    file = std::move(disk);
  }
  if (interceptor_) file = interceptor_(std::move(file));
  return file;
}

StatusOr<PageFile*> StorageManager::Create(const std::string& name) {
  if (files_.count(name) != 0) {
    return Status::AlreadyExists("file exists: " + name);
  }
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> file, MakeFile(name));
  PageFile* raw = file.get();
  files_.emplace(name, std::move(file));
  return raw;
}

StatusOr<PageFile*> StorageManager::Open(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return Status::NotFound("no such file: " + name);
  }
  return it->second.get();
}

PageFile* StorageManager::CreateOrOpen(const std::string& name) {
  auto it = files_.find(name);
  if (it != files_.end()) return it->second.get();
  StatusOr<std::unique_ptr<PageFile>> file = MakeFile(name);
  if (!file.ok()) {
    std::fprintf(stderr, "StorageManager::CreateOrOpen(%s): %s\n",
                 name.c_str(), file.status().ToString().c_str());
    std::abort();
  }
  PageFile* raw = file->get();
  files_.emplace(name, std::move(*file));
  return raw;
}

StatusOr<PageFile*> StorageManager::OpenOrCreate(const std::string& name) {
  auto it = files_.find(name);
  if (it != files_.end()) return it->second.get();
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<PageFile> file, MakeFile(name));
  PageFile* raw = file.get();
  files_.emplace(name, std::move(file));
  return raw;
}

IoStats StorageManager::TotalStats() const {
  // Summed as plain values: IoStats' += is an atomic add per counter.
  PageCounts total;
  for (const auto& [name, file] : files_) total += file->stats().counts();
  return IoStats(total);
}

void StorageManager::ForEachFile(
    const std::function<void(const PageFile&)>& fn) const {
  for (const auto& [name, file] : files_) fn(*file);
}

void StorageManager::ResetStats() {
  for (auto& [name, file] : files_) file->stats().Reset();
}

uint64_t StorageManager::TotalPages() const {
  uint64_t total = 0;
  for (const auto& [name, file] : files_) total += file->num_pages();
  return total;
}

}  // namespace sigsetdb
