#include "sig/compressed_bssf.h"

#include <cstring>

#include "sig/kernels.h"
#include "sig/wah.h"
#include "util/math.h"

namespace sigsetdb {

namespace {

// Directory layout: page 0.. hold [num_signatures:u64][num_slices:u32]
// then per slice [first_page:u32][num_pages:u32][num_words:u32], packed
// contiguously across the directory pages.
constexpr size_t kDirHeaderBytes = 12;
constexpr size_t kDirEntryBytes = 12;

size_t DirectoryBytes(uint32_t f) {
  return kDirHeaderBytes + static_cast<size_t>(f) * kDirEntryBytes;
}

size_t DirectoryPages(uint32_t f) {
  return (DirectoryBytes(f) + kPageSize - 1) / kPageSize;
}

}  // namespace

StatusOr<std::unique_ptr<CompressedBitSlicedSignatureFile>>
CompressedBitSlicedSignatureFile::Create(const SignatureConfig& config,
                                         PageFile* slice_file,
                                         PageFile* oid_file) {
  SIGSET_RETURN_IF_ERROR(config.Validate());
  if (slice_file->num_pages() != 0) {
    return Status::InvalidArgument("slice file must be empty");
  }
  return std::unique_ptr<CompressedBitSlicedSignatureFile>(
      new CompressedBitSlicedSignatureFile(config, slice_file, oid_file));
}

Status CompressedBitSlicedSignatureFile::BulkLoad(
    const std::vector<Oid>& oids, const std::vector<ElementSet>& sets) {
  if (!directory_.empty()) {
    return Status::FailedPrecondition("BulkLoad may run once");
  }
  if (oids.size() != sets.size()) {
    return Status::InvalidArgument("oids/sets size mismatch");
  }
  const uint64_t n = oids.size();

  // Materialize the uncompressed slices (slice-major bit matrix), then
  // compress each.  Memory: F · N bits.
  std::vector<BitVector> slices(config_.f, BitVector(n));
  for (uint64_t slot = 0; slot < n; ++slot) {
    BitVector sig = MakeSetSignature(sets[slot], config_);
    sig.ForEachSetBit([&](size_t j) { slices[j].Set(slot); });
  }

  // Reserve the directory block, then append each compressed slice on a
  // fresh page boundary (a slice read must not touch its neighbours).
  const size_t dir_pages = DirectoryPages(config_.f);
  for (size_t i = 0; i < dir_pages; ++i) {
    SIGSET_ASSIGN_OR_RETURN(PageId id, slice_file_->Allocate());
    (void)id;
  }
  directory_.resize(config_.f);
  Page page;
  for (uint32_t j = 0; j < config_.f; ++j) {
    std::vector<uint32_t> words = WahEncode(slices[j]);
    SliceRef& ref = directory_[j];
    ref.num_words = static_cast<uint32_t>(words.size());
    ref.num_pages = static_cast<uint32_t>(
        CeilDiv(static_cast<int64_t>(words.size() * 4),
                static_cast<int64_t>(kPageSize)));
    if (ref.num_pages == 0) ref.num_pages = 1;  // empty slice: one page
    for (uint32_t p = 0; p < ref.num_pages; ++p) {
      SIGSET_ASSIGN_OR_RETURN(PageId id, slice_file_->Allocate());
      if (p == 0) ref.first_page = id;
      page.Zero();
      size_t begin = static_cast<size_t>(p) * (kPageSize / 4);
      size_t count = std::min(words.size() - begin, kPageSize / 4);
      // Zero-length copies skip memcpy: an empty slice's data() may be null.
      if (count > 0) std::memcpy(page.data(), words.data() + begin, count * 4);
      SIGSET_RETURN_IF_ERROR(slice_file_->Write(id, page));
    }
  }

  // Serialize the directory.
  std::vector<uint8_t> dir(DirectoryBytes(config_.f));
  std::memcpy(dir.data(), &n, 8);
  uint32_t f = config_.f;
  std::memcpy(dir.data() + 8, &f, 4);
  for (uint32_t j = 0; j < config_.f; ++j) {
    uint8_t* e = dir.data() + kDirHeaderBytes + j * kDirEntryBytes;
    uint32_t first = directory_[j].first_page;
    std::memcpy(e, &first, 4);
    std::memcpy(e + 4, &directory_[j].num_pages, 4);
    std::memcpy(e + 8, &directory_[j].num_words, 4);
  }
  for (size_t p = 0; p < dir_pages; ++p) {
    page.Zero();
    size_t begin = p * kPageSize;
    size_t count = std::min(dir.size() - begin, kPageSize);
    std::memcpy(page.data(), dir.data() + begin, count);
    SIGSET_RETURN_IF_ERROR(slice_file_->Write(static_cast<PageId>(p), page));
  }

  SIGSET_ASSIGN_OR_RETURN(uint64_t first_slot, oid_file_.AppendMany(oids));
  if (first_slot != 0) return Status::Internal("bulk OID slot mismatch");
  num_signatures_ = n;
  // Bulk-build I/O is setup, not an experiment cost.
  slice_file_->stats().Reset();
  return Status::OK();
}

uint32_t CompressedBitSlicedSignatureFile::PagesForSlice(
    uint32_t slice) const {
  return slice < directory_.size() ? directory_[slice].num_pages : 0;
}

Status CompressedBitSlicedSignatureFile::ReadSlice(uint32_t slice,
                                                   BitVector* out) const {
  if (slice >= directory_.size()) {
    return Status::OutOfRange("slice out of range");
  }
  const SliceRef& ref = directory_[slice];
  std::vector<uint32_t> words(ref.num_words);
  Page page;
  for (uint32_t p = 0; p < ref.num_pages; ++p) {
    SIGSET_RETURN_IF_ERROR(
        slice_file_->Read(ref.first_page + p, &page));
    size_t begin = static_cast<size_t>(p) * (kPageSize / 4);
    size_t count = std::min(words.size() - begin, kPageSize / 4);
    if (count > 0) std::memcpy(words.data() + begin, page.data(), count * 4);
  }
  if (!WahDecode(words, num_signatures_, out)) {
    return Status::Corruption("malformed WAH slice " + std::to_string(slice));
  }
  return Status::OK();
}

StatusOr<std::vector<uint64_t>>
CompressedBitSlicedSignatureFile::SupersetCandidateSlots(
    const BitVector& query_sig) const {
  BitVector acc(num_signatures_);
  acc.SetAll();
  Status status = Status::OK();
  BitVector slice_bits;
  query_sig.ForEachSetBit([&](size_t j) {
    if (!status.ok()) return;
    status = ReadSlice(static_cast<uint32_t>(j), &slice_bits);
    if (status.ok()) KernelAndWith(&acc, slice_bits);
  });
  SIGSET_RETURN_IF_ERROR(status);
  std::vector<uint64_t> slots;
  acc.ForEachSetBit([&](size_t slot) { slots.push_back(slot); });
  return slots;
}

StatusOr<std::vector<uint64_t>>
CompressedBitSlicedSignatureFile::SubsetCandidateSlots(
    const BitVector& query_sig, size_t max_slices) const {
  BitVector acc(num_signatures_);
  BitVector slice_bits;
  size_t scanned = 0;
  for (uint32_t j = 0; j < config_.f && scanned < max_slices; ++j) {
    if (query_sig.Test(j)) continue;
    SIGSET_RETURN_IF_ERROR(ReadSlice(j, &slice_bits));
    KernelOrWith(&acc, slice_bits);
    ++scanned;
  }
  std::vector<uint64_t> slots;
  for (uint64_t slot = 0; slot < num_signatures_; ++slot) {
    if (!acc.Test(slot)) slots.push_back(slot);
  }
  return slots;
}

}  // namespace sigsetdb
