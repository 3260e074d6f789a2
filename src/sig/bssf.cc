#include "sig/bssf.h"

#include <algorithm>
#include <cstring>

#include "sig/kernels.h"
#include "util/failpoint.h"
#include "util/math.h"

namespace sigsetdb {

StatusOr<std::unique_ptr<BitSlicedSignatureFile>>
BitSlicedSignatureFile::Create(const SignatureConfig& config,
                               uint64_t capacity, PageFile* slice_file,
                               PageFile* oid_file,
                               BssfInsertMode insert_mode) {
  SIGSET_RETURN_IF_ERROR(config.Validate());
  if (capacity == 0) return Status::InvalidArgument("capacity must be > 0");
  std::unique_ptr<BitSlicedSignatureFile> bssf(new BitSlicedSignatureFile(
      config, capacity, slice_file, oid_file, insert_mode));
  // Pre-allocate the slice store: F slices of pages_per_slice zeroed pages,
  // laid out slice-major (slice j starts at page j * pages_per_slice).
  uint64_t total_pages =
      static_cast<uint64_t>(config.f) * bssf->pages_per_slice_;
  for (uint64_t i = 0; i < total_pages; ++i) {
    SIGSET_ASSIGN_OR_RETURN(PageId id, slice_file->Allocate());
    (void)id;
  }
  // Allocation is setup, not an experiment cost.
  slice_file->stats().Reset();
  return bssf;
}

BitSlicedSignatureFile::BitSlicedSignatureFile(const SignatureConfig& config,
                                               uint64_t capacity,
                                               PageFile* slice_file,
                                               PageFile* oid_file,
                                               BssfInsertMode insert_mode)
    : config_(config),
      capacity_(capacity),
      pages_per_slice_(static_cast<uint32_t>(
          CeilDiv(static_cast<int64_t>(capacity),
                  static_cast<int64_t>(kPageBits)))),
      slice_file_(slice_file),
      oid_file_(oid_file),
      insert_mode_(insert_mode),
      skip_index_(config.f, pages_per_slice_),
      hot_tier_(static_cast<uint64_t>(config.f) * pages_per_slice_) {}

StatusOr<std::unique_ptr<BitSlicedSignatureFile>>
BitSlicedSignatureFile::CreateFromExisting(const SignatureConfig& config,
                                           uint64_t capacity,
                                           PageFile* slice_file,
                                           PageFile* oid_file,
                                           BssfInsertMode insert_mode,
                                           uint64_t num_signatures) {
  SIGSET_RETURN_IF_ERROR(config.Validate());
  if (num_signatures > capacity) {
    return Status::InvalidArgument("recovered count exceeds capacity");
  }
  std::unique_ptr<BitSlicedSignatureFile> bssf(new BitSlicedSignatureFile(
      config, capacity, slice_file, oid_file, insert_mode));
  uint64_t expected_pages =
      static_cast<uint64_t>(config.f) * bssf->pages_per_slice_;
  if (slice_file->num_pages() != expected_pages) {
    return Status::Corruption(
        "slice store page count does not match configuration");
  }
  SIGSET_RETURN_IF_ERROR(bssf->oid_file_.Recover(num_signatures));
  bssf->num_signatures_ = num_signatures;
  // Sparse writes need every free slot's column all-zero.  A crash between
  // a remove's tombstone and its clears, or after an append the checkpoint
  // does not count, leaves stray bits on dead columns; the scan below
  // clears the columns of every slot that is not live, one 64-bit word at
  // a time, and writes only the pages that change.
  const uint32_t words_per_page = kPageBits / 64;
  std::vector<uint64_t> live(
      static_cast<uint64_t>(bssf->pages_per_slice_) * words_per_page, 0);
  std::fill(live.begin(), live.begin() + num_signatures / 64, ~uint64_t{0});
  if (num_signatures % 64 != 0) {
    live[num_signatures / 64] = (uint64_t{1} << (num_signatures % 64)) - 1;
  }
  for (uint64_t slot : bssf->oid_file_.free_slots()) {
    live[slot / 64] &= ~(uint64_t{1} << (slot % 64));
  }
  // The same scan rebuilds the slice-page summaries.  Like the rest of
  // recovery, it is setup, not an experiment cost — stats are reset below.
  Page page;
  for (uint64_t p = 0; p < expected_pages; ++p) {
    SIGSET_RETURN_IF_ERROR(slice_file->Read(static_cast<PageId>(p), &page));
    const uint64_t* mask =
        live.data() + (p % bssf->pages_per_slice_) * words_per_page;
    bool changed = false;
    for (uint32_t w = 0; w < words_per_page; ++w) {
      uint64_t word;
      std::memcpy(&word, page.data() + w * 8, 8);
      if ((word & ~mask[w]) == 0) continue;
      word &= mask[w];
      std::memcpy(page.data() + w * 8, &word, 8);
      changed = true;
    }
    if (changed) {
      SIGSET_RETURN_IF_ERROR(slice_file->Write(static_cast<PageId>(p), page));
    }
    bssf->skip_index_.Update(static_cast<PageId>(p), page);
    bssf->hot_tier_.Update(static_cast<PageId>(p), page);
  }
  slice_file->stats().Reset();
  oid_file->stats().Reset();
  return bssf;
}

StatusOr<std::unique_ptr<BitSlicedSignatureFile>>
BitSlicedSignatureFile::CreateReadView(const SignatureConfig& config,
                                       uint64_t capacity,
                                       PageFile* slice_file,
                                       PageFile* oid_file,
                                       uint64_t num_signatures,
                                       uint64_t num_live) {
  SIGSET_RETURN_IF_ERROR(config.Validate());
  if (num_signatures > capacity) {
    return Status::InvalidArgument("snapshot count exceeds capacity");
  }
  std::unique_ptr<BitSlicedSignatureFile> bssf(new BitSlicedSignatureFile(
      config, capacity, slice_file, oid_file, BssfInsertMode::kSparse));
  const uint64_t expected_pages =
      static_cast<uint64_t>(config.f) * bssf->pages_per_slice_;
  if (slice_file->num_pages() < expected_pages) {
    return Status::Corruption(
        "snapshot slice store has fewer pages than its configuration needs");
  }
  bssf->num_signatures_ = num_signatures;
  bssf->oid_file_.AttachReadOnly(num_signatures, num_live);
  return bssf;
}

Status BitSlicedSignatureFile::BulkLoad(const std::vector<Oid>& oids,
                                        const std::vector<ElementSet>& sets) {
  if (num_signatures_ != 0) {
    return Status::FailedPrecondition("BulkLoad requires an empty facility");
  }
  if (oids.size() != sets.size()) {
    return Status::InvalidArgument("oids/sets size mismatch");
  }
  if (oids.size() > capacity_) {
    return Status::OutOfRange("bulk load exceeds capacity");
  }
  // Assemble every slice page in memory, then write each exactly once.
  const uint64_t total_pages =
      static_cast<uint64_t>(config_.f) * pages_per_slice_;
  std::vector<Page> pages(total_pages);
  for (uint64_t slot = 0; slot < sets.size(); ++slot) {
    BitVector sig = MakeSetSignature(sets[slot], config_);
    uint64_t page_in_slice = slot / kPageBits;
    uint64_t bit = slot % kPageBits;
    sig.ForEachSetBit([&](size_t j) {
      Page& page = pages[j * pages_per_slice_ + page_in_slice];
      page.data()[bit >> 3] |= static_cast<uint8_t>(1u << (bit & 7));
    });
  }
  for (uint64_t p = 0; p < total_pages; ++p) {
    SIGSET_RETURN_IF_ERROR(slice_file_->Write(static_cast<PageId>(p),
                                              pages[p]));
    skip_index_.Update(static_cast<PageId>(p), pages[p]);
    hot_tier_.Update(static_cast<PageId>(p), pages[p]);
  }
  SIGSET_ASSIGN_OR_RETURN(uint64_t first_slot, oid_file_.AppendMany(oids));
  if (first_slot != 0) return Status::Internal("bulk OID slot mismatch");
  num_signatures_ = oids.size();
  // Bulk-build I/O is setup, not an experiment cost.
  slice_file_->stats().Reset();
  return Status::OK();
}

uint64_t BitSlicedSignatureFile::FreshSlots(size_t removes,
                                            size_t inserts) const {
  const uint64_t reusable = removes + oid_file_.free_slots().size();
  return inserts - std::min<uint64_t>(inserts, reusable);
}

Status BitSlicedSignatureFile::CheckCapacity(size_t removes,
                                             size_t inserts) const {
  if (num_signatures_ + FreshSlots(removes, inserts) > capacity_) {
    return Status::OutOfRange("bssf capacity exhausted");
  }
  return Status::OK();
}

std::vector<uint64_t> BitSlicedSignatureFile::PageOrderedChanges(
    const std::vector<BatchColumn>& columns, size_t removes) const {
  // One integer per bit change: page << 32 | bit-in-page << 1 | value.
  static_assert(kPageBits * 2 <= (uint64_t{1} << 32));
  const bool full_column = insert_mode_ == BssfInsertMode::kTouchAllSlices;
  auto for_each_change = [&](auto&& emit) {
    for (size_t i = 0; i < columns.size(); ++i) {
      const uint64_t page_in_slice = columns[i].slot / kPageBits;
      const uint64_t bit = columns[i].slot % kPageBits;
      auto change = [&](size_t slice, bool set_bit) {
        emit((slice * pages_per_slice_ + page_in_slice) << 32 | bit << 1 |
             static_cast<uint64_t>(set_bit));
      };
      if (i >= removes && full_column) {
        for (uint32_t j = 0; j < config_.f; ++j) {
          change(j, columns[i].sig.Test(j));
        }
      } else {
        columns[i].sig.ForEachSetBit(
            [&](size_t j) { change(j, i >= removes); });
      }
    }
  };
  size_t total = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    total += i >= removes && full_column ? config_.f : columns[i].sig.Count();
  }
  std::vector<uint64_t> changes;
  const size_t num_pages = static_cast<size_t>(config_.f) * pages_per_slice_;
  if (total < num_pages) {
    // Fewer changes than pages (a batch of a few ops): a sort is cheaper
    // than a pass over every page.  For one bit it puts a remove's clear
    // before a reuse's set, which is the order the ops make.
    changes.reserve(total);
    for_each_change([&](uint64_t change) { changes.push_back(change); });
    std::sort(changes.begin(), changes.end());
    return changes;
  }
  // A counting sort: one pass counts each page's changes, and a second
  // writes each change at the next place of its page, which keeps the ops'
  // order within a page.
  std::vector<size_t> next(num_pages + 1, 0);
  for_each_change([&](uint64_t change) { ++next[(change >> 32) + 1]; });
  for (size_t p = 0; p < num_pages; ++p) next[p + 1] += next[p];
  changes.resize(total);
  for_each_change(
      [&](uint64_t change) { changes[next[change >> 32]++] = change; });
  return changes;
}

Status BitSlicedSignatureFile::ApplyBatch(const std::vector<BatchOp>& ops) {
  // Phase 1 — tombstone the removes with one OID-file scan (the commit
  // point making their slots invisible).
  std::vector<Oid> remove_oids;
  std::vector<const ElementSet*> remove_sets;
  std::vector<const BatchOp*> inserts;
  for (const BatchOp& op : ops) {
    if (op.kind == BatchOp::Kind::kRemove) {
      remove_oids.push_back(op.oid);
      remove_sets.push_back(&op.set_value);
    } else {
      inserts.push_back(&op);
    }
  }
  SIGSET_RETURN_IF_ERROR(CheckCapacity(remove_oids.size(), inserts.size()));
  const uint64_t fresh = FreshSlots(remove_oids.size(), inserts.size());
  std::vector<uint64_t> removed;
  if (!remove_oids.empty()) {
    SIGSET_ASSIGN_OR_RETURN(removed, oid_file_.MarkDeletedMany(remove_oids));
  }
  // The batch's columns: the removed ones, whose set bits are cleared,
  // then the inserts', whose set bits are set (their whole columns in
  // kTouchAllSlices mode).  Every insert lands on an all-zero column or on
  // one this batch clears, so sparse writes are lossless.
  std::vector<BatchColumn> columns;
  columns.reserve(removed.size() + inserts.size());
  for (size_t i = 0; i < removed.size(); ++i) {
    columns.push_back({removed[i], MakeSetSignature(*remove_sets[i], config_)});
  }
  // Phase 2 — assign slots, most recently freed first: this batch's
  // removed slots (last removed first), then the free list, then fresh
  // appends off the high-water mark.  Free-list slots are claimed before
  // any write, so a failed write can never leave dirty bits on a listed
  // slot.
  const size_t from_removed = std::min(inserts.size(), removed.size());
  const std::vector<uint64_t> claimed =
      oid_file_.ClaimFreeSlots(inserts.size() - from_removed);
  const size_t reuse = from_removed + claimed.size();
  std::vector<std::pair<uint64_t, Oid>> reused_entries;
  reused_entries.reserve(reuse);
  for (size_t i = 0; i < inserts.size(); ++i) {
    uint64_t slot;
    if (i < from_removed) {
      slot = removed[removed.size() - 1 - i];
    } else if (i < reuse) {
      slot = claimed[i - from_removed];
    } else {
      slot = num_signatures_ + (i - reuse);
    }
    if (i < reuse) reused_entries.emplace_back(slot, inserts[i]->oid);
    columns.push_back({slot, MakeSetSignature(inserts[i]->set_value, config_)});
  }
  // Phase 3 — one read-modify-write per dirty slice page, in page order,
  // editing the page where it sits.
  const std::vector<uint64_t> changes =
      PageOrderedChanges(columns, removed.size());
  Page scratch;
  for (size_t begin = 0; begin < changes.size();) {
    const PageId page_no = static_cast<PageId>(changes[begin] >> 32);
    SIGSET_FAILPOINT("bssf.touch_slice");
    SIGSET_ASSIGN_OR_RETURN(Page* page, slice_file_->Edit(page_no, &scratch));
    size_t end = begin;
    for (; end < changes.size() && (changes[end] >> 32) == page_no; ++end) {
      const uint32_t bit = static_cast<uint32_t>(changes[end]) >> 1;
      const uint8_t mask = static_cast<uint8_t>(1u << (bit & 7));
      if (changes[end] & 1) {
        page->data()[bit >> 3] |= mask;
      } else {
        page->data()[bit >> 3] &= static_cast<uint8_t>(~mask);
      }
    }
    SIGSET_RETURN_IF_ERROR(slice_file_->Write(page_no, *page));
    skip_index_.Update(page_no, *page);
    hot_tier_.Update(page_no, *page);
    begin = end;
  }
  // The removed columns are clear now; the slots this batch did not reuse
  // join the free list.
  oid_file_.ReleaseSlots(std::vector<uint64_t>(
      removed.begin(), removed.end() - static_cast<ptrdiff_t>(from_removed)));
  // Phase 4 — publish the OID entries (reused slots become live again,
  // fresh slots append page-at-a-time).
  if (!reused_entries.empty()) {
    std::sort(reused_entries.begin(), reused_entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    SIGSET_RETURN_IF_ERROR(oid_file_.SetMany(reused_entries));
  }
  if (fresh > 0) {
    std::vector<Oid> appended;
    appended.reserve(fresh);
    for (size_t i = reuse; i < inserts.size(); ++i) {
      appended.push_back(inserts[i]->oid);
    }
    SIGSET_ASSIGN_OR_RETURN(uint64_t first_slot,
                            oid_file_.AppendMany(appended));
    if (first_slot != num_signatures_) {
      return Status::Internal("slice/OID slot mismatch in batch append");
    }
    num_signatures_ += fresh;
  }
  return Status::OK();
}

StatusOr<uint64_t> BitSlicedSignatureFile::CompactTo(
    PageFile* new_slice_file, PageFile* new_oid_file) const {
  SIGSET_ASSIGN_OR_RETURN(auto live, oid_file_.LiveEntries());
  // Dense target store assembled in memory (same footprint as BulkLoad);
  // live slot d of the new store gets the column of live[d].
  const uint64_t total_pages =
      static_cast<uint64_t>(config_.f) * pages_per_slice_;
  std::vector<Page> pages(total_pages);
  // live is slot-sorted: precompute, per source page-in-slice, the range of
  // live entries whose slot falls on that page.
  std::vector<std::pair<size_t, size_t>> ranges(pages_per_slice_, {0, 0});
  {
    size_t begin = 0;
    for (uint32_t p = 0; p < pages_per_slice_; ++p) {
      size_t end = begin;
      while (end < live.size() &&
             live[end].first / kPageBits == p) {
        ++end;
      }
      ranges[p] = {begin, end};
      begin = end;
    }
  }
  Page in_page;
  for (uint32_t j = 0; j < config_.f; ++j) {
    for (uint32_t p = 0; p < pages_per_slice_; ++p) {
      auto [begin, end] = ranges[p];
      if (begin == end) continue;
      SIGSET_RETURN_IF_ERROR(slice_file_->Read(
          static_cast<PageId>(static_cast<uint64_t>(j) * pages_per_slice_ + p),
          &in_page));
      for (size_t d = begin; d < end; ++d) {
        uint64_t bit = live[d].first % kPageBits;
        if (in_page.data()[bit >> 3] & (1u << (bit & 7))) {
          Page& out = pages[static_cast<uint64_t>(j) * pages_per_slice_ +
                            d / kPageBits];
          out.data()[(d % kPageBits) >> 3] |=
              static_cast<uint8_t>(1u << (d & 7));
        }
      }
    }
  }
  // Write EVERY page of the target store (zero ones included):
  // CreateFromExisting demands the exact page count, and overwriting wipes
  // any leftovers from a crashed earlier attempt at this generation.
  for (uint64_t p = 0; p < total_pages; ++p) {
    SIGSET_RETURN_IF_ERROR(
        WriteOrAllocate(new_slice_file, static_cast<PageId>(p), pages[p]));
  }
  // Dense OID file: pack live oids kOidsPerPage per page.
  Page out_oid;
  out_oid.Zero();
  uint64_t dense = 0;
  for (const auto& [slot, oid] : live) {
    (void)slot;
    out_oid.WriteAt<uint64_t>((dense % kOidsPerPage) * kOidBytes,
                              oid.value());
    ++dense;
    if (dense % kOidsPerPage == 0) {
      SIGSET_RETURN_IF_ERROR(WriteOrAllocate(
          new_oid_file, static_cast<PageId>(dense / kOidsPerPage - 1),
          out_oid));
      out_oid.Zero();
    }
  }
  if (dense % kOidsPerPage != 0) {
    SIGSET_RETURN_IF_ERROR(WriteOrAllocate(
        new_oid_file, static_cast<PageId>(dense / kOidsPerPage), out_oid));
  }
  return dense;
}

Status BitSlicedSignatureFile::CombineSlice(
    uint32_t slice, bool and_combine, BitVector* acc, IoStats* io,
    const std::vector<bool>* dead_columns) const {
  if (FailpointRegistry::AnyArmed()) {
    Status fault = FailpointRegistry::Instance().Evaluate("bssf.combine_slice");
    if (!fault.ok()) {
      return Status(fault.code(),
                    fault.message() + " (slice " + std::to_string(slice) + ")");
    }
  }
  const SignatureKernels& kernels = ActiveKernels();
  // Slice scans run on concurrent workers: a per-thread scratch page, never
  // zero-filled per call, for files that cannot lend their bytes.
  thread_local Page scratch;
  uint64_t* words = acc->mutable_words();
  size_t words_done = 0;
  const size_t total_words = acc->num_words();
  for (uint32_t p = 0; p < pages_per_slice_ && words_done < total_words; ++p) {
    size_t n = std::min(total_words - words_done, kPageSize / 8);
    // AND scans skip whole dead page columns (the caller zeroes the
    // accumulator range via ApplyDeadColumns); OR scans skip pages the
    // summary proves empty (OR with zero is the identity).  Either way the
    // avoided read is charged to pages_skipped, never to page_reads.
    if (dead_columns != nullptr && p < dead_columns->size() &&
        (*dead_columns)[p]) {
      io->AddSkip();
      words_done += n;
      continue;
    }
    if (!and_combine && skip_enabled_ &&
        skip_index_.summary(slice, p).empty()) {
      io->AddSkip();
      words_done += n;
      continue;
    }
    PageId page_no = static_cast<PageId>(
        static_cast<uint64_t>(slice) * pages_per_slice_ + p);
    // The hot tier sits after the skip checks (a skipped page is never an
    // access, so it must not warm the counters) and before the page file: a
    // pinned page is combined in place under the tier's shared lock — no
    // page copy — and charged to pages_hot; a miss reads normally and
    // offers the image for admission.
    auto combine = [&](const uint64_t* src) {
      if (and_combine) {
        kernels.and_accumulate(words + words_done, src, n);
      } else {
        kernels.or_accumulate(words + words_done, src, n);
      }
    };
    if (hot_enabled_ && hot_tier_.VisitPage(page_no, [&](const Page& pinned) {
          combine(reinterpret_cast<const uint64_t*>(pinned.data()));
        })) {
      io->AddHot();
    } else {
      SIGSET_ASSIGN_OR_RETURN(const Page* page,
                              slice_file_->View(page_no, &scratch, io));
      if (hot_enabled_) hot_tier_.Admit(page_no, *page);
      combine(reinterpret_cast<const uint64_t*>(page->data()));
    }
    words_done += n;
  }
  return Status::OK();
}

Status BitSlicedSignatureFile::CombineSliceRange(
    const std::vector<uint32_t>& slices, size_t begin, size_t end,
    bool and_combine, BitVector* acc, IoStats* io,
    const std::vector<bool>* dead_columns) const {
  for (size_t i = begin; i < end; ++i) {
    SIGSET_RETURN_IF_ERROR(
        CombineSlice(slices[i], and_combine, acc, io, dead_columns));
  }
  return Status::OK();
}

std::vector<bool> BitSlicedSignatureFile::PlanDeadColumns(
    const std::vector<uint32_t>& slices, const BitVector& acc) const {
  if (!skip_enabled_) return {};
  uint32_t columns = static_cast<uint32_t>(
      CeilDiv(static_cast<int64_t>(acc.size()),
              static_cast<int64_t>(kPageBits)));
  return skip_index_.DeadColumns(slices, columns);
}

void BitSlicedSignatureFile::ApplyDeadColumns(
    const std::vector<bool>& dead_columns, BitVector* acc) {
  uint64_t* words = acc->mutable_words();
  const size_t total_words = acc->num_words();
  for (size_t p = 0; p < dead_columns.size(); ++p) {
    if (!dead_columns[p]) continue;
    size_t begin = p * (kPageSize / 8);
    if (begin >= total_words) break;
    size_t end = std::min(begin + kPageSize / 8, total_words);
    std::fill(words + begin, words + end, uint64_t{0});
  }
}

Status BitSlicedSignatureFile::CombineSlicesParallel(
    const std::vector<uint32_t>& slices, bool and_combine, BitVector* acc,
    const ParallelExecutionContext* ctx) const {
  // Skip planning happens once, up front: AND scans precompute the dead
  // page columns from the slice-page summaries (shared read-only by every
  // worker), and the accumulator ranges they cover are zeroed after the
  // combine — the value the skipped reads would have produced.
  std::vector<bool> dead_columns;
  const std::vector<bool>* dead = nullptr;
  if (and_combine && skip_enabled_) {
    dead_columns = PlanDeadColumns(slices, *acc);
    dead = &dead_columns;
  }
  const size_t workers =
      ctx == nullptr ? 1 : ctx->WorkersFor(slices.size());
  if (workers <= 1) {
    SIGSET_RETURN_IF_ERROR(CombineSliceRange(slices, 0, slices.size(),
                                             and_combine, acc,
                                             &slice_file_->stats(), dead));
    if (dead != nullptr) ApplyDeadColumns(dead_columns, acc);
    return Status::OK();
  }
  // Per-worker accumulator bitmaps (initialized to the combine identity) and
  // per-worker IoStats; both merged deterministically after the join.  Every
  // slice is combined by exactly one worker, so each slice page is still
  // read exactly once — logical page accesses equal the serial scan's.
  std::vector<BitVector> accs(workers);
  std::vector<IoStats> ios(workers);
  std::vector<Status> statuses(workers, Status::OK());
  for (BitVector& a : accs) {
    a = BitVector(acc->size());
    if (and_combine) a.SetAll();
  }
  ctx->pool->ParallelFor(
      slices.size(), workers, [&](size_t w, size_t begin, size_t end) {
        statuses[w] = CombineSliceRange(slices, begin, end, and_combine,
                                        &accs[w], &ios[w], dead);
      });
  for (const IoStats& io : ios) slice_file_->stats() += io;
  SIGSET_RETURN_IF_ERROR(MergeWorkerStatuses(statuses));
  for (const BitVector& a : accs) {
    if (and_combine) {
      KernelAndWith(acc, a);
    } else {
      KernelOrWith(acc, a);
    }
  }
  if (dead != nullptr) ApplyDeadColumns(dead_columns, acc);
  return Status::OK();
}

StatusOr<std::vector<uint64_t>> BitSlicedSignatureFile::SupersetCandidateSlots(
    const BitVector& query_sig, const ParallelExecutionContext* ctx) const {
  std::vector<uint32_t> slices;
  query_sig.ForEachSetBit(
      [&](size_t j) { slices.push_back(static_cast<uint32_t>(j)); });
  BitVector acc(num_signatures_);
  acc.SetAll();
  SIGSET_RETURN_IF_ERROR(
      CombineSlicesParallel(slices, /*and_combine=*/true, &acc, ctx));
  std::vector<uint64_t> slots;
  acc.ForEachSetBit([&](size_t slot) { slots.push_back(slot); });
  return slots;
}

StatusOr<std::vector<uint64_t>> BitSlicedSignatureFile::SubsetCandidateSlots(
    const BitVector& query_sig, size_t max_slices,
    const ParallelExecutionContext* ctx) const {
  // The zero slices to scan (the paper's partial slice scan caps them).
  std::vector<uint32_t> slices;
  for (uint32_t j = 0; j < config_.f && slices.size() < max_slices; ++j) {
    if (!query_sig.Test(j)) slices.push_back(j);
  }
  BitVector acc(num_signatures_);  // starts all-zero; OR in the zero slices
  SIGSET_RETURN_IF_ERROR(
      CombineSlicesParallel(slices, /*and_combine=*/false, &acc, ctx));
  // Candidates are slots whose accumulated bit stayed 0.
  std::vector<uint64_t> slots;
  for (uint64_t slot = 0; slot < num_signatures_; ++slot) {
    if (!acc.Test(slot)) slots.push_back(slot);
  }
  return slots;
}

StatusOr<std::vector<uint64_t>> BitSlicedSignatureFile::EqualsCandidateSlots(
    const BitVector& query_sig, const ParallelExecutionContext* ctx) const {
  // ones: slots whose signature covers the query (AND of 1-slices);
  // zeros: slots with a 1 in some 0-slice of the query (OR of 0-slices).
  // Equality candidates are ones ∧ ¬zeros.
  std::vector<uint32_t> one_slices;
  std::vector<uint32_t> zero_slices;
  for (uint32_t j = 0; j < config_.f; ++j) {
    (query_sig.Test(j) ? one_slices : zero_slices).push_back(j);
  }
  BitVector ones(num_signatures_);
  ones.SetAll();
  BitVector zeros(num_signatures_);
  SIGSET_RETURN_IF_ERROR(
      CombineSlicesParallel(one_slices, /*and_combine=*/true, &ones, ctx));
  SIGSET_RETURN_IF_ERROR(
      CombineSlicesParallel(zero_slices, /*and_combine=*/false, &zeros, ctx));
  ones.AndNotWith(zeros);
  std::vector<uint64_t> slots;
  ones.ForEachSetBit([&](size_t slot) { slots.push_back(slot); });
  return slots;
}

StatusOr<CandidateResult> BitSlicedSignatureFile::Candidates(
    QueryKind kind, const ElementSet& query,
    const ParallelExecutionContext* ctx) {
  std::vector<uint64_t> slots;
  switch (kind) {
    case QueryKind::kSuperset:
    case QueryKind::kProperSuperset: {  // strictness checked at resolution
      BitVector query_sig = MakeSetSignature(query, config_);
      SIGSET_ASSIGN_OR_RETURN(slots, SupersetCandidateSlots(query_sig, ctx));
      break;
    }
    case QueryKind::kSubset:
    case QueryKind::kProperSubset: {  // strictness checked at resolution
      BitVector query_sig = MakeSetSignature(query, config_);
      SIGSET_ASSIGN_OR_RETURN(
          slots, SubsetCandidateSlots(query_sig,
                                      std::numeric_limits<size_t>::max(),
                                      ctx));
      break;
    }
    case QueryKind::kEquals: {
      BitVector query_sig = MakeSetSignature(query, config_);
      SIGSET_ASSIGN_OR_RETURN(slots, EqualsCandidateSlots(query_sig, ctx));
      break;
    }
    case QueryKind::kOverlaps: {
      // Union of per-element superset filters (extension, paper §6).  Slices
      // shared between element signatures are still read once per element;
      // a production system would memoize, which the micro-bench explores.
      // Parallelism fans out over the query elements (each worker scans its
      // elements' slices through a private accumulator and IoStats).
      SIGSET_ASSIGN_OR_RETURN(slots, OverlapCandidateSlots(query, ctx));
      break;
    }
  }
  CandidateResult result;
  result.exact = false;
  SIGSET_ASSIGN_OR_RETURN(result.oids, oid_file_.GetMany(slots));
  return result;
}

StatusOr<std::vector<uint64_t>> BitSlicedSignatureFile::OverlapCandidateSlots(
    const ElementSet& query, const ParallelExecutionContext* ctx) const {
  const size_t workers = ctx == nullptr ? 1 : ctx->WorkersFor(query.size());
  std::vector<std::vector<uint64_t>> merged(std::max<size_t>(workers, 1));
  std::vector<IoStats> ios(merged.size());
  std::vector<Status> statuses(merged.size(), Status::OK());
  auto scan_elements = [&](size_t w, size_t begin, size_t end) {
    for (size_t i = begin; i < end && statuses[w].ok(); ++i) {
      BitVector es = MakeElementSignature(query[i], config_);
      std::vector<uint32_t> slices;
      es.ForEachSetBit(
          [&](size_t j) { slices.push_back(static_cast<uint32_t>(j)); });
      BitVector acc(num_signatures_);
      acc.SetAll();
      // Per-element skip plan: each element scans its own slice set, so its
      // dead columns differ.  skip_index_ reads are const and safe to share
      // across workers.
      std::vector<bool> dead = PlanDeadColumns(slices, acc);
      statuses[w] = CombineSliceRange(slices, 0, slices.size(),
                                      /*and_combine=*/true, &acc, &ios[w],
                                      dead.empty() ? nullptr : &dead);
      if (!statuses[w].ok()) return;
      if (!dead.empty()) ApplyDeadColumns(dead, &acc);
      acc.ForEachSetBit([&](size_t slot) { merged[w].push_back(slot); });
    }
  };
  if (workers <= 1) {
    scan_elements(0, 0, query.size());
  } else {
    ctx->pool->ParallelFor(query.size(), workers, scan_elements);
  }
  for (const IoStats& io : ios) slice_file_->stats() += io;
  SIGSET_RETURN_IF_ERROR(MergeWorkerStatuses(statuses));
  std::vector<uint64_t> slots;
  for (const std::vector<uint64_t>& part : merged) {
    slots.insert(slots.end(), part.begin(), part.end());
  }
  std::sort(slots.begin(), slots.end());
  slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
  return slots;
}

uint64_t BitSlicedSignatureFile::StoragePages() const {
  return static_cast<uint64_t>(slice_file_->num_pages()) +
         oid_file_.num_pages();
}

}  // namespace sigsetdb
