#include "sig/ssf.h"

#include <algorithm>

#include "sig/bitpack.h"
#include "sig/kernels.h"
#include "util/failpoint.h"

namespace sigsetdb {

StatusOr<std::unique_ptr<SequentialSignatureFile>>
SequentialSignatureFile::Create(const SignatureConfig& config,
                                PageFile* signature_file, PageFile* oid_file) {
  SIGSET_RETURN_IF_ERROR(config.Validate());
  if (config.f > kPageBits) {
    return Status::InvalidArgument("F exceeds one page worth of bits");
  }
  return std::unique_ptr<SequentialSignatureFile>(
      new SequentialSignatureFile(config, signature_file, oid_file));
}

StatusOr<std::unique_ptr<SequentialSignatureFile>>
SequentialSignatureFile::CreateFromExisting(const SignatureConfig& config,
                                            PageFile* signature_file,
                                            PageFile* oid_file,
                                            uint64_t num_signatures) {
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<SequentialSignatureFile> ssf,
                          Create(config, signature_file, oid_file));
  uint64_t expected_pages =
      (num_signatures + ssf->sigs_per_page_ - 1) / ssf->sigs_per_page_;
  // Pages beyond the checkpointed count are legitimate after a crash (an
  // insert allocated its page before the manifest was rewritten); scans are
  // capped at num_signatures_, so the trailing pages are invisible.  Too few
  // pages means checkpointed signatures are gone — that is corruption.
  if (signature_file->num_pages() < expected_pages) {
    return Status::Corruption(
        "signature file has fewer pages than the recovered count needs");
  }
  SIGSET_RETURN_IF_ERROR(ssf->oid_file_.Recover(num_signatures));
  ssf->num_signatures_ = num_signatures;
  // Rebuild the page-union index exactly: per page, the OR of its *live*
  // signatures and the live count (tombstoned slots' stale bits are dropped
  // here — recovery is the one point where the grow-only union tightens).
  // Like the rest of recovery this scan is setup; stats are reset below.
  {
    std::vector<bool> tombstoned(num_signatures, false);
    for (uint64_t slot : ssf->oid_file_.free_slots()) {
      if (slot < num_signatures) tombstoned[slot] = true;
    }
    Page page;
    BitVector sig(config.f);
    uint64_t slot = 0;
    for (PageId p = 0; p < expected_pages && slot < num_signatures; ++p) {
      SIGSET_RETURN_IF_ERROR(signature_file->Read(p, &page));
      BitVector page_union(config.f);
      uint32_t live = 0;
      for (uint32_t i = 0; i < ssf->sigs_per_page_ && slot < num_signatures;
           ++i, ++slot) {
        if (tombstoned[slot]) continue;
        ExtractBits(page.data(), static_cast<size_t>(i) * config.f, &sig);
        page_union.OrWith(sig);
        ++live;
      }
      ssf->union_index_.SetPage(p, std::move(page_union), live);
    }
  }
  if (num_signatures > 0 && num_signatures % ssf->sigs_per_page_ != 0) {
    // The tail is the page holding slot num_signatures-1, not necessarily the
    // file's last page (a crashed insert may have allocated one past it).
    ssf->tail_page_ = static_cast<PageId>(expected_pages - 1);
    SIGSET_RETURN_IF_ERROR(signature_file->Read(ssf->tail_page_, &ssf->tail_));
  }
  // Recovery I/O is setup, not an experiment cost.
  signature_file->stats().Reset();
  oid_file->stats().Reset();
  return ssf;
}

StatusOr<std::unique_ptr<SequentialSignatureFile>>
SequentialSignatureFile::CreateReadView(const SignatureConfig& config,
                                        PageFile* signature_file,
                                        PageFile* oid_file,
                                        uint64_t num_signatures,
                                        uint64_t num_live) {
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<SequentialSignatureFile> ssf,
                          Create(config, signature_file, oid_file));
  const uint64_t expected_pages =
      (num_signatures + ssf->sigs_per_page_ - 1) / ssf->sigs_per_page_;
  if (signature_file->num_pages() < expected_pages) {
    return Status::Corruption(
        "snapshot signature file has fewer pages than its count needs");
  }
  ssf->num_signatures_ = num_signatures;
  ssf->oid_file_.AttachReadOnly(num_signatures, num_live);
  ssf->paranoid_checks_ = false;
  return ssf;
}

SequentialSignatureFile::SequentialSignatureFile(const SignatureConfig& config,
                                                 PageFile* signature_file,
                                                 PageFile* oid_file)
    : config_(config),
      sigs_per_page_(static_cast<uint32_t>(kPageBits / config.f)),
      signature_file_(signature_file),
      oid_file_(oid_file),
      union_index_(config.f) {}

Status SequentialSignatureFile::CheckSlotSignature(
    uint64_t slot, const ElementSet& set_value) const {
  PageId p = static_cast<PageId>(slot / sigs_per_page_);
  Page page;
  SIGSET_RETURN_IF_ERROR(signature_file_->Read(p, &page));
  BitVector stored(config_.f);
  ExtractBits(page.data(),
              static_cast<size_t>(slot % sigs_per_page_) * config_.f,
              &stored);
  if (!(stored == MakeSetSignature(set_value, config_))) {
    return Status::Internal(
        "stored signature does not match the removed object's set value");
  }
  return Status::OK();
}

Status SequentialSignatureFile::ApplyBatch(const std::vector<BatchOp>& ops) {
  // Removes first, so slots this batch frees are available to its inserts.
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
  if (!remove_oids.empty()) {
    // The dangling signatures stay in their pages, so the page unions keep
    // their bits (upper bound); only the live counts shrink.
    SIGSET_ASSIGN_OR_RETURN(std::vector<uint64_t> slots,
                            oid_file_.MarkDeletedMany(remove_oids));
    for (uint64_t slot : slots) {
      union_index_.OnDelete(slot / sigs_per_page_);
    }
    if (paranoid_checks_) {
      for (size_t i = 0; i < slots.size(); ++i) {
        SIGSET_RETURN_IF_ERROR(
            CheckSlotSignature(slots[i], *remove_sets[i]));
      }
    }
    // A refill rewrites the whole signature, so the slots are reusable at
    // once (this batch's inserts take them first).
    oid_file_.ReleaseSlots(slots);
  }
  if (inserts.empty()) return Status::OK();
  SIGSET_FAILPOINT("ssf.insert");
  // Refill tombstoned slots, most recently freed first: the new signature
  // overwrites the dead one in place (DepositBits writes clear bits too, so
  // no stale bits leak), one signature-page RMW per distinct page, then
  // SetMany publishes the slots with one OID-page RMW per distinct page.
  // A crash between the two leaves the slots tombstoned and invisible;
  // recovery's rescan puts them back on the free list.
  const std::vector<uint64_t> claimed =
      oid_file_.ClaimFreeSlots(inserts.size());
  const size_t reuse = claimed.size();
  if (reuse > 0) {
    std::vector<std::pair<uint64_t, const BatchOp*>> refill;
    refill.reserve(reuse);
    for (size_t i = 0; i < reuse; ++i) {
      refill.emplace_back(claimed[i], inserts[i]);
    }
    std::sort(refill.begin(), refill.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    Page scratch;
    Page* page = nullptr;
    PageId loaded = kInvalidPage;
    for (const auto& [slot, op] : refill) {
      PageId p = static_cast<PageId>(slot / sigs_per_page_);
      if (p != loaded) {
        if (loaded != kInvalidPage) {
          SIGSET_RETURN_IF_ERROR(signature_file_->Write(loaded, *page));
        }
        // The tail page's image is already in memory; it is changed there.
        if (p == tail_page_) {
          page = &tail_;
        } else {
          SIGSET_ASSIGN_OR_RETURN(page, signature_file_->Edit(p, &scratch));
        }
        loaded = p;
      }
      BitVector refill_sig = MakeSetSignature(op->set_value, config_);
      DepositBits(refill_sig, page->data(),
                  static_cast<size_t>(slot % sigs_per_page_) * config_.f);
      union_index_.AddSignature(slot / sigs_per_page_, refill_sig);
    }
    if (loaded != kInvalidPage) {
      SIGSET_RETURN_IF_ERROR(signature_file_->Write(loaded, *page));
    }
    std::vector<std::pair<uint64_t, Oid>> entries;
    entries.reserve(reuse);
    for (const auto& [slot, op] : refill) entries.emplace_back(slot, op->oid);
    SIGSET_RETURN_IF_ERROR(oid_file_.SetMany(entries));
  }
  // Append the rest tail-page-at-a-time: each signature page and each OID
  // page is written once.
  if (reuse < inserts.size()) {
    std::vector<Oid> appended;
    appended.reserve(inserts.size() - reuse);
    uint64_t next_slot = num_signatures_;
    size_t i = reuse;
    while (i < inserts.size()) {
      uint32_t slot_in_page =
          static_cast<uint32_t>(next_slot % sigs_per_page_);
      if (slot_in_page == 0) {
        SIGSET_ASSIGN_OR_RETURN(tail_page_, signature_file_->Allocate());
        tail_.Zero();
      }
      while (i < inserts.size() && slot_in_page < sigs_per_page_) {
        BitVector append_sig = MakeSetSignature(inserts[i]->set_value, config_);
        DepositBits(append_sig, tail_.data(),
                    static_cast<size_t>(slot_in_page) * config_.f);
        union_index_.AddSignature(next_slot / sigs_per_page_, append_sig);
        appended.push_back(inserts[i]->oid);
        ++slot_in_page;
        ++next_slot;
        ++i;
      }
      SIGSET_RETURN_IF_ERROR(signature_file_->Write(tail_page_, tail_));
    }
    SIGSET_ASSIGN_OR_RETURN(uint64_t first_slot,
                            oid_file_.AppendMany(appended));
    if (first_slot != num_signatures_) {
      return Status::Internal("signature/OID slot mismatch in batch append");
    }
    num_signatures_ = next_slot;
  }
  return Status::OK();
}

StatusOr<uint64_t> SequentialSignatureFile::CompactTo(
    PageFile* new_signature_file, PageFile* new_oid_file) const {
  SIGSET_ASSIGN_OR_RETURN(auto live, oid_file_.LiveEntries());
  Page in_page, out_sig, out_oid;
  out_sig.Zero();
  out_oid.Zero();
  PageId loaded = kInvalidPage;
  BitVector sig(config_.f);
  uint64_t dense = 0;
  for (const auto& [slot, oid] : live) {
    // Live slots arrive sorted, so the old signature file is read
    // sequentially, one read per distinct page.
    PageId p = static_cast<PageId>(slot / sigs_per_page_);
    if (p != loaded) {
      SIGSET_RETURN_IF_ERROR(signature_file_->Read(p, &in_page));
      loaded = p;
    }
    ExtractBits(in_page.data(),
                static_cast<size_t>(slot % sigs_per_page_) * config_.f, &sig);
    DepositBits(sig, out_sig.data(),
                static_cast<size_t>(dense % sigs_per_page_) * config_.f);
    out_oid.WriteAt<uint64_t>((dense % kOidsPerPage) * kOidBytes,
                              oid.value());
    ++dense;
    if (dense % sigs_per_page_ == 0) {
      SIGSET_RETURN_IF_ERROR(WriteOrAllocate(
          new_signature_file,
          static_cast<PageId>(dense / sigs_per_page_ - 1), out_sig));
      out_sig.Zero();
    }
    if (dense % kOidsPerPage == 0) {
      SIGSET_RETURN_IF_ERROR(WriteOrAllocate(
          new_oid_file, static_cast<PageId>(dense / kOidsPerPage - 1),
          out_oid));
      out_oid.Zero();
    }
  }
  if (dense % sigs_per_page_ != 0) {
    SIGSET_RETURN_IF_ERROR(WriteOrAllocate(
        new_signature_file, static_cast<PageId>(dense / sigs_per_page_),
        out_sig));
  }
  if (dense % kOidsPerPage != 0) {
    SIGSET_RETURN_IF_ERROR(WriteOrAllocate(
        new_oid_file, static_cast<PageId>(dense / kOidsPerPage), out_oid));
  }
  return dense;
}

StatusOr<std::vector<uint64_t>> SequentialSignatureFile::ScanMatchingSlots(
    const std::function<bool(const BitVector&)>& matches,
    const std::function<bool(PageId)>* skip_page) const {
  std::vector<uint64_t> slots;
  thread_local Page scratch;
  BitVector sig(config_.f);
  uint64_t slot = 0;
  for (PageId p = 0; p < signature_file_->num_pages() && slot < num_signatures_;
       ++p) {
    if (skip_page != nullptr && (*skip_page)(p)) {
      signature_file_->stats().AddSkip();
      slot = std::min<uint64_t>(num_signatures_,
                                (static_cast<uint64_t>(p) + 1) *
                                    sigs_per_page_);
      continue;
    }
    SIGSET_ASSIGN_OR_RETURN(const Page* page,
                            signature_file_->View(p, &scratch));
    for (uint32_t i = 0; i < sigs_per_page_ && slot < num_signatures_;
         ++i, ++slot) {
      ExtractBits(page->data(), static_cast<size_t>(i) * config_.f, &sig);
      if (matches(sig)) slots.push_back(slot);
    }
  }
  return slots;
}

StatusOr<CandidateResult> SequentialSignatureFile::Candidates(
    QueryKind kind, const ElementSet& query,
    const ParallelExecutionContext* /*ctx*/) {
  BitVector query_sig = MakeSetSignature(query, config_);
  std::function<bool(const BitVector&)> matches;
  std::function<bool(PageId)> skip;
  // Skip predicates are per-kind because soundness differs: a page union is
  // an upper bound on every resident signature, so "query ⊄ union" kills
  // superset/equals matches and "no element signature ⊆ union" kills
  // overlap matches; subset matches can only be killed by emptiness
  // (live == 0), since smaller residents match more easily, not less.
  // Pages past the index (none today; defensive) are never skipped.
  auto page_live = [this](PageId p) {
    return p < union_index_.num_pages() ? union_index_.live(p) : 1u;
  };
  switch (kind) {
    case QueryKind::kSuperset:
    case QueryKind::kProperSuperset:  // strictness checked at resolution
      matches = [&](const BitVector& t) {
        return MatchesSuperset(t, query_sig);
      };
      if (skip_enabled_) {
        skip = [this, &query_sig, page_live](PageId p) {
          if (page_live(p) == 0) return true;
          return p < union_index_.num_pages() &&
                 !KernelIsSubsetOf(query_sig, union_index_.page_union(p));
        };
      }
      break;
    case QueryKind::kSubset:
    case QueryKind::kProperSubset:  // strictness checked at resolution
      matches = [&](const BitVector& t) { return MatchesSubset(t, query_sig); };
      if (skip_enabled_) {
        skip = [page_live](PageId p) { return page_live(p) == 0; };
      }
      break;
    case QueryKind::kEquals:
      matches = [&](const BitVector& t) { return MatchesEquals(t, query_sig); };
      if (skip_enabled_) {
        // Equal signatures are in particular covered by the page union, so
        // the superset predicate applies unchanged.
        skip = [this, &query_sig, page_live](PageId p) {
          if (page_live(p) == 0) return true;
          return p < union_index_.num_pages() &&
                 !KernelIsSubsetOf(query_sig, union_index_.page_union(p));
        };
      }
      break;
    case QueryKind::kOverlaps: {
      // T ∩ Q ≠ ∅ ⟹ some element signature of Q is covered by the target
      // signature, so testing coverage per query element is a complete
      // filter (extension; paper §6 future work).  The coverage test is the
      // early-exit ContainsAll kernel — the SSF scan's inner loop.
      std::vector<BitVector> element_sigs;
      element_sigs.reserve(query.size());
      for (uint64_t e : query) {
        element_sigs.push_back(MakeElementSignature(e, config_));
      }
      if (skip_enabled_) {
        skip = [this, element_sigs, page_live](PageId p) {
          if (page_live(p) == 0) return true;
          if (p >= union_index_.num_pages()) return false;
          for (const BitVector& es : element_sigs) {
            if (KernelIsSubsetOf(es, union_index_.page_union(p))) return false;
          }
          return true;
        };
      }
      matches = [element_sigs = std::move(element_sigs)](const BitVector& t) {
        for (const BitVector& es : element_sigs) {
          if (KernelIsSubsetOf(es, t)) return true;
        }
        return false;
      };
      break;
    }
  }
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<uint64_t> slots,
      ScanMatchingSlots(matches, skip ? &skip : nullptr));
  CandidateResult result;
  result.exact = false;
  SIGSET_ASSIGN_OR_RETURN(result.oids, oid_file_.GetMany(slots));
  return result;
}

uint64_t SequentialSignatureFile::StoragePages() const {
  return static_cast<uint64_t>(signature_file_->num_pages()) +
         oid_file_.num_pages();
}

}  // namespace sigsetdb
