// Bit-Sliced Signature File (paper §4.2).
//
// Signatures are stored column-wise: slice j holds bit j of every stored
// signature, so a query touches only the slices its search condition needs —
//   T ⊇ Q: the m_q slices where the query signature is 1 (AND-combined;
//          candidates are slots whose accumulated bit stays 1);
//   T ⊆ Q: the F − m_q slices where the query signature is 0 (OR-combined;
//          candidates are slots whose accumulated bit stays 0).
//
// Smart retrieval (paper §5.1.3 and §5.2.2) is exposed through two knobs:
// building the query signature from only k query elements (superset
// queries), and scanning only s of the zero slices (subset queries).  Both
// keep completeness — they can only increase the number of candidates.
//
// Inserts support the paper's worst-case mode (touch all F slices, giving
// UC_I = F + 1) and a sparse mode that writes only the m_t one-bit slices,
// realizing the improvement the paper anticipates in §6.  Sparse writes
// rest on one invariant: a free slot's column is all-zero (see ApplyBatch
// and CreateFromExisting).
//
// Slice scans optionally parallelize over a ParallelExecutionContext: the
// needed slices are partitioned into contiguous chunks, each worker AND/OR-
// combines its chunk into a private accumulator bitmap through a private
// IoStats, and the accumulators (and stats) are merged on join.  Every slice
// page is still read exactly once, so the logical page-access totals — the
// paper's metric — are identical to the serial scan.

#ifndef SIGSET_SIG_BSSF_H_
#define SIGSET_SIG_BSSF_H_

#include <limits>
#include <memory>

#include "obj/oid_file.h"
#include "sig/facility.h"
#include "sig/hot_tier.h"
#include "sig/signature.h"
#include "sig/skip_index.h"
#include "storage/page_file.h"

namespace sigsetdb {

// How an append touches the slice store.
enum class BssfInsertMode {
  // Read-modify-write every one of the F slices (paper's worst case).
  kTouchAllSlices,
  // Touch only the slices where the new signature has a 1 bit (every
  // insert lands on an all-zero column, so skipping zero slices is
  // lossless).
  kSparse,
};

// Bit-sliced signature file over one indexed set attribute.
class BitSlicedSignatureFile : public SetAccessFacility {
 public:
  // `capacity` is the maximum number of signatures the slice store can hold;
  // slices are pre-allocated (F · ⌈capacity/(P·b)⌉ pages, all zero).
  // Neither file is owned.
  static StatusOr<std::unique_ptr<BitSlicedSignatureFile>> Create(
      const SignatureConfig& config, uint64_t capacity, PageFile* slice_file,
      PageFile* oid_file,
      BssfInsertMode insert_mode = BssfInsertMode::kTouchAllSlices);

  // Reopens a facility over previously populated files; `num_signatures`
  // comes from the manifest written by SetIndex::Checkpoint().  The open
  // scan reads every slice page and zeroes the columns of every slot that
  // is not live — tombstoned slots and slots at or above `num_signatures`
  // — so stray bits from a crash mid-remove or from an append the
  // checkpoint does not count cannot reach a later sparse insert.  Only
  // pages that change are written; a cleanly closed store writes none.
  static StatusOr<std::unique_ptr<BitSlicedSignatureFile>>
  CreateFromExisting(const SignatureConfig& config, uint64_t capacity,
                     PageFile* slice_file, PageFile* oid_file,
                     BssfInsertMode insert_mode, uint64_t num_signatures);

  // Lightweight read-only view over fixed-epoch snapshot files: no recovery
  // scan, no skip-summary rebuild, no stats reset (counters come from the
  // SnapshotState published with the epoch).  Only the query surface may be
  // used; the skip index stays disabled because its summaries are empty.
  static StatusOr<std::unique_ptr<BitSlicedSignatureFile>> CreateReadView(
      const SignatureConfig& config, uint64_t capacity, PageFile* slice_file,
      PageFile* oid_file, uint64_t num_signatures, uint64_t num_live);

  const std::string& name() const override { return name_; }

  // The write path.  Each dirty slice page is edited (PageFile::Edit) and
  // written once for the whole batch, in page order, combining:
  //   - removes: the OID entries are tombstoned first (the commit point),
  //     then the signatures' set bits are cleared, returning each column to
  //     all-zero.  A removed slot joins the free list only after those
  //     clears are written; if a clear fails, the slot stays tombstoned and
  //     off the list until the next open scan zeroes it;
  //   - inserts, into this batch's removed slots, then the free list's
  //     most recently freed slots, then fresh slots off the high-water
  //     mark: in kSparse mode the m_t one-bit slices (m_t + 1 pages for one
  //     insert, reused slot or not), in kTouchAllSlices mode all F slices
  //     (the paper's F + 1, charged per batch instead of per insert).
  //     Free-list slots are claimed before the first write, so no failure
  //     can leave a listed slot with bits set.
  Status ApplyBatch(const std::vector<BatchOp>& ops) override;

  // The kOutOfRange ApplyBatch returns for a batch of `removes` removes
  // and `inserts` inserts that needs more fresh slots than the capacity
  // has left, or OK; reads no page, so a caller can check a batch whole
  // before its first write.
  Status CheckCapacity(size_t removes, size_t inserts) const;

  // Re-slots the live columns densely into the target files (slot order
  // preserved) and returns the live count.  Writes every slice page of the
  // target store — CreateFromExisting demands the exact page count — so a
  // crashed earlier attempt's leftovers are overwritten, making compaction
  // retryable against the same generation files.
  StatusOr<uint64_t> CompactTo(PageFile* new_slice_file,
                               PageFile* new_oid_file) const;

  using SetAccessFacility::Candidates;
  // Parallel candidate selection: slice scans fan out over `ctx` (serial
  // when null).  Same candidates and logical page-access totals.
  StatusOr<CandidateResult> Candidates(
      QueryKind kind, const ElementSet& query,
      const ParallelExecutionContext* ctx) override;
  uint64_t StoragePages() const override;

  // Tracing: {"slice scan", slice-file stats}, {"oid lookup", oid stats}.
  std::vector<std::pair<std::string, IoStats>> StageStats() const override {
    return {{"slice scan", slice_file_->stats()},
            {"oid lookup", oid_file_.stats()}};
  }

  // Bulk-builds the slice store from the full database (one pass over the
  // sets, one write per slice page, one write per OID page) — the
  // experiment-setup path used by the paper-scale benchmarks.  Requires an
  // empty facility; `sets[i]` is the set value of `oids[i]`.  Setup I/O is
  // excluded from the access counters.
  Status BulkLoad(const std::vector<Oid>& oids,
                  const std::vector<ElementSet>& sets);

  // --- smart-retrieval and measurement API ---

  // Slots whose signature covers `query_sig` (T ⊇ Q condition).  Reads one
  // slice per set bit of `query_sig`.  Callers implement the smart k-element
  // strategy by passing MakePartialQuerySignature(...).  A non-null `ctx`
  // partitions the slices across its pool.
  StatusOr<std::vector<uint64_t>> SupersetCandidateSlots(
      const BitVector& query_sig,
      const ParallelExecutionContext* ctx = nullptr) const;

  // Slots whose signature is covered by `query_sig` (T ⊆ Q condition),
  // scanning at most `max_slices` of the zero slices (the paper's partial
  // slice scan; default scans them all).  A non-null `ctx` partitions the
  // scanned slices across its pool.
  StatusOr<std::vector<uint64_t>> SubsetCandidateSlots(
      const BitVector& query_sig,
      size_t max_slices = std::numeric_limits<size_t>::max(),
      const ParallelExecutionContext* ctx = nullptr) const;

  // Slots whose signature equals `query_sig` (set-equality prefilter,
  // extension).  Reads all F slices; a non-null `ctx` partitions them.
  StatusOr<std::vector<uint64_t>> EqualsCandidateSlots(
      const BitVector& query_sig,
      const ParallelExecutionContext* ctx = nullptr) const;

  StatusOr<std::vector<Oid>> ResolveSlots(
      const std::vector<uint64_t>& slots) const {
    return oid_file_.GetMany(slots);
  }

  uint64_t num_signatures() const { return num_signatures_; }
  // Signatures not tombstoned (the model's live population after deletes).
  uint64_t num_live() const { return oid_file_.num_live(); }
  // Tombstoned slots whose all-zero columns the next inserts may reuse.
  const std::vector<uint64_t>& free_slots() const {
    return oid_file_.free_slots();
  }
  uint64_t capacity() const { return capacity_; }
  const SignatureConfig& config() const { return config_; }

  // Pages per bit slice — the paper's ⌈N/(P·b)⌉ term (1 for N = 32,000).
  uint32_t pages_per_slice() const { return pages_per_slice_; }

  // Pages of the slice store alone (= F · pages_per_slice()).
  uint64_t SlicePages() const { return slice_file_->num_pages(); }

  // Whether scans consult the slice-page skip index (summaries are always
  // maintained; only consultation is switched).  Off by default so page-
  // access totals are bit-identical to the pre-skip-index behaviour.  When
  // on, AND-combines skip provably dead page columns and OR-combines skip
  // empty pages; each avoided read is charged to the slice file's
  // pages_skipped counter instead of page_reads.
  void set_skip_index_enabled(bool on) { skip_enabled_ = on; }
  bool skip_index_enabled() const { return skip_enabled_; }
  const SliceSkipIndex& skip_index() const { return skip_index_; }

  // Whether scans consult the pinned hot-slice tier (copies are kept
  // coherent by the write paths either way; only consultation and admission
  // are switched).  Off by default so every slice access still reaches the
  // page file and access totals stay bit-identical to the pre-tier
  // behaviour.  When on, a scan read of a pinned page is served from the
  // in-memory copy and charged to pages_hot instead of page_reads — so
  // reads(on) + hots(on) == reads(off) for any query stream.
  void set_hot_tier_enabled(bool on) { hot_enabled_ = on; }
  bool hot_tier_enabled() const { return hot_enabled_; }
  void set_hot_tier_capacity(size_t pages) { hot_tier_.set_capacity(pages); }
  const HotSliceTier& hot_tier() const { return hot_tier_; }

 private:
  BitSlicedSignatureFile(const SignatureConfig& config, uint64_t capacity,
                         PageFile* slice_file, PageFile* oid_file,
                         BssfInsertMode insert_mode);

  // Slots off the high-water mark that `inserts` inserts take once this
  // batch's `removes` freed slots and the free list are reused.
  uint64_t FreshSlots(size_t removes, size_t inserts) const;

  // One column an ApplyBatch changes: its slot and the signature whose
  // set bits it clears (a remove) or sets (an insert).
  struct BatchColumn {
    uint64_t slot;
    BitVector sig;
  };

  // The bit changes of `columns`, whose first `removes` are removes, as
  // page << 32 | bit-in-page << 1 | value, grouped by page in ascending
  // page order and, within a page, in the ops' order (so a remove's clear
  // comes before a reuse's set).
  std::vector<uint64_t> PageOrderedChanges(
      const std::vector<BatchColumn>& columns, size_t removes) const;

  // Reads slice `slice` and combines it into `acc` (num bits =
  // num_signatures): AND when `and_combine`, OR otherwise.  Page reads are
  // charged to `*io` (a worker-local IoStats on the parallel path).  With
  // the skip index enabled, AND-combines skip pages in `*dead_columns`
  // (callers zero the accumulator ranges afterwards via ApplyDeadColumns)
  // and OR-combines skip pages whose summary is empty; skipped pages are
  // charged to io->pages_skipped.
  Status CombineSlice(uint32_t slice, bool and_combine, BitVector* acc,
                      IoStats* io,
                      const std::vector<bool>* dead_columns = nullptr) const;

  // Combines `slices[begin..end)` serially into `acc` through `io`.
  Status CombineSliceRange(const std::vector<uint32_t>& slices,
                           size_t begin, size_t end, bool and_combine,
                           BitVector* acc, IoStats* io,
                           const std::vector<bool>* dead_columns =
                               nullptr) const;

  // Skip planning for an AND-combine over `slices`: the dead-column set
  // sized to `acc`'s page span, or an empty vector when the skip index is
  // off (callers treat empty as "no skipping").
  std::vector<bool> PlanDeadColumns(const std::vector<uint32_t>& slices,
                                    const BitVector& acc) const;

  // Zeroes acc's words for every dead column — the AND result the skipped
  // reads would have produced (each dead group is zeroed by some scanned
  // slice, so the column's AND is provably zero).
  static void ApplyDeadColumns(const std::vector<bool>& dead_columns,
                               BitVector* acc);

  // AND/OR-combines all of `slices` into `*acc`, fanning out over `ctx`
  // when it is parallel: each worker combines a contiguous chunk into a
  // private accumulator, then accumulators are AND/OR-merged in worker
  // order and worker-local stats are added to the slice file's counters.
  Status CombineSlicesParallel(const std::vector<uint32_t>& slices,
                               bool and_combine, BitVector* acc,
                               const ParallelExecutionContext* ctx) const;

  // Union of per-element superset filters for T ∩ Q ≠ ∅, fanned out over
  // the query elements.
  StatusOr<std::vector<uint64_t>> OverlapCandidateSlots(
      const ElementSet& query, const ParallelExecutionContext* ctx) const;

  std::string name_ = "bssf";
  SignatureConfig config_;
  uint64_t capacity_;
  uint32_t pages_per_slice_;
  PageFile* slice_file_;
  OidFile oid_file_;
  BssfInsertMode insert_mode_;
  uint64_t num_signatures_ = 0;
  // Per-slice-page summaries; maintained by every write path (the writer
  // always holds the page image, so updates are exact and I/O-free) and
  // rebuilt by CreateFromExisting's recovery scan.
  SliceSkipIndex skip_index_;
  bool skip_enabled_ = false;
  // Pinned copies of the hottest slice pages; mutable because the scan path
  // (const) both counts accesses and admits — see sig/hot_tier.h for the
  // concurrency discipline.
  mutable HotSliceTier hot_tier_;
  bool hot_enabled_ = false;
};

}  // namespace sigsetdb

#endif  // SIGSET_SIG_BSSF_H_
