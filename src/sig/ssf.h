// Sequential Signature File (paper §4.1).
//
// The simplest signature organization: set signatures are stored
// sequentially, ⌊P·b/F⌋ per page, with a parallel OID file mapping signature
// slot i to the i-th object's OID.  Every query scans the whole signature
// file (SC_SIG pages), which is why the paper finds SSF dominated by BSSF in
// retrieval cost, while its insertion cost (2 page accesses) is the lowest.

#ifndef SIGSET_SIG_SSF_H_
#define SIGSET_SIG_SSF_H_

#include <functional>
#include <memory>

#include "obj/oid_file.h"
#include "sig/facility.h"
#include "sig/signature.h"
#include "sig/skip_index.h"
#include "storage/page_file.h"

namespace sigsetdb {

// Sequential signature file over one indexed set attribute.
class SequentialSignatureFile : public SetAccessFacility {
 public:
  // Neither file is owned; both must be empty on first use and outlive the
  // facility.
  static StatusOr<std::unique_ptr<SequentialSignatureFile>> Create(
      const SignatureConfig& config, PageFile* signature_file,
      PageFile* oid_file);

  // Reopens a facility over previously populated files (e.g. after a
  // restart of a disk-backed StorageManager).  `num_signatures` comes from
  // the manifest written by SetIndex::Checkpoint().
  static StatusOr<std::unique_ptr<SequentialSignatureFile>>
  CreateFromExisting(const SignatureConfig& config, PageFile* signature_file,
                     PageFile* oid_file, uint64_t num_signatures);

  // Lightweight read-only view over fixed-epoch snapshot files: no recovery
  // scan, no free-list/tail/union rebuild, no stats reset (the counters come
  // from the SnapshotState published with the epoch).  Only the query
  // surface (Candidates/ScanMatchingSlots/ResolveSlots) may be used; the
  // skip index stays disabled because its summaries are not rebuilt.
  static StatusOr<std::unique_ptr<SequentialSignatureFile>> CreateReadView(
      const SignatureConfig& config, PageFile* signature_file,
      PageFile* oid_file, uint64_t num_signatures, uint64_t num_live);

  const std::string& name() const override { return name_; }

  // The write path.  Removes set their delete flags with one OID-file scan
  // (one remove: expected SC_OID/2 page reads plus one write, the paper's
  // UC_D); each dangling signature remains, is filtered by the OID lookup,
  // and its slot joins the free list.  With paranoid checks on, the stored
  // signature at each tombstoned slot must match the remove's set value
  // (corruption tripwire).  Inserts first refill tombstoned slots in place
  // (DepositBits writes both set and clear bits), so deleted space is
  // recycled rather than scanned forever: one read-modify-write per
  // distinct signature page (none for the in-memory tail page) and per OID
  // page.  The rest are appended tail-page-at-a-time: ⌈n/sigs_per_page⌉ +
  // ⌈n/O_d⌉ writes for n appends, so one insert costs 2 page writes, the
  // paper's UC_I = 2.
  Status ApplyBatch(const std::vector<BatchOp>& ops) override;

  // Rewrites the live signatures and OID entries densely into the target
  // files (slot order preserved, tombstones dropped) and returns the live
  // count.  Target files may hold stale pages from a crashed earlier
  // attempt — pages are overwritten, not appended — so compaction is safe
  // to retry against the same generation files.  The caller swaps the new
  // files in via CreateFromExisting + checkpoint.
  StatusOr<uint64_t> CompactTo(PageFile* new_signature_file,
                               PageFile* new_oid_file) const;

  using SetAccessFacility::Candidates;
  // Serial only: the context is ignored.
  StatusOr<CandidateResult> Candidates(
      QueryKind kind, const ElementSet& query,
      const ParallelExecutionContext* ctx) override;

  // SC = SC_SIG + SC_OID.
  uint64_t StoragePages() const override;

  // Tracing: {"signature scan", sig-file stats}, {"oid lookup", oid stats}.
  std::vector<std::pair<std::string, IoStats>> StageStats() const override {
    return {{"signature scan", signature_file_->stats()},
            {"oid lookup", oid_file_.stats()}};
  }

  // --- lower-level API used by tests and the smart strategies ---

  // Scans the signature file and returns the slots whose signature satisfies
  // `matches` (costs exactly SC_SIG page reads).  A non-null `skip_page`
  // lets the caller prove whole pages irrelevant before the read: a page for
  // which it returns true is charged to pages_skipped instead of page_reads
  // and none of its slots are tested.
  StatusOr<std::vector<uint64_t>> ScanMatchingSlots(
      const std::function<bool(const BitVector&)>& matches,
      const std::function<bool(PageId)>* skip_page = nullptr) const;

  // Resolves slots (sorted) to OIDs via the OID file.
  StatusOr<std::vector<Oid>> ResolveSlots(
      const std::vector<uint64_t>& slots) const {
    return oid_file_.GetMany(slots);
  }

  uint64_t num_signatures() const { return num_signatures_; }
  // Signatures not tombstoned (the model's live population after deletes).
  uint64_t num_live() const { return oid_file_.num_live(); }
  uint32_t signatures_per_page() const { return sigs_per_page_; }
  const SignatureConfig& config() const { return config_; }

  // Enables/disables the removes' signature-match tripwire (defaults to on
  // in debug builds, off under NDEBUG).
  void set_paranoid_checks(bool on) { paranoid_checks_ = on; }

  // Pages of the signature file alone (the paper's SC_SIG).
  uint64_t SignaturePages() const { return signature_file_->num_pages(); }

  // Whether Candidates() consults the page-union skip index (unions are
  // always maintained; only consultation is switched).  Off by default so
  // page-access totals are bit-identical to the pre-skip-index behaviour.
  // When on: superset/equals scans skip pages whose union does not cover
  // the query signature, overlap scans skip pages whose union covers no
  // element signature, and every scan skips pages with zero live slots.
  void set_skip_index_enabled(bool on) { skip_enabled_ = on; }
  bool skip_index_enabled() const { return skip_enabled_; }
  const PageUnionIndex& union_index() const { return union_index_; }

 private:
  SequentialSignatureFile(const SignatureConfig& config,
                          PageFile* signature_file, PageFile* oid_file);

  // Tripwire: extract the signature stored at `slot` and compare it with
  // the signature of `set_value`.
  Status CheckSlotSignature(uint64_t slot, const ElementSet& set_value) const;

  std::string name_ = "ssf";
  SignatureConfig config_;
  uint32_t sigs_per_page_;
  PageFile* signature_file_;
  OidFile oid_file_;
  uint64_t num_signatures_ = 0;
  // In-memory image of the tail signature page (appender buffer, so that an
  // insert costs one signature-page write, matching the model).
  Page tail_;
  PageId tail_page_ = kInvalidPage;
  // Per-page signature unions + live counts; maintained by every write path
  // (grow-only across deletes/slot reuse, so always an upper bound) and
  // rebuilt exactly by CreateFromExisting's recovery scan.
  PageUnionIndex union_index_;
  bool skip_enabled_ = false;
  bool paranoid_checks_ =
#ifndef NDEBUG
      true;
#else
      false;
#endif
};

}  // namespace sigsetdb

#endif  // SIGSET_SIG_SSF_H_
