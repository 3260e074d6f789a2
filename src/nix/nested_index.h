// NestedIndex (NIX): the paper's baseline access facility (§4.3).
//
// A B-tree maps each set-element value to the OIDs of the objects whose
// indexed set attribute contains it.  Query evaluation:
//
//   T ⊇ Q: look up every query element (rc·Dq page reads) and intersect the
//          OID lists — the result is exact, no resolution needed;
//   T ⊆ Q: look up every query element and union the OID lists — every
//          object sharing at least one element with Q is a candidate and
//          must be resolved against the stored set.
//
// The smart strategy of §5.1.3 intersects the postings of just two query
// elements and resolves the (small) remainder, capping the index cost at
// 2·rc for any Dq ≥ 2.
//
// Empty stored sets.  An object whose set value is ∅ writes no postings, so
// no tree lookup can ever surface it — yet ∅ ⊆ Q holds for every query
// (queries are validated non-empty at the SetIndex boundary).  The index
// therefore tracks empty-set OIDs in an explicit roster, persisted as the
// posting list of the reserved key kEmptySetKey = UINT64_MAX (it sorts
// after every real element value, so bulk loads stay ordered) and mirrored
// in memory at open, so consulting it at query time costs zero page reads
// and the paper-pinned rc·Dq counts are unchanged.  Semantics, shared by
// every facility (the SSF/BSSF get them for free — an all-zero signature
// passes the T ⊆ Q slice test and resolution confirms):
//
//   kSubset / kProperSubset   ∅ matches every (non-empty) query
//   kSuperset / kProperSuperset / kOverlaps / kEquals
//                             ∅ matches nothing, because each requires at
//                             least one shared element with Q (kEquals
//                             would need Q = ∅, which is rejected)
//
// Element value UINT64_MAX is reserved: inserts carrying it are refused,
// and query lookups of it read the tree but discard the postings (the
// descent is still charged, keeping costs uniform).

#ifndef SIGSET_NIX_NESTED_INDEX_H_
#define SIGSET_NIX_NESTED_INDEX_H_

#include <memory>

#include "nix/btree.h"
#include "sig/facility.h"

namespace sigsetdb {

// Reserved B-tree key whose posting list is the empty-set OID roster.
inline constexpr uint64_t kEmptySetKey = ~uint64_t{0};

// Nested index over one indexed set attribute.
class NestedIndex : public SetAccessFacility {
 public:
  // `file` is not owned and must be empty.
  static StatusOr<std::unique_ptr<NestedIndex>> Create(
      PageFile* file, uint32_t max_fanout = kPaperFanout);

  // Discards any existing tree in `file` and starts empty (WAL recovery
  // rebuilds via BulkBuild from the replayed object store).
  static StatusOr<std::unique_ptr<NestedIndex>> CreateResetting(
      PageFile* file, uint32_t max_fanout = kPaperFanout);

  // Reopens an index over a previously populated file (metadata from the
  // manifest written by SetIndex::Checkpoint()).
  static StatusOr<std::unique_ptr<NestedIndex>> CreateFromExisting(
      PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
      uint64_t leaf_pages, uint64_t internal_pages,
      uint64_t overflow_pages = 0);

  // An index over a snapshot's fixed-epoch view of a published shape:
  // BTree::CreateReadView's root check plus the ∅-roster lookup, about
  // height + 2 reads, instead of the recovery walk.
  static StatusOr<std::unique_ptr<NestedIndex>> CreateReadView(
      PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
      uint64_t leaf_pages, uint64_t internal_pages, uint64_t overflow_pages);

  const std::string& name() const override { return name_; }

  // The write path: aggregates the batch's posting adds/removes per
  // element value, then descends the B-tree once per DISTINCT key in sorted
  // order (BTree::Apply), so posting-list writes are coalesced per key and
  // splits amortize — the batched K·rc cost instead of n·Dt·rc.  One
  // insert or remove changes one posting per set element: the model's
  // UC_I = UC_D = rc·Dt.
  Status ApplyBatch(const std::vector<BatchOp>& ops) override;

  // The kInvalidArgument ApplyBatch returns for a normalized set holding
  // the reserved element kEmptySetKey, or OK; reads no page, so a caller
  // can check a batch whole before its first write.
  static Status CheckNoReservedElement(const ElementSet& set_value);

  using SetAccessFacility::Candidates;
  // Serial only: the context is ignored.
  StatusOr<CandidateResult> Candidates(
      QueryKind kind, const ElementSet& query,
      const ParallelExecutionContext* ctx) override;

  // SC = lp + nlp.
  uint64_t StoragePages() const override { return tree_->total_pages(); }

  // Tracing: the whole index is one file (descents + postings together).
  std::vector<std::pair<std::string, IoStats>> StageStats() const override {
    return {{"btree descent", tree_->file().stats()}};
  }

  // Smart T ⊇ Q (paper §5.1.3): intersect the postings of only
  // min(use_elements, Dq) query elements; the result is exact only when all
  // elements were used.
  StatusOr<CandidateResult> CandidatesSmartSuperset(const ElementSet& query,
                                                    size_t use_elements);

  // Bulk-builds the index from the full database: `sets[i]` is the set
  // value of the object with OID `oids[i]`.  Produces the packed tree the
  // paper's storage formulas assume (Table 5).
  Status BulkBuild(const std::vector<Oid>& oids,
                   const std::vector<ElementSet>& sets);

  const BTree& tree() const { return *tree_; }
  BTree& mutable_tree() { return *tree_; }

  // The in-memory mirror of the empty-set roster, ascending (tests).
  const std::vector<Oid>& empty_set_oids() const { return empty_oids_; }

 private:
  explicit NestedIndex(std::unique_ptr<BTree> tree) : tree_(std::move(tree)) {}

  // Wraps `tree`, reopened over `file`, and loads the persisted ∅ roster.
  static StatusOr<std::unique_ptr<NestedIndex>> Reopen(
      PageFile* file, StatusOr<std::unique_ptr<BTree>> tree);

  // Roster mirror maintenance (the tree-side sentinel entry is written by
  // the caller); keeps empty_oids_ sorted.
  void RosterAdd(Oid oid);
  void RosterRemove(Oid oid);

  std::string name_ = "nix";
  std::unique_ptr<BTree> tree_;
  std::vector<Oid> empty_oids_;
};

}  // namespace sigsetdb

#endif  // SIGSET_NIX_NESTED_INDEX_H_
