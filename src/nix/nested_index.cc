#include "nix/nested_index.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <queue>

#include "sig/kernels.h"

namespace sigsetdb {

namespace {

// The intersection kernels run on raw uint64_t views of OID vectors; the
// casts below are only sound while an Oid is exactly its 8-byte value.
static_assert(sizeof(Oid) == sizeof(uint64_t));
static_assert(alignof(Oid) == alignof(uint64_t));

const uint64_t* OidWords(const std::vector<Oid>& v) {
  return reinterpret_cast<const uint64_t*>(v.data());
}

// acc ∩= postings through the dispatched kernel (smallest-list-first
// callers keep |acc| <= |postings|, but the kernel handles either order).
void IntersectInto(std::vector<Oid>* acc, const std::vector<Oid>& postings) {
  std::vector<Oid> out(std::min(acc->size(), postings.size()));
  const size_t count = KernelIntersectU64(
      OidWords(*acc), acc->size(), OidWords(postings), postings.size(),
      reinterpret_cast<uint64_t*>(out.data()));
  out.resize(count);
  *acc = std::move(out);
}

}  // namespace

Status NestedIndex::CheckNoReservedElement(const ElementSet& set_value) {
  if (!set_value.empty() && set_value.back() == kEmptySetKey) {
    return Status::InvalidArgument(
        "element value UINT64_MAX is reserved for the empty-set roster");
  }
  return Status::OK();
}

StatusOr<std::unique_ptr<NestedIndex>> NestedIndex::Create(
    PageFile* file, uint32_t max_fanout) {
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                          BTree::Create(file, max_fanout));
  return std::unique_ptr<NestedIndex>(new NestedIndex(std::move(tree)));
}

StatusOr<std::unique_ptr<NestedIndex>> NestedIndex::CreateResetting(
    PageFile* file, uint32_t max_fanout) {
  SIGSET_ASSIGN_OR_RETURN(std::unique_ptr<BTree> tree,
                          BTree::CreateResetting(file, max_fanout));
  return std::unique_ptr<NestedIndex>(new NestedIndex(std::move(tree)));
}

StatusOr<std::unique_ptr<NestedIndex>> NestedIndex::CreateFromExisting(
    PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
    uint64_t leaf_pages, uint64_t internal_pages, uint64_t overflow_pages) {
  return Reopen(file, BTree::CreateFromExisting(file, max_fanout, root,
                                                height, leaf_pages,
                                                internal_pages,
                                                overflow_pages));
}

StatusOr<std::unique_ptr<NestedIndex>> NestedIndex::CreateReadView(
    PageFile* file, uint32_t max_fanout, PageId root, uint32_t height,
    uint64_t leaf_pages, uint64_t internal_pages, uint64_t overflow_pages) {
  return Reopen(file, BTree::CreateReadView(file, max_fanout, root, height,
                                            leaf_pages, internal_pages,
                                            overflow_pages));
}

StatusOr<std::unique_ptr<NestedIndex>> NestedIndex::Reopen(
    PageFile* file, StatusOr<std::unique_ptr<BTree>> tree) {
  SIGSET_RETURN_IF_ERROR(tree.status());
  std::unique_ptr<NestedIndex> index(new NestedIndex(std::move(tree).value()));
  // Load the persisted empty-set roster into the in-memory mirror once, at
  // open — query-time consultation is then I/O-free, so the paper-pinned
  // rc·Dq lookup counts are untouched.  This read is setup, like the
  // tree's open checks; reset the counters afterwards.
  SIGSET_ASSIGN_OR_RETURN(index->empty_oids_,
                          index->tree_->Lookup(kEmptySetKey));
  file->stats().Reset();
  return index;
}

void NestedIndex::RosterAdd(Oid oid) {
  auto it = std::lower_bound(empty_oids_.begin(), empty_oids_.end(), oid);
  if (it == empty_oids_.end() || *it != oid) empty_oids_.insert(it, oid);
}

void NestedIndex::RosterRemove(Oid oid) {
  auto it = std::lower_bound(empty_oids_.begin(), empty_oids_.end(), oid);
  if (it != empty_oids_.end() && *it == oid) empty_oids_.erase(it);
}

Status NestedIndex::ApplyBatch(const std::vector<BatchOp>& ops) {
  // One posting change per (op, element), ∅ sets changing the roster's
  // sentinel key instead.  Sorting by key walks the tree left to right (the
  // sentinel sorts last) and groups each key's changes for one descent.
  // The list is sized up front and sorted in place, with no sort buffer,
  // because a large batch's transient allocations count in peak RSS.
  struct PostingChange {
    uint64_t key;
    Oid oid;
    bool remove;
  };
  size_t count = 0;
  for (const BatchOp& op : ops) {
    count += std::max<size_t>(op.set_value.size(), 1);
  }
  std::vector<PostingChange> changes;
  changes.reserve(count);
  for (const BatchOp& op : ops) {
    SIGSET_RETURN_IF_ERROR(CheckNoReservedElement(op.set_value));
    const bool remove = op.kind == BatchOp::Kind::kRemove;
    if (op.set_value.empty()) {
      changes.push_back(PostingChange{kEmptySetKey, op.oid, remove});
    }
    for (uint64_t element : op.set_value) {
      changes.push_back(PostingChange{element, op.oid, remove});
    }
  }
  std::sort(changes.begin(), changes.end(),
            [](const PostingChange& a, const PostingChange& b) {
              return a.key != b.key ? a.key < b.key : a.oid < b.oid;
            });
  std::vector<Oid> adds;
  std::vector<Oid> removes;
  for (size_t begin = 0; begin < changes.size();) {
    const uint64_t key = changes[begin].key;
    adds.clear();
    removes.clear();
    size_t end = begin;
    for (; end < changes.size() && changes[end].key == key; ++end) {
      (changes[end].remove ? removes : adds).push_back(changes[end].oid);
    }
    SIGSET_RETURN_IF_ERROR(tree_->Apply(key, adds, removes));
    if (key == kEmptySetKey) {
      for (Oid oid : removes) RosterRemove(oid);
      for (Oid oid : adds) RosterAdd(oid);
    }
    begin = end;
  }
  return Status::OK();
}

StatusOr<CandidateResult> NestedIndex::CandidatesSmartSuperset(
    const ElementSet& query, size_t use_elements) {
  size_t n = std::min(use_elements, query.size());
  if (n == 0) {
    return Status::InvalidArgument("superset query needs >= 1 element");
  }
  // Phase 1: look up every used element in the original query order, so the
  // I/O pattern (and the paper's rc·Dq charge) is exactly what it always
  // was.  No early exit on an empty intersection for the same reason.
  std::vector<std::vector<Oid>> lists;
  SIGSET_RETURN_IF_ERROR(tree_->LookupMany({query.data(), n}, &lists));
  for (size_t i = 0; i < n; ++i) {
    // A query naming the reserved value must not see the roster as if it
    // were a posting list; its descent above keeps the cost uniform.
    if (query[i] == kEmptySetKey) lists[i].clear();
    assert(std::is_sorted(lists[i].begin(), lists[i].end()) &&
           "BTree::LookupMany must return sorted postings");
  }
  // Phase 2: intersect smallest-list-first — every kernel pass then runs
  // with the shortest possible accumulator, which is where the galloping /
  // SIMD paths earn their keep.  Pure CPU; page reads already happened.
  std::sort(lists.begin(), lists.end(),
            [](const std::vector<Oid>& a, const std::vector<Oid>& b) {
              return a.size() < b.size();
            });
  CandidateResult result;
  result.oids = std::move(lists.front());
  for (size_t i = 1; i < lists.size(); ++i) {
    IntersectInto(&result.oids, lists[i]);
  }
  result.exact = (n == query.size());
  return result;
}

StatusOr<CandidateResult> NestedIndex::Candidates(
    QueryKind kind, const ElementSet& query,
    const ParallelExecutionContext* /*ctx*/) {
  switch (kind) {
    case QueryKind::kSuperset:
      return CandidatesSmartSuperset(query, query.size());
    case QueryKind::kProperSuperset: {
      // Same intersection as ⊇, but the strict-cardinality check needs the
      // stored set, so the result is no longer exact.
      SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                              CandidatesSmartSuperset(query, query.size()));
      result.exact = false;
      return result;
    }
    case QueryKind::kSubset:
    case QueryKind::kProperSubset:
    case QueryKind::kOverlaps: {
      // Union of the postings of all query elements: for kOverlaps this is
      // the exact answer; for kSubset it is a candidate set (an object can
      // share an element with Q yet contain elements outside Q).  The
      // sorted lists are combined with a k-way heap merge straight into the
      // output, so the transient footprint is the union size — not the sum
      // of posting lengths the old concat-then-sort-unique path peaked at.
      std::vector<std::vector<Oid>> lists;
      SIGSET_RETURN_IF_ERROR(tree_->LookupMany(query, &lists));
      size_t longest = 0;
      for (size_t i = 0; i < query.size(); ++i) {
        // The reserved value's descent is charged, its roster discarded.
        if (query[i] == kEmptySetKey) lists[i].clear();
        assert(std::is_sorted(lists[i].begin(), lists[i].end()) &&
               "BTree::LookupMany must return sorted postings");
        longest = std::max(longest, lists[i].size());
      }
      // Min-heap of (head value, list index); pop-advance with dedup
      // against the last emitted OID yields the sorted-unique union.
      using HeapEntry = std::pair<Oid, size_t>;
      std::priority_queue<HeapEntry, std::vector<HeapEntry>,
                          std::greater<HeapEntry>>
          heap;
      std::vector<size_t> cursor(lists.size(), 0);
      for (size_t l = 0; l < lists.size(); ++l) {
        if (!lists[l].empty()) heap.emplace(lists[l][0], l);
      }
      CandidateResult result;
      result.oids.reserve(longest);
      while (!heap.empty()) {
        auto [oid, l] = heap.top();
        heap.pop();
        if (result.oids.empty() || result.oids.back() != oid) {
          result.oids.push_back(oid);
        }
        if (++cursor[l] < lists[l].size()) {
          heap.emplace(lists[l][cursor[l]], l);
        }
      }
      if (kind != QueryKind::kOverlaps && !empty_oids_.empty()) {
        // ∅ ⊆ Q (and ∅ ⊊ Q) for every non-empty Q, but empty sets write no
        // postings, so the union alone can never surface them — this merge
        // is the actual fix for the empty-set candidate miss.  Roster OIDs
        // appear in no posting list, so the merge stays duplicate-free.
        // kOverlaps excludes them: ∅ shares no element with any query.
        std::vector<Oid> merged;
        merged.reserve(result.oids.size() + empty_oids_.size());
        std::merge(result.oids.begin(), result.oids.end(),
                   empty_oids_.begin(), empty_oids_.end(),
                   std::back_inserter(merged));
        result.oids = std::move(merged);
      }
      result.exact = (kind == QueryKind::kOverlaps);
      return result;  // ⊊ strictness is checked at resolution
    }
    case QueryKind::kEquals: {
      // T = Q ⟹ T ⊇ Q, so the intersection is a candidate superset; the
      // resolution step rejects objects with extra elements.  ∅ never
      // qualifies (Q is non-empty), and it is absent here by construction.
      SIGSET_ASSIGN_OR_RETURN(CandidateResult result,
                              CandidatesSmartSuperset(query, query.size()));
      result.exact = false;
      return result;
    }
  }
  return Status::Internal("unhandled query kind");
}

Status NestedIndex::BulkBuild(const std::vector<Oid>& oids,
                              const std::vector<ElementSet>& sets) {
  if (oids.size() != sets.size()) {
    return Status::InvalidArgument("oids/sets size mismatch");
  }
  empty_oids_.clear();
  std::map<uint64_t, std::vector<Oid>> postings;
  std::vector<Oid> roster;
  for (size_t i = 0; i < sets.size(); ++i) {
    SIGSET_RETURN_IF_ERROR(CheckNoReservedElement(sets[i]));
    if (sets[i].empty()) {
      roster.push_back(oids[i]);
      continue;
    }
    for (uint64_t element : sets[i]) {
      postings[element].push_back(oids[i]);
    }
  }
  if (!roster.empty()) {
    // The sentinel sorts after every real element, so appending it keeps
    // the bulk load's strictly-increasing key order.
    postings[kEmptySetKey] = std::move(roster);
  }
  std::vector<BTreeEntry> entries;
  entries.reserve(postings.size());
  for (auto& [key, oid_list] : postings) {
    std::sort(oid_list.begin(), oid_list.end());
    if (key == kEmptySetKey) empty_oids_ = oid_list;
    entries.push_back(BTreeEntry{key, std::move(oid_list)});
  }
  return tree_->BulkLoad(entries);
}

}  // namespace sigsetdb
