// MultiObjectStore: the object file.
//
// Objects are stored in slotted pages ("objects are straightforwardly
// stored in the object file; no type of decomposition is applied" — paper
// §4), the whole object in one record.  OIDs are physical (page, slot), so
// Get costs exactly one page read, realizing the model's P_s = P_u = 1 page
// access per object retrieval.  The paper's Student class carries two set
// attributes (`courses`, `hobbies`), each indexed by its own access
// facility; a one-attribute store is the paper's single-attribute object
// file.

#ifndef SIGSET_OBJ_MULTI_OBJECT_STORE_H_
#define SIGSET_OBJ_MULTI_OBJECT_STORE_H_

#include <functional>
#include <vector>

#include "obj/object.h"
#include "obj/oid.h"
#include "storage/page_file.h"

namespace sigsetdb {

// An object with `attrs.size()` set-valued attributes (all normalized).
struct MultiSetObject {
  Oid oid;
  std::vector<ElementSet> attrs;
};

// Heap file of multi-attribute objects with physical OIDs.
class MultiObjectStore {
 public:
  // Does not take ownership of `file`; `file` must outlive the store and be
  // empty or previously populated by a store with the same
  // `num_attributes`, which is fixed per store (one class per store, as in
  // the paper's schema).
  MultiObjectStore(PageFile* file, uint16_t num_attributes);

  // Appends an object; `attr_values.size()` must equal num_attributes().
  StatusOr<Oid> Insert(const std::vector<ElementSet>& attr_values);

  // Fetches an object (one page read).  A non-null `io` receives the charge
  // instead of the file's counters (thread-local accounting for parallel
  // resolution workers).
  StatusOr<MultiSetObject> Get(Oid oid, IoStats* io = nullptr) const;

  // Get into `*out`, reusing its sets' storage (candidate resolution
  // fetches every candidate into one object).
  Status GetInto(Oid oid, MultiSetObject* out, IoStats* io = nullptr) const;

  // Removes the object (one page read + one page write).  The OID becomes
  // dangling; access facilities are responsible for their own bookkeeping.
  Status Delete(Oid oid);

  // --- Write-ahead-log support -------------------------------------------
  // OIDs are physical, so the WAL must log the OID an insert WILL get
  // before touching the store (log-before-apply); these predict it by
  // simulating the append on a scratch copy of the tail page.

  // The OID Insert(attr_values) would assign right now.
  StatusOr<Oid> PeekNextOid(const std::vector<ElementSet>& attr_values) const;

  // The OIDs a sequence of Inserts would assign (simulates page fills and
  // fresh-page starts across the whole batch).
  StatusOr<std::vector<Oid>> PeekOids(
      const std::vector<std::vector<ElementSet>>& objects) const;

  // Recovery redo: make the object at exactly `oid` exist with
  // `attr_values`.  Verifies if already present (idempotent), appends if
  // the slot is next in sequence, resurrects if tombstoned (aborted
  // delete); kCorruption if the slot holds a different record or is out of
  // sequence.
  Status ReplayEnsurePresent(Oid oid,
                             const std::vector<ElementSet>& attr_values);

  // Recovery redo: make `oid` not exist (no-op when it already doesn't).
  Status ReplayEnsureAbsent(Oid oid);

  // Scans every live object in physical order.  Recovery rebuilds the
  // access facilities and counters from this — the store is the single
  // source of truth after replay.
  Status ForEachLive(
      const std::function<Status(Oid, const std::vector<ElementSet>&)>& fn)
      const;

  // Restores the live-object counter after reopening a populated file
  // (physical OIDs need no other recovery; the page data is the state).
  void RecoverCount(uint64_t num_objects) { num_objects_ = num_objects; }

  uint16_t num_attributes() const { return num_attributes_; }
  uint64_t num_objects() const { return num_objects_; }
  PageId num_pages() const { return file_->num_pages(); }

  // The backing file's access counters (parallel workers merge their
  // thread-local stats here on join).
  IoStats& stats() const { return file_->stats(); }

 private:
  PageFile* file_;
  uint16_t num_attributes_;
  PageId tail_page_ = kInvalidPage;
  uint64_t num_objects_ = 0;
};

}  // namespace sigsetdb

#endif  // SIGSET_OBJ_MULTI_OBJECT_STORE_H_
