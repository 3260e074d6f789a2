// MultiObjectStore: objects with several set-valued attributes.
//
// The paper's Student class carries two set attributes (`courses`,
// `hobbies`).  This store keeps the whole object in one slotted-page record
// — "no type of decomposition is applied" — so a fetch still costs one page
// access, while each attribute can be indexed by its own access facility.

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
  // Does not take ownership of `file`.  `num_attributes` is fixed per store
  // (one class per store, as in the paper's schema).
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

  // Removes the object.
  Status Delete(Oid oid);

  // --- Write-ahead-log support (see ObjectStore for semantics) -----------

  // The OID Insert(attr_values) would assign right now.
  StatusOr<Oid> PeekNextOid(const std::vector<ElementSet>& attr_values) const;

  // The OIDs a sequence of Inserts would assign.
  StatusOr<std::vector<Oid>> PeekOids(
      const std::vector<std::vector<ElementSet>>& objects) const;

  // Recovery redo: verify-or-write the object at exactly `oid`.
  Status ReplayEnsurePresent(Oid oid,
                             const std::vector<ElementSet>& attr_values);

  // Recovery redo: make `oid` not exist.
  Status ReplayEnsureAbsent(Oid oid);

  // Scans every live object in physical order.
  Status ForEachLive(
      const std::function<Status(Oid, const std::vector<ElementSet>&)>& fn)
      const;

  // Restores the live-object counter after reopening a populated file.
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
