// IndexedAttribute: one indexed set attribute of the engine (db/database.h).
//
// It owns the attribute's SSF/BSSF/NIX, the statistics the cost model reads
// (the Dt total and the HyperLogLog sketch behind V), its copy-on-write
// wrapper slots and its per-generation file names, and it makes the
// per-attribute read decision: Plan (which facility and strategy).  The
// engine runs that plan through query/executor.h's SelectCandidates.
//
// A live attribute is kept current by the engine's writes.  A pinned
// attribute is the same type built over one epoch's EpochReadViews, with V
// and Dt frozen at publish, so live and snapshot reads plan and select
// through the same code.

#ifndef SIGSET_DB_INDEXED_ATTRIBUTE_H_
#define SIGSET_DB_INDEXED_ATTRIBUTE_H_

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/database.h"
#include "db/manifest.h"
#include "nix/nested_index.h"
#include "obs/metrics.h"
#include "query/advisor.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/versioned_page_file.h"
#include "util/hyperloglog.h"

namespace sigsetdb {

// SetIndex-only knobs, applied to every facility an attribute builds.
// They are not Database::AttributeOptions fields; pinned views keep the
// defaults (pure-model planning, no skip index, no hot tier).
struct AttributeSettings {
  bool skip_index = false;
  bool hot_tier = false;
  size_t hot_tier_capacity = 64;
  bool advisor_feedback = false;
};

class IndexedAttribute {
 public:
  // The files of one attribute, in slot order.
  enum File { kSsfSig, kSsfOid, kBssfSlices, kBssfOid, kNix, kNumFiles };

  // Facility counters: what Checkpoint persists and each epoch publishes.
  struct Shape {
    uint64_t signatures = 0;  // SSF/BSSF slots appended (incl. tombstones)
    uint64_t live = 0;        // slots not tombstoned
    uint64_t elements = 0;    // Σ|set| over live objects (Dt's numerator)
    uint64_t nix_root = kInvalidPage;
    uint64_t nix_height = 0;
    uint64_t nix_leaves = 0;
    uint64_t nix_internal = 0;
    uint64_t nix_overflow = 0;
    uint64_t nix_free_head = kInvalidPage;
    uint64_t nix_free_pages = 0;
  };

  // What an epoch carries for one attribute.  `spec.domain_estimate` holds
  // the V resolved at publish, so a pinned view's V is frozen with it.
  struct Published {
    Database::AttributeOptions spec;
    uint64_t capacity = 0;
    Shape shape;
    std::array<VersionedPageFile*, kNumFiles> files{};
  };

  // Opens (creating if needed) a file of the engine and reports its CoW
  // wrapper in `*slot` (null when snapshots are off).
  using FileOpener = std::function<StatusOr<PageFile*>(
      const std::string& name, VersionedPageFile** slot)>;

  // The cost model's view of this attribute over `num_objects` objects.
  struct Model {
    DatabaseParams db;
    SignatureParams sig;
    NixParams nix;
    int64_t dt;
  };

  // A live attribute whose files, named "<prefix>.sig", "<prefix>.nix",
  // ..., come from `open`; no facility exists until Open or Rebuild.
  IndexedAttribute(Database::AttributeOptions spec, uint64_t capacity,
                   AttributeSettings settings, std::string prefix,
                   FileOpener open);
  ~IndexedAttribute();

  // A read-only view of `published` at `epoch`.
  static StatusOr<std::unique_ptr<IndexedAttribute>> Pin(
      const Published& published, uint64_t epoch);

  // --- lifecycle ----------------------------------------------------------

  // Creates empty facilities (`values` null) or reopens them from attribute
  // `index`'s manifest keys, over `generation`'s signature files.
  Status Open(uint64_t generation, const Manifest::Values* values,
              size_t index);
  // kFailedPrecondition unless the manifest's f, m and facility set for
  // attribute `index` match this attribute's options.
  Status CheckConfig(const Manifest::Values& values, size_t index) const;
  // Writes attribute `index`'s manifest keys: the Shape and f/m/facilities.
  void Save(size_t index, Manifest::Values* values) const;
  Published Publish() const;

  // Densely rewrites the SSF/BSSF files into `generation`'s files; nothing
  // is swapped until CommitCompaction, which returns the CoW wrappers it
  // superseded (none with snapshots off).
  Status Compact(uint64_t generation);
  std::vector<VersionedPageFile*> CommitCompaction();

  // Rebuilds every facility and counter from a live scan of the recovered
  // store, overwriting whatever the crashed run left in the files.
  Status Rebuild(uint64_t generation, const std::vector<Oid>& oids,
                 const std::vector<ElementSet>& sets);

  // Writes the current wrappers' newest versions through to their files.
  Status FlushVersions();

  // --- writes (facilities and statistics together) ------------------------

  // The one write path; a singleton insert or delete is a batch of one.
  Status ApplyBatch(const std::vector<BatchOp>& ops);

  // --- reads ----------------------------------------------------------------

  // The configured V, or the sketch's estimate (at least 2).
  int64_t DomainEstimate() const;
  Model ModelFor(uint64_t num_objects) const;

  // The access path for (kind, dq): the forced facility's plain strategy,
  // or the advisor's cheapest maintained path (with the registry's
  // feedback folded in when AttributeSettings::advisor_feedback is
  // set and `feedback` is given).  A kAuto plan without feedback depends
  // only on (candidate kind, dq) and the model's (N, V, Dt), so it is
  // memoised per (candidate kind, dq) for one (V, Dt): each entry keeps
  // the key's cost-model terms (model/cost_terms.h) and its plan at the N
  // it was last made for.  The same N returns that plan; a new N ranks the
  // terms again, which is arithmetic alone; a new V or Dt clears the memo.
  StatusOr<AccessPathChoice> Plan(QueryKind kind, int64_t dq,
                                  uint64_t num_objects, PlanMode mode,
                                  const MetricsRegistry* feedback) const;

  // BreakdownForChoice for `plan` at (kind, dq) under `model`, from the
  // memo entry's terms when Plan priced that key at the model's (V, Dt).
  CostBreakdown Breakdown(QueryKind kind, int64_t dq, const Model& model,
                          const AccessPathChoice& plan) const;

  // The maintained facility called `name` ("ssf", "bssf", "nix"), or null.
  SetAccessFacility* Facility(const std::string& name) const;

  // The page counters summed over the files this attribute reads: a live
  // attribute's current files (not superseded generations), or a pinned
  // view's adapters.
  PageCounts FileCounts() const;

  const Database::AttributeOptions& spec() const { return spec_; }
  const std::string& name() const { return spec_.name; }
  uint64_t total_elements() const { return shape_.elements; }
  HyperLogLog& sketch() { return sketch_; }
  SequentialSignatureFile* ssf() const { return ssf_.get(); }
  BitSlicedSignatureFile* bssf() const { return bssf_.get(); }
  NestedIndex* nix() const { return nix_.get(); }

 private:
  using Files = std::array<PageFile*, kNumFiles>;

  // Opens the maintained files: the signature files of `generation`, plus
  // the NIX file when `with_nix`.
  Status OpenFiles(uint64_t generation, bool with_nix, Files* files,
                   std::array<VersionedPageFile*, kNumFiles>* slots) const;
  // SSF/BSSF over files already holding `signatures` slots.
  Status Adopt(const Files& files, uint64_t signatures,
               std::unique_ptr<SequentialSignatureFile>* ssf,
               std::unique_ptr<BitSlicedSignatureFile>* bssf) const;
  // NIX over `file` with `shape`: recovery's full structural walk when
  // `validate`, else a pinned view that trusts the published shape.
  Status OpenNix(PageFile* file, const Shape& shape, bool validate);
  // Empty facilities over the non-null entries of `files`.
  Status CreateEmpty(const Files& files);
  // Applies the settings to the current SSF/BSSF.
  void Configure();
  Shape CurrentShape() const;
  std::array<SetAccessFacility*, 3> Facilities() const {
    return {ssf_.get(), bssf_.get(), nix_.get()};
  }
  // The advisor's cheapest maintained path under `model`.
  StatusOr<AccessPathChoice> Advise(QueryKind kind, int64_t dq,
                                    const Model& model,
                                    const AdvisorFeedback& observed) const;

  // Plan's memo for the (V, Dt) pair in `v` and `dt`, keyed on candidate
  // kind << 56 | dq: one entry per key planned, plus the smart ⊆ strategy's
  // partial-scan table for `dt` (filled by the first ⊆ plan).  Readers plan
  // concurrently (SynchronizedSetIndex), so a mutex guards it.
  struct PlanMemo {
    // The hit path reads the key, `n` and `plan`, so they lead the node.
    struct Entry {
      int64_t n = 0;  // the N `plan` was made for
      AccessPathChoice plan;
      QueryTerms terms;
    };
    std::mutex mu;
    int64_t v = 0;
    int64_t dt = 0;
    std::vector<double> partial;
    std::unordered_map<uint64_t, Entry> entries;
  };

  Database::AttributeOptions spec_;
  uint64_t capacity_;
  AttributeSettings settings_;
  std::string prefix_;
  FileOpener open_;  // null for pinned views
  Shape shape_;  // live: only `elements` is kept; pinned: as published
  HyperLogLog sketch_{12};
  mutable PlanMemo memo_;
  // A pinned view's fixed-epoch adapters (empty for live attributes);
  // declared before the facilities reading them.
  std::array<std::unique_ptr<EpochReadView>, kNumFiles> views_;
  Files files_{};  // what the facilities read: FileCounts sums these
  std::unique_ptr<SequentialSignatureFile> ssf_;
  std::unique_ptr<BitSlicedSignatureFile> bssf_;
  std::unique_ptr<NestedIndex> nix_;
  std::array<VersionedPageFile*, kNumFiles> versions_{};
  // Compaction output awaiting CommitCompaction.
  std::unique_ptr<SequentialSignatureFile> next_ssf_;
  std::unique_ptr<BitSlicedSignatureFile> next_bssf_;
  std::array<VersionedPageFile*, kNumFiles> next_versions_{};
  Files next_files_{};
};

}  // namespace sigsetdb

#endif  // SIGSET_DB_INDEXED_ATTRIBUTE_H_
