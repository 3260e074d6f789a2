#include "db/indexed_attribute.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sigsetdb {

namespace {

constexpr const char* kFileSuffix[IndexedAttribute::kNumFiles] = {
    ".sig", ".sig.oid", ".slices", ".slices.oid", ".nix"};

using Shape = IndexedAttribute::Shape;

// Manifest keys of one attribute's facility counters.
constexpr std::pair<const char*, uint64_t Shape::*> kShapeKeys[] = {
    {"signatures", &Shape::signatures},
    {"live", &Shape::live},
    {"elements", &Shape::elements},
    {"nix_root", &Shape::nix_root},
    {"nix_height", &Shape::nix_height},
    {"nix_leaves", &Shape::nix_leaves},
    {"nix_internal", &Shape::nix_internal},
    {"nix_overflow", &Shape::nix_overflow},
    {"nix_free_head", &Shape::nix_free_head},
    {"nix_free_pages", &Shape::nix_free_pages},
};

std::string AttrKey(size_t i, const char* suffix) {
  return "attr" + std::to_string(i) + "." + suffix;
}

// Compaction writes into generation-suffixed files ("<base>.g<N>"); the
// original name is generation 0.  StorageManager cannot delete files, so
// superseded generations simply stay behind (unreferenced by the manifest).
std::string GenName(const std::string& base, uint64_t generation) {
  if (generation == 0) return base;
  return base + ".g" + std::to_string(generation);
}

uint64_t FacilityMask(const Database::AttributeOptions& spec) {
  return (spec.maintain_ssf ? 1u : 0u) | (spec.maintain_bssf ? 2u : 0u) |
         (spec.maintain_nix ? 4u : 0u);
}

bool Maintains(const Database::AttributeOptions& spec, int file) {
  switch (file) {
    case IndexedAttribute::kSsfSig:
    case IndexedAttribute::kSsfOid:
      return spec.maintain_ssf;
    case IndexedAttribute::kBssfSlices:
    case IndexedAttribute::kBssfOid:
      return spec.maintain_bssf;
    default:
      return spec.maintain_nix;
  }
}

}  // namespace

IndexedAttribute::IndexedAttribute(Database::AttributeOptions spec,
                                   uint64_t capacity,
                                   AttributeSettings settings,
                                   std::string prefix, FileOpener open)
    : spec_(std::move(spec)),
      capacity_(capacity),
      settings_(settings),
      prefix_(std::move(prefix)),
      open_(std::move(open)) {}

IndexedAttribute::~IndexedAttribute() = default;

StatusOr<std::unique_ptr<IndexedAttribute>> IndexedAttribute::Pin(
    const Published& published, uint64_t epoch) {
  auto attr = std::make_unique<IndexedAttribute>(
      published.spec, published.capacity, AttributeSettings{}, "", nullptr);
  const Shape& shape = published.shape;
  attr->shape_ = shape;
  Files files{};
  for (int f = 0; f < kNumFiles; ++f) {
    if (!Maintains(published.spec, f)) continue;
    if (published.files[f] == nullptr) {
      return Status::Internal("snapshot state missing a facility file");
    }
    attr->views_[f] =
        std::make_unique<EpochReadView>(published.files[f], epoch);
    files[f] = attr->views_[f].get();
  }
  attr->files_ = files;
  const SignatureConfig& sig = published.spec.sig;
  if (published.spec.maintain_ssf) {
    SIGSET_ASSIGN_OR_RETURN(attr->ssf_,
                            SequentialSignatureFile::CreateReadView(
                                sig, files[kSsfSig], files[kSsfOid],
                                shape.signatures, shape.live));
  }
  if (published.spec.maintain_bssf) {
    SIGSET_ASSIGN_OR_RETURN(
        attr->bssf_, BitSlicedSignatureFile::CreateReadView(
                         sig, published.capacity, files[kBssfSlices],
                         files[kBssfOid], shape.signatures, shape.live));
  }
  if (published.spec.maintain_nix) {
    SIGSET_RETURN_IF_ERROR(
        attr->OpenNix(files[kNix], shape, /*validate=*/false));
  }
  return attr;
}

Status IndexedAttribute::OpenFiles(
    uint64_t generation, bool with_nix, Files* files,
    std::array<VersionedPageFile*, kNumFiles>* slots) const {
  for (int f = 0; f < kNumFiles; ++f) {
    if (!Maintains(spec_, f) || (f == kNix && !with_nix)) continue;
    // NIX recycles drained pages through its free list and is never
    // compacted, so only the signature files carry a generation.
    const std::string name = prefix_ + kFileSuffix[f];
    SIGSET_ASSIGN_OR_RETURN(
        (*files)[f],
        open_(f == kNix ? name : GenName(name, generation), &(*slots)[f]));
  }
  return Status::OK();
}

Status IndexedAttribute::Adopt(
    const Files& files, uint64_t signatures,
    std::unique_ptr<SequentialSignatureFile>* ssf,
    std::unique_ptr<BitSlicedSignatureFile>* bssf) const {
  if (spec_.maintain_ssf) {
    SIGSET_ASSIGN_OR_RETURN(*ssf, SequentialSignatureFile::CreateFromExisting(
                                      spec_.sig, files[kSsfSig],
                                      files[kSsfOid], signatures));
  }
  if (spec_.maintain_bssf) {
    SIGSET_ASSIGN_OR_RETURN(
        *bssf, BitSlicedSignatureFile::CreateFromExisting(
                   spec_.sig, capacity_, files[kBssfSlices], files[kBssfOid],
                   BssfInsertMode::kSparse, signatures));
  }
  return Status::OK();
}

Status IndexedAttribute::OpenNix(PageFile* file, const Shape& shape,
                                 bool validate) {
  SIGSET_ASSIGN_OR_RETURN(
      nix_, (validate ? NestedIndex::CreateFromExisting
                      : NestedIndex::CreateReadView)(
                file, spec_.nix_fanout, static_cast<PageId>(shape.nix_root),
                static_cast<uint32_t>(shape.nix_height), shape.nix_leaves,
                shape.nix_internal, shape.nix_overflow));
  nix_->mutable_tree().RestoreFreeList(static_cast<PageId>(shape.nix_free_head),
                                       shape.nix_free_pages);
  return Status::OK();
}

Status IndexedAttribute::CreateEmpty(const Files& files) {
  if (files[kSsfSig] != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(ssf_, SequentialSignatureFile::Create(
                                      spec_.sig, files[kSsfSig],
                                      files[kSsfOid]));
  }
  if (files[kBssfSlices] != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(
        bssf_, BitSlicedSignatureFile::Create(spec_.sig, capacity_,
                                              files[kBssfSlices],
                                              files[kBssfOid],
                                              BssfInsertMode::kSparse));
  }
  if (files[kNix] != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(
        nix_, NestedIndex::Create(files[kNix], spec_.nix_fanout));
  }
  return Status::OK();
}

void IndexedAttribute::Configure() {
  if (ssf_ != nullptr) ssf_->set_skip_index_enabled(settings_.skip_index);
  if (bssf_ != nullptr) {
    bssf_->set_skip_index_enabled(settings_.skip_index);
    bssf_->set_hot_tier_capacity(settings_.hot_tier_capacity);
    bssf_->set_hot_tier_enabled(settings_.hot_tier);
  }
}

Status IndexedAttribute::Open(uint64_t generation,
                              const Manifest::Values* values, size_t index) {
  Files files{};
  SIGSET_RETURN_IF_ERROR(
      OpenFiles(generation, /*with_nix=*/true, &files, &versions_));
  files_ = files;
  if (values == nullptr) {
    SIGSET_RETURN_IF_ERROR(CreateEmpty(files));
  } else {
    Shape shape;
    for (const auto& [key, field] : kShapeKeys) {
      SIGSET_ASSIGN_OR_RETURN(shape.*field,
                              Manifest::Get(*values, AttrKey(index, key)));
    }
    shape_.elements = shape.elements;
    SIGSET_RETURN_IF_ERROR(Adopt(files, shape.signatures, &ssf_, &bssf_));
    if (spec_.maintain_nix) {
      SIGSET_RETURN_IF_ERROR(OpenNix(files[kNix], shape, /*validate=*/true));
    }
  }
  Configure();
  return Status::OK();
}

Status IndexedAttribute::CheckConfig(const Manifest::Values& values,
                                     size_t index) const {
  const std::pair<const char*, uint64_t> expected[] = {
      {"config_f", spec_.sig.f},
      {"config_m", spec_.sig.m},
      {"config_facilities", FacilityMask(spec_)}};
  for (const auto& [key, want] : expected) {
    SIGSET_ASSIGN_OR_RETURN(uint64_t got,
                            Manifest::Get(values, AttrKey(index, key)));
    if (got != want) {
      return Status::FailedPrecondition(
          "options do not match the checkpointed configuration");
    }
  }
  return Status::OK();
}

IndexedAttribute::Shape IndexedAttribute::CurrentShape() const {
  Shape shape = shape_;
  if (ssf_ != nullptr) {
    shape.signatures = ssf_->num_signatures();
    shape.live = ssf_->num_live();
  } else if (bssf_ != nullptr) {
    shape.signatures = bssf_->num_signatures();
    shape.live = bssf_->num_live();
  }
  if (nix_ != nullptr) {
    const BTree& tree = nix_->tree();
    shape.nix_root = tree.root();
    shape.nix_height = tree.height();
    shape.nix_leaves = tree.leaf_pages();
    shape.nix_internal = tree.internal_pages();
    shape.nix_overflow = tree.overflow_pages();
    shape.nix_free_head = tree.free_list_head();
    shape.nix_free_pages = tree.free_pages();
  }
  return shape;
}

void IndexedAttribute::Save(size_t index, Manifest::Values* values) const {
  const Shape shape = CurrentShape();
  for (const auto& [key, field] : kShapeKeys) {
    (*values)[AttrKey(index, key)] = shape.*field;
  }
  (*values)[AttrKey(index, "config_f")] = spec_.sig.f;
  (*values)[AttrKey(index, "config_m")] = spec_.sig.m;
  (*values)[AttrKey(index, "config_facilities")] = FacilityMask(spec_);
}

IndexedAttribute::Published IndexedAttribute::Publish() const {
  Published published;
  published.spec = spec_;
  published.spec.domain_estimate = DomainEstimate();
  published.capacity = capacity_;
  published.shape = CurrentShape();
  published.files = versions_;
  return published;
}

Status IndexedAttribute::Compact(uint64_t generation) {
  if (ssf_ == nullptr && bssf_ == nullptr) return Status::OK();
  // With snapshots on, the new generation gets its own CoW wrappers; the
  // old ones stay alive (and registered) so snapshots pinned before the
  // swap keep reading the superseded files.
  Files files{};
  next_versions_ = {};
  SIGSET_RETURN_IF_ERROR(
      OpenFiles(generation, /*with_nix=*/false, &files, &next_versions_));
  next_files_ = files;
  // CompactTo is retryable: it overwrites from page 0, so a half-written
  // target left by an earlier crashed compaction is simply rewritten.
  uint64_t ssf_live = 0, bssf_live = 0;
  if (ssf_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(
        ssf_live, ssf_->CompactTo(files[kSsfSig], files[kSsfOid]));
  }
  if (bssf_ != nullptr) {
    SIGSET_ASSIGN_OR_RETURN(
        bssf_live, bssf_->CompactTo(files[kBssfSlices], files[kBssfOid]));
  }
  if (ssf_ != nullptr && bssf_ != nullptr && ssf_live != bssf_live) {
    return Status::Internal(
        "compaction live-count mismatch between facilities");
  }
  return Adopt(files, ssf_ != nullptr ? ssf_live : bssf_live, &next_ssf_,
               &next_bssf_);
}

std::vector<VersionedPageFile*> IndexedAttribute::CommitCompaction() {
  if (next_ssf_ == nullptr && next_bssf_ == nullptr) return {};
  ssf_ = std::move(next_ssf_);
  bssf_ = std::move(next_bssf_);
  std::vector<VersionedPageFile*> superseded;
  for (int f = 0; f < kNix; ++f) {
    if (versions_[f] != nullptr && versions_[f] != next_versions_[f]) {
      superseded.push_back(versions_[f]);
    }
    versions_[f] = next_versions_[f];
    files_[f] = next_files_[f];
  }
  Configure();
  return superseded;
}

Status IndexedAttribute::Rebuild(uint64_t generation,
                                 const std::vector<Oid>& oids,
                                 const std::vector<ElementSet>& sets) {
  // The recovered store is the single source of truth; the checkpointed
  // sketch is already loaded, so the re-adds merge into it.
  shape_.elements = 0;
  for (const ElementSet& set : sets) {
    shape_.elements += set.size();
    for (uint64_t element : set) sketch_.Add(element);
  }
  // SSF/BSSF: build pristine copies in memory with one batch, then compact
  // them into this generation's files.  CompactTo overwrites from page 0
  // (BSSF rewrites every slice page), so whatever stale or torn state the
  // crashed run left there is wiped.  Rebuilding in place would be wrong:
  // SSF's append path allocates its tail page at the file END, which on a
  // dirty file breaks the slot/page arithmetic reads depend on.
  std::array<std::unique_ptr<InMemoryPageFile>, kNix> scratch;
  Files files{};
  for (int f = 0; f < kNix; ++f) {
    if (!Maintains(spec_, f)) continue;
    scratch[f] = std::make_unique<InMemoryPageFile>(std::string("recover") +
                                                    kFileSuffix[f]);
    files[f] = scratch[f].get();
  }
  Status rebuilt = CreateEmpty(files);
  std::vector<BatchOp> inserts;
  inserts.reserve(oids.size());
  for (size_t i = 0; i < oids.size(); ++i) {
    inserts.push_back(BatchOp{BatchOp::Kind::kInsert, oids[i], sets[i]});
  }
  for (SetAccessFacility* f : {Facility("ssf"), Facility("bssf")}) {
    if (f != nullptr && rebuilt.ok()) rebuilt = f->ApplyBatch(inserts);
  }
  if (rebuilt.ok()) rebuilt = Compact(generation);
  if (!rebuilt.ok()) {
    // Never leave facilities over the scratch files behind.
    ssf_.reset();
    bssf_.reset();
    return rebuilt;
  }
  CommitCompaction();
  if (spec_.maintain_nix) {
    // Reset to an empty tree (orphaning whatever pages the crashed run
    // left) and bulk-build from the live scan, which is already in
    // ascending physical-OID order.
    SIGSET_ASSIGN_OR_RETURN(
        PageFile * file, open_(prefix_ + kFileSuffix[kNix], &versions_[kNix]));
    files_[kNix] = file;
    SIGSET_ASSIGN_OR_RETURN(
        nix_, NestedIndex::CreateResetting(file, spec_.nix_fanout));
    SIGSET_RETURN_IF_ERROR(nix_->BulkBuild(oids, sets));
  }
  return Status::OK();
}

Status IndexedAttribute::FlushVersions() {
  // Only the CURRENT slots: a superseded wrapper (from an earlier
  // generation) flushing over a shared base file would resurrect stale
  // heads.
  for (VersionedPageFile* v : versions_) {
    if (v != nullptr) SIGSET_RETURN_IF_ERROR(v->FlushToBase());
  }
  return Status::OK();
}

Status IndexedAttribute::ApplyBatch(const std::vector<BatchOp>& ops) {
  for (SetAccessFacility* f : Facilities()) {
    if (f != nullptr) SIGSET_RETURN_IF_ERROR(f->ApplyBatch(ops));
  }
  for (const BatchOp& op : ops) {
    if (op.kind == BatchOp::Kind::kRemove) {
      shape_.elements -= std::min<uint64_t>(shape_.elements,
                                            op.set_value.size());
      continue;
    }
    shape_.elements += op.set_value.size();
    for (uint64_t element : op.set_value) sketch_.Add(element);
  }
  return Status::OK();
}

int64_t IndexedAttribute::DomainEstimate() const {
  if (spec_.domain_estimate > 0) return spec_.domain_estimate;
  const int64_t estimate =
      static_cast<int64_t>(std::llround(sketch_.Estimate()));
  return std::max<int64_t>(estimate, 2);
}

IndexedAttribute::Model IndexedAttribute::ModelFor(
    uint64_t num_objects) const {
  Model model{DatabaseParams{}, SignatureParams{spec_.sig.f, spec_.sig.m},
              NixParams{}, 1};
  model.db.n = std::max<int64_t>(1, static_cast<int64_t>(num_objects));
  model.db.v = DomainEstimate();
  model.nix.fanout = spec_.nix_fanout;
  if (num_objects > 0) {
    model.dt = std::max<int64_t>(
        1, static_cast<int64_t>(
               std::llround(static_cast<double>(shape_.elements) /
                            static_cast<double>(num_objects))));
  }
  // The combinatorial actual-drop formulas need V >= Dt.
  if (model.db.v < model.dt + 1) model.db.v = model.dt + 1;
  return model;
}

SetAccessFacility* IndexedAttribute::Facility(const std::string& name) const {
  if (name == "ssf") return ssf_.get();
  if (name == "bssf") return bssf_.get();
  if (name == "nix") return nix_.get();
  return nullptr;
}

StatusOr<AccessPathChoice> IndexedAttribute::Plan(
    QueryKind kind, int64_t dq, uint64_t num_objects, PlanMode mode,
    const MetricsRegistry* feedback) const {
  const char* forced = mode == PlanMode::kForceSsf    ? "ssf"
                       : mode == PlanMode::kForceBssf ? "bssf"
                       : mode == PlanMode::kForceNix  ? "nix"
                                                      : nullptr;
  if (forced != nullptr) {
    if (Facility(forced) == nullptr) {
      return Status::FailedPrecondition(std::string("no ") + forced);
    }
    return AccessPathChoice{forced, "plain", 0.0, 0};
  }
  const Model model = ModelFor(num_objects);
  if (settings_.advisor_feedback && feedback != nullptr) {
    // Registry feedback (opt-in) folds the observed false-drop and
    // buffer-hit rates into the comparison, trading reproducible page
    // counts for workload adaptivity.  It changes with every query, so
    // these plans bypass the memo.
    return Advise(kind, dq, model, AdvisorFeedback::FromRegistry(*feedback));
  }
  if (dq < 1) return Status::InvalidArgument("Dq must be >= 1");
  const QueryKind candidate_kind = CandidateKind(kind);
  const uint64_t key = static_cast<uint64_t>(candidate_kind) << 56 |
                       static_cast<uint64_t>(dq);
  std::lock_guard<std::mutex> lock(memo_.mu);
  if (memo_.v != model.db.v || memo_.dt != model.dt) {
    if (memo_.dt != model.dt) memo_.partial.clear();
    memo_.entries.clear();
    memo_.v = model.db.v;
    memo_.dt = model.dt;
  }
  auto [it, added] = memo_.entries.try_emplace(key);
  PlanMemo::Entry& entry = it->second;
  if (!added && entry.n == model.db.n) return entry.plan;
  if (added) {
    entry.terms =
        MakeQueryTerms(model.sig, model.db.v, model.dt, candidate_kind, dq);
  }
  if (candidate_kind == QueryKind::kSubset && memo_.partial.empty()) {
    memo_.partial = PartialScanTable(model.sig, model.dt);
  }
  const std::array<SetAccessFacility*, 3> facilities = Facilities();
  for (const PricedPath& path :
       RankAccessPaths(entry.terms, memo_.partial, model.db, model.sig,
                       model.nix, model.dt, /*allow_smart=*/true)) {
    if (facilities[static_cast<size_t>(path.facility)] == nullptr) continue;
    entry.n = model.db.n;
    entry.plan = ChoiceFor(path, candidate_kind);
    return entry.plan;
  }
  memo_.entries.erase(it);
  return Status::Internal("no maintained facility matched the plan");
}

CostBreakdown IndexedAttribute::Breakdown(QueryKind kind, int64_t dq,
                                          const Model& model,
                                          const AccessPathChoice& plan) const {
  const uint64_t key = static_cast<uint64_t>(CandidateKind(kind)) << 56 |
                       static_cast<uint64_t>(dq);
  {
    std::lock_guard<std::mutex> lock(memo_.mu);
    if (memo_.v == model.db.v && memo_.dt == model.dt) {
      if (auto hit = memo_.entries.find(key); hit != memo_.entries.end()) {
        return BreakdownFromTerms(hit->second.terms, memo_.partial, model.db,
                                  model.sig, model.nix, model.dt, plan);
      }
    }
  }
  // Forced and feedback plans never enter the memo.
  return BreakdownForChoice(model.db, model.sig, model.nix, model.dt, dq,
                            kind, plan);
}

StatusOr<AccessPathChoice> IndexedAttribute::Advise(
    QueryKind kind, int64_t dq, const Model& model,
    const AdvisorFeedback& observed) const {
  SIGSET_ASSIGN_OR_RETURN(
      std::vector<AccessPathChoice> choices,
      AdviseAccessPaths(model.db, model.sig, model.nix, model.dt, dq,
                        CandidateKind(kind), /*allow_smart=*/true, observed));
  for (AccessPathChoice& choice : choices) {
    if (Facility(choice.facility) != nullptr) return std::move(choice);
  }
  return Status::Internal("no maintained facility matched the plan");
}

PageCounts IndexedAttribute::FileCounts() const {
  PageCounts total;
  for (const PageFile* file : files_) {
    if (file != nullptr) total += file->stats().counts();
  }
  return total;
}

}  // namespace sigsetdb
