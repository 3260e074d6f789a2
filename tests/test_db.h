// Shared test fixture: a small synthetic database materialized through all
// three access facilities plus a one-attribute object store, mirroring the
// paper's experimental setup at reduced scale.

#ifndef SIGSET_TESTS_TEST_DB_H_
#define SIGSET_TESTS_TEST_DB_H_

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "nix/nested_index.h"
#include "obj/multi_object_store.h"
#include "oracle.h"
#include "sig/bssf.h"
#include "sig/ssf.h"
#include "storage/storage_manager.h"
#include "workload/generator.h"

namespace sigsetdb {

// Builds N objects with Dt-element sets over a V-element domain and indexes
// them in SSF, BSSF and NIX simultaneously.
class TestDatabase {
 public:
  struct Options {
    int64_t n = 1000;
    int64_t v = 500;
    int64_t dt = 8;
    SignatureConfig sig{250, 3};
    uint32_t nix_fanout = kPaperFanout;
    uint64_t seed = 42;
    BssfInsertMode bssf_mode = BssfInsertMode::kSparse;
  };

  explicit TestDatabase(const Options& options) : options_(options) {
    store_ = std::make_unique<MultiObjectStore>(
        storage_.CreateOrOpen("objects"), 1);
    auto ssf = SequentialSignatureFile::Create(
        options.sig, storage_.CreateOrOpen("ssf.sig"),
        storage_.CreateOrOpen("ssf.oid"));
    EXPECT_TRUE(ssf.ok());
    ssf_ = std::move(*ssf);
    auto bssf = BitSlicedSignatureFile::Create(
        options.sig, static_cast<uint64_t>(options.n) + 64,
        storage_.CreateOrOpen("bssf.slices"), storage_.CreateOrOpen("bssf.oid"),
        options.bssf_mode);
    EXPECT_TRUE(bssf.ok());
    bssf_ = std::move(*bssf);
    auto nix = NestedIndex::Create(storage_.CreateOrOpen("nix"),
                                   options.nix_fanout);
    EXPECT_TRUE(nix.ok());
    nix_ = std::move(*nix);

    WorkloadConfig wconfig{options.n, options.v,
                           CardinalitySpec::Fixed(options.dt),
                           SkewKind::kUniform, 0.99, options.seed};
    sets_ = MakeDatabase(wconfig);
    for (const auto& set : sets_) {
      auto oid = store_->Insert({set});
      EXPECT_TRUE(oid.ok());
      oids_.push_back(*oid);
      EXPECT_TRUE(ssf_->Insert(*oid, set).ok());
      EXPECT_TRUE(bssf_->Insert(*oid, set).ok());
      EXPECT_TRUE(nix_->Insert(*oid, set).ok());
    }
    storage_.ResetStats();
  }

  // Brute-force ground truth for any predicate.
  std::vector<Oid> BruteForce(QueryKind kind, const ElementSet& query) const {
    std::vector<Oid> out;
    for (size_t i = 0; i < sets_.size(); ++i) {
      if (OracleMatches(sets_[i], kind, query)) out.push_back(oids_[i]);
    }
    return out;
  }

  const Options& options() const { return options_; }
  StorageManager& storage() { return storage_; }
  MultiObjectStore& store() { return *store_; }
  SequentialSignatureFile& ssf() { return *ssf_; }
  BitSlicedSignatureFile& bssf() { return *bssf_; }
  NestedIndex& nix() { return *nix_; }
  const std::vector<ElementSet>& sets() const { return sets_; }
  const std::vector<Oid>& oids() const { return oids_; }

 private:
  Options options_;
  StorageManager storage_;
  std::unique_ptr<MultiObjectStore> store_;
  std::unique_ptr<SequentialSignatureFile> ssf_;
  std::unique_ptr<BitSlicedSignatureFile> bssf_;
  std::unique_ptr<NestedIndex> nix_;
  std::vector<ElementSet> sets_;
  std::vector<Oid> oids_;
};

}  // namespace sigsetdb

#endif  // SIGSET_TESTS_TEST_DB_H_
