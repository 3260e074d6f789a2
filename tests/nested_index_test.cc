#include "nix/nested_index.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "util/rng.h"
#include "workload/generator.h"

namespace sigsetdb {
namespace {

Oid MakeOid(uint64_t i) {
  return Oid::FromLocation(static_cast<PageId>(i), 0);
}

class NestedIndexTest : public ::testing::Test {
 protected:
  void MakeIndex(uint32_t fanout = kPaperFanout) {
    auto nix = NestedIndex::Create(&file_, fanout);
    ASSERT_TRUE(nix.ok()) << nix.status().ToString();
    nix_ = std::move(*nix);
  }

  // Populates `count` random sets and returns them.
  std::vector<ElementSet> Populate(uint64_t count, uint64_t domain,
                                   uint64_t dt, uint64_t seed) {
    Rng rng(seed);
    std::vector<ElementSet> sets;
    for (uint64_t i = 0; i < count; ++i) {
      sets.push_back(rng.SampleWithoutReplacement(domain, dt));
      EXPECT_TRUE(nix_->Insert(MakeOid(i), sets.back()).ok());
    }
    return sets;
  }

  InMemoryPageFile file_{"nix"};
  std::unique_ptr<NestedIndex> nix_;
};

TEST_F(NestedIndexTest, SupersetCandidatesAreExact) {
  MakeIndex();
  auto sets = Populate(300, 100, 5, 1);
  ElementSet query = {sets[10][0], sets[10][3]};
  NormalizeSet(&query);
  auto result = nix_->Candidates(QueryKind::kSuperset, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  std::set<Oid> got(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(got.count(MakeOid(i)) > 0, IsSubset(query, sets[i]))
        << "object " << i;
  }
}

TEST_F(NestedIndexTest, SubsetCandidatesAreUnionOfPostings) {
  MakeIndex();
  auto sets = Populate(200, 60, 4, 2);
  Rng rng(3);
  ElementSet query = rng.SampleWithoutReplacement(60, 20);
  auto result = nix_->Candidates(QueryKind::kSubset, query);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  std::set<Oid> got(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(got.count(MakeOid(i)) > 0, Overlaps(sets[i], query))
        << "object " << i;
    if (IsSubset(sets[i], query)) {
      EXPECT_TRUE(got.count(MakeOid(i))) << "missing true subset match " << i;
    }
  }
}

TEST_F(NestedIndexTest, OverlapCandidatesAreExact) {
  MakeIndex();
  auto sets = Populate(150, 50, 3, 4);
  ElementSet query = {sets[0][0], sets[99][2]};
  NormalizeSet(&query);
  auto result = nix_->Candidates(QueryKind::kOverlaps, query);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->exact);
  std::set<Oid> got(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    EXPECT_EQ(got.count(MakeOid(i)) > 0, Overlaps(sets[i], query));
  }
}

TEST_F(NestedIndexTest, EqualsCandidatesContainTrueMatches) {
  MakeIndex();
  auto sets = Populate(100, 40, 3, 5);
  auto result = nix_->Candidates(QueryKind::kEquals, sets[17]);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->exact);
  EXPECT_TRUE(std::find(result->oids.begin(), result->oids.end(),
                        MakeOid(17)) != result->oids.end());
  // All candidates are supersets of the query.
  std::set<Oid> got(result->oids.begin(), result->oids.end());
  for (uint64_t i = 0; i < sets.size(); ++i) {
    if (got.count(MakeOid(i))) {
      EXPECT_TRUE(IsSubset(sets[17], sets[i]));
    }
  }
}

TEST_F(NestedIndexTest, SmartSupersetUsesRequestedLookups) {
  MakeIndex();
  auto sets = Populate(300, 100, 6, 6);
  ElementSet query = {sets[5][0], sets[5][2], sets[5][4]};
  NormalizeSet(&query);
  auto smart = nix_->CandidatesSmartSuperset(query, 2);
  ASSERT_TRUE(smart.ok());
  EXPECT_FALSE(smart->exact);
  // Smart candidates are a superset of the exact answer.
  auto exact = nix_->Candidates(QueryKind::kSuperset, query);
  ASSERT_TRUE(exact.ok());
  EXPECT_TRUE(std::includes(smart->oids.begin(), smart->oids.end(),
                            exact->oids.begin(), exact->oids.end()));
}

TEST_F(NestedIndexTest, SmartSupersetRejectsEmptyQuery) {
  MakeIndex();
  EXPECT_EQ(nix_->CandidatesSmartSuperset({}, 2).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(NestedIndexTest, RemoveDropsPostings) {
  MakeIndex();
  ASSERT_TRUE(nix_->Insert(MakeOid(0), {1, 2}).ok());
  ASSERT_TRUE(nix_->Insert(MakeOid(1), {2, 3}).ok());
  ASSERT_TRUE(nix_->Remove(MakeOid(0), {1, 2}).ok());
  auto result = nix_->Candidates(QueryKind::kSuperset, {2});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->oids, std::vector<Oid>{MakeOid(1)});
}

TEST_F(NestedIndexTest, BulkBuildMatchesIncremental) {
  MakeIndex();
  Rng rng(7);
  std::vector<Oid> oids;
  std::vector<ElementSet> sets;
  for (uint64_t i = 0; i < 400; ++i) {
    oids.push_back(MakeOid(i));
    sets.push_back(rng.SampleWithoutReplacement(80, 5));
  }
  ASSERT_TRUE(nix_->BulkBuild(oids, sets).ok());

  InMemoryPageFile file2("nix2");
  auto nix2 = NestedIndex::Create(&file2);
  ASSERT_TRUE(nix2.ok());
  for (uint64_t i = 0; i < 400; ++i) {
    ASSERT_TRUE((*nix2)->Insert(oids[i], sets[i]).ok());
  }
  for (uint64_t e = 0; e < 80; ++e) {
    auto a = nix_->tree().Lookup(e);
    auto b = (*nix2)->tree().Lookup(e);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    std::sort(b->begin(), b->end());
    EXPECT_EQ(*a, *b) << "element " << e;
  }
}

TEST_F(NestedIndexTest, BulkBuildSizeMismatchRejected) {
  MakeIndex();
  EXPECT_EQ(nix_->BulkBuild({MakeOid(0)}, {}).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(NestedIndexTest, SupersetLookupCostMatchesRcTimesDq) {
  MakeIndex(/*fanout=*/8);
  Populate(2000, 300, 5, 8);
  // With small fanout the tree is at least height 2 => rc = height+1.
  uint32_t rc = nix_->tree().height() + 1;
  ElementSet query = {5, 17, 200};
  file_.stats().Reset();
  ASSERT_TRUE(nix_->Candidates(QueryKind::kSuperset, query).ok());
  EXPECT_EQ(file_.stats().page_reads, rc * query.size());
}

// ---- pinned page images ----
//
// A seeded stream of ApplyBatch calls over a fanout-8 tree, in phases.  After
// each phase the test pins an FNV-1a over every page of the file, the page
// count, and the file's read and write totals.  Any change to the bytes the
// tree writes, or to how many pages it reads or writes, moves these numbers.
// The stream covers:
//   - Table-2-shaped inserts (Dt = 10 of V = 13,000), so leaves, internal
//     nodes and the root split;
//   - one key grown past the 509-OID inline limit into an overflow chain,
//     then drained to zero, and a second key whose chain reuses the freed
//     pages;
//   - removes that empty keys and whole leaves, and inserts that refill
//     them;
//   - empty sets, which write the roster key.

// FNV-1a over every byte of every page of `file`, in page order.  The reads
// count into a scratch IoStats, so the file's own totals are left as the
// index made them.
uint64_t PageImageHash(InMemoryPageFile* file) {
  uint64_t h = 0xcbf29ce484222325ull;
  IoStats uncounted;
  Page page;
  for (PageId id = 0; id < file->num_pages(); ++id) {
    EXPECT_TRUE(file->Read(id, &page, &uncounted).ok());
    for (uint8_t byte : page.bytes) {
      h ^= byte;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

// What the stream left in the file after one phase.
struct PageImage {
  uint64_t fnv;
  PageId pages;
  uint64_t reads;
  uint64_t writes;

  bool operator==(const PageImage&) const = default;
};

std::string ToString(const std::vector<PageImage>& images) {
  std::string out;
  char line[128];
  for (const PageImage& image : images) {
    std::snprintf(line, sizeof(line),
                  "      {0x%016" PRIx64 "ull, %u, %" PRIu64 ", %" PRIu64
                  "},\n",
                  image.fnv, image.pages, image.reads, image.writes);
    out += line;
  }
  return out;
}

class NestedIndexPageImageTest : public NestedIndexTest {
 protected:
  static constexpr size_t kBatch = 250;
  // Element values outside the Table-2 domain, one per hot key.
  static constexpr uint64_t kHotKey = 13000;
  static constexpr uint64_t kRefillHotKey = 13001;

  BatchOp InsertOp(ElementSet set) {
    NormalizeSet(&set);
    return BatchOp{BatchOp::Kind::kInsert, MakeOid(next_oid_++),
                   std::move(set)};
  }

  // Removes every live object whose set satisfies `pred`.
  template <typename Pred>
  std::vector<BatchOp> RemoveOps(Pred pred) const {
    std::vector<BatchOp> ops;
    for (const auto& [oid, set] : live_) {
      if (pred(set)) {
        ops.push_back(BatchOp{BatchOp::Kind::kRemove, Oid(oid), set});
      }
    }
    return ops;
  }

  // Applies `ops` in batches of kBatch and mirrors them in live_.
  void Apply(const std::vector<BatchOp>& ops) {
    for (size_t begin = 0; begin < ops.size(); begin += kBatch) {
      const size_t end = std::min(begin + kBatch, ops.size());
      std::vector<BatchOp> batch(ops.begin() + static_cast<ptrdiff_t>(begin),
                                 ops.begin() + static_cast<ptrdiff_t>(end));
      Status status = nix_->ApplyBatch(batch);
      ASSERT_TRUE(status.ok()) << status.ToString();
    }
    for (const BatchOp& op : ops) {
      if (op.kind == BatchOp::Kind::kInsert) {
        live_[op.oid.value()] = op.set_value;
      } else {
        live_.erase(op.oid.value());
      }
    }
  }

  PageImage Image() {
    return PageImage{PageImageHash(&file_), file_.num_pages(),
                     file_.stats().page_reads.load(),
                     file_.stats().page_writes.load()};
  }

  // Reachable leaves holding no record, found by walking the leaf chain
  // from the leftmost leaf (node type byte 0; entry count at byte 2; first
  // child at byte 8 of an internal node, next leaf at byte 4 of a leaf).
  uint64_t EmptyLeaves() {
    IoStats uncounted;
    Page page;
    PageId id = nix_->tree().root();
    for (uint32_t depth = 0; depth < nix_->tree().height(); ++depth) {
      EXPECT_TRUE(file_.Read(id, &page, &uncounted).ok());
      id = page.ReadAt<uint32_t>(8);
    }
    uint64_t empty = 0;
    for (; id != kInvalidPage; id = page.ReadAt<uint32_t>(4)) {
      EXPECT_TRUE(file_.Read(id, &page, &uncounted).ok());
      if (page.ReadAt<uint16_t>(2) == 0) ++empty;
    }
    return empty;
  }

  // Every posting list equals the one the live objects imply.
  void ExpectMatchesOracle() {
    std::map<uint64_t, std::vector<Oid>> want;
    for (const auto& [oid, set] : live_) {
      if (set.empty()) want[kEmptySetKey].push_back(Oid(oid));
      for (uint64_t element : set) want[element].push_back(Oid(oid));
    }
    std::map<uint64_t, std::vector<Oid>> got;
    ASSERT_TRUE(nix_->tree()
                    .ForEachEntry([&](const BTreeEntry& entry) {
                      got[entry.key] = entry.postings;
                    })
                    .ok());
    EXPECT_EQ(got, want);
  }

  std::map<uint64_t, ElementSet> live_;  // OID value -> set value
  uint64_t next_oid_ = 0;
};

TEST_F(NestedIndexPageImageTest, SeededApplyBatchStreamPinsEveryPage) {
  MakeIndex(/*fanout=*/8);
  const std::vector<ElementSet> sets = MakeDatabase(WorkloadConfig{
      4000, 13000, CardinalitySpec::Fixed(10), SkewKind::kUniform, 0.99, 19});
  std::vector<PageImage> images;

  // Grow: 3,000 objects; the first 800 also carry kHotKey, whose list
  // passes 509 OIDs in the third batch and spills.  Ten empty sets follow.
  std::vector<BatchOp> ops;
  for (size_t i = 0; i < 3000; ++i) {
    ElementSet set = sets[i];
    if (i < 800) set.push_back(kHotKey);
    ops.push_back(InsertOp(std::move(set)));
  }
  for (int i = 0; i < 10; ++i) ops.push_back(InsertOp({}));
  Apply(ops);
  EXPECT_GT(nix_->tree().overflow_pages(), 0u);
  images.push_back(Image());

  // Drain: the hot objects and half the empty sets go, so the chain
  // empties and its pages move to the free list.
  Apply(RemoveOps([](const ElementSet& set) {
    return !set.empty() && set.back() == kHotKey;
  }));
  ops.clear();
  for (size_t i = 0; i < 5; ++i) {
    ops.push_back(BatchOp{BatchOp::Kind::kRemove, MakeOid(3000 + i), {}});
  }
  Apply(ops);
  EXPECT_EQ(nix_->tree().overflow_pages(), 0u);
  EXPECT_GT(nix_->tree().free_pages(), 0u);
  images.push_back(Image());

  // Refill: 700 more objects carrying kRefillHotKey; its chain takes its
  // pages from the free list.
  ops.clear();
  for (size_t i = 3000; i < 3700; ++i) {
    ElementSet set = sets[i];
    set.push_back(kRefillHotKey);
    ops.push_back(InsertOp(std::move(set)));
  }
  Apply(ops);
  EXPECT_GT(nix_->tree().overflow_pages(), 0u);
  images.push_back(Image());

  // Empty: every object with an element below 1,500 goes, which empties
  // those keys and the leaves that held only them.
  Apply(RemoveOps([](const ElementSet& set) {
    return !set.empty() && set.front() < 1500;
  }));
  EXPECT_GT(EmptyLeaves(), 0u);
  images.push_back(Image());

  // Refill the emptied range: 300 objects drawn from [0, 1,500).
  Rng rng(23);
  ops.clear();
  for (int i = 0; i < 300; ++i) {
    ops.push_back(InsertOp(rng.SampleWithoutReplacement(1500, 10)));
  }
  Apply(ops);
  images.push_back(Image());

  EXPECT_GE(nix_->tree().height(), 3u);
  EXPECT_TRUE(nix_->tree().ValidateStructure().ok());
  ExpectMatchesOracle();
  // Generated by a tree that parsed and repacked the whole leaf on every
  // write; a tree that edits pages in place must write the same bytes.
  const std::vector<PageImage> want = {
      {0x84915763f8680f07ull, 176, 101796, 27647},  // grow
      {0xa68ec30f99f3b3b5ull, 176, 131115, 34980},  // drain
      {0xaf25f3314fea692dull, 177, 156501, 41330},  // refill
      {0x8aa38676b6798597ull, 177, 231298, 60032},  // empty
      {0xc1ee94505ad08edcull, 177, 237938, 61692},  // refill the emptied range
  };
  EXPECT_EQ(images, want) << "actual:\n" << ToString(images);
}

}  // namespace
}  // namespace sigsetdb
