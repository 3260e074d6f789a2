#include "nix/btree.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <limits>
#include <map>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "storage/disk_page_file.h"
#include "storage/fault_injecting_page_file.h"
#include "storage/versioned_page_file.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

Oid MakeOid(uint64_t i) {
  return Oid::FromLocation(static_cast<PageId>(i >> 16),
                           static_cast<uint16_t>(i & 0xffff));
}

class BTreeTest : public ::testing::Test {
 protected:
  void MakeTree(uint32_t fanout = kPaperFanout) {
    auto tree = BTree::Create(&file_, fanout);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(*tree);
  }

  InMemoryPageFile file_{"nix"};
  std::unique_ptr<BTree> tree_;
};

TEST_F(BTreeTest, EmptyTreeLookupReturnsEmpty) {
  MakeTree();
  auto postings = tree_->Lookup(42);
  ASSERT_TRUE(postings.ok());
  EXPECT_TRUE(postings->empty());
  EXPECT_EQ(tree_->height(), 0u);
  EXPECT_EQ(tree_->leaf_pages(), 1u);
}

TEST_F(BTreeTest, InsertThenLookup) {
  MakeTree();
  ASSERT_TRUE(tree_->Insert(5, MakeOid(100)).ok());
  ASSERT_TRUE(tree_->Insert(5, MakeOid(200)).ok());
  ASSERT_TRUE(tree_->Insert(9, MakeOid(300)).ok());
  auto p5 = tree_->Lookup(5);
  ASSERT_TRUE(p5.ok());
  EXPECT_EQ(*p5, (std::vector<Oid>{MakeOid(100), MakeOid(200)}));
  auto p9 = tree_->Lookup(9);
  ASSERT_TRUE(p9.ok());
  EXPECT_EQ(*p9, std::vector<Oid>{MakeOid(300)});
  EXPECT_TRUE(tree_->Lookup(7)->empty());
}

TEST_F(BTreeTest, CreateRequiresEmptyFile) {
  MakeTree();
  EXPECT_EQ(BTree::Create(&file_).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, ManyKeysSplitLeavesAndGrowHeight) {
  MakeTree(/*fanout=*/8);  // small fanout to exercise internal splits
  std::map<uint64_t, std::vector<Oid>> reference;
  Rng rng(1);
  for (int i = 0; i < 5000; ++i) {
    uint64_t key = rng.NextBelow(800);
    Oid oid = MakeOid(static_cast<uint64_t>(i));
    ASSERT_TRUE(tree_->Insert(key, oid).ok()) << "i=" << i;
    reference[key].push_back(oid);
  }
  EXPECT_GT(tree_->height(), 1u);
  EXPECT_GT(tree_->leaf_pages(), 1u);
  for (const auto& [key, expected] : reference) {
    auto got = tree_->Lookup(key);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, expected) << "key " << key;
  }
}

// Apply checks each node's type against its depth: a leaf where an
// internal node belongs, or the reverse, is corruption, and nothing is
// written.
TEST_F(BTreeTest, ApplyRefusesANodeOfTheWrongTypeForItsDepth) {
  MakeTree(/*fanout=*/8);
  for (uint64_t i = 0; i < 3000; ++i) {
    ASSERT_TRUE(tree_->Insert(i % 600, MakeOid(i)).ok()) << "i=" << i;
  }
  ASSERT_GE(tree_->height(), 1u);
  Page root;
  ASSERT_TRUE(file_.Read(tree_->root(), &root).ok());
  PageId leaf = tree_->root();
  Page page = root;
  for (uint32_t depth = 0; depth < tree_->height(); ++depth) {
    leaf = page.ReadAt<uint32_t>(8);  // the first child
    ASSERT_TRUE(file_.Read(leaf, &page).ok());
  }
  const Page leaf_page = page;

  // The root claims to be a leaf (type byte 1).
  Page bad = root;
  bad.WriteAt<uint8_t>(0, 1);
  ASSERT_TRUE(file_.Write(tree_->root(), bad).ok());
  const uint64_t writes = file_.stats().writes();
  EXPECT_EQ(tree_->Insert(0, MakeOid(9000)).code(), StatusCode::kCorruption);
  EXPECT_EQ(file_.stats().writes(), writes);
  ASSERT_TRUE(file_.Write(tree_->root(), root).ok());

  // The leftmost leaf claims to be an internal node (type byte 2).
  bad = leaf_page;
  bad.WriteAt<uint8_t>(0, 2);
  ASSERT_TRUE(file_.Write(leaf, bad).ok());
  EXPECT_EQ(tree_->Insert(0, MakeOid(9001)).code(), StatusCode::kCorruption);
  ASSERT_TRUE(file_.Write(leaf, leaf_page).ok());

  ASSERT_TRUE(tree_->Insert(0, MakeOid(9002)).ok());
  EXPECT_TRUE(tree_->ValidateStructure().ok());
}

TEST_F(BTreeTest, ForEachEntryVisitsKeysInOrder) {
  MakeTree(/*fanout=*/4);
  Rng rng(2);
  std::set<uint64_t> keys;
  for (int i = 0; i < 1000; ++i) {
    uint64_t key = rng.NextBelow(10000);
    ASSERT_TRUE(tree_->Insert(key, MakeOid(key)).ok());
    keys.insert(key);
  }
  std::vector<uint64_t> visited;
  ASSERT_TRUE(tree_
                  ->ForEachEntry([&](const BTreeEntry& e) {
                    visited.push_back(e.key);
                  })
                  .ok());
  std::vector<uint64_t> expected(keys.begin(), keys.end());
  EXPECT_EQ(visited, expected);
}

TEST_F(BTreeTest, LookupCostsHeightPlusOneReads) {
  MakeTree(/*fanout=*/4);
  for (uint64_t k = 0; k < 2000; ++k) {
    ASSERT_TRUE(tree_->Insert(k, MakeOid(k)).ok());
  }
  uint32_t height = tree_->height();
  ASSERT_GE(height, 2u);
  file_.stats().Reset();
  ASSERT_TRUE(tree_->Lookup(1234).ok());
  EXPECT_EQ(file_.stats().page_reads, height + 1u);
}

TEST_F(BTreeTest, RemoveOidAndEntry) {
  MakeTree();
  ASSERT_TRUE(tree_->Insert(5, MakeOid(1)).ok());
  ASSERT_TRUE(tree_->Insert(5, MakeOid(2)).ok());
  ASSERT_TRUE(tree_->Remove(5, MakeOid(1)).ok());
  EXPECT_EQ(*tree_->Lookup(5), std::vector<Oid>{MakeOid(2)});
  ASSERT_TRUE(tree_->Remove(5, MakeOid(2)).ok());
  EXPECT_TRUE(tree_->Lookup(5)->empty());
  EXPECT_EQ(tree_->Remove(5, MakeOid(2)).code(), StatusCode::kNotFound);
  EXPECT_EQ(tree_->Remove(99, MakeOid(1)).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, RemoveAcrossSplitTree) {
  MakeTree(/*fanout=*/4);
  for (uint64_t k = 0; k < 500; ++k) {
    ASSERT_TRUE(tree_->Insert(k, MakeOid(k)).ok());
  }
  for (uint64_t k = 0; k < 500; k += 2) {
    ASSERT_TRUE(tree_->Remove(k, MakeOid(k)).ok());
  }
  for (uint64_t k = 0; k < 500; ++k) {
    auto postings = tree_->Lookup(k);
    ASSERT_TRUE(postings.ok());
    EXPECT_EQ(postings->size(), k % 2 == 0 ? 0u : 1u) << "key " << k;
  }
}

TEST_F(BTreeTest, PostingListSpillsToOverflowChain) {
  MakeTree();
  // One leaf page holds at most 509 inline postings; beyond that the list
  // spills into an overflow chain and keeps growing.
  constexpr uint64_t kPostings = 2000;
  for (uint64_t i = 0; i < kPostings; ++i) {
    ASSERT_TRUE(tree_->Insert(7, MakeOid(i)).ok()) << "i=" << i;
  }
  EXPECT_GT(tree_->overflow_pages(), 0u);
  auto postings = tree_->Lookup(7);
  ASSERT_TRUE(postings.ok());
  ASSERT_EQ(postings->size(), kPostings);
  std::set<Oid> unique(postings->begin(), postings->end());
  EXPECT_EQ(unique.size(), kPostings);
}

TEST_F(BTreeTest, OverflowChainSupportsRemove) {
  MakeTree();
  for (uint64_t i = 0; i < 1500; ++i) {
    ASSERT_TRUE(tree_->Insert(7, MakeOid(i)).ok());
  }
  for (uint64_t i = 0; i < 1500; i += 3) {
    ASSERT_TRUE(tree_->Remove(7, MakeOid(i)).ok()) << "i=" << i;
  }
  auto postings = tree_->Lookup(7);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(postings->size(), 1000u);
  for (Oid oid : *postings) {
    uint64_t i = (static_cast<uint64_t>(oid.page()) << 16) | oid.slot();
    EXPECT_NE(i % 3, 0u);
  }
  EXPECT_EQ(tree_->Remove(7, MakeOid(0)).code(), StatusCode::kNotFound);
}

TEST_F(BTreeTest, DrainedOverflowChainsAreRecycled) {
  MakeTree();
  for (uint64_t i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Insert(7, MakeOid(i)).ok());
  }
  uint64_t chain_pages = tree_->overflow_pages();
  ASSERT_GE(chain_pages, 2u);
  PageId pages_before = file_.num_pages();
  for (uint64_t i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Remove(7, MakeOid(i)).ok());
  }
  EXPECT_EQ(tree_->overflow_pages(), 0u);
  EXPECT_EQ(tree_->free_pages(), chain_pages);
  // Building a new chain reuses the freed pages instead of growing the
  // file.
  for (uint64_t i = 0; i < 1200; ++i) {
    ASSERT_TRUE(tree_->Insert(9, MakeOid(i)).ok());
  }
  EXPECT_EQ(file_.num_pages(), pages_before);
  EXPECT_EQ(tree_->Lookup(9)->size(), 1200u);
}

TEST_F(BTreeTest, OverflowDrainsToEmptyEntry) {
  MakeTree();
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(tree_->Insert(7, MakeOid(i)).ok());
  }
  for (uint64_t i = 0; i < 600; ++i) {
    ASSERT_TRUE(tree_->Remove(7, MakeOid(i)).ok());
  }
  EXPECT_TRUE(tree_->Lookup(7)->empty());
  // Reinsertion after drain starts a fresh inline record.
  ASSERT_TRUE(tree_->Insert(7, MakeOid(9)).ok());
  EXPECT_EQ(tree_->Lookup(7)->size(), 1u);
}

TEST_F(BTreeTest, BulkLoadSpillsGiantPostings) {
  MakeTree();
  std::vector<BTreeEntry> entries;
  BTreeEntry giant;
  giant.key = 5;
  for (uint64_t i = 0; i < 1200; ++i) giant.postings.push_back(MakeOid(i));
  entries.push_back(giant);
  entries.push_back({9, {MakeOid(1)}});
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  EXPECT_GT(tree_->overflow_pages(), 1u);
  auto postings = tree_->Lookup(5);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(postings->size(), 1200u);
  // Bulk-loaded chains preserve order.
  EXPECT_EQ(*postings, giant.postings);
  EXPECT_EQ(tree_->Lookup(9)->size(), 1u);
}

// A 509-OID inline list (4,084 bytes) arriving between two 20-byte
// neighbours leaves no two-way leaf cut that fits a page; the split must
// move the big list to an overflow chain instead of failing.
TEST_F(BTreeTest, ApplyLargeListBetweenNeighboursSplitsCleanly) {
  MakeTree();
  ASSERT_TRUE(tree_->Insert(10, MakeOid(1)).ok());
  ASSERT_TRUE(tree_->Insert(30, MakeOid(2)).ok());
  std::vector<Oid> adds;
  for (uint64_t i = 0; i < 509; ++i) adds.push_back(MakeOid(1000 + 509 - i));
  Status status = tree_->Apply(20, adds, {});
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::vector<Oid> want = adds;
  std::sort(want.begin(), want.end());
  auto postings = tree_->Lookup(20);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(*postings, want);
  EXPECT_EQ(*tree_->Lookup(10), std::vector<Oid>{MakeOid(1)});
  EXPECT_EQ(*tree_->Lookup(30), std::vector<Oid>{MakeOid(2)});
  EXPECT_GT(tree_->overflow_pages(), 0u);
  EXPECT_TRUE(tree_->ValidateStructure().ok());
  // The spilled record keeps working on every path.
  ASSERT_TRUE(tree_->Insert(20, MakeOid(5)).ok());
  ASSERT_TRUE(tree_->Remove(20, MakeOid(1000 + 7)).ok());
  ASSERT_TRUE(tree_->Apply(20, {MakeOid(6)}, {MakeOid(1000 + 8)}).ok());
  want.erase(std::find(want.begin(), want.end(), MakeOid(1000 + 7)));
  want.erase(std::find(want.begin(), want.end(), MakeOid(1000 + 8)));
  want.push_back(MakeOid(5));
  want.push_back(MakeOid(6));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(*tree_->Lookup(20), want);
  EXPECT_TRUE(tree_->ValidateStructure().ok());
}

// Two lists of ~2 KiB each plus a small neighbour: the byte-balanced cut
// lands after the second list and overflows the left leaf, but the cut
// before it fits, so the split takes that one and nothing spills.
TEST_F(BTreeTest, ApplySplitsBeforeAListStraddlingTheMiddle) {
  MakeTree();
  auto oids = [](uint64_t first, uint64_t n) {
    std::vector<Oid> out;
    for (uint64_t i = 0; i < n; ++i) out.push_back(MakeOid(first + i));
    return out;
  };
  ASSERT_TRUE(tree_->Insert(30, MakeOid(1)).ok());
  ASSERT_TRUE(tree_->Apply(10, oids(1000, 250), {}).ok());
  Status status = tree_->Apply(20, oids(5000, 262), {});
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_EQ(tree_->leaf_pages(), 2u);
  EXPECT_EQ(tree_->overflow_pages(), 0u);
  EXPECT_EQ(*tree_->Lookup(10), oids(1000, 250));
  EXPECT_EQ(*tree_->Lookup(20), oids(5000, 262));
  EXPECT_EQ(*tree_->Lookup(30), std::vector<Oid>{MakeOid(1)});
  EXPECT_TRUE(tree_->ValidateStructure().ok());
}

// The same three keys grown one Insert at a time: the list passes through
// every size up to 509 between its neighbours, and each leaf split the
// growth forces goes through the shared split path.
TEST_F(BTreeTest, InsertLargeListBetweenNeighboursSplitsCleanly) {
  MakeTree();
  ASSERT_TRUE(tree_->Insert(10, MakeOid(1)).ok());
  ASSERT_TRUE(tree_->Insert(30, MakeOid(2)).ok());
  std::vector<Oid> want;
  for (uint64_t i = 0; i < 509; ++i) {
    Oid oid = MakeOid(1000 + 509 - i);
    Status status = tree_->Insert(20, oid);
    ASSERT_TRUE(status.ok()) << "i=" << i << ": " << status.ToString();
    want.push_back(oid);
  }
  std::sort(want.begin(), want.end());
  auto postings = tree_->Lookup(20);
  ASSERT_TRUE(postings.ok());
  EXPECT_EQ(*postings, want);
  EXPECT_EQ(*tree_->Lookup(10), std::vector<Oid>{MakeOid(1)});
  EXPECT_EQ(*tree_->Lookup(30), std::vector<Oid>{MakeOid(2)});
  EXPECT_TRUE(tree_->ValidateStructure().ok());
  // A new neighbour on the big list's leaf forces one more split.
  for (uint64_t k : {15, 25}) {
    ASSERT_TRUE(tree_->Insert(k, MakeOid(k)).ok()) << "key " << k;
  }
  EXPECT_EQ(*tree_->Lookup(20), want);
  EXPECT_TRUE(tree_->ValidateStructure().ok());
}

// Random Apply groups over 24 keys, each moving one key's list to a random
// length in [1, 509]: inline lists of every size sit next to each other, so
// leaves split at the balanced cut, at the cut before a list straddling the
// middle, and after spills.  Every posting and the structure must survive.
TEST_F(BTreeTest, RandomApplyGroupsKeepEveryPosting) {
  MakeTree(/*fanout=*/8);
  std::map<uint64_t, std::vector<Oid>> want;
  Rng rng(17);
  uint64_t next_oid = 1;
  for (int round = 0; round < 400; ++round) {
    const uint64_t key = rng.NextBelow(24) * 10;
    std::vector<Oid>& have = want[key];
    // Targets past the 509-OID inline limit make groups spill, grow,
    // shrink, drain (target 0) and refill overflow chains.
    const size_t target = rng.NextBelow(2001);
    std::vector<Oid> adds;
    std::vector<Oid> removes;
    while (have.size() > target) {
      const size_t at = rng.NextBelow(have.size());
      removes.push_back(have[at]);
      have.erase(have.begin() + static_cast<ptrdiff_t>(at));
    }
    while (have.size() + adds.size() < target) {
      adds.push_back(MakeOid(next_oid++));
    }
    have.insert(have.end(), adds.begin(), adds.end());
    Status status = tree_->Apply(key, adds, removes);
    ASSERT_TRUE(status.ok()) << "round " << round << ": " << status.ToString();
  }
  for (auto& [key, oids] : want) {
    std::sort(oids.begin(), oids.end());
    auto postings = tree_->Lookup(key);
    ASSERT_TRUE(postings.ok());
    EXPECT_EQ(*postings, oids) << "key " << key;
  }
  EXPECT_TRUE(tree_->ValidateStructure().ok());
}

// A tree of height 1 whose key kChainKey holds a 40-page overflow chain:
// 39 bulk-loaded full pages behind a head page with one OID (room for
// 510).  chain[i] is the i-th bulk-loaded posting, on chain page
// 1 + i / 511 (the head is page 0).
class BTreeChainTest : public BTreeTest {
 protected:
  static constexpr uint64_t kChainKey = 5000;
  static constexpr size_t kPerPage = 511;

  void SetUp() override {
    MakeTree();
    std::vector<BTreeEntry> entries;
    for (uint64_t k = 0; k < 1000; ++k) {
      entries.push_back({k, {MakeOid(k), MakeOid(k + 1)}});
    }
    BTreeEntry chain{kChainKey, {}};
    for (uint64_t i = 0; i < 39 * kPerPage; ++i) {
      chain.postings.push_back(MakeOid(100000 + i));
    }
    chain_ = chain.postings;
    entries.push_back(std::move(chain));
    ASSERT_TRUE(tree_->BulkLoad(entries).ok());
    ASSERT_TRUE(tree_->Apply(kChainKey, {MakeOid(1)}, {}).ok());
    chain_.push_back(MakeOid(1));
    ASSERT_EQ(tree_->overflow_pages(), 40u);
    ASSERT_EQ(tree_->height(), 1u);
    file_.stats().Reset();
  }

  void ExpectChainHolds() {
    std::sort(chain_.begin(), chain_.end());
    EXPECT_EQ(*tree_->Lookup(kChainKey), chain_);
    EXPECT_TRUE(tree_->ValidateStructure().ok());
  }

  std::vector<Oid> chain_;
};

TEST_F(BTreeChainTest, OneAddWritesOnlyTheHeadAndLeaf) {
  ASSERT_TRUE(tree_->Apply(kChainKey, {MakeOid(2)}, {}).ok());
  EXPECT_EQ(file_.stats().page_reads, (tree_->height() + 1u) + 1u);
  EXPECT_EQ(file_.stats().page_writes, 2u);
  chain_.push_back(MakeOid(2));
  ExpectChainHolds();
}

TEST_F(BTreeChainTest, OneRemoveReadsUpToItsVictim) {
  // chain_[19 * 511 + 3] lies on chain page 20.
  const Oid victim = chain_[19 * kPerPage + 3];
  ASSERT_TRUE(tree_->Apply(kChainKey, {}, {victim}).ok());
  EXPECT_EQ(file_.stats().page_reads, (tree_->height() + 1u) + 21u);
  EXPECT_EQ(file_.stats().page_writes, 2u);
  chain_.erase(std::find(chain_.begin(), chain_.end(), victim));
  ExpectChainHolds();
}

TEST_F(BTreeChainTest, ManyAddsFillTheHeadThenPrependPages) {
  std::vector<Oid> adds;
  for (uint64_t i = 0; i < 600; ++i) adds.push_back(MakeOid(200000 + i));
  ASSERT_TRUE(tree_->Apply(kChainKey, adds, {}).ok());
  EXPECT_LE(file_.stats().page_writes, (600u + kPerPage - 1) / kPerPage + 2);
  chain_.insert(chain_.end(), adds.begin(), adds.end());
  ExpectChainHolds();
}

TEST_F(BTreeChainTest, ManyRemovesReadEachChainPageOnce) {
  // 100 victims spread over every page of the chain, head included.
  std::vector<Oid> removes = {MakeOid(1)};
  for (size_t i = 0; i < 99; ++i) removes.push_back(chain_[i * 199 + 7]);
  ASSERT_TRUE(tree_->Apply(kChainKey, {}, removes).ok());
  EXPECT_LE(file_.stats().page_reads, (tree_->height() + 1u) + 40u);
  for (const Oid& oid : removes) {
    chain_.erase(std::find(chain_.begin(), chain_.end(), oid));
  }
  ExpectChainHolds();
  // A missing victim fails the whole group before anything is written.
  file_.stats().Reset();
  EXPECT_EQ(tree_->Apply(kChainKey, {}, {chain_[5], MakeOid(1)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(file_.stats().page_writes, 0u);
  ExpectChainHolds();
}

TEST_F(BTreeTest, BulkLoadSmall) {
  MakeTree();
  std::vector<BTreeEntry> entries;
  for (uint64_t k = 0; k < 100; ++k) {
    entries.push_back({k * 10, {MakeOid(k), MakeOid(k + 1000)}});
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  for (uint64_t k = 0; k < 100; ++k) {
    auto postings = tree_->Lookup(k * 10);
    ASSERT_TRUE(postings.ok());
    EXPECT_EQ(*postings, entries[k].postings);
  }
  EXPECT_TRUE(tree_->Lookup(5)->empty());
}

TEST_F(BTreeTest, BulkLoadPacksLeaves) {
  MakeTree();
  // 100 entries of 2 postings: 2+8+2+16 = 28 bytes each; ~146 fit per page.
  std::vector<BTreeEntry> entries;
  for (uint64_t k = 0; k < 1000; ++k) {
    entries.push_back({k, {MakeOid(k), MakeOid(k + 1)}});
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  // Packed: ceil(1000/146) = 7 leaves.
  EXPECT_EQ(tree_->leaf_pages(), 7u);
  EXPECT_EQ(tree_->height(), 1u);
  EXPECT_EQ(tree_->internal_pages(), 1u);
}

TEST_F(BTreeTest, BulkLoadRejectsUnsortedInput) {
  MakeTree();
  std::vector<BTreeEntry> entries = {{5, {MakeOid(1)}}, {3, {MakeOid(2)}}};
  EXPECT_EQ(tree_->BulkLoad(entries).code(), StatusCode::kInvalidArgument);
}

TEST_F(BTreeTest, BulkLoadRejectsNonEmptyTree) {
  MakeTree();
  ASSERT_TRUE(tree_->Insert(1, MakeOid(1)).ok());
  std::vector<BTreeEntry> entries = {{5, {MakeOid(1)}}};
  EXPECT_EQ(tree_->BulkLoad(entries).code(),
            StatusCode::kFailedPrecondition);
}

TEST_F(BTreeTest, BulkLoadThenIncrementalInserts) {
  MakeTree(/*fanout=*/8);
  std::vector<BTreeEntry> entries;
  for (uint64_t k = 0; k < 2000; k += 2) {
    entries.push_back({k, {MakeOid(k)}});
  }
  ASSERT_TRUE(tree_->BulkLoad(entries).ok());
  // Odd keys inserted incrementally (leaves are packed => every insert
  // splits, a worst case for the split paths).
  for (uint64_t k = 1; k < 2000; k += 2) {
    ASSERT_TRUE(tree_->Insert(k, MakeOid(k)).ok()) << "key " << k;
  }
  for (uint64_t k = 0; k < 2000; ++k) {
    auto postings = tree_->Lookup(k);
    ASSERT_TRUE(postings.ok());
    EXPECT_EQ(*postings, std::vector<Oid>{MakeOid(k)}) << "key " << k;
  }
  std::vector<uint64_t> visited;
  ASSERT_TRUE(tree_
                  ->ForEachEntry([&](const BTreeEntry& e) {
                    visited.push_back(e.key);
                  })
                  .ok());
  EXPECT_EQ(visited.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}


// ---- in-place leaf edits ----
//
// A one-leaf tree (height 0) whose root page is read back raw.  Every case
// checks the leaf byte for byte against the packed layout btree.h
// documents, ValidateStructure, and a std::map oracle of the postings.
class BTreeLeafEditTest : public BTreeTest {
 protected:
  using Oracle = std::map<uint64_t, std::vector<Oid>>;

  void SetUp() override { MakeTree(); }

  // Apply on the tree and, when it succeeds, on the oracle: each remove
  // takes one occurrence, adds keep the list ascending, an emptied list
  // drops its key.
  Status Apply(uint64_t key, const std::vector<Oid>& adds,
               const std::vector<Oid>& removes) {
    Status status = tree_->Apply(key, adds, removes);
    if (!status.ok()) return status;
    std::vector<Oid>& list = oracle_[key];
    for (const Oid& oid : removes) {
      list.erase(std::find(list.begin(), list.end(), oid));
    }
    list.insert(list.end(), adds.begin(), adds.end());
    std::sort(list.begin(), list.end());
    if (list.empty()) oracle_.erase(key);
    return status;
  }

  static std::vector<Oid> Oids(uint64_t first, uint64_t n) {
    std::vector<Oid> out;
    for (uint64_t i = 0; i < n; ++i) out.push_back(MakeOid(first + i));
    return out;
  }

  // Bytes of the page `id`, read without charging the file's counters.
  Page RawPage(PageId id) {
    IoStats uncounted;
    Page page;
    EXPECT_TRUE(file_.Read(id, &page, &uncounted).ok());
    return page;
  }

  // The leaf that packs `records`: header (type 1, entry count, next leaf),
  // the offset directory, then the records stacked down from the page's end
  // in key order, each key (8) | count (2) | count × OID (8); zero elsewhere.
  static Page PackedLeaf(const Oracle& records) {
    Page page;
    page.WriteAt<uint8_t>(0, 1);
    page.WriteAt<uint16_t>(2, static_cast<uint16_t>(records.size()));
    page.WriteAt<uint32_t>(4, kInvalidPage);
    size_t heap = kPageSize;
    size_t slot = 0;
    for (const auto& [key, oids] : records) {
      heap -= 10 + oids.size() * 8;
      page.WriteAt<uint16_t>(8 + slot++ * 2, static_cast<uint16_t>(heap));
      page.WriteAt<uint64_t>(heap, key);
      page.WriteAt<uint16_t>(heap + 8, static_cast<uint16_t>(oids.size()));
      for (size_t i = 0; i < oids.size(); ++i) {
        page.WriteAt<uint64_t>(heap + 10 + i * 8, oids[i].value());
      }
    }
    return page;
  }

  // Free bytes of the root leaf.
  size_t FreeBytes() const {
    size_t used = 8;
    for (const auto& entry : oracle_) used += 12 + entry.second.size() * 8;
    return kPageSize - used;
  }

  void ExpectLeafMatchesOracle() {
    ASSERT_EQ(tree_->height(), 0u);
    EXPECT_EQ(RawPage(tree_->root()).bytes, PackedLeaf(oracle_).bytes);
    ExpectTreeMatchesOracle();
  }

  void ExpectTreeMatchesOracle() {
    EXPECT_TRUE(tree_->ValidateStructure().ok());
    Oracle got;
    ASSERT_TRUE(tree_
                    ->ForEachEntry([&](const BTreeEntry& entry) {
                      got[entry.key] = entry.postings;
                    })
                    .ok());
    EXPECT_EQ(got, oracle_);
    for (const auto& [key, oids] : oracle_) {
      EXPECT_EQ(*tree_->Lookup(key), oids) << "key " << key;
    }
  }

  Oracle oracle_;
};

TEST_F(BTreeLeafEditTest, RecordsInsertAtFrontMiddleAndEnd) {
  ASSERT_TRUE(Apply(50, Oids(500, 3), {}).ok());
  // Directory position 0, between two records, after the last one.
  for (uint64_t key : {10, 30, 90, 70, 5}) {
    file_.stats().Reset();
    ASSERT_TRUE(Apply(key, Oids(key * 10, 2), {}).ok()) << "key " << key;
    EXPECT_EQ(file_.stats().page_writes, 1u);
    ExpectLeafMatchesOracle();
  }
  // A list grown and shrunk in the middle moves only the records below it.
  ASSERT_TRUE(Apply(30, Oids(1000, 40), {}).ok());
  ExpectLeafMatchesOracle();
  ASSERT_TRUE(Apply(30, {}, Oids(1000, 39)).ok());
  ExpectLeafMatchesOracle();
}

TEST_F(BTreeLeafEditTest, RemovingEveryRecordEmptiesTheLeafThenItRefills) {
  for (uint64_t key : {10, 20, 30}) {
    ASSERT_TRUE(Apply(key, Oids(key * 10, 4), {}).ok());
  }
  // The record at the last directory position, then the first, then the
  // only one left.
  for (uint64_t key : {30, 10, 20}) {
    ASSERT_TRUE(Apply(key, {}, Oids(key * 10, 4)).ok()) << "key " << key;
    ExpectLeafMatchesOracle();
  }
  EXPECT_EQ(RawPage(tree_->root()).bytes, PackedLeaf({}).bytes);
  EXPECT_TRUE(tree_->Lookup(20)->empty());
  for (uint64_t key : {40, 15, 60}) {
    ASSERT_TRUE(Apply(key, Oids(key * 10, 2), {}).ok()) << "key " << key;
    ExpectLeafMatchesOracle();
  }
}

// Every leaf record takes a multiple of 4 bytes (12 + 8n inline, with its
// directory slot) and the header 8, so a change fits exactly or overshoots
// the page by at least 4 bytes.
TEST_F(BTreeLeafEditTest, ChangeFillingTheLeafExactlyIsOneWrite) {
  // One OID more, into the last 8 free bytes.
  ASSERT_TRUE(Apply(10, Oids(100, 506), {}).ok());
  ASSERT_TRUE(Apply(20, {MakeOid(7)}, {}).ok());
  ASSERT_EQ(FreeBytes(), 8u);
  file_.stats().Reset();
  ASSERT_TRUE(Apply(20, {MakeOid(8)}, {}).ok());
  EXPECT_EQ(FreeBytes(), 0u);
  EXPECT_EQ(file_.stats().page_writes, 1u);
  EXPECT_EQ(tree_->leaf_pages(), 1u);
  ExpectLeafMatchesOracle();
  // A new one-OID record, into the last 20 free bytes.
  ASSERT_TRUE(Apply(20, {}, {MakeOid(7), MakeOid(8)}).ok());
  ASSERT_TRUE(Apply(10, {MakeOid(99)}, {}).ok());
  ASSERT_EQ(FreeBytes(), 20u);
  file_.stats().Reset();
  ASSERT_TRUE(Apply(30, {MakeOid(9)}, {}).ok());
  EXPECT_EQ(FreeBytes(), 0u);
  EXPECT_EQ(file_.stats().page_writes, 1u);
  EXPECT_EQ(tree_->leaf_pages(), 1u);
  ExpectLeafMatchesOracle();
}

TEST_F(BTreeLeafEditTest, ChangeFourBytesPastTheLeafSplits) {
  // A one-OID record (20 bytes) into 16 free bytes.
  ASSERT_TRUE(Apply(10, Oids(100, 505), {}).ok());
  ASSERT_TRUE(Apply(20, {MakeOid(7)}, {}).ok());
  ASSERT_EQ(FreeBytes(), 16u);
  file_.stats().Reset();
  ASSERT_TRUE(Apply(30, {MakeOid(9)}, {}).ok());
  EXPECT_EQ(tree_->leaf_pages(), 2u);
  EXPECT_EQ(tree_->height(), 1u);
  // Left leaf, right leaf, new root.
  EXPECT_EQ(file_.stats().page_writes, 3u);
  ExpectTreeMatchesOracle();
}

TEST_F(BTreeLeafEditTest, OneOidFourBytesPastTheLeafSplits) {
  ASSERT_TRUE(Apply(10, Oids(100, 504), {}).ok());
  ASSERT_TRUE(Apply(20, {MakeOid(7)}, {}).ok());
  ASSERT_TRUE(Apply(30, {MakeOid(9)}, {}).ok());
  ASSERT_EQ(FreeBytes(), 4u);
  ASSERT_TRUE(Apply(20, {MakeOid(8)}, {}).ok());
  EXPECT_EQ(tree_->leaf_pages(), 2u);
  ExpectTreeMatchesOracle();
}

TEST_F(BTreeLeafEditTest, MissingKeyOrOidChangesNothing) {
  for (uint64_t key : {10, 20, 30}) {
    ASSERT_TRUE(Apply(key, Oids(key * 10, 3), {}).ok());
  }
  const Page before = RawPage(tree_->root());
  file_.stats().Reset();
  EXPECT_EQ(Apply(25, {}, {MakeOid(1)}).code(), StatusCode::kNotFound);
  EXPECT_EQ(Apply(25, {MakeOid(2)}, {MakeOid(1)}).code(),
            StatusCode::kNotFound);
  // One missing OID among present ones fails the whole group, adds too.
  EXPECT_EQ(Apply(20, {MakeOid(3)}, {MakeOid(200), MakeOid(1)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(Apply(20, {}, {MakeOid(999)}).code(), StatusCode::kNotFound);
  // A remove matches the postings before the group's adds.
  EXPECT_EQ(Apply(20, {MakeOid(4)}, {MakeOid(4)}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(file_.stats().page_writes, 0u);
  EXPECT_EQ(RawPage(tree_->root()).bytes, before.bytes);
  ExpectLeafMatchesOracle();
}

TEST_F(BTreeLeafEditTest, RemovingADuplicateOidTakesOneOccurrence) {
  const Oid dup = MakeOid(5);
  ASSERT_TRUE(Apply(10, {dup, MakeOid(9), dup, dup}, {}).ok());
  ASSERT_TRUE(Apply(10, {}, {dup}).ok());
  EXPECT_EQ(*tree_->Lookup(10), (std::vector<Oid>{dup, dup, MakeOid(9)}));
  ExpectLeafMatchesOracle();
  EXPECT_EQ(Apply(10, {}, {dup, dup, dup}).code(), StatusCode::kNotFound);
  ASSERT_TRUE(Apply(10, {}, {dup, dup}).ok());
  EXPECT_EQ(*tree_->Lookup(10), std::vector<Oid>{MakeOid(9)});
  ExpectLeafMatchesOracle();
}

// ---- LookupMany ----------------------------------------------------------

// A fanout-4 tree of height 3 over the keys 10, 20, ..., 6000 with 1 to 29
// postings each (20 leaves), plus kChainKey, whose 1,200 postings live in an
// overflow chain, read through each kind of file a tree is read through:
// the in-memory, CoW and epoch-pinned files lend their pages, so their
// leaves group; the on-disk and fault-injecting files copy, so each group
// holds one leaf.
class BTreeLookupManyTest : public ::testing::TestWithParam<std::string> {
 protected:
  static constexpr uint64_t kChainKey = 3005;
  static constexpr uint32_t kFanout = 4;

  void SetUp() override {
    const std::string& type = GetParam();
    PageFile* file = &memory_;
    if (type == "on_disk") {
      path_ = ::testing::TempDir() + "sigsetdb_lookup_many_" +
              std::to_string(::getpid()) + ".pages";
      auto disk = OnDiskPageFile::Open("disk", path_);
      ASSERT_TRUE(disk.ok()) << disk.status().ToString();
      disk_ = std::move(*disk);
      file = disk_.get();
    } else if (type == "fault_injecting") {
      faulty_ = std::make_unique<FaultInjectingPageFile>(&memory_, &injector_);
      file = faulty_.get();
    } else if (type == "versioned" || type == "epoch_read_view") {
      auto versioned = VersionedPageFile::Wrap(&memory_, &published_);
      ASSERT_TRUE(versioned.ok()) << versioned.status().ToString();
      versioned_ = std::move(*versioned);
      file = versioned_.get();
    }
    auto tree = BTree::Create(file, kFanout);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    std::vector<BTreeEntry> entries;
    for (uint64_t k = 10; k <= 6000; k += 10) {
      for (uint64_t j = 0; j <= k / 10 % 29; ++j) {
        oracle_[k].push_back(MakeOid(k + j));
      }
      entries.push_back({k, oracle_[k]});
    }
    ASSERT_TRUE((*tree)->BulkLoad(entries).ok());
    // Grown one posting at a time, so the chain is unordered on disk.
    for (uint64_t i = 0; i < 1200; ++i) {
      const Oid oid = MakeOid(7 * (1200 - i));
      ASSERT_TRUE((*tree)->Insert(kChainKey, oid).ok());
      oracle_[kChainKey].push_back(oid);
    }
    std::sort(oracle_[kChainKey].begin(), oracle_[kChainKey].end());
    ASSERT_GT((*tree)->overflow_pages(), 0u);
    ASSERT_EQ((*tree)->height(), 3u);
    if (type == "epoch_read_view") {
      published_.store(1);
      view_ = std::make_unique<EpochReadView>(versioned_.get(), 1);
      auto pinned = BTree::CreateReadView(
          view_.get(), kFanout, (*tree)->root(), (*tree)->height(),
          (*tree)->leaf_pages(), (*tree)->internal_pages(),
          (*tree)->overflow_pages());
      ASSERT_TRUE(pinned.ok()) << pinned.status().ToString();
      tree_ = std::move(*pinned);
      file = view_.get();
    } else {
      tree_ = std::move(*tree);
    }
    file_ = file;
  }

  void TearDown() override {
    disk_.reset();
    if (!path_.empty()) std::remove(path_.c_str());
  }

  // LookupMany(keys) gives the oracle's postings, and the file's read
  // counter moves by as much as one Lookup per key moves it.
  void ExpectMatchesOneKeyLookups(const std::vector<uint64_t>& keys) {
    file_->stats().Reset();
    std::vector<std::vector<Oid>> got = {{MakeOid(1)}};
    ASSERT_TRUE(tree_->LookupMany(keys, &got).ok());
    const uint64_t grouped = file_->stats().reads();
    ASSERT_EQ(got.size(), keys.size());
    file_->stats().Reset();
    for (size_t i = 0; i < keys.size(); ++i) {
      auto one = tree_->Lookup(keys[i]);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      const auto it = oracle_.find(keys[i]);
      const std::vector<Oid> want =
          it == oracle_.end() ? std::vector<Oid>{} : it->second;
      EXPECT_EQ(got[i], want) << "key " << keys[i] << " at " << i;
      EXPECT_EQ(*one, want) << "key " << keys[i];
    }
    EXPECT_EQ(grouped, file_->stats().reads());
    EXPECT_EQ(grouped, keys.size() * (tree_->height() + 1u) +
                           ChainPages(keys));
  }

  // The overflow pages the keys' chains take, one read each.
  uint64_t ChainPages(const std::vector<uint64_t>& keys) const {
    return tree_->overflow_pages() *
           std::count(keys.begin(), keys.end(), kChainKey);
  }

  InMemoryPageFile memory_{"nix"};
  std::string path_;
  std::unique_ptr<OnDiskPageFile> disk_;
  FaultInjector injector_;
  std::unique_ptr<FaultInjectingPageFile> faulty_;
  std::atomic<uint64_t> published_{0};
  std::unique_ptr<VersionedPageFile> versioned_;
  std::unique_ptr<EpochReadView> view_;
  PageFile* file_ = nullptr;
  std::unique_ptr<BTree> tree_;
  std::map<uint64_t, std::vector<Oid>> oracle_;
};

TEST_P(BTreeLookupManyTest, PresentAbsentAndOutOfRangeKeys) {
  ExpectMatchesOneKeyLookups({0, 10, 15, 2990, 3000, 3001, 5990, 6000, 6001,
                              std::numeric_limits<uint64_t>::max()});
}

TEST_P(BTreeLookupManyTest, RepeatedKeysAndAnEmptyList) {
  ExpectMatchesOneKeyLookups({40, 40, 55, 40});
  ExpectMatchesOneKeyLookups({});
}

TEST_P(BTreeLookupManyTest, MoreKeysThanAGroup) {
  Rng rng(11);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 3 * 16 + 5; ++i) keys.push_back(rng.NextBelow(6100));
  ExpectMatchesOneKeyLookups(keys);
}

TEST_P(BTreeLookupManyTest, OverflowChainInTheMiddleOfAGroup) {
  ExpectMatchesOneKeyLookups({100, 200, 300, kChainKey, 400, 405, 500});
  // The chain key at the end of one group, at the start of the next and
  // twice within the third.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 40; ++k) keys.push_back(k * 130);
  keys[15] = kChainKey;
  keys[16] = kChainKey;
  keys[35] = kChainKey;
  keys[38] = kChainKey;
  ExpectMatchesOneKeyLookups(keys);
}

INSTANTIATE_TEST_SUITE_P(EveryReadFile, BTreeLookupManyTest,
                         ::testing::Values("in_memory", "on_disk",
                                           "fault_injecting", "versioned",
                                           "epoch_read_view"));

// Lends an in-memory file's pages, as InMemoryPageFile does, and records
// the id of every page viewed.
class RecordingPageFile : public InMemoryPageFile {
 public:
  using InMemoryPageFile::InMemoryPageFile;
  using PageFile::View;
  StatusOr<const Page*> View(PageId id, Page* scratch, IoStats* io) override {
    viewed.push_back(id);
    return InMemoryPageFile::View(id, scratch, io);
  }
  std::vector<PageId> viewed;
};

TEST(BTreeLookupManyOrderTest, ViewsThePagesOfOneKeyLookupsInTheirOrder) {
  RecordingPageFile file("nix");
  auto tree = BTree::Create(&file, /*max_fanout=*/8);
  ASSERT_TRUE(tree.ok());
  std::vector<BTreeEntry> entries;
  for (uint64_t k = 0; k < 3000; ++k) entries.push_back({k, {MakeOid(k)}});
  ASSERT_TRUE((*tree)->BulkLoad(entries).ok());
  Rng rng(12);
  std::vector<uint64_t> keys;
  for (int i = 0; i < 37; ++i) keys.push_back(rng.NextBelow(3100));
  file.viewed.clear();
  std::vector<std::vector<Oid>> got;
  ASSERT_TRUE((*tree)->LookupMany(keys, &got).ok());
  const std::vector<PageId> grouped = file.viewed;
  file.viewed.clear();
  for (uint64_t key : keys) ASSERT_TRUE((*tree)->Lookup(key).ok());
  EXPECT_EQ(grouped, file.viewed);
  EXPECT_EQ(grouped.size(), keys.size() * ((*tree)->height() + 1u));
}

}  // namespace
}  // namespace sigsetdb
