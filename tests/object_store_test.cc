// The paper's object file: a one-attribute MultiObjectStore, whose physical
// OIDs, page layout and one-page fetches every cost formula assumes, and the
// set predicates resolution re-checks on the stored set values.
#include <vector>

#include <gtest/gtest.h>

#include "obj/multi_object_store.h"
#include "sig/facility.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

TEST(ObjectStoreTest, InsertAssignsPhysicalOid) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  auto oid = store.Insert({{1, 2, 3}});
  ASSERT_TRUE(oid.ok());
  EXPECT_TRUE(oid->valid());
  EXPECT_EQ(oid->page(), 0u);
  EXPECT_EQ(oid->slot(), 0u);
  EXPECT_EQ(store.num_objects(), 1u);
}

TEST(ObjectStoreTest, GetRoundTripsSetValue) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  ElementSet set = {5, 10, 10000000000ULL};
  auto oid = store.Insert({set});
  ASSERT_TRUE(oid.ok());
  auto obj = store.Get(*oid);
  ASSERT_TRUE(obj.ok());
  ASSERT_EQ(obj->attrs.size(), 1u);
  EXPECT_EQ(obj->attrs[0], set);
  EXPECT_EQ(obj->oid, *oid);
}

TEST(ObjectStoreTest, EmptySetSupported) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  auto oid = store.Insert({{}});
  ASSERT_TRUE(oid.ok());
  auto obj = store.Get(*oid);
  ASSERT_TRUE(obj.ok());
  ASSERT_EQ(obj->attrs.size(), 1u);
  EXPECT_TRUE(obj->attrs[0].empty());
}

TEST(ObjectStoreTest, GetCostsExactlyOnePageRead) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  auto oid = store.Insert({{1, 2, 3}});
  ASSERT_TRUE(oid.ok());
  file.stats().Reset();
  ASSERT_TRUE(store.Get(*oid).ok());
  EXPECT_EQ(file.stats().page_reads, 1u);
  EXPECT_EQ(file.stats().page_writes, 0u);
}

// The paper's object-file layout: 100-element sets are 804-byte records,
// which with their 4-byte slots pack five to a page.
TEST(ObjectStoreTest, ObjectsPackIntoPages) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  ElementSet set(100);
  for (int i = 0; i < 100; ++i) set[static_cast<size_t>(i)] = i;
  for (int i = 0; i < 10; ++i) {
    auto oid = store.Insert({set});
    ASSERT_TRUE(oid.ok());
    EXPECT_EQ(oid->page(), static_cast<PageId>(i / 5)) << "object " << i;
  }
  EXPECT_EQ(store.num_pages(), 2u);
}

TEST(ObjectStoreTest, GetInvalidOidFails) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  EXPECT_EQ(store.Get(Oid()).status().code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(store.Get(Oid::FromLocation(9, 0)).ok());
}

TEST(ObjectStoreTest, DeleteMakesOidDangling) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  auto oid = store.Insert({{7}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store.Delete(*oid).ok());
  EXPECT_EQ(store.Get(*oid).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Delete(*oid).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_objects(), 0u);
}

TEST(ObjectStoreTest, OversizeSetRejected) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  ElementSet huge(600);
  for (size_t i = 0; i < huge.size(); ++i) huge[i] = i;
  EXPECT_EQ(store.Insert({huge}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(ObjectStoreTest, ManyObjectsRoundTrip) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  Rng rng(3);
  std::vector<Oid> oids;
  std::vector<ElementSet> sets;
  for (int i = 0; i < 500; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(1000, 10);
    auto oid = store.Insert({set});
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
    sets.push_back(std::move(set));
  }
  for (size_t i = 0; i < oids.size(); ++i) {
    auto obj = store.Get(oids[i]);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->attrs[0], sets[i]);
  }
}

TEST(ObjectPredicatesTest, SubsetAndOverlap) {
  EXPECT_TRUE(IsSubset({1, 3}, {1, 2, 3}));
  EXPECT_FALSE(IsSubset({1, 4}, {1, 2, 3}));
  EXPECT_TRUE(IsSubset({}, {1}));
  EXPECT_TRUE(Overlaps({1, 5}, {5, 9}));
  EXPECT_FALSE(Overlaps({1, 5}, {2, 6}));
  EXPECT_FALSE(Overlaps({}, {1}));
}

TEST(ObjectPredicatesTest, NormalizeSet) {
  ElementSet s = {5, 1, 5, 3, 1};
  NormalizeSet(&s);
  EXPECT_EQ(s, (ElementSet{1, 3, 5}));
}

// Satisfies(T, kind, Q) for all six operators, including the empty set on
// either side and equal sets, which the proper kinds reject.
TEST(ObjectPredicatesTest, StoredObjectPredicates) {
  using K = QueryKind;
  struct Row {
    ElementSet t;
    K kind;
    ElementSet q;
    bool want;
  };
  const Row rows[] = {
      {{2, 4, 6}, K::kSuperset, {2, 6}, true},
      {{2, 4, 6}, K::kSuperset, {2, 5}, false},
      {{2, 4, 6}, K::kSuperset, {2, 4, 6}, true},
      {{2, 4, 6}, K::kSuperset, {}, true},
      {{}, K::kSuperset, {1}, false},
      {{2, 4, 6}, K::kSubset, {1, 2, 3, 4, 5, 6}, true},
      {{2, 4, 6}, K::kSubset, {2, 4}, false},
      {{2, 4, 6}, K::kSubset, {2, 4, 6}, true},
      {{}, K::kSubset, {1}, true},
      {{}, K::kSubset, {}, true},
      {{2, 4, 6}, K::kProperSuperset, {2, 6}, true},
      {{2, 4, 6}, K::kProperSuperset, {2, 4, 6}, false},
      {{2, 4, 6}, K::kProperSuperset, {2, 5}, false},
      {{2, 4, 6}, K::kProperSuperset, {}, true},
      {{}, K::kProperSuperset, {}, false},
      {{2, 4, 6}, K::kProperSubset, {1, 2, 3, 4, 5, 6}, true},
      {{2, 4, 6}, K::kProperSubset, {2, 4, 6}, false},
      {{2, 4, 6}, K::kProperSubset, {2, 4, 7, 8}, false},
      {{}, K::kProperSubset, {1}, true},
      {{}, K::kProperSubset, {}, false},
      {{2, 4, 6}, K::kEquals, {2, 4, 6}, true},
      {{2, 4, 6}, K::kEquals, {2, 4}, false},
      {{}, K::kEquals, {}, true},
      {{}, K::kEquals, {1}, false},
      {{2, 4, 6}, K::kOverlaps, {6, 7}, true},
      {{2, 4, 6}, K::kOverlaps, {1, 3}, false},
      {{2, 4, 6}, K::kOverlaps, {}, false},
      {{}, K::kOverlaps, {1}, false},
  };
  for (const Row& row : rows) {
    EXPECT_EQ(Satisfies(row.t, row.kind, row.q), row.want)
        << QueryKindName(row.kind) << " |T|=" << row.t.size()
        << " |Q|=" << row.q.size();
  }
}

}  // namespace
}  // namespace sigsetdb
