#include "obj/multi_object_store.h"

#include <cstring>

#include <gtest/gtest.h>

#include "obj/object_store.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

TEST(MultiObjectStoreTest, RoundTripsTwoAttributes) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 2);
  std::vector<ElementSet> attrs = {{1, 2, 3}, {100, 200}};
  auto oid = store.Insert(attrs);
  ASSERT_TRUE(oid.ok());
  auto obj = store.Get(*oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->attrs, attrs);
  EXPECT_EQ(obj->oid, *oid);
}

TEST(MultiObjectStoreTest, EmptyAttributesAllowed) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 3);
  auto oid = store.Insert({{}, {7}, {}});
  ASSERT_TRUE(oid.ok());
  auto obj = store.Get(*oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_TRUE(obj->attrs[0].empty());
  EXPECT_EQ(obj->attrs[1], ElementSet{7});
  EXPECT_TRUE(obj->attrs[2].empty());
}

TEST(MultiObjectStoreTest, AttributeCountEnforced) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 2);
  EXPECT_EQ(store.Insert({{1}}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(store.Insert({{1}, {2}, {3}}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MultiObjectStoreTest, GetCostsOnePageRead) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 2);
  auto oid = store.Insert({{1}, {2}});
  ASSERT_TRUE(oid.ok());
  file.stats().Reset();
  ASSERT_TRUE(store.Get(*oid).ok());
  EXPECT_EQ(file.stats().page_reads, 1u);
}

TEST(MultiObjectStoreTest, DeleteThenGetFails) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  auto oid = store.Insert({{5}});
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE(store.Delete(*oid).ok());
  EXPECT_EQ(store.Get(*oid).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(store.num_objects(), 0u);
}

TEST(MultiObjectStoreTest, OversizeObjectRejected) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 2);
  ElementSet huge(300);
  for (size_t i = 0; i < huge.size(); ++i) huge[i] = i;
  EXPECT_EQ(store.Insert({huge, huge}).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MultiObjectStoreTest, ManyObjectsAcrossPages) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 2);
  Rng rng(3);
  std::vector<Oid> oids;
  std::vector<std::vector<ElementSet>> values;
  for (int i = 0; i < 400; ++i) {
    std::vector<ElementSet> attrs = {
        rng.SampleWithoutReplacement(500, 10),
        rng.SampleWithoutReplacement(50, 3)};
    auto oid = store.Insert(attrs);
    ASSERT_TRUE(oid.ok());
    oids.push_back(*oid);
    values.push_back(std::move(attrs));
  }
  EXPECT_GT(store.num_pages(), 5u);
  for (size_t i = 0; i < oids.size(); ++i) {
    auto obj = store.Get(oids[i]);
    ASSERT_TRUE(obj.ok());
    EXPECT_EQ(obj->attrs, values[i]);
  }
}

TEST(MultiObjectStoreTest, RecoverCountRestoresStatistics) {
  InMemoryPageFile file("obj");
  {
    MultiObjectStore store(&file, 1);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store.Insert({{static_cast<uint64_t>(i)}}).ok());
    }
  }
  MultiObjectStore reopened(&file, 1);
  EXPECT_EQ(reopened.num_objects(), 0u);
  reopened.RecoverCount(10);
  EXPECT_EQ(reopened.num_objects(), 10u);
  // Appending after reopen works (physical OIDs, tail page resumed).
  auto oid = reopened.Insert({{99}});
  ASSERT_TRUE(oid.ok());
  auto obj = reopened.Get(*oid);
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->attrs[0], ElementSet{99});
}

// Records carry no attribute count (it is fixed per store), so a
// one-attribute record is ObjectStore's [count:u32][elem:u64]* byte for
// byte: the same sets, empty ones included, land on the same OIDs and the
// two files hold identical pages.
TEST(MultiObjectStoreTest, OneAttributeRecordsMatchObjectStoreBytes) {
  InMemoryPageFile multi_file("multi");
  InMemoryPageFile single_file("single");
  MultiObjectStore multi(&multi_file, 1);
  ObjectStore single(&single_file);
  Rng rng(11);
  std::vector<Oid> oids;
  for (int i = 0; i < 700; ++i) {
    const ElementSet set =
        i % 7 == 0 ? ElementSet{}
                   : rng.SampleWithoutReplacement(1000, 1 + rng.NextBelow(40));
    auto a = multi.Insert({set});
    auto b = single.Insert(set);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(*a, *b) << "object " << i;
    oids.push_back(*a);
  }
  for (size_t i = 0; i < oids.size(); i += 5) {
    ASSERT_TRUE(multi.Delete(oids[i]).ok());
    ASSERT_TRUE(single.Delete(oids[i]).ok());
  }
  ASSERT_GT(multi_file.num_pages(), 5u);
  ASSERT_EQ(multi_file.num_pages(), single_file.num_pages());
  for (PageId p = 0; p < multi_file.num_pages(); ++p) {
    Page a, b;
    ASSERT_TRUE(multi_file.Read(p, &a).ok());
    ASSERT_TRUE(single_file.Read(p, &b).ok());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), kPageSize), 0) << "page " << p;
  }
  // Each store reads the other's records.
  auto via_single = single.Get(oids[1]);
  auto via_multi = multi.Get(oids[1]);
  ASSERT_TRUE(via_single.ok() && via_multi.ok());
  EXPECT_EQ(via_single->set_value, via_multi->attrs[0]);
}

// Without a stored count, the exact record length is what rejects a record
// read with the wrong attribute count: too few attributes leave trailing
// bytes, too many run past the record.
TEST(MultiObjectStoreTest, WrongAttributeCountIsCorruption) {
  InMemoryPageFile file("obj");
  MultiObjectStore two(&file, 2);
  auto oid = two.Insert({{1, 2}, {3}});
  ASSERT_TRUE(oid.ok());
  MultiObjectStore one(&file, 1);
  EXPECT_EQ(one.Get(*oid).status().code(), StatusCode::kCorruption);
  MultiObjectStore three(&file, 3);
  EXPECT_EQ(three.Get(*oid).status().code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace sigsetdb
