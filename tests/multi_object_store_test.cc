#include "obj/multi_object_store.h"

#include <vector>

#include <gtest/gtest.h>

#include "storage/slotted_page.h"
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
  EXPECT_EQ(file.stats().page_writes, 0u);
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

// A one-attribute record is [count:u32][elem:u64]*, little-endian, with no
// attribute count (it is fixed per store): the paper's object-file record.
TEST(MultiObjectStoreTest, OneAttributeRecordLayout) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 1);
  auto full = store.Insert({{1, 0x0102030405060708ULL}});
  auto empty = store.Insert({{}});
  ASSERT_TRUE(full.ok() && empty.ok());
  Page page;
  ASSERT_TRUE(file.Read(0, &page).ok());
  SlottedPage sp(&page);
  uint16_t len = 0;
  const uint8_t* rec = sp.Get(full->slot(), &len);
  ASSERT_NE(rec, nullptr);
  const std::vector<uint8_t> want = {
      0x02, 0x00, 0x00, 0x00,                          // count = 2
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // 1
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // 0x0102030405060708
  };
  EXPECT_EQ(std::vector<uint8_t>(rec, rec + len), want);
  rec = sp.Get(empty->slot(), &len);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(std::vector<uint8_t>(rec, rec + len),
            (std::vector<uint8_t>{0x00, 0x00, 0x00, 0x00}));
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
