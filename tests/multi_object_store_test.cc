#include "obj/multi_object_store.h"

#include <set>
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

// Churn fixture: `n` objects of two 10-element attributes (168-byte
// records, 23 to a page), so every page but the tail is full.
class StoreChurnTest : public ::testing::Test {
 protected:
  std::vector<ElementSet> Object() {
    return {rng_.SampleWithoutReplacement(1000, 10),
            rng_.SampleWithoutReplacement(1000, 10)};
  }
  void Fill(size_t n) {
    for (size_t i = 0; i < n; ++i) {
      std::vector<ElementSet> value = Object();
      auto oid = store_.Insert(value);
      ASSERT_TRUE(oid.ok());
      live_.push_back(*oid);
      values_.push_back(std::move(value));
      ever_.insert(oid->value());
    }
  }
  // Deletes a random live object.
  void DeleteOne() {
    const size_t pick = rng_.NextBelow(live_.size());
    ASSERT_TRUE(store_.Delete(live_[pick]).ok());
    live_.erase(live_.begin() + static_cast<ptrdiff_t>(pick));
    values_.erase(values_.begin() + static_cast<ptrdiff_t>(pick));
  }
  // Inserts one object, checking the prediction and that its OID is new.
  void InsertOne() {
    std::vector<ElementSet> value = Object();
    auto predicted = store_.PeekOids({value});
    ASSERT_TRUE(predicted.ok());
    auto oid = store_.Insert(value);
    ASSERT_TRUE(oid.ok());
    EXPECT_EQ(*predicted, std::vector<Oid>{*oid});
    EXPECT_TRUE(ever_.insert(oid->value()).second)
        << oid->ToString() << " handed out twice";
    live_.push_back(*oid);
    values_.push_back(std::move(value));
  }
  void ExpectAllReadable() {
    for (size_t i = 0; i < live_.size(); ++i) {
      auto obj = store_.Get(live_[i]);
      ASSERT_TRUE(obj.ok()) << live_[i].ToString();
      EXPECT_EQ(obj->attrs, values_[i]);
    }
  }

  InMemoryPageFile file_{"obj"};
  MultiObjectStore store_{&file_, 2};
  Rng rng_{17};
  std::vector<Oid> live_;
  std::vector<std::vector<ElementSet>> values_;
  std::set<uint64_t> ever_;
};

TEST_F(StoreChurnTest, DeleteInsertCyclesDoNotGrowTheFile) {
  Fill(2000);
  const PageId pages = store_.num_pages();
  for (int cycle = 0; cycle < 1000; ++cycle) {
    DeleteOne();
    InsertOne();
  }
  EXPECT_EQ(store_.num_pages(), pages);
  EXPECT_EQ(store_.num_objects(), 2000u);
  ExpectAllReadable();
}

TEST_F(StoreChurnTest, PeekOidsMatchInsertsAcrossHolesAndTheTail) {
  Fill(230);  // ten full pages
  // Holes on three pages: two records on page 2, one each on 5 and 7.
  for (size_t i : {size_t{2 * 23 + 4}, size_t{2 * 23 + 9}, size_t{5 * 23 + 1},
                   size_t{7 * 23 + 20}}) {
    ASSERT_TRUE(store_.Delete(live_[i]).ok());
  }
  // Eight inserts: four fill the holes, the rest go past the full tail.
  std::vector<std::vector<ElementSet>> batch;
  for (int i = 0; i < 8; ++i) batch.push_back(Object());
  auto predicted = store_.PeekOids(batch);
  ASSERT_TRUE(predicted.ok());
  std::set<PageId> pages;
  for (size_t i = 0; i < batch.size(); ++i) {
    auto oid = store_.Insert(batch[i]);
    ASSERT_TRUE(oid.ok());
    EXPECT_EQ(*oid, (*predicted)[i]) << "insert " << i;
    EXPECT_TRUE(ever_.insert(oid->value()).second);
    pages.insert(oid->page());
  }
  EXPECT_EQ(pages, (std::set<PageId>{2, 5, 7, 10}));
}

// Mixed singleton and batched churn with varied record sizes: every
// prediction, singleton or batched, equals the OID Insert assigns.
class MixedChurnTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MixedChurnTest, PeeksMatchInserts) {
  InMemoryPageFile file("obj");
  MultiObjectStore store(&file, 2);
  Rng rng(GetParam());
  std::vector<Oid> live;
  auto object = [&]() -> std::vector<ElementSet> {
    return {rng.SampleWithoutReplacement(13000, 10),
            rng.SampleWithoutReplacement(500, 1 + rng.NextBelow(8))};
  };
  for (int i = 0; i < 3000; ++i) live.push_back(*store.Insert(object()));
  auto delete_one = [&] {
    const size_t pick = rng.NextBelow(live.size());
    ASSERT_TRUE(store.Delete(live[pick]).ok());
    live.erase(live.begin() + static_cast<ptrdiff_t>(pick));
  };
  for (int op = 0; op < 3000; ++op) {
    const uint64_t u = rng.NextBelow(100);
    if (u < 55) {
      std::vector<ElementSet> value = object();
      auto predicted = store.PeekOids({value});
      auto oid = store.Insert(value);
      ASSERT_TRUE(predicted.ok() && oid.ok());
      ASSERT_EQ(*predicted, std::vector<Oid>{*oid})
          << "singleton insert at op " << op;
      live.push_back(*oid);
    } else if (u < 95) {
      delete_one();
    } else {
      std::vector<std::vector<ElementSet>> batch;
      for (int i = 0; i < 50; ++i) batch.push_back(object());
      auto predicted = store.PeekOids(batch);
      ASSERT_TRUE(predicted.ok());
      for (size_t i = 0; i < batch.size(); ++i) {
        auto oid = store.Insert(batch[i]);
        ASSERT_TRUE(oid.ok());
        ASSERT_EQ(*oid, (*predicted)[i]) << "batch insert " << i << " at op "
                                         << op;
        live.push_back(*oid);
      }
      for (int i = 0; i < 50; ++i) delete_one();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MixedChurnTest,
                         ::testing::Values(29u, 30u, 31u));

TEST_F(StoreChurnTest, ChurnNeverRepeatsAnOid) {
  Fill(300);
  for (int round = 0; round < 400; ++round) {
    const int deletes = 1 + static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < deletes; ++i) DeleteOne();
    const int inserts = 1 + static_cast<int>(rng_.NextBelow(3));
    for (int i = 0; i < inserts; ++i) InsertOne();
  }
  ExpectAllReadable();
}

}  // namespace
}  // namespace sigsetdb
