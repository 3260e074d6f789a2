#include "storage/slotted_page.h"

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace sigsetdb {
namespace {

std::string GetRecord(const SlottedPage& sp, uint16_t slot) {
  uint16_t len = 0;
  const uint8_t* data = sp.Get(slot, &len);
  if (data == nullptr) return "";
  return std::string(reinterpret_cast<const char*>(data), len);
}

uint16_t MustInsert(SlottedPage* sp, const std::string& rec) {
  auto slot = sp->Insert(reinterpret_cast<const uint8_t*>(rec.data()),
                         static_cast<uint16_t>(rec.size()));
  EXPECT_TRUE(slot.has_value());
  return *slot;
}

TEST(SlottedPageTest, InitProducesEmptyPage) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  EXPECT_EQ(sp.num_slots(), 0u);
  EXPECT_GT(sp.FreeSpace(), kPageSize - 16);
}

TEST(SlottedPageTest, InsertAndGet) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  uint16_t s0 = MustInsert(&sp, "hello");
  uint16_t s1 = MustInsert(&sp, "world!");
  EXPECT_EQ(s0, 0u);
  EXPECT_EQ(s1, 1u);
  EXPECT_EQ(GetRecord(sp, 0), "hello");
  EXPECT_EQ(GetRecord(sp, 1), "world!");
}

TEST(SlottedPageTest, GetOutOfRangeReturnsNull) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  uint16_t len = 0;
  EXPECT_EQ(sp.Get(0, &len), nullptr);
  MustInsert(&sp, "x");
  EXPECT_EQ(sp.Get(1, &len), nullptr);
}

TEST(SlottedPageTest, DeleteLeavesTombstone) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  MustInsert(&sp, "a");
  MustInsert(&sp, "b");
  sp.Delete(0);
  EXPECT_EQ(GetRecord(sp, 0), "");
  EXPECT_EQ(GetRecord(sp, 1), "b");
  EXPECT_EQ(sp.num_slots(), 2u);  // slot numbers are stable
}

TEST(SlottedPageTest, FillsUntilFull) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  std::string rec(100, 'r');
  int inserted = 0;
  while (sp.Insert(reinterpret_cast<const uint8_t*>(rec.data()),
                   static_cast<uint16_t>(rec.size()))
             .has_value()) {
    ++inserted;
  }
  // 104 bytes per record (100 + 4-byte slot entry) into ~4092 usable bytes.
  EXPECT_EQ(inserted, 39);
  // All records intact after filling.
  for (int i = 0; i < inserted; ++i) {
    EXPECT_EQ(GetRecord(sp, static_cast<uint16_t>(i)), rec);
  }
}

TEST(SlottedPageTest, FreeSpaceDecreasesMonotonically) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  size_t prev = sp.FreeSpace();
  for (int i = 0; i < 10; ++i) {
    MustInsert(&sp, "0123456789");
    size_t now = sp.FreeSpace();
    EXPECT_LT(now, prev);
    prev = now;
  }
}

TEST(SlottedPageTest, UpdateInPlaceShrinkOk) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  MustInsert(&sp, "long-record");
  EXPECT_TRUE(sp.UpdateInPlace(0, reinterpret_cast<const uint8_t*>("tiny"),
                               4));
  EXPECT_EQ(GetRecord(sp, 0), "tiny");
}

TEST(SlottedPageTest, UpdateInPlaceGrowRejected) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  MustInsert(&sp, "tiny");
  EXPECT_FALSE(sp.UpdateInPlace(
      0, reinterpret_cast<const uint8_t*>("much-longer-record"), 18));
  EXPECT_EQ(GetRecord(sp, 0), "tiny");
}

TEST(SlottedPageTest, MaxSizeRecordFits) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  // Header (4) + one slot entry (4) leaves kPageSize - 8 bytes.
  std::string rec(kPageSize - 8, 'm');
  auto slot = sp.Insert(reinterpret_cast<const uint8_t*>(rec.data()),
                        static_cast<uint16_t>(rec.size()));
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(GetRecord(sp, 0).size(), kPageSize - 8);
  EXPECT_EQ(sp.FreeSpace(), 0u);
}

TEST(SlottedPageTest, CompactKeepsLiveRecordsUnderTheirSlots) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  std::vector<std::string> records;
  for (int i = 0; i < 40; ++i) {
    records.push_back(std::string(20 + i * 3, static_cast<char>('a' + i % 26)));
    MustInsert(&sp, records.back());
  }
  for (uint16_t s = 0; s < 40; s += 3) sp.Delete(s);
  const size_t compacted = sp.CompactedFreeSpace();
  EXPECT_GT(compacted, sp.FreeSpace());
  sp.Compact();
  EXPECT_EQ(sp.FreeSpace(), compacted);
  EXPECT_EQ(sp.CompactedFreeSpace(), compacted);
  EXPECT_EQ(sp.num_slots(), 40u);
  for (uint16_t s = 0; s < 40; ++s) {
    EXPECT_EQ(GetRecord(sp, s), s % 3 == 0 ? "" : records[s]) << "slot " << s;
  }
  // The next record takes the next slot number, never a tombstone's.
  EXPECT_EQ(MustInsert(&sp, "after"), 40u);
}

TEST(SlottedPageTest, ResurrectAfterCompactionTakesTheFreeGap) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  const std::string victim(100, 'v');
  MustInsert(&sp, "keep-0");
  MustInsert(&sp, victim);
  MustInsert(&sp, "keep-2");
  const auto* data = reinterpret_cast<const uint8_t*>(victim.data());
  // Without a compaction, the retained bytes take the record back.
  sp.Delete(1);
  ASSERT_TRUE(sp.Resurrect(1, data, 100));
  EXPECT_EQ(GetRecord(sp, 1), victim);
  // After one, the tombstone retains nothing and the record takes the gap.
  sp.Delete(1);
  sp.Compact();
  MustInsert(&sp, "keep-3");
  ASSERT_TRUE(sp.Resurrect(1, data, 100));
  EXPECT_EQ(GetRecord(sp, 1), victim);
  EXPECT_EQ(GetRecord(sp, 0), "keep-0");
  EXPECT_EQ(GetRecord(sp, 2), "keep-2");
  EXPECT_EQ(GetRecord(sp, 3), "keep-3");
  // A live slot cannot be resurrected.
  EXPECT_FALSE(sp.Resurrect(1, data, 100));
}

TEST(SlottedPageTest, AppendTombstoneReservesTheNextSlot) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  MustInsert(&sp, "a");
  EXPECT_EQ(sp.AppendTombstone(), std::optional<uint16_t>(1));
  EXPECT_EQ(GetRecord(sp, 1), "");
  EXPECT_EQ(MustInsert(&sp, "c"), 2u);
  ASSERT_TRUE(sp.Resurrect(1, reinterpret_cast<const uint8_t*>("b"), 1));
  EXPECT_EQ(GetRecord(sp, 1), "b");
}

TEST(SlottedPageTest, OversizeRecordRejected) {
  Page page;
  SlottedPage::Init(&page);
  SlottedPage sp(&page);
  std::string rec(kPageSize - 7, 'm');
  EXPECT_FALSE(sp.Insert(reinterpret_cast<const uint8_t*>(rec.data()),
                         static_cast<uint16_t>(rec.size()))
                   .has_value());
}

}  // namespace
}  // namespace sigsetdb
