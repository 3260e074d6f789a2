#include "obj/oid_file.h"

#include <gtest/gtest.h>

namespace sigsetdb {
namespace {

Oid MakeOid(uint64_t i) { return Oid::FromLocation(static_cast<PageId>(i), 0); }

TEST(OidFileTest, AppendReturnsSequentialSlots) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  for (uint64_t i = 0; i < 10; ++i) {
    auto slot = of.AppendMany({MakeOid(i)});
    ASSERT_TRUE(slot.ok());
    EXPECT_EQ(*slot, i);
  }
  EXPECT_EQ(of.num_entries(), 10u);
}

TEST(OidFileTest, AppendCostsOneWrite) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  ASSERT_TRUE(of.AppendMany({MakeOid(0)}).ok());
  file.stats().Reset();
  ASSERT_TRUE(of.AppendMany({MakeOid(1)}).ok());
  EXPECT_EQ(file.stats().page_writes, 1u);
  EXPECT_EQ(file.stats().page_reads, 0u);
}

TEST(OidFileTest, GetReturnsAppendedOid) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  ASSERT_TRUE(of.AppendMany({MakeOid(7)}).ok());
  auto got = of.Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, MakeOid(7));
  EXPECT_EQ(of.Get(1).status().code(), StatusCode::kOutOfRange);
}

TEST(OidFileTest, PagesFillAtOidsPerPage) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  for (uint64_t i = 0; i < kOidsPerPage + 1; ++i) {
    ASSERT_TRUE(of.AppendMany({MakeOid(i)}).ok());
  }
  EXPECT_EQ(of.num_pages(), 2u);
  auto last = of.Get(kOidsPerPage);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, MakeOid(kOidsPerPage));
}

TEST(OidFileTest, GetManyReadsEachPageOnce) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  for (uint64_t i = 0; i < 2 * kOidsPerPage; ++i) {
    ASSERT_TRUE(of.AppendMany({MakeOid(i)}).ok());
  }
  file.stats().Reset();
  // Slots spanning both pages, several per page.
  std::vector<uint64_t> slots = {0, 1, 5, kOidsPerPage, kOidsPerPage + 3};
  auto oids = of.GetMany(slots);
  ASSERT_TRUE(oids.ok());
  EXPECT_EQ(oids->size(), 5u);
  EXPECT_EQ(file.stats().page_reads, 2u);
  EXPECT_EQ((*oids)[0], MakeOid(0));
  EXPECT_EQ((*oids)[4], MakeOid(kOidsPerPage + 3));
}

TEST(OidFileTest, GetManyRejectsOutOfRange) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  ASSERT_TRUE(of.AppendMany({MakeOid(0)}).ok());
  EXPECT_EQ(of.GetMany({0, 1}).status().code(), StatusCode::kOutOfRange);
}

TEST(OidFileTest, MarkDeletedHidesEntry) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  ASSERT_TRUE(of.AppendMany({MakeOid(1)}).ok());
  ASSERT_TRUE(of.AppendMany({MakeOid(2)}).ok());
  ASSERT_TRUE(of.MarkDeletedMany({MakeOid(1)}).ok());
  auto got = of.Get(0);
  ASSERT_TRUE(got.ok());
  EXPECT_FALSE(got->valid());
  // GetMany skips the tombstone.
  auto many = of.GetMany({0, 1});
  ASSERT_TRUE(many.ok());
  ASSERT_EQ(many->size(), 1u);
  EXPECT_EQ((*many)[0], MakeOid(2));
}

TEST(OidFileTest, MarkDeletedMissingOidFails) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  ASSERT_TRUE(of.AppendMany({MakeOid(1)}).ok());
  EXPECT_EQ(of.MarkDeletedMany({MakeOid(9)}).status().code(),
            StatusCode::kNotFound);
}

TEST(OidFileTest, MarkDeletedScansFromStart) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  for (uint64_t i = 0; i < 3 * kOidsPerPage; ++i) {
    ASSERT_TRUE(of.AppendMany({MakeOid(i)}).ok());
  }
  file.stats().Reset();
  // Victim on the third page: scan reads 3 pages, then 1 write.
  ASSERT_TRUE(of.MarkDeletedMany({MakeOid(2 * kOidsPerPage + 5)}).ok());
  EXPECT_EQ(file.stats().page_reads, 3u);
  EXPECT_EQ(file.stats().page_writes, 1u);
}

TEST(OidFileTest, AppendAfterDeleteOnTailPageKeepsEntries) {
  InMemoryPageFile file("oid");
  OidFile of(&file);
  ASSERT_TRUE(of.AppendMany({MakeOid(1)}).ok());
  ASSERT_TRUE(of.MarkDeletedMany({MakeOid(1)}).ok());
  ASSERT_TRUE(of.AppendMany({MakeOid(2)}).ok());
  // The tombstone must survive the subsequent tail-page rewrite.
  auto e0 = of.Get(0);
  ASSERT_TRUE(e0.ok());
  EXPECT_FALSE(e0->valid());
  auto e1 = of.Get(1);
  ASSERT_TRUE(e1.ok());
  EXPECT_EQ(*e1, MakeOid(2));
}

}  // namespace
}  // namespace sigsetdb
