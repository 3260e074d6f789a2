// Storage -> registry metric export: per-file IoStats counters, buffer-pool
// hit/miss/eviction counters (total, per file, per shard), and the
// monotonic re-export semantics the advisor's buffer feedback relies on.

#include "obs/storage_metrics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>

#include "storage/buffer_pool.h"
#include "storage/page_file.h"
#include "storage/storage_manager.h"

namespace sigsetdb {
namespace {

// CachedPageFile does not own its base; the interceptor hands the manager
// ownership of both, mirroring how an embedding system would mount a pool.
class OwningCachedPageFile : public CachedPageFile {
 public:
  OwningCachedPageFile(std::unique_ptr<PageFile> base, size_t capacity,
                       size_t num_shards)
      : CachedPageFile(base.get(), capacity, num_shards),
        base_(std::move(base)) {}

 private:
  std::unique_ptr<PageFile> base_;
};

TEST(StorageMetricsTest, EvictionCountersAggregateOverShards) {
  InMemoryPageFile base("data");
  CachedPageFile pool(&base, /*capacity=*/4, /*num_shards=*/2);
  Page page{};
  for (PageId id = 0; id < 16; ++id) {
    ASSERT_TRUE(pool.Allocate().ok());
    ASSERT_TRUE(pool.Write(id, page).ok());
  }
  // 16 pages through a 4-frame pool: at least 12 evictions somewhere.
  EXPECT_GE(pool.evictions(), 12u);
  uint64_t per_shard = 0;
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    per_shard += pool.shard_evictions(s);
  }
  EXPECT_EQ(per_shard, pool.evictions());
}

TEST(StorageMetricsTest, ExportsIoAndBufferCounters) {
  StorageManager storage;
  storage.SetInterceptor(
      [](std::unique_ptr<PageFile> file) -> std::unique_ptr<PageFile> {
        return std::make_unique<OwningCachedPageFile>(std::move(file),
                                                      /*capacity=*/4,
                                                      /*num_shards=*/2);
      });
  PageFile* file = storage.CreateOrOpen("t.sig");
  Page page{};
  for (PageId id = 0; id < 8; ++id) {
    ASSERT_TRUE(file->Allocate().ok());
    ASSERT_TRUE(file->Write(id, page).ok());
  }
  for (int pass = 0; pass < 2; ++pass) {
    for (PageId id = 0; id < 8; ++id) {
      ASSERT_TRUE(file->Read(id, &page).ok());
    }
  }

  MetricsRegistry registry;
  ExportStorageMetrics(storage, &registry);
  EXPECT_EQ(registry.CounterValue("io.t.sig.reads"), 16u);
  EXPECT_EQ(registry.CounterValue("io.t.sig.writes"), 8u);
  const auto* pool = dynamic_cast<const CachedPageFile*>(file);
  ASSERT_NE(pool, nullptr);
  EXPECT_EQ(registry.CounterValue("buffer.hits"), pool->hits());
  EXPECT_EQ(registry.CounterValue("buffer.misses"), pool->misses());
  EXPECT_EQ(registry.CounterValue("buffer.evictions"), pool->evictions());
  EXPECT_EQ(registry.CounterValue("buffer.t.sig.hits"), pool->hits());
  uint64_t shard_hits = 0;
  for (size_t s = 0; s < pool->num_shards(); ++s) {
    shard_hits += registry.CounterValue("buffer.t.sig.shard" +
                                        std::to_string(s) + ".hits");
  }
  EXPECT_EQ(shard_hits, pool->hits());
  // An 8-page working set through a 4-frame pool cannot avoid evicting.
  EXPECT_GT(registry.CounterValue("buffer.evictions"), 0u);
}

// Every page counter of a file becomes an io.<file>.<short name> counter;
// the skipped, cow and hot counters only once they are nonzero.
TEST(StorageMetricsTest, ExportsEveryPageCounterByName) {
  StorageManager storage;
  storage.CreateOrOpen("t.sig")->stats() = IoStats{11, 7, 3, 2, 5};
  storage.CreateOrOpen("t.obj")->stats() = IoStats{4, 1};
  MetricsRegistry registry;
  ExportStorageMetrics(storage, &registry);
  std::string exported;
  for (const auto& [name, value] : registry.Snapshot().counters) {
    exported += name + "=" + std::to_string(value) + "\n";
  }
  EXPECT_EQ(exported,
            "io.t.obj.reads=4\n"
            "io.t.obj.writes=1\n"
            "io.t.sig.cow=2\n"
            "io.t.sig.hot=5\n"
            "io.t.sig.reads=11\n"
            "io.t.sig.skipped=3\n"
            "io.t.sig.writes=7\n");
}

TEST(StorageMetricsTest, ReExportIsMonotonicAndIdempotent) {
  StorageManager storage;
  storage.SetInterceptor(
      [](std::unique_ptr<PageFile> file) -> std::unique_ptr<PageFile> {
        return std::make_unique<OwningCachedPageFile>(std::move(file),
                                                      /*capacity=*/8,
                                                      /*num_shards=*/1);
      });
  PageFile* file = storage.CreateOrOpen("obj");
  Page page{};
  ASSERT_TRUE(file->Allocate().ok());
  ASSERT_TRUE(file->Write(0, page).ok());
  ASSERT_TRUE(file->Read(0, &page).ok());

  MetricsRegistry registry;
  ExportStorageMetrics(storage, &registry);
  uint64_t reads1 = registry.CounterValue("io.obj.reads");
  EXPECT_EQ(reads1, 1u);
  // Exporting again without new traffic changes nothing.
  ExportStorageMetrics(storage, &registry);
  EXPECT_EQ(registry.CounterValue("io.obj.reads"), reads1);
  // New traffic raises the counters to the live values.
  ASSERT_TRUE(file->Read(0, &page).ok());
  ASSERT_TRUE(file->Read(0, &page).ok());
  ExportStorageMetrics(storage, &registry);
  EXPECT_EQ(registry.CounterValue("io.obj.reads"), 3u);
  // A counter never goes backwards, even if the live source resets.
  file->stats().Reset();
  ExportStorageMetrics(storage, &registry);
  EXPECT_EQ(registry.CounterValue("io.obj.reads"), 3u);
}

}  // namespace
}  // namespace sigsetdb
