#include "obs/storage_metrics.h"

namespace sigsetdb {

namespace {

// Raises the registry counter to `live` (counters are monotonic; a live
// value below the counter — e.g. after a pool swap — leaves it unchanged).
void SyncCounter(MetricsRegistry* registry, const std::string& name,
                 uint64_t live) {
  Counter* counter = registry->counter(name);
  const uint64_t current = counter->value();
  if (live > current) counter->Increment(live - current);
}

}  // namespace

void ExportBufferPoolMetrics(const CachedPageFile& pool,
                             const std::string& prefix,
                             MetricsRegistry* registry) {
  SyncCounter(registry, prefix + ".hits", pool.hits());
  SyncCounter(registry, prefix + ".misses", pool.misses());
  SyncCounter(registry, prefix + ".evictions", pool.evictions());
  for (size_t s = 0; s < pool.num_shards(); ++s) {
    const std::string shard = prefix + ".shard" + std::to_string(s);
    SyncCounter(registry, shard + ".hits", pool.shard_hits(s));
    SyncCounter(registry, shard + ".misses", pool.shard_misses(s));
    SyncCounter(registry, shard + ".evictions", pool.shard_evictions(s));
  }
}

void ExportStorageMetrics(const StorageManager& storage,
                          MetricsRegistry* registry) {
  uint64_t hits = 0, misses = 0, evictions = 0;
  bool any_pool = false;
  storage.ForEachFile([&](const PageFile& file) {
    // io.<file>.<short name>: the counters in total() always, the others
    // once they are nonzero.
    const PageCounts counts = file.stats().counts();
    for (const auto& c : kPageCounters) {
      if (c.in_total || counts.*c.field > 0) {
        SyncCounter(registry, "io." + file.name() + "." + c.short_name,
                    counts.*c.field);
      }
    }
    const auto* pool = dynamic_cast<const CachedPageFile*>(&file);
    if (pool != nullptr) {
      any_pool = true;
      hits += pool->hits();
      misses += pool->misses();
      evictions += pool->evictions();
      ExportBufferPoolMetrics(*pool, "buffer." + file.name(), registry);
    }
  });
  if (any_pool) {
    SyncCounter(registry, "buffer.hits", hits);
    SyncCounter(registry, "buffer.misses", misses);
    SyncCounter(registry, "buffer.evictions", evictions);
  }
}

}  // namespace sigsetdb
