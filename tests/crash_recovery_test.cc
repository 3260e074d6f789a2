// Crash-at-every-I/O recovery harness (DESIGN.md §9).
//
// For each facility configuration, a deterministic insert/delete/batch/
// compact/query/checkpoint workload is first run once against an in-memory
// StorageManager
// whose files are all wrapped in one FaultInjectingPageFile injector, to
// count its total page operations T.  Then, for EVERY k in [0, T] — no
// sampling — a fresh database runs the same workload with a crash scheduled
// at operation k: the k-th and all later page I/Os fail.  The harness then
// disarms the injector ("restarts the machine") and attempts recovery.
//
// The contract under test:
//   - the crash surfaces as a clean Status at the SetIndex/Database API
//     (no abort, no swallowed error),
//   - queries that succeeded before the crash match brute force exactly,
//   - reopening either fails cleanly (e.g. a torn post-checkpoint B-tree
//     split is refused by BTree::ValidateStructure) or recovers the state
//     of the last successful checkpoint,
//   - a recovered index never returns a wrong answer: every successful
//     probe query lies between a lower bound (checkpoint state minus every
//     attempted post-checkpoint delete) and an upper bound (checkpoint
//     state plus attempted post-checkpoint inserts, minus completed
//     deletes),
//   - at k == T (no fault fires; the workload's tail past the final
//     checkpoint contains no page-allocating mutation) recovery must
//     succeed outright.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "db/database.h"
#include "db/set_index.h"
#include "db/write_batch.h"
#include "json_validate.h"
#include "obj/object.h"
#include "oracle.h"
#include "storage/fault_injecting_page_file.h"
#include "storage/storage_manager.h"
#include "util/failpoint.h"
#include "util/rng.h"

namespace sigsetdb {
namespace {

constexpr size_t kNoStep = static_cast<size_t>(-1);

// Every (config, workload) cell gets an independent seeded stream derived by
// hashing the base seed with the cell's identity.  Sequential literal seeds
// (1001, 2002, ...) fed workload AND probe generation from near-identical
// streams, correlating the fault schedules across configurations; mixing
// decorrelates them, and the seed is logged (SCOPED_TRACE) so any failing
// cell reproduces standalone.
constexpr uint64_t kCrashBaseSeed = 0x5e7acce55ull;

uint64_t MixSeed(uint64_t base, const std::string& config, uint64_t workload) {
  uint64_t h = base;
  for (char c : config) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001B3ull;  // FNV-1a step
  }
  h ^= workload + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ull;  // splitmix64 finalizer
  h ^= h >> 27;
  h *= 0x94D049BB133111EBull;
  h ^= h >> 31;
  return h;
}

// Mirrors the db layer's fatality rule: these are the statuses that must
// one-shot a flight-recorder postmortem before surfacing at the API.
bool IsFatalCode(const Status& status) {
  return status.code() == StatusCode::kIoError ||
         status.code() == StatusCode::kCorruption ||
         status.code() == StatusCode::kInternal;
}

// The telemetry contract on every crash cell: a fatal status leaves behind
// an in-memory postmortem that round-trips through a validating JSON parser.
void ExpectParseablePostmortem(const std::string& json, const Status& cause) {
  EXPECT_FALSE(json.empty())
      << "fatal status produced no postmortem: " << cause.ToString();
  if (json.empty()) return;
  std::string error;
  EXPECT_TRUE(testjson::IsValidJson(json, &error))
      << "postmortem does not parse: " << error;
}

struct Step {
  enum class Kind { kInsert, kDelete, kCheckpoint, kQuery, kBatch, kCompact };
  Kind kind;
  // kInsert: the set value; kQuery: the query set.
  ElementSet set;
  // kInsert: the insert ordinal; kDelete: ordinal of the victim insert.
  size_t target = 0;
  QueryKind qkind = QueryKind::kSuperset;
  // kBatch: grouped inserts (each carrying its ordinal) and delete victim
  // ordinals, applied through one WriteBatch::ApplyBatch call.
  std::vector<std::pair<size_t, ElementSet>> batch_inserts = {};
  std::vector<size_t> batch_deletes = {};
};

// One facility configuration put through the harness.
struct CrashConfig {
  std::string name;
  SetIndex::Options options;
  int inserts;
  uint64_t v;
  uint64_t dt;
  uint64_t seed;
};

// Builds the deterministic workload: `inserts` inserts with checkpoints at
// 1/3 and 2/3, interleaved deletes and differential queries, and a tail of
// [subset query, final checkpoint, delete, query] so that nothing after the
// final checkpoint allocates pages (recovery at k == T must succeed).
std::vector<Step> MakeWorkload(const CrashConfig& cfg) {
  Rng rng(cfg.seed);
  std::vector<Step> steps;
  size_t ordinal = 0;
  const int n = cfg.inserts;
  for (int i = 0; i < n; ++i) {
    Step ins{Step::Kind::kInsert,
             rng.SampleWithoutReplacement(cfg.v, cfg.dt), ordinal++,
             QueryKind::kSuperset};
    NormalizeSet(&ins.set);
    steps.push_back(std::move(ins));
    if (i == n / 4) {
      steps.push_back({Step::Kind::kQuery,
                       rng.SampleWithoutReplacement(cfg.v, 2), 0,
                       QueryKind::kSuperset});
    }
    if (i == n / 3 || i == 2 * n / 3) {
      steps.push_back({Step::Kind::kCheckpoint, {}, 0, QueryKind::kSuperset});
    }
    if (i == n / 2) {
      steps.push_back({Step::Kind::kDelete, {}, 1, QueryKind::kSuperset});
      steps.push_back({Step::Kind::kQuery,
                       rng.SampleWithoutReplacement(cfg.v, 1), 0,
                       QueryKind::kSuperset});
    }
  }
  // Grouped churn through the batch path: delete two earlier survivors and
  // insert three new sets in one ApplyBatch call, then Compact() away the
  // accumulated tombstones.  Compact commits via Checkpoint but allocates
  // new generation files, so it must stay ahead of the allocation-free tail
  // below (recovery at k == T demands the final checkpoint be last).
  Step batch{Step::Kind::kBatch, {}, 0, QueryKind::kSuperset};
  batch.batch_deletes = {3, 4};
  for (int i = 0; i < 3; ++i) {
    ElementSet set = rng.SampleWithoutReplacement(cfg.v, cfg.dt);
    NormalizeSet(&set);
    batch.batch_inserts.emplace_back(ordinal++, std::move(set));
  }
  steps.push_back(std::move(batch));
  steps.push_back({Step::Kind::kQuery, rng.SampleWithoutReplacement(cfg.v, 2),
                   0, QueryKind::kSuperset});
  steps.push_back({Step::Kind::kCompact, {}, 0, QueryKind::kSuperset});
  steps.push_back({Step::Kind::kQuery, rng.SampleWithoutReplacement(cfg.v, 1),
                   0, QueryKind::kSuperset});
  steps.push_back({Step::Kind::kQuery,
                   rng.SampleWithoutReplacement(cfg.v, cfg.v / 2), 0,
                   QueryKind::kSubset});
  steps.push_back({Step::Kind::kCheckpoint, {}, 0, QueryKind::kSuperset});
  steps.push_back({Step::Kind::kDelete, {}, 2, QueryKind::kSuperset});
  steps.push_back({Step::Kind::kQuery, rng.SampleWithoutReplacement(cfg.v, 2),
                   0, QueryKind::kSuperset});
  return steps;
}

struct RunOutcome {
  bool create_failed = false;
  size_t failing_step = kNoStep;
  std::vector<Oid> oids;  // per executed insert ordinal
  bool has_ckpt = false;
  size_t ckpt_step = 0;          // step index of the last successful checkpoint
  uint64_t ckpt_count = 0;       // num_objects() at that checkpoint
  std::vector<size_t> ckpt_live;  // live insert ordinals at that checkpoint
};

std::vector<PlanMode> ForcedModes(const SetIndex::Options& options) {
  std::vector<PlanMode> modes;
  if (options.maintain_ssf) modes.push_back(PlanMode::kForceSsf);
  if (options.maintain_bssf) modes.push_back(PlanMode::kForceBssf);
  if (options.maintain_nix) modes.push_back(PlanMode::kForceNix);
  return modes;
}

class CrashRecoveryTest : public ::testing::Test {
 protected:
  static void Intercept(StorageManager* storage, FaultInjector* injector) {
    storage->SetInterceptor(
        [injector](std::unique_ptr<PageFile> base) -> std::unique_ptr<
                                                       PageFile> {
          return std::make_unique<FaultInjectingPageFile>(std::move(base),
                                                          injector);
        });
  }

  // Runs the workload until completion or the first error.  Successful
  // queries are differentially checked against the live brute-force state.
  // `expect_oids` (when non-null) asserts OID assignment is deterministic
  // across runs — the property that lets the harness reuse clean-run OIDs.
  static RunOutcome RunWorkload(StorageManager* storage,
                                const CrashConfig& cfg,
                                const std::vector<Step>& steps,
                                const std::vector<Oid>* expect_oids) {
    RunOutcome out;
    auto index_or = SetIndex::Create(storage, "idx", cfg.options);
    if (!index_or.ok()) {
      out.create_failed = true;
      return out;
    }
    SetIndex* index = index_or->get();
    std::vector<PlanMode> modes = ForcedModes(cfg.options);
    std::map<size_t, ElementSet> live;  // insert ordinal -> normalized set
    for (size_t si = 0; si < steps.size(); ++si) {
      const Step& step = steps[si];
      Status status = Status::OK();
      switch (step.kind) {
        case Step::Kind::kInsert: {
          auto oid = index->Insert(step.set);
          if (!oid.ok()) {
            status = oid.status();
            break;
          }
          if (expect_oids != nullptr) {
            EXPECT_EQ(oid->value(), (*expect_oids)[step.target].value());
          }
          out.oids.push_back(*oid);
          live[step.target] = step.set;
          break;
        }
        case Step::Kind::kDelete: {
          status = index->Delete(out.oids[step.target]);
          if (status.ok()) live.erase(step.target);
          break;
        }
        case Step::Kind::kCheckpoint: {
          status = index->Checkpoint();
          if (status.ok()) {
            out.has_ckpt = true;
            out.ckpt_step = si;
            out.ckpt_count = index->num_objects();
            out.ckpt_live.clear();
            for (const auto& [ordinal, set] : live) {
              out.ckpt_live.push_back(ordinal);
            }
          }
          break;
        }
        case Step::Kind::kBatch: {
          WriteBatch batch;
          for (size_t victim : step.batch_deletes) {
            batch.Delete(out.oids[victim]);
          }
          for (const auto& [ordinal, set] : step.batch_inserts) {
            batch.Insert(set);
          }
          auto oids = index->ApplyBatch(batch);
          if (!oids.ok()) {
            status = oids.status();
            break;
          }
          for (size_t victim : step.batch_deletes) live.erase(victim);
          for (size_t i = 0; i < step.batch_inserts.size(); ++i) {
            const auto& [ordinal, set] = step.batch_inserts[i];
            if (expect_oids != nullptr) {
              EXPECT_EQ((*oids)[i].value(), (*expect_oids)[ordinal].value());
            }
            out.oids.push_back((*oids)[i]);
            live[ordinal] = set;
          }
          break;
        }
        case Step::Kind::kCompact: {
          // A successful Compact commits through Checkpoint, so it counts as
          // one for the recovery bounds.
          status = index->Compact();
          if (status.ok()) {
            out.has_ckpt = true;
            out.ckpt_step = si;
            out.ckpt_count = index->num_objects();
            out.ckpt_live.clear();
            for (const auto& [ordinal, set] : live) {
              out.ckpt_live.push_back(ordinal);
            }
          }
          break;
        }
        case Step::Kind::kQuery: {
          for (PlanMode mode : modes) {
            auto result = index->Query(step.qkind, step.set, mode);
            if (!result.ok()) {
              status = result.status();
              break;
            }
            std::vector<uint64_t> got;
            for (Oid oid : result->result.oids) got.push_back(oid.value());
            std::sort(got.begin(), got.end());
            ElementSet query = step.set;
            NormalizeSet(&query);
            std::vector<uint64_t> want;
            for (const auto& [ordinal, set] : live) {
              if (OracleMatches(set, step.qkind, query)) {
                want.push_back(out.oids[ordinal].value());
              }
            }
            std::sort(want.begin(), want.end());
            EXPECT_EQ(got, want)
                << "live query diverged from brute force at step " << si;
          }
          break;
        }
      }
      if (!status.ok()) {
        out.failing_step = si;
        if (cfg.options.enable_telemetry && IsFatalCode(status)) {
          ExpectParseablePostmortem(index->last_postmortem_json(), status);
        }
        break;
      }
    }
    return out;
  }

  // The full harness for one configuration.  Telemetry rides along in every
  // cell: it must not disturb the fault schedule (same T, same OIDs — the
  // page-count differential made bit-exact by telemetry_test), and every
  // fatal failing step must leave a parseable postmortem.
  static void RunConfig(CrashConfig cfg) {
    cfg.options.enable_telemetry = true;
    SCOPED_TRACE(cfg.name + ": seed " + std::to_string(cfg.seed));
    const std::vector<Step> steps = MakeWorkload(cfg);

    // Normalized set per insert ordinal (for recovery bounds).
    std::vector<ElementSet> insert_sets;
    for (const Step& step : steps) {
      if (step.kind == Step::Kind::kInsert) insert_sets.push_back(step.set);
      if (step.kind == Step::Kind::kBatch) {
        for (const auto& [ordinal, set] : step.batch_inserts) {
          insert_sets.push_back(set);
        }
      }
    }

    // Clean run: total op count and the deterministic OID assignment.
    std::vector<Oid> clean_oids;
    uint64_t total_ops = 0;
    {
      FaultInjector injector;
      StorageManager storage;
      Intercept(&storage, &injector);
      RunOutcome clean = RunWorkload(&storage, cfg, steps, nullptr);
      ASSERT_FALSE(clean.create_failed);
      ASSERT_EQ(clean.failing_step, kNoStep);
      ASSERT_TRUE(clean.has_ckpt);
      clean_oids = clean.oids;
      total_ops = injector.ops();
    }
    ASSERT_GT(total_ops, 0u);

    // Deterministic probe queries evaluated after every recovery.
    std::vector<std::pair<QueryKind, ElementSet>> probes;
    {
      Rng rng(cfg.seed + 999);
      probes.emplace_back(QueryKind::kSuperset,
                          rng.SampleWithoutReplacement(cfg.v, 1));
      probes.emplace_back(QueryKind::kSuperset,
                          rng.SampleWithoutReplacement(cfg.v, 2));
      probes.emplace_back(QueryKind::kSubset,
                          rng.SampleWithoutReplacement(cfg.v, cfg.v / 2));
      for (auto& [kind, query] : probes) NormalizeSet(&query);
    }
    const std::vector<PlanMode> modes = ForcedModes(cfg.options);

    for (uint64_t k = 0; k <= total_ops; ++k) {
      SCOPED_TRACE(cfg.name + ": crash at op " + std::to_string(k) + " of " +
                   std::to_string(total_ops));
      FaultInjector injector;
      injector.CrashAt(k);
      StorageManager storage;
      Intercept(&storage, &injector);
      RunOutcome out = RunWorkload(&storage, cfg, steps, &clean_oids);
      if (k < total_ops) {
        // The crash must surface as a clean error somewhere — an uncharged
        // completion would mean a Status was swallowed.
        EXPECT_TRUE(out.create_failed || out.failing_step != kNoStep);
      } else {
        EXPECT_FALSE(out.create_failed);
        EXPECT_EQ(out.failing_step, kNoStep);
      }

      // "Restart": faults stop, the surviving pages are what they are.
      injector.Disarm();
      auto reopened = SetIndex::Open(&storage, "idx", cfg.options);
      if (!out.has_ckpt) {
        // Nothing durable was ever committed; recovery must refuse.
        EXPECT_FALSE(reopened.ok());
        continue;
      }
      if (k == total_ops) {
        // Nothing after the final checkpoint allocates pages, so recovery
        // of a cleanly finished run must succeed.
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      }
      if (!reopened.ok()) {
        // A clean refusal (e.g. torn B-tree split detected) is acceptable.
        continue;
      }
      SetIndex* index = reopened->get();
      EXPECT_EQ(index->num_objects(), out.ckpt_count);

      // Post-checkpoint mutations that were attempted (executed, or running
      // when the crash hit).
      std::set<size_t> deletes_attempted;
      std::set<size_t> deletes_executed;
      std::set<size_t> inserts_attempted;
      size_t last_attempted = out.failing_step != kNoStep
                                  ? out.failing_step
                                  : steps.size() - 1;
      for (size_t si = out.ckpt_step + 1; si <= last_attempted; ++si) {
        const Step& step = steps[si];
        if (step.kind == Step::Kind::kDelete) {
          deletes_attempted.insert(step.target);
          if (si != out.failing_step) deletes_executed.insert(step.target);
        } else if (step.kind == Step::Kind::kInsert) {
          inserts_attempted.insert(step.target);
        } else if (step.kind == Step::Kind::kBatch) {
          // A batch that was running when the crash hit may have applied any
          // prefix of its index mutations: its deletes count as attempted
          // but not executed, its inserts as attempted.
          for (size_t victim : step.batch_deletes) {
            deletes_attempted.insert(victim);
            if (si != out.failing_step) deletes_executed.insert(victim);
          }
          for (const auto& [ordinal, set] : step.batch_inserts) {
            inserts_attempted.insert(ordinal);
          }
        }
      }

      for (const auto& [kind, query] : probes) {
        for (PlanMode mode : modes) {
          auto result = index->Query(kind, query, mode);
          if (!result.ok()) {
            // Clean error is acceptable (e.g. a candidate OID whose delete
            // was half-applied resolves to a tombstone).  Wrong answers are
            // not, which the bounds below enforce on the success path.
            continue;
          }
          std::set<uint64_t> lower;
          std::set<uint64_t> upper;
          for (size_t ordinal : out.ckpt_live) {
            if (!OracleMatches(insert_sets[ordinal], kind, query)) continue;
            uint64_t oid = clean_oids[ordinal].value();
            if (deletes_attempted.count(ordinal) == 0) lower.insert(oid);
            if (deletes_executed.count(ordinal) == 0) upper.insert(oid);
          }
          for (size_t ordinal : inserts_attempted) {
            if (OracleMatches(insert_sets[ordinal], kind, query)) {
              upper.insert(clean_oids[ordinal].value());
            }
          }
          std::set<uint64_t> got;
          for (Oid oid : result->result.oids) got.insert(oid.value());
          for (uint64_t oid : lower) {
            EXPECT_TRUE(got.count(oid) != 0)
                << "recovered index lost durable object " << oid;
          }
          for (uint64_t oid : got) {
            EXPECT_TRUE(upper.count(oid) != 0)
                << "recovered index returned impossible object " << oid;
          }
        }
      }
    }
  }
};

TEST_F(CrashRecoveryTest, SsfEveryIoIndex) {
  CrashConfig cfg;
  cfg.name = "ssf";
  cfg.options.maintain_ssf = true;
  cfg.options.maintain_bssf = false;
  cfg.options.maintain_nix = false;
  cfg.options.sig = {64, 2};
  cfg.options.capacity = 128;
  cfg.inserts = 24;
  cfg.v = 48;
  cfg.dt = 6;
  cfg.seed = MixSeed(kCrashBaseSeed, cfg.name, 0);
  RunConfig(cfg);
}

TEST_F(CrashRecoveryTest, BssfEveryIoIndex) {
  CrashConfig cfg;
  cfg.name = "bssf";
  cfg.options.maintain_ssf = false;
  cfg.options.maintain_bssf = true;
  cfg.options.maintain_nix = false;
  cfg.options.sig = {64, 2};
  cfg.options.capacity = 128;
  cfg.inserts = 24;
  cfg.v = 48;
  cfg.dt = 6;
  cfg.seed = MixSeed(kCrashBaseSeed, cfg.name, 0);
  RunConfig(cfg);
}

TEST_F(CrashRecoveryTest, NixEveryIoIndexWithLeafSplits) {
  CrashConfig cfg;
  cfg.name = "nix";
  cfg.options.maintain_ssf = false;
  cfg.options.maintain_bssf = false;
  cfg.options.maintain_nix = true;
  cfg.options.sig = {64, 2};
  cfg.options.capacity = 256;
  cfg.inserts = 60;  // ~160 distinct keys: enough leaf bytes to force splits
  cfg.v = 160;
  cfg.dt = 8;
  cfg.seed = MixSeed(kCrashBaseSeed, cfg.name, 0);
  RunConfig(cfg);

  // The workload must actually exercise the split path, otherwise the
  // torn-split recovery scenarios above were vacuous: rebuild it cleanly
  // and check the tree grew beyond one leaf.
  StorageManager storage;
  std::vector<Step> steps = MakeWorkload(cfg);
  RunOutcome out = RunWorkload(&storage, cfg, steps, nullptr);
  ASSERT_EQ(out.failing_step, kNoStep);
  auto index = SetIndex::Open(&storage, "idx", cfg.options);
  ASSERT_TRUE(index.ok());
  EXPECT_GT((*index)->nix()->tree().leaf_pages(), 1u);
}

TEST_F(CrashRecoveryTest, AllFacilitiesEveryIoIndex) {
  CrashConfig cfg;
  cfg.name = "all";
  cfg.options.maintain_ssf = true;
  cfg.options.maintain_bssf = true;
  cfg.options.maintain_nix = true;
  cfg.options.sig = {64, 2};
  cfg.options.capacity = 128;
  cfg.inserts = 24;
  cfg.v = 48;
  cfg.dt = 6;
  cfg.seed = MixSeed(kCrashBaseSeed, cfg.name, 0);
  RunConfig(cfg);
}

// Database-level spot check: the multi-attribute facade must show the same
// crash discipline — clean errors during the crash, checkpoint-prefix
// recovery or clean refusal afterwards, never a wrong conjunction answer.
TEST_F(CrashRecoveryTest, DatabaseEveryIoIndex) {
  Database::Options options;
  Database::AttributeOptions attr_a;
  attr_a.name = "a";
  attr_a.sig = {64, 2};
  Database::AttributeOptions attr_b;
  attr_b.name = "b";
  attr_b.maintain_bssf = false;  // nix-only second attribute
  attr_b.sig = {64, 2};
  options.attributes = {attr_a, attr_b};
  options.capacity = 128;
  options.enable_telemetry = true;

  constexpr uint64_t kV = 40;
  constexpr uint64_t kDt = 5;
  constexpr int kInserts = 12;

  // Deterministic attribute values; the final checkpoint is followed only
  // by a delete and a query (no page-allocating mutation).
  const uint64_t seed = MixSeed(kCrashBaseSeed, "database", 0);
  SCOPED_TRACE("database: seed " + std::to_string(seed));
  Rng rng(seed);
  std::vector<std::vector<ElementSet>> values;
  for (int i = 0; i < kInserts; ++i) {
    std::vector<ElementSet> v = {rng.SampleWithoutReplacement(kV, kDt),
                                 rng.SampleWithoutReplacement(kV, kDt)};
    NormalizeSet(&v[0]);
    NormalizeSet(&v[1]);
    values.push_back(std::move(v));
  }
  ElementSet probe = rng.SampleWithoutReplacement(kV, 1);
  NormalizeSet(&probe);

  // One step list: insert 0..5, checkpoint, insert 6..11, checkpoint,
  // delete object 1, query.  Returns outcome analogues of RunWorkload.
  struct DbOutcome {
    bool failed = false;       // some call returned an error
    bool has_ckpt = false;
    uint64_t ckpt_count = 0;
    std::vector<size_t> ckpt_live;
    std::set<size_t> post_inserts;
    bool delete_attempted = false;
    bool delete_executed = false;
    std::vector<Oid> oids;
  };
  auto run = [&](StorageManager* storage) {
    DbOutcome out;
    auto db_or = Database::Create(storage, "class", options);
    if (!db_or.ok()) {
      out.failed = true;
      return out;
    }
    Database* db = db_or->get();
    std::set<size_t> live;
    auto fail = [&](const Status& status) {
      if (IsFatalCode(status)) {
        ExpectParseablePostmortem(db->last_postmortem_json(), status);
      }
      out.failed = true;
    };
    auto checkpoint = [&]() {
      Status status = db->Checkpoint();
      if (!status.ok()) {
        fail(status);
        return false;
      }
      out.has_ckpt = true;
      out.ckpt_count = db->num_objects();
      out.ckpt_live.assign(live.begin(), live.end());
      out.post_inserts.clear();
      return true;
    };
    for (int i = 0; i < kInserts; ++i) {
      // Record the attempt before calling: a failing insert may still have
      // persisted partial index entries, so it belongs in the upper bound.
      if (out.has_ckpt) out.post_inserts.insert(i);
      auto oid = db->Insert(values[i]);
      if (!oid.ok()) {
        fail(oid.status());
        return out;
      }
      out.oids.push_back(*oid);
      live.insert(i);
      if (i == kInserts / 2 - 1 || i == kInserts - 1) {
        if (!checkpoint()) return out;
      }
    }
    out.delete_attempted = true;
    Status del_status = db->Delete(out.oids[1]);
    if (!del_status.ok()) {
      fail(del_status);
      return out;
    }
    out.delete_executed = true;
    auto result = db->Query({{"a", QueryKind::kSuperset, probe}});
    if (!result.ok()) {
      fail(result.status());
      return out;
    }
    return out;
  };

  // Clean run for T and the deterministic OIDs.
  uint64_t total_ops = 0;
  std::vector<Oid> clean_oids;
  {
    FaultInjector injector;
    StorageManager storage;
    Intercept(&storage, &injector);
    DbOutcome clean = run(&storage);
    ASSERT_FALSE(clean.failed);
    clean_oids = clean.oids;
    total_ops = injector.ops();
  }

  for (uint64_t k = 0; k <= total_ops; ++k) {
    SCOPED_TRACE("database: crash at op " + std::to_string(k) + " of " +
                 std::to_string(total_ops));
    FaultInjector injector;
    injector.CrashAt(k);
    StorageManager storage;
    Intercept(&storage, &injector);
    DbOutcome out = run(&storage);
    EXPECT_EQ(out.failed, k < total_ops);

    injector.Disarm();
    auto reopened = Database::Open(&storage, "class", options);
    if (!out.has_ckpt) {
      EXPECT_FALSE(reopened.ok());
      continue;
    }
    if (k == total_ops) {
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    }
    if (!reopened.ok()) continue;
    EXPECT_EQ((*reopened)->num_objects(), out.ckpt_count);

    auto result = (*reopened)->Query({{"a", QueryKind::kSuperset, probe}});
    if (!result.ok()) continue;  // clean error acceptable
    std::set<uint64_t> got;
    for (Oid oid : result->oids) got.insert(oid.value());
    for (size_t i : out.ckpt_live) {
      if (!OracleMatches(values[i][0], QueryKind::kSuperset, probe)) continue;
      uint64_t oid = clean_oids[i].value();
      bool deletable = (i == 1) && out.delete_attempted;
      bool deleted = (i == 1) && out.delete_executed;
      if (!deletable) {
        EXPECT_TRUE(got.count(oid) != 0)
            << "recovered database lost durable object " << oid;
      }
      if (deleted) {
        EXPECT_TRUE(got.count(oid) == 0)
            << "recovered database returned deleted object " << oid;
      }
    }
    for (uint64_t oid : got) {
      bool possible = false;
      for (size_t i = 0; i < clean_oids.size(); ++i) {
        if (clean_oids[i].value() != oid) continue;
        bool in_ckpt = std::find(out.ckpt_live.begin(), out.ckpt_live.end(),
                                 i) != out.ckpt_live.end();
        bool post_insert = out.post_inserts.count(i) != 0;
        bool was_deleted = (i == 1) && out.delete_executed;
        possible = (in_ckpt || post_insert) && !was_deleted &&
                   OracleMatches(values[i][0], QueryKind::kSuperset, probe);
      }
      EXPECT_TRUE(possible)
          << "recovered database returned impossible object " << oid;
    }
  }
}

// ---------------------------------------------------------------------------
// WAL crash matrix: with enable_wal, the recovery contract hardens from
// "consistent checkpoint prefix" to "NO ACKNOWLEDGED WRITE LOST, no phantom
// write invented".  For every facility configuration × workload shape, the
// harness crashes at every I/O index, keeps an in-test ack ledger (a write
// is acked iff its call returned OK — i.e. its log record committed), and
// asserts after reopen:
//   - reopen always succeeds once Create's initial checkpoint is durable
//     (no clean-refusal escape hatch: replay + facility rebuild must cope
//     with any torn facility state),
//   - every acked insert not acked-deleted is Get-able with exactly its
//     logged value; every acked delete stays deleted,
//   - the one in-flight (unacknowledged) operation is all-or-nothing —
//     batches atomically so,
//   - forced-facility probe queries equal brute force over the exact
//     recovered live set (no phantoms, no losses, in any facility),
//   - the recovered index accepts new writes and a checkpoint.
// ---------------------------------------------------------------------------

enum class WalWorkloadKind { kSingleton = 0, kBatch = 1, kCompact = 2 };

const char* WalWorkloadName(WalWorkloadKind kind) {
  switch (kind) {
    case WalWorkloadKind::kSingleton:
      return "singleton";
    case WalWorkloadKind::kBatch:
      return "batch";
    case WalWorkloadKind::kCompact:
      return "compact";
  }
  return "?";
}

struct WalStep {
  enum class Kind { kInsert, kDelete, kBatch, kCheckpoint, kCompact };
  Kind kind;
  size_t ordinal = 0;             // kInsert
  size_t victim = 0;              // kDelete: ordinal of the victim insert
  std::vector<size_t> batch_ins;  // kBatch: insert ordinals
  std::vector<size_t> batch_del;  // kBatch: delete victim ordinals
};

// The step shapes are fixed per workload kind (values are drawn by the
// caller); every shape ends with mutations PAST the last checkpoint, so at
// k == T (no fault at all) correctness still rides entirely on log replay.
std::vector<WalStep> MakeWalSteps(WalWorkloadKind kind) {
  using K = WalStep::Kind;
  std::vector<WalStep> steps;
  auto ins = [&](size_t o) { steps.push_back({K::kInsert, o, 0, {}, {}}); };
  auto del = [&](size_t v) { steps.push_back({K::kDelete, 0, v, {}, {}}); };
  switch (kind) {
    case WalWorkloadKind::kSingleton:
      for (size_t o = 0; o < 4; ++o) ins(o);
      steps.push_back({K::kCheckpoint, 0, 0, {}, {}});
      for (size_t o = 4; o < 7; ++o) ins(o);
      del(1);
      steps.push_back({K::kCheckpoint, 0, 0, {}, {}});
      for (size_t o = 7; o < 10; ++o) ins(o);
      del(5);
      break;
    case WalWorkloadKind::kBatch:
      for (size_t o = 0; o < 3; ++o) ins(o);
      steps.push_back({K::kCheckpoint, 0, 0, {}, {}});
      steps.push_back({K::kBatch, 0, 0, {3, 4, 5}, {0}});
      steps.push_back({K::kCheckpoint, 0, 0, {}, {}});
      steps.push_back({K::kBatch, 0, 0, {6, 7}, {2, 4}});
      del(3);
      break;
    case WalWorkloadKind::kCompact:
      for (size_t o = 0; o < 6; ++o) ins(o);
      del(1);
      del(3);
      steps.push_back({K::kCheckpoint, 0, 0, {}, {}});
      steps.push_back({K::kCompact, 0, 0, {}, {}});
      for (size_t o = 6; o < 9; ++o) ins(o);
      del(6);
      break;
  }
  return steps;
}

size_t WalOrdinalCount(const std::vector<WalStep>& steps) {
  size_t n = 0;
  for (const WalStep& step : steps) {
    if (step.kind == WalStep::Kind::kInsert) n = std::max(n, step.ordinal + 1);
    for (size_t o : step.batch_ins) n = std::max(n, o + 1);
  }
  return n;
}

// The ack ledger one crash run produces.  An operation is ACKED iff its
// call returned OK; the operation running when the crash hit (if any) is
// IN-FLIGHT and may land either way — but atomically.
struct WalLedger {
  bool create_failed = false;
  bool finished = false;
  std::map<size_t, Oid> oids;  // acked insert ordinal -> assigned OID
  std::set<size_t> acked_ins;
  std::set<size_t> acked_del;
  std::vector<size_t> inflight_ins;
  std::vector<size_t> inflight_del;
};

WalLedger RunWalWorkload(StorageManager* storage,
                         const SetIndex::Options& options,
                         const std::vector<WalStep>& steps,
                         const std::vector<ElementSet>& insert_sets,
                         const std::map<size_t, Oid>* expect_oids) {
  WalLedger led;
  auto index_or = SetIndex::Create(storage, "walidx", options);
  if (!index_or.ok()) {
    led.create_failed = true;
    return led;
  }
  SetIndex* index = index_or->get();
  for (const WalStep& step : steps) {
    Status status = Status::OK();
    switch (step.kind) {
      case WalStep::Kind::kInsert: {
        auto oid = index->Insert(insert_sets[step.ordinal]);
        if (!oid.ok()) {
          led.inflight_ins.push_back(step.ordinal);
          status = oid.status();
          break;
        }
        if (expect_oids != nullptr) {
          EXPECT_EQ(oid->value(), expect_oids->at(step.ordinal).value())
              << "OID assignment diverged at ordinal " << step.ordinal;
        }
        led.oids[step.ordinal] = *oid;
        led.acked_ins.insert(step.ordinal);
        break;
      }
      case WalStep::Kind::kDelete: {
        status = index->Delete(led.oids.at(step.victim));
        if (status.ok()) {
          led.acked_del.insert(step.victim);
        } else {
          led.inflight_del.push_back(step.victim);
        }
        break;
      }
      case WalStep::Kind::kBatch: {
        WriteBatch batch;
        for (size_t victim : step.batch_del) batch.Delete(led.oids.at(victim));
        for (size_t o : step.batch_ins) batch.Insert(insert_sets[o]);
        auto oids = index->ApplyBatch(batch);
        if (!oids.ok()) {
          led.inflight_ins = step.batch_ins;
          led.inflight_del = step.batch_del;
          status = oids.status();
          break;
        }
        for (size_t i = 0; i < step.batch_ins.size(); ++i) {
          if (expect_oids != nullptr) {
            EXPECT_EQ((*oids)[i].value(),
                      expect_oids->at(step.batch_ins[i]).value());
          }
          led.oids[step.batch_ins[i]] = (*oids)[i];
          led.acked_ins.insert(step.batch_ins[i]);
        }
        for (size_t victim : step.batch_del) led.acked_del.insert(victim);
        break;
      }
      case WalStep::Kind::kCheckpoint:
        status = index->Checkpoint();
        break;
      case WalStep::Kind::kCompact:
        status = index->Compact();
        break;
    }
    if (!status.ok()) {
      if (options.enable_telemetry && IsFatalCode(status)) {
        ExpectParseablePostmortem(index->last_postmortem_json(), status);
      }
      return led;
    }
  }
  led.finished = true;
  return led;
}

class WalCrashMatrixTest : public ::testing::Test {
 protected:
  static void Intercept(StorageManager* storage, FaultInjector* injector) {
    storage->SetInterceptor(
        [injector](
            std::unique_ptr<PageFile> base) -> std::unique_ptr<PageFile> {
          return std::make_unique<FaultInjectingPageFile>(std::move(base),
                                                          injector);
        });
  }

  static void VerifyWalRecovery(SetIndex* index,
                                const SetIndex::Options& options,
                                const std::vector<ElementSet>& insert_sets,
                                const WalLedger& led,
                                const std::map<size_t, Oid>& clean_oids,
                                uint64_t v, uint64_t seed) {
    auto oid_of = [&](size_t o) {
      auto it = led.oids.find(o);
      return it != led.oids.end() ? it->second : clean_oids.at(o);
    };
    const std::set<size_t> inflight_ins(led.inflight_ins.begin(),
                                        led.inflight_ins.end());
    const std::set<size_t> inflight_del(led.inflight_del.begin(),
                                        led.inflight_del.end());
    std::set<size_t> attempted = led.acked_ins;
    attempted.insert(inflight_ins.begin(), inflight_ins.end());

    // Classify every attempted insert ordinal by Get at its (predicted or
    // assigned — identical) OID.  `group_applied` collects the in-flight
    // operation's members: 1 = that member took effect.
    std::map<size_t, ElementSet> recovered_live;
    std::vector<int> group_applied;
    for (size_t o : attempted) {
      auto got = index->Get(oid_of(o));
      const bool present = got.ok();
      if (present) {
        EXPECT_EQ(got->set_value, insert_sets[o])
            << "ordinal " << o << " recovered with a different value";
      }
      if (led.acked_del.count(o) != 0) {
        EXPECT_FALSE(present)
            << "acknowledged delete of ordinal " << o << " resurfaced";
      } else if (inflight_del.count(o) != 0) {
        group_applied.push_back(present ? 0 : 1);
        if (present) recovered_live[o] = insert_sets[o];
      } else if (inflight_ins.count(o) != 0) {
        group_applied.push_back(present ? 1 : 0);
        if (present) recovered_live[o] = insert_sets[o];
      } else {
        EXPECT_TRUE(present)
            << "ACKED insert ordinal " << o << " lost by recovery";
        if (present) recovered_live[o] = insert_sets[o];
      }
    }
    for (size_t i = 1; i < group_applied.size(); ++i) {
      EXPECT_EQ(group_applied[i], group_applied[0])
          << "in-flight operation applied non-atomically";
    }

    // Differential probes: every maintained facility must answer exactly
    // brute force over the recovered live set — no phantoms, no losses.
    Rng rng(MixSeed(seed, "probes", 7));
    std::vector<std::pair<QueryKind, ElementSet>> probes;
    probes.emplace_back(QueryKind::kSuperset,
                        rng.SampleWithoutReplacement(v, 1));
    probes.emplace_back(QueryKind::kSuperset,
                        rng.SampleWithoutReplacement(v, 2));
    probes.emplace_back(QueryKind::kSubset,
                        rng.SampleWithoutReplacement(v, v / 2));
    for (auto& [kind, query] : probes) NormalizeSet(&query);
    for (const auto& [kind, query] : probes) {
      for (PlanMode mode : ForcedModes(options)) {
        auto result = index->Query(kind, query, mode);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::vector<uint64_t> got;
        for (Oid oid : result->result.oids) got.push_back(oid.value());
        std::sort(got.begin(), got.end());
        std::vector<uint64_t> want;
        for (const auto& [o, set] : recovered_live) {
          if (OracleMatches(set, kind, query)) {
            want.push_back(oid_of(o).value());
          }
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want) << "recovered facility diverged from brute force";
      }
    }

    // The recovered index must keep working: a fresh insert, its read-back,
    // and a checkpoint (which truncates the replayed log) all succeed.
    ElementSet extra = rng.SampleWithoutReplacement(v, 3);
    NormalizeSet(&extra);
    auto extra_oid = index->Insert(extra);
    ASSERT_TRUE(extra_oid.ok()) << extra_oid.status().ToString();
    auto back = index->Get(*extra_oid);
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back->set_value, extra);
    EXPECT_TRUE(index->Checkpoint().ok());
  }

  static void RunWalCell(const std::string& config, SetIndex::Options options,
                         WalWorkloadKind kind) {
    options.enable_wal = true;
    constexpr uint64_t kV = 48;
    constexpr uint64_t kDt = 5;
    const uint64_t seed = MixSeed(kCrashBaseSeed, config + "/wal",
                                  static_cast<uint64_t>(kind) + 1);
    SCOPED_TRACE(config + "/" + WalWorkloadName(kind) + ": seed " +
                 std::to_string(seed));
    const std::vector<WalStep> steps = MakeWalSteps(kind);
    std::vector<ElementSet> insert_sets;
    {
      Rng rng(seed);
      for (size_t o = 0; o < WalOrdinalCount(steps); ++o) {
        ElementSet set = rng.SampleWithoutReplacement(kV, kDt);
        NormalizeSet(&set);
        insert_sets.push_back(std::move(set));
      }
    }

    // Clean run: total op count T and the deterministic OID per ordinal.
    std::map<size_t, Oid> clean_oids;
    uint64_t total_ops = 0;
    {
      FaultInjector injector;
      StorageManager storage;
      Intercept(&storage, &injector);
      WalLedger clean =
          RunWalWorkload(&storage, options, steps, insert_sets, nullptr);
      ASSERT_TRUE(clean.finished);
      clean_oids = clean.oids;
      total_ops = injector.ops();
    }
    ASSERT_GT(total_ops, 0u);

    for (uint64_t k = 0; k <= total_ops; ++k) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + " of " +
                   std::to_string(total_ops));
      FaultInjector injector;
      injector.CrashAt(k);
      StorageManager storage;
      Intercept(&storage, &injector);
      WalLedger led =
          RunWalWorkload(&storage, options, steps, insert_sets, &clean_oids);
      if (k < total_ops) {
        EXPECT_FALSE(led.finished) << "crash did not surface as an error";
      }

      injector.Disarm();
      auto reopened = SetIndex::Open(&storage, "walidx", options);
      if (led.create_failed) {
        // Crash inside Create's initial checkpoint: nothing was ever
        // acknowledged.  A clean refusal (no durable manifest yet) is fine;
        // a successful open is verified like any other (empty ledger).
        if (!reopened.ok()) continue;
      } else {
        // The WAL guarantee under test: once Create has committed its
        // initial checkpoint, recovery can NEVER fail — every acknowledged
        // write replays from the log, however torn the facility files are.
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      }
      VerifyWalRecovery(reopened->get(), options, insert_sets, led,
                        clean_oids, kV, seed);
    }
  }

  static SetIndex::Options FacilityOptions(bool ssf, bool bssf, bool nix) {
    SetIndex::Options options;
    options.maintain_ssf = ssf;
    options.maintain_bssf = bssf;
    options.maintain_nix = nix;
    options.sig = {64, 2};
    options.capacity = 128;
    options.enable_telemetry = true;  // every WAL cell checks postmortems too
    return options;
  }
};

TEST_F(WalCrashMatrixTest, SsfSingleton) {
  RunWalCell("ssf", FacilityOptions(true, false, false),
             WalWorkloadKind::kSingleton);
}
TEST_F(WalCrashMatrixTest, SsfBatch) {
  RunWalCell("ssf", FacilityOptions(true, false, false),
             WalWorkloadKind::kBatch);
}
TEST_F(WalCrashMatrixTest, SsfCompact) {
  RunWalCell("ssf", FacilityOptions(true, false, false),
             WalWorkloadKind::kCompact);
}
TEST_F(WalCrashMatrixTest, BssfSingleton) {
  RunWalCell("bssf", FacilityOptions(false, true, false),
             WalWorkloadKind::kSingleton);
}
TEST_F(WalCrashMatrixTest, BssfBatch) {
  RunWalCell("bssf", FacilityOptions(false, true, false),
             WalWorkloadKind::kBatch);
}
TEST_F(WalCrashMatrixTest, BssfCompact) {
  RunWalCell("bssf", FacilityOptions(false, true, false),
             WalWorkloadKind::kCompact);
}
TEST_F(WalCrashMatrixTest, NixSingleton) {
  RunWalCell("nix", FacilityOptions(false, false, true),
             WalWorkloadKind::kSingleton);
}
TEST_F(WalCrashMatrixTest, NixBatch) {
  RunWalCell("nix", FacilityOptions(false, false, true),
             WalWorkloadKind::kBatch);
}
TEST_F(WalCrashMatrixTest, NixCompact) {
  RunWalCell("nix", FacilityOptions(false, false, true),
             WalWorkloadKind::kCompact);
}
TEST_F(WalCrashMatrixTest, AllSingleton) {
  RunWalCell("all", FacilityOptions(true, true, true),
             WalWorkloadKind::kSingleton);
}
TEST_F(WalCrashMatrixTest, AllBatch) {
  RunWalCell("all", FacilityOptions(true, true, true),
             WalWorkloadKind::kBatch);
}
TEST_F(WalCrashMatrixTest, AllCompact) {
  RunWalCell("all", FacilityOptions(true, true, true),
             WalWorkloadKind::kCompact);
}

// The multi-attribute Database facade runs the same matrix: two attributes
// (bssf+nix and nix-only), ack ledger, crash at every index, exact replay.
class WalDatabaseMatrixTest : public WalCrashMatrixTest {
 protected:
  static Database::Options DbOptions() {
    Database::Options options;
    Database::AttributeOptions attr_a;
    attr_a.name = "a";
    attr_a.sig = {64, 2};
    Database::AttributeOptions attr_b;
    attr_b.name = "b";
    attr_b.maintain_bssf = false;  // nix-only second attribute
    attr_b.sig = {64, 2};
    options.attributes = {attr_a, attr_b};
    options.capacity = 128;
    options.enable_wal = true;
    options.enable_telemetry = true;
    return options;
  }

  static WalLedger RunDbWorkload(
      StorageManager* storage, const Database::Options& options,
      const std::vector<WalStep>& steps,
      const std::vector<std::vector<ElementSet>>& values,
      const std::map<size_t, Oid>* expect_oids) {
    WalLedger led;
    auto db_or = Database::Create(storage, "walclass", options);
    if (!db_or.ok()) {
      led.create_failed = true;
      return led;
    }
    Database* db = db_or->get();
    for (const WalStep& step : steps) {
      Status status = Status::OK();
      switch (step.kind) {
        case WalStep::Kind::kInsert: {
          auto oid = db->Insert(values[step.ordinal]);
          if (!oid.ok()) {
            led.inflight_ins.push_back(step.ordinal);
            status = oid.status();
            break;
          }
          if (expect_oids != nullptr) {
            EXPECT_EQ(oid->value(), expect_oids->at(step.ordinal).value());
          }
          led.oids[step.ordinal] = *oid;
          led.acked_ins.insert(step.ordinal);
          break;
        }
        case WalStep::Kind::kDelete: {
          status = db->Delete(led.oids.at(step.victim));
          if (status.ok()) {
            led.acked_del.insert(step.victim);
          } else {
            led.inflight_del.push_back(step.victim);
          }
          break;
        }
        case WalStep::Kind::kBatch: {
          MultiWriteBatch batch;
          for (size_t victim : step.batch_del) {
            batch.Delete(led.oids.at(victim));
          }
          for (size_t o : step.batch_ins) batch.Insert(values[o]);
          auto oids = db->ApplyBatch(batch);
          if (!oids.ok()) {
            led.inflight_ins = step.batch_ins;
            led.inflight_del = step.batch_del;
            status = oids.status();
            break;
          }
          for (size_t i = 0; i < step.batch_ins.size(); ++i) {
            if (expect_oids != nullptr) {
              EXPECT_EQ((*oids)[i].value(),
                        expect_oids->at(step.batch_ins[i]).value());
            }
            led.oids[step.batch_ins[i]] = (*oids)[i];
            led.acked_ins.insert(step.batch_ins[i]);
          }
          for (size_t victim : step.batch_del) led.acked_del.insert(victim);
          break;
        }
        case WalStep::Kind::kCheckpoint:
          status = db->Checkpoint();
          break;
        case WalStep::Kind::kCompact:
          status = db->Compact();
          break;
      }
      if (!status.ok()) {
        if (options.enable_telemetry && IsFatalCode(status)) {
          ExpectParseablePostmortem(db->last_postmortem_json(), status);
        }
        return led;
      }
    }
    led.finished = true;
    return led;
  }

  static void RunDbCell(WalWorkloadKind kind) {
    const Database::Options options = DbOptions();
    constexpr uint64_t kV = 40;
    constexpr uint64_t kDt = 5;
    const uint64_t seed = MixSeed(kCrashBaseSeed, "database/wal",
                                  static_cast<uint64_t>(kind) + 1);
    SCOPED_TRACE(std::string("database/") + WalWorkloadName(kind) +
                 ": seed " + std::to_string(seed));
    const std::vector<WalStep> steps = MakeWalSteps(kind);
    std::vector<std::vector<ElementSet>> values;
    {
      Rng rng(seed);
      for (size_t o = 0; o < WalOrdinalCount(steps); ++o) {
        std::vector<ElementSet> v = {rng.SampleWithoutReplacement(kV, kDt),
                                     rng.SampleWithoutReplacement(kV, kDt)};
        NormalizeSet(&v[0]);
        NormalizeSet(&v[1]);
        values.push_back(std::move(v));
      }
    }

    std::map<size_t, Oid> clean_oids;
    uint64_t total_ops = 0;
    {
      FaultInjector injector;
      StorageManager storage;
      Intercept(&storage, &injector);
      WalLedger clean =
          RunDbWorkload(&storage, options, steps, values, nullptr);
      ASSERT_TRUE(clean.finished);
      clean_oids = clean.oids;
      total_ops = injector.ops();
    }
    ASSERT_GT(total_ops, 0u);

    for (uint64_t k = 0; k <= total_ops; ++k) {
      SCOPED_TRACE("crash at op " + std::to_string(k) + " of " +
                   std::to_string(total_ops));
      FaultInjector injector;
      injector.CrashAt(k);
      StorageManager storage;
      Intercept(&storage, &injector);
      WalLedger led =
          RunDbWorkload(&storage, options, steps, values, &clean_oids);
      if (k < total_ops) {
        EXPECT_FALSE(led.finished) << "crash did not surface as an error";
      }

      injector.Disarm();
      auto reopened = Database::Open(&storage, "walclass", options);
      if (led.create_failed) {
        if (!reopened.ok()) continue;
      } else {
        ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      }
      Database* db = reopened->get();

      auto oid_of = [&](size_t o) {
        auto it = led.oids.find(o);
        return it != led.oids.end() ? it->second : clean_oids.at(o);
      };
      const std::set<size_t> inflight_ins(led.inflight_ins.begin(),
                                          led.inflight_ins.end());
      const std::set<size_t> inflight_del(led.inflight_del.begin(),
                                          led.inflight_del.end());
      std::set<size_t> attempted = led.acked_ins;
      attempted.insert(inflight_ins.begin(), inflight_ins.end());

      std::map<size_t, std::vector<ElementSet>> recovered_live;
      std::vector<int> group_applied;
      for (size_t o : attempted) {
        auto got = db->Get(oid_of(o));
        const bool present = got.ok();
        if (present) {
          EXPECT_EQ(got->attrs, values[o])
              << "ordinal " << o << " recovered with a different value";
        }
        if (led.acked_del.count(o) != 0) {
          EXPECT_FALSE(present)
              << "acknowledged delete of ordinal " << o << " resurfaced";
        } else if (inflight_del.count(o) != 0) {
          group_applied.push_back(present ? 0 : 1);
          if (present) recovered_live[o] = values[o];
        } else if (inflight_ins.count(o) != 0) {
          group_applied.push_back(present ? 1 : 0);
          if (present) recovered_live[o] = values[o];
        } else {
          EXPECT_TRUE(present)
              << "ACKED insert ordinal " << o << " lost by recovery";
          if (present) recovered_live[o] = values[o];
        }
      }
      for (size_t i = 1; i < group_applied.size(); ++i) {
        EXPECT_EQ(group_applied[i], group_applied[0])
            << "in-flight operation applied non-atomically";
      }

      // Probes per attribute plus a conjunction, each exactly brute force.
      Rng rng(MixSeed(seed, "probes", 7));
      ElementSet probe_a = rng.SampleWithoutReplacement(kV, 1);
      ElementSet probe_b = rng.SampleWithoutReplacement(kV, 1);
      NormalizeSet(&probe_a);
      NormalizeSet(&probe_b);
      struct DbProbe {
        std::vector<SetPredicate> preds;
        std::vector<std::pair<size_t, ElementSet>> checks;  // attr -> query
      };
      std::vector<DbProbe> dbprobes = {
          {{{"a", QueryKind::kSuperset, probe_a}}, {{0, probe_a}}},
          {{{"b", QueryKind::kSuperset, probe_b}}, {{1, probe_b}}},
          {{{"a", QueryKind::kSuperset, probe_a},
            {"b", QueryKind::kSuperset, probe_b}},
           {{0, probe_a}, {1, probe_b}}},
      };
      for (const DbProbe& probe : dbprobes) {
        auto result = db->Query(probe.preds);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        std::vector<uint64_t> got;
        for (Oid oid : result->oids) got.push_back(oid.value());
        std::sort(got.begin(), got.end());
        std::vector<uint64_t> want;
        for (const auto& [o, attrs] : recovered_live) {
          bool all = true;
          for (const auto& [attr, query] : probe.checks) {
            if (!OracleMatches(attrs[attr], QueryKind::kSuperset, query)) {
              all = false;
            }
          }
          if (all) want.push_back(oid_of(o).value());
        }
        std::sort(want.begin(), want.end());
        EXPECT_EQ(got, want)
            << "recovered database diverged from brute force";
      }

      // Writability after recovery.
      std::vector<ElementSet> extra = {rng.SampleWithoutReplacement(kV, 3),
                                       rng.SampleWithoutReplacement(kV, 3)};
      NormalizeSet(&extra[0]);
      NormalizeSet(&extra[1]);
      auto extra_oid = db->Insert(extra);
      ASSERT_TRUE(extra_oid.ok()) << extra_oid.status().ToString();
      auto back = db->Get(*extra_oid);
      ASSERT_TRUE(back.ok());
      EXPECT_EQ(back->attrs, extra);
      EXPECT_TRUE(db->Checkpoint().ok());
    }
  }
};

TEST_F(WalDatabaseMatrixTest, DatabaseSingleton) {
  RunDbCell(WalWorkloadKind::kSingleton);
}
TEST_F(WalDatabaseMatrixTest, DatabaseBatch) {
  RunDbCell(WalWorkloadKind::kBatch);
}
TEST_F(WalDatabaseMatrixTest, DatabaseCompact) {
  RunDbCell(WalWorkloadKind::kCompact);
}

// A crash between a delete's tombstone and its slice clears leaves stray
// bits on a dead BSSF column.  Reopening must not let a later sparse insert
// inherit them: WAL-off recovery zeroes the column in BSSF's open scan,
// WAL-on recovery rolls the delete back and rebuilds from the store.  Then
// churn reuses the slots, and subset answers must equal brute force.
class TombstoneClearCrashTest : public ::testing::TestWithParam<bool> {
 protected:
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

TEST_P(TombstoneClearCrashTest, ReusedSlotsStayExactAfterReopen) {
  const bool wal = GetParam();
  Database::Options options;
  Database::AttributeOptions attr;
  attr.name = "a";
  attr.maintain_nix = false;
  attr.sig = {64, 2};
  options.attributes = {attr};
  options.capacity = 512;
  options.enable_wal = wal;
  constexpr uint64_t kV = 60;
  Rng rng(MixSeed(kCrashBaseSeed, "tombstone-clear", wal ? 1 : 0));
  auto draw = [&](uint64_t dt) {
    ElementSet set = rng.SampleWithoutReplacement(kV, dt);
    NormalizeSet(&set);
    return set;
  };
  StorageManager storage;
  std::map<uint64_t, ElementSet> oracle;  // oid -> set
  Oid victim;
  {
    auto db = Database::Create(&storage, "tc", options);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    for (int i = 0; i < 40; ++i) {
      ElementSet set = draw(1 + rng.NextBelow(8));
      auto oid = (*db)->Insert({set});
      ASSERT_TRUE(oid.ok());
      oracle[oid->value()] = set;
    }
    ASSERT_TRUE((*db)->Checkpoint().ok());
    // The delete tombstones its OID entry, then fails on the first clear.
    victim = Oid(std::next(oracle.begin(), 17)->first);
    FailpointRegistry::Instance().ArmCountdown("bssf.touch_slice", 1);
    EXPECT_FALSE((*db)->Delete(victim).ok());
    FailpointRegistry::Instance().DisarmAll();
  }  // crash: dropped without a checkpoint
  auto reopened = Database::Open(&storage, "tc", options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  Database* db = reopened->get();
  // With the WAL the failed delete is rolled back; without it, the object
  // stays in the store but out of the index (the store delete comes last),
  // so it is out of every answer.
  if (!wal) oracle.erase(victim.value());

  // Churn: each round deletes two objects and inserts three, so inserts
  // reuse every freed slot, the crashed delete's first.
  for (int round = 0; round < 20; ++round) {
    for (int d = 0; d < 2; ++d) {
      auto it = std::next(oracle.begin(), rng.NextBelow(oracle.size()));
      ASSERT_TRUE(db->Delete(Oid(it->first)).ok());
      oracle.erase(it);
    }
    for (int i = 0; i < 3; ++i) {
      ElementSet set = draw(1 + rng.NextBelow(4));
      auto oid = db->Insert({set});
      ASSERT_TRUE(oid.ok()) << oid.status().ToString();
      oracle[oid->value()] = set;
    }
  }
  const std::map<uint64_t, ElementSet> live = oracle;
  for (const auto& [target, target_set] : live) {
    // Each live set widened with random elements: every object, the one in
    // the crashed delete's slot included, is some query's hit.
    ElementSet query = target_set;
    for (uint64_t e : draw(6)) query.push_back(e);
    NormalizeSet(&query);
    auto got = db->Query({SetPredicate{"a", QueryKind::kSubset, query}});
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    std::vector<uint64_t> answer;
    for (Oid oid : got->oids) answer.push_back(oid.value());
    std::sort(answer.begin(), answer.end());
    std::vector<uint64_t> want;
    for (const auto& [oid, set] : oracle) {
      if (OracleMatches(set, QueryKind::kSubset, query)) want.push_back(oid);
    }
    EXPECT_EQ(answer, want) << "query around " << Oid(target).ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(WalOffAndOn, TombstoneClearCrashTest,
                         ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "WalReplay" : "WalOffSweep";
                         });

}  // namespace
}  // namespace sigsetdb
