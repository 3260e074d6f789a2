// student_churn: writes beside reads through the WAL, copy-on-write page
// versions and epoch publish, so a gain for one use that costs another
// shows.
//
// The paper's Student class as a Database on the disk backend: courses
// (Dt = 10 over V = 13,000, uniform; BSSF + NIX) and hobbies (Dt 1-8 over
// V = 500, Zipf 0.99; BSSF, see ChurnOptions).  WAL, snapshots and telemetry are on and
// group_commit_window_us = 0, so every acknowledged commit group pays one
// real fsync.  The op mix is 35% Insert, 20% Delete, 2% ApplyBatch (50
// inserts + 50 deletes), 28% live conjunctions (courses ⊇ Dq 1-3, half of
// them also hobbies ⊆ 20 elements) and 15% conjunctions on a
// DatabaseSnapshot re-pinned every 64 ops.  Checkpoint runs every 2,500 ops
// and Compact every 5,000.  The run ends with a fixed tail of
// un-checkpointed mutations, an unclean stop (the database is dropped
// without a checkpoint, which also drops its in-memory page versions) and
// Database::Open on a fresh StorageManager.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "db/database.h"
#include "db/snapshot.h"
#include "harness.h"
#include "layers.h"
#include "oracle.h"
#include "query/advisor.h"
#include "storage/page.h"
#include "tracing.h"
#include "workload/generator.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sigsetdb::Database;
using sigsetdb::DatabaseSnapshot;
using sigsetdb::ElementSet;
using sigsetdb::Oid;
using sigsetdb::QueryKind;
using sigsetdb::SetPredicate;
using sigsetdb::StatusOr;
using sigsetdb::StorageManager;

constexpr int64_t kStudents = 32000;
constexpr int64_t kCourseDomain = 13000;
constexpr int64_t kCoursesPerStudent = 10;
constexpr int64_t kHobbyDomain = 500;
constexpr int64_t kHobbiesMeanRounded = 5;
constexpr int64_t kHobbyQuerySize = 20;
// Slot capacity: the mix grows the population by ~0.15 objects per op.
constexpr uint64_t kCapacity = 65536;
constexpr uint64_t kLoadBatch = 1000;
constexpr uint64_t kRepinEvery = 64;
constexpr uint64_t kCheckpointEvery = 2500;
constexpr uint64_t kCompactEvery = 5000;
constexpr int kBatchInserts = 50;
constexpr int kBatchDeletes = 50;
constexpr uint64_t kCheckEvery = 25;   // every 25th read vs brute force
constexpr uint64_t kTail = 500;        // un-checkpointed mutations at the end
constexpr uint64_t kSliceOps = 256;    // decorator-neutrality slice
constexpr int kUntracedSetups = 3;

struct Student {
  ElementSet courses;
  ElementSet hobbies;
};

// The benchmark's own copy of every acknowledged object, plus enough
// history to evaluate queries at the pinned snapshot's epoch.
class Oracle {
 public:
  void Insert(Oid oid, const Student& s) {
    const uint64_t key = oid.value();
    live_.emplace(key, s);
    pos_[key] = list_.size();
    list_.push_back(key);
    deleted_.erase(key);
    inserted_since_pin_.insert(key);
    bytes_ += (s.courses.size() + s.hobbies.size()) * 8;
  }
  void Delete(Oid oid) {
    const uint64_t key = oid.value();
    auto it = live_.find(key);
    if (inserted_since_pin_.erase(key) == 0) {
      deleted_since_pin_.emplace(key, it->second);
    }
    bytes_ -= (it->second.courses.size() + it->second.hobbies.size()) * 8;
    live_.erase(it);
    const size_t at = pos_[key];
    pos_[list_.back()] = at;
    list_[at] = list_.back();
    list_.pop_back();
    pos_.erase(key);
    deleted_.insert(key);
  }
  void Repin() {
    inserted_since_pin_.clear();
    deleted_since_pin_.clear();
  }
  Oid Pick(sigsetdb::Rng& rng) const {
    return Oid(list_[rng.NextBelow(list_.size())]);
  }
  const Student& Get(Oid oid) const { return live_.at(oid.value()); }
  size_t size() const { return list_.size(); }
  uint64_t user_bytes() const { return bytes_; }
  const std::unordered_map<uint64_t, Student>& live() const { return live_; }
  const std::unordered_set<uint64_t>& deleted() const { return deleted_; }

  // Sorted OIDs satisfying `preds`, live or as of the last Repin().
  std::vector<uint64_t> Answer(const std::vector<SetPredicate>& preds,
                               bool at_pin) const {
    std::vector<uint64_t> out;
    const auto match = [&](uint64_t key, const Student& s) {
      for (const SetPredicate& p : preds) {
        const ElementSet& t = p.attribute == "courses" ? s.courses : s.hobbies;
        if (!Satisfies(p.kind, t, p.query)) return;
      }
      out.push_back(key);
    };
    for (const auto& [key, s] : live_) {
      if (at_pin && inserted_since_pin_.count(key) != 0) continue;
      match(key, s);
    }
    if (at_pin) {
      for (const auto& [key, s] : deleted_since_pin_) match(key, s);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  std::unordered_map<uint64_t, Student> live_;
  std::unordered_map<uint64_t, size_t> pos_;
  std::vector<uint64_t> list_;
  std::unordered_set<uint64_t> deleted_;  // acked deletes, slot not reused
  std::unordered_set<uint64_t> inserted_since_pin_;
  std::unordered_map<uint64_t, Student> deleted_since_pin_;
  uint64_t bytes_ = 0;
};

// Seeded generators of students and queries.
struct Generators {
  explicit Generators(uint64_t seed)
      : rng(MixSeed(seed, 21)),
        courses({kStudents, kCourseDomain,
                 sigsetdb::CardinalitySpec::Fixed(kCoursesPerStudent),
                 sigsetdb::SkewKind::kUniform, 0.99, MixSeed(seed, 22)}),
        hobbies({kStudents, kHobbyDomain, sigsetdb::CardinalitySpec{1, 8},
                 sigsetdb::SkewKind::kZipf, 0.99, MixSeed(seed, 23)}) {}

  Student NextStudent() { return {courses.NextSet(), hobbies.NextSet()}; }

  sigsetdb::Rng rng;
  sigsetdb::SetGenerator courses;
  sigsetdb::SetGenerator hobbies;
};

Database::Options ChurnOptions() {
  Database::Options options;
  Database::AttributeOptions courses;
  courses.name = "courses";
  // hobbies is BSSF-only: with NIX on this attribute, ApplyBatch fails with
  // Internal "leaf split halves do not fit" while loading (the B-tree's
  // two-way leaf split cannot place three large inline posting lists of
  // the skewed hobby keys).  Restore NIX here once the split is fixed.
  Database::AttributeOptions hobbies;
  hobbies.name = "hobbies";
  hobbies.maintain_nix = false;
  options.attributes = {courses, hobbies};
  options.capacity = kCapacity;
  options.enable_wal = true;
  options.group_commit_window_us = 0;
  options.enable_snapshots = true;
  options.enable_telemetry = true;
  return options;
}

struct Instance {
  std::string dir;
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<Database> db;
  std::unique_ptr<DatabaseSnapshot> snapshot;
  Oracle oracle;
  std::unique_ptr<Generators> gen;
  double setup_s = 0.0;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    snapshot.reset();  // pins must end before the database
    db.reset();
    storage.reset();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

// Per-class latency samples of one stream.
struct StreamStats {
  uint64_t ops = 0;  // Insert/Delete/ApplyBatch/live/snapshot queries
  int64_t wall_ns = 0;
  double rss_mb = 0.0;  // peak RSS after kRssOps ops (or the window)
  uint64_t digest = 0;  // answers and acked OIDs, for neutrality
  Samples select_us;
  Samples write_us;
  Samples batch_ms;
  Samples snapshot_us;
  Samples checkpoint_ms;
  Samples compact_ms;
};

class ChurnBench {
 public:
  ChurnBench(const Args& args, RunReport* report)
      : args_(args), report_(report) {}

  void Run() {
    report_->Note(EnvironmentLine(args_.work_dir));
    if (args_.trace) {
      RunTraced();
    } else {
      RunUntraced();
    }
  }

 private:
  std::unique_ptr<Instance> Build(int k, IoClock* clock) const {
    auto inst = std::make_unique<Instance>();
    inst->dir = args_.work_dir + "/student_churn-" + std::to_string(k);
    std::error_code ignored;
    std::filesystem::remove_all(inst->dir, ignored);
    std::filesystem::create_directories(inst->dir);
    inst->storage = std::make_unique<StorageManager>(inst->dir);
    if (clock != nullptr) InstallTiming(inst->storage.get(), clock);
    inst->gen = std::make_unique<Generators>(args_.seed);

    const int64_t start = NowNs();
    inst->db = Must(Database::Create(inst->storage.get(), "students",
                                     options_),
                    "create database");
    sigsetdb::MultiWriteBatch batch;
    std::vector<Student> pending;
    for (int64_t i = 0; i < kStudents; ++i) {
      pending.push_back(inst->gen->NextStudent());
      batch.Insert({pending.back().courses, pending.back().hobbies});
      if (batch.size() == kLoadBatch || i + 1 == kStudents) {
        const std::vector<Oid> oids =
            Must(inst->db->ApplyBatch(batch), "load batch");
        for (size_t j = 0; j < oids.size(); ++j) {
          inst->oracle.Insert(oids[j], pending[j]);
        }
        batch.Clear();
        pending.clear();
      }
    }
    Must(inst->db->Checkpoint(), "checkpoint");
    inst->setup_s = static_cast<double>(NowNs() - start) / 1e9;
    inst->oracle.Repin();
    return inst;
  }

  static std::vector<SetPredicate> Conjunction(Instance& inst) {
    sigsetdb::Rng& rng = inst.gen->rng;
    const int64_t dq = 1 + static_cast<int64_t>(rng.NextBelow(3));
    const bool hit = rng.NextBelow(2) == 0;
    const bool with_hobbies = rng.NextBelow(2) == 0;
    std::vector<SetPredicate> preds;
    preds.push_back(
        {"courses", QueryKind::kSuperset,
         hit ? sigsetdb::MakeHittingSupersetQuery(
                   inst.oracle.Get(inst.oracle.Pick(rng)).courses, dq, rng)
             : rng.SampleWithoutReplacement(kCourseDomain,
                                            static_cast<uint64_t>(dq))});
    if (with_hobbies) {
      preds.push_back({"hobbies", QueryKind::kSubset,
                       inst.gen->hobbies.QuerySet(kHobbyQuerySize)});
    }
    return preds;
  }

  // Runs stream ops [first, first + max_ops) until `seconds` of measured
  // wall time pass.  Periodic work (re-pin, Checkpoint, Compact) runs before
  // the op whose index triggers it and counts in the measured wall time.
  StreamStats RunStream(Instance& inst, uint64_t first, uint64_t max_ops,
                        double seconds, Tracer* tracer, TraceCounts* counts) {
    StreamStats st;
    TimedWall wall;
    wall.Start();
    for (uint64_t op = first;
         st.ops < max_ops && wall.Seconds() < seconds; ++op) {
      Maintenance(inst, op, tracer, counts, &st);
      OneOp(inst, op, tracer, counts, &st, &wall);
      if (st.rss_mb == 0.0 && st.ops >= kRssOps) {
        wall.Pause();
        st.rss_mb = PeakRssMiB();
        wall.Resume();
      }
    }
    wall.Pause();
    st.wall_ns = static_cast<int64_t>(wall.Seconds() * 1e9);
    if (st.rss_mb == 0.0) st.rss_mb = PeakRssMiB();
    return st;
  }

  void Maintenance(Instance& inst, uint64_t op, Tracer* tracer,
                   TraceCounts* counts, StreamStats* st) {
    if (op % kRepinEvery == 0) {
      inst.snapshot.reset();
      const Tracer::Mark mark = tracer ? tracer->Begin() : Tracer::Mark{};
      const int64_t start = NowNs();
      StatusOr<std::unique_ptr<DatabaseSnapshot>> snap =
          inst.db->GetSnapshot();
      const int64_t ns = NowNs() - start;
      Must(snap.status(), "pin snapshot");
      inst.snapshot = std::move(snap).value();
      inst.oracle.Repin();
      if (tracer != nullptr) {
        AttributeLeaf(tracer->End(mark, op, "db.Database::GetSnapshot"),
                      &tracer->layers().db_self);
        ++counts->pins;
        counts->pin_ns += ns;
        counts->backlog_sum +=
            inst.db->metrics()->GaugeValue("epoch.reclaim_backlog");
      }
    }
    if (op == 0 || op % kCheckpointEvery != 0) return;
    const bool compact = op % kCompactEvery == 0;
    const sigsetdb::IoStats before = inst.storage->TotalStats();
    const Tracer::Mark mark = tracer ? tracer->Begin() : Tracer::Mark{};
    const int64_t start = NowNs();
    const sigsetdb::Status status =
        compact ? inst.db->Compact() : inst.db->Checkpoint();
    const int64_t ns = NowNs() - start;
    Must(status, compact ? "compact" : "checkpoint");
    (compact ? st->compact_ms : st->checkpoint_ms)
        .Add(static_cast<double>(ns) / 1e6);
    if (tracer == nullptr) return;
    AttributeLeaf(tracer->End(mark, op, compact ? "db.Database::Compact"
                                                : "db.Database::Checkpoint"),
                  &tracer->layers().db_self);
    if (compact) {
      ++counts->compacts;
      counts->compact_ns += ns;
      counts->compact_pages_written +=
          (inst.storage->TotalStats() - before).writes();
    } else {
      ++counts->checkpoints;
      counts->checkpoint_ns += ns;
    }
  }

  void OneOp(Instance& inst, uint64_t op, Tracer* tracer, TraceCounts* counts,
             StreamStats* st, TimedWall* wall) {
    sigsetdb::Rng& rng = inst.gen->rng;
    const uint64_t u = rng.NextBelow(100);
    ++st->ops;
    report_->Attempt();
    LayerTimes* layers = tracer ? &tracer->layers() : nullptr;
    const auto begin = [tracer] {
      return tracer ? tracer->Begin() : Tracer::Mark{};
    };

    if (u < 35) {  // Insert
      const Student s = inst.gen->NextStudent();
      const Tracer::Mark mark = begin();
      const int64_t start = NowNs();
      StatusOr<Oid> oid = inst.db->Insert({s.courses, s.hobbies});
      st->write_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      if (tracer) AttributeLeaf(tracer->End(mark, op, "db.Database::Insert"),
                                &layers->db_self);
      if (!report_->Check(oid.status(), "insert")) return;
      inst.oracle.Insert(*oid, s);
      st->digest = MixSeed(st->digest, oid->value());
      if (counts) {
        ++counts->mutations;
        counts->user_bytes += (s.courses.size() + s.hobbies.size()) * 8;
      }
      return;
    }
    if (u < 55) {  // Delete
      const Oid victim = inst.oracle.Pick(rng);
      const Tracer::Mark mark = begin();
      const int64_t start = NowNs();
      const sigsetdb::Status status = inst.db->Delete(victim);
      st->write_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      if (tracer) AttributeLeaf(tracer->End(mark, op, "db.Database::Delete"),
                                &layers->db_self);
      if (!report_->Check(status, "delete")) return;
      inst.oracle.Delete(victim);
      if (counts) ++counts->mutations;
      return;
    }
    if (u < 57) {  // ApplyBatch: 50 inserts + 50 deletes
      sigsetdb::MultiWriteBatch batch;
      std::vector<Student> added;
      uint64_t bytes = 0;
      for (int i = 0; i < kBatchInserts; ++i) {
        added.push_back(inst.gen->NextStudent());
        batch.Insert({added.back().courses, added.back().hobbies});
        bytes += (added.back().courses.size() + added.back().hobbies.size()) *
                 8;
      }
      std::unordered_set<uint64_t> chosen;
      std::vector<Oid> victims;
      while (victims.size() < static_cast<size_t>(kBatchDeletes)) {
        const Oid victim = inst.oracle.Pick(rng);
        if (chosen.insert(victim.value()).second) victims.push_back(victim);
      }
      for (Oid victim : victims) batch.Delete(victim);
      const Tracer::Mark mark = begin();
      const int64_t start = NowNs();
      StatusOr<std::vector<Oid>> oids = inst.db->ApplyBatch(batch);
      st->batch_ms.Add(static_cast<double>(NowNs() - start) / 1e6);
      if (tracer) AttributeLeaf(
          tracer->End(mark, op, "db.Database::ApplyBatch"), &layers->db_self);
      if (!report_->Check(oids.status(), "batch")) return;
      for (Oid victim : victims) inst.oracle.Delete(victim);
      for (size_t i = 0; i < oids->size(); ++i) {
        inst.oracle.Insert((*oids)[i], added[i]);
        st->digest = MixSeed(st->digest, (*oids)[i].value());
      }
      if (counts) {
        ++counts->mutations;
        counts->user_bytes += bytes;
      }
      return;
    }

    const bool live = u < 85;
    const std::vector<SetPredicate> preds = Conjunction(inst);
    std::vector<Oid> answer;
    if (live && tracer != nullptr) {
      if (!TracedConjunction(inst, preds, op, tracer, counts, st, &answer)) {
        return;
      }
    } else if (live) {
      const int64_t start = NowNs();
      StatusOr<sigsetdb::DatabaseQueryResult> r = inst.db->Query(preds);
      st->select_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      if (!report_->Check(r.status(), "live conjunction")) return;
      answer = std::move(r->oids);
    } else {
      const Tracer::Mark mark = begin();
      const int64_t start = NowNs();
      StatusOr<sigsetdb::DatabaseQueryResult> r =
          inst.snapshot->Query(preds);
      st->snapshot_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      if (tracer) AttributeLeaf(
          tracer->End(mark, op, "db.DatabaseSnapshot::Query"),
          &layers->db_self);
      if (!report_->Check(r.status(), "snapshot conjunction")) return;
      answer = std::move(r->oids);
    }
    st->digest = MixSeed(st->digest, AnswerDigest(answer));
    if (op % kCheckEvery != 0) return;
    wall->Pause();
    if (inst.oracle.Answer(preds, /*at_pin=*/!live) != SortedValues(answer)) {
      report_->Fail(Format("%s conjunction at op %llu differs from brute "
                           "force",
                           live ? "live" : "snapshot",
                           static_cast<unsigned long long>(op)));
    }
    wall->Resume();
  }

  // DomainEstimate + AdviseAccessPaths per predicate, then Explain.
  bool TracedConjunction(Instance& inst, const std::vector<SetPredicate>& preds,
                         uint64_t op, Tracer* tracer, TraceCounts* counts,
                         StreamStats* st, std::vector<Oid>* answer) {
    LayerTimes& layers = tracer->layers();
    const int64_t start = NowNs();
    for (const SetPredicate& pred : preds) {
      const size_t attr = pred.attribute == "courses" ? 0 : 1;
      Tracer::Mark mark = tracer->Begin();
      const int64_t v = inst.db->DomainEstimate(attr);
      AttributeLeaf(tracer->End(mark, op, "db.Database::DomainEstimate"),
                    &layers.db_domain_estimate);
      // Dt is not public on Database; the generators fix it (hobbies: the
      // rounded mean of Dt 1-8).
      const int64_t dt = attr == 0 ? kCoursesPerStudent : kHobbiesMeanRounded;
      const Database::AttributeOptions& options = options_.attributes[attr];
      sigsetdb::DatabaseParams db;
      db.n = std::max<int64_t>(1, static_cast<int64_t>(inst.db->num_objects()));
      db.v = std::max<int64_t>(v, dt + 1);
      const sigsetdb::SignatureParams sig{options.sig.f, options.sig.m};
      sigsetdb::NixParams nix;
      nix.fanout = options.nix_fanout;
      mark = tracer->Begin();
      StatusOr<std::vector<sigsetdb::AccessPathChoice>> choices =
          sigsetdb::AdviseAccessPaths(db, sig, nix, dt,
                                      static_cast<int64_t>(pred.query.size()),
                                      pred.kind, /*allow_smart=*/true);
      AttributeLeaf(tracer->End(mark, op, "query.AdviseAccessPaths"),
                    &layers.query_plan);
      if (!report_->Check(choices.status(), "plan")) return false;
    }
    const Tracer::Mark mark = tracer->Begin();
    StatusOr<sigsetdb::DatabaseExplainResult> ex = inst.db->Explain(preds);
    const Tracer::Closed call = tracer->End(mark, op, "db.Database::Explain");
    st->select_us.Add(static_cast<double>(NowNs() - start) / 1e3);
    if (!report_->Check(ex.status(), "live conjunction")) return false;
    std::vector<Tracer::Stage> stages;
    for (const sigsetdb::TraceSpan& span : ex->trace.stages()) {
      stages.push_back({span.name, std::llround(span.wall_ms * 1e6)});
    }
    tracer->SetStages(std::move(stages));
    AttributeSelection(ex->trace, ex->result.driver,
                       ex->result.num_candidates, ex->result.oids.size(),
                       call, &layers, counts);
    *answer = ex->result.oids;
    return true;
  }

  // Tail of un-checkpointed mutations, unclean stop, reopen, verification.
  // Returns the recovery time in seconds.
  double CrashAndRecover(std::unique_ptr<Instance>& inst, IoClock* clock,
                         uint64_t* replayed) {
    inst->snapshot.reset();
    Must(inst->db->Checkpoint(), "pre-tail checkpoint");
    sigsetdb::Rng& rng = inst->gen->rng;
    for (uint64_t i = 0; i < kTail; ++i) {
      report_->Attempt();
      if (rng.NextBelow(55) < 35) {
        const Student s = inst->gen->NextStudent();
        StatusOr<Oid> oid = inst->db->Insert({s.courses, s.hobbies});
        if (report_->Check(oid.status(), "tail insert")) {
          inst->oracle.Insert(*oid, s);
        }
      } else {
        const Oid victim = inst->oracle.Pick(rng);
        if (report_->Check(inst->db->Delete(victim), "tail delete")) {
          inst->oracle.Delete(victim);
        }
      }
    }
    // Unclean stop: no checkpoint, so the dirty page versions held in
    // memory are lost and only the WAL carries the tail.
    inst->db.reset();
    inst->storage = std::make_unique<StorageManager>(inst->dir);
    if (clock != nullptr) InstallTiming(inst->storage.get(), clock);

    report_->Attempt();
    const int64_t start = NowNs();
    StatusOr<std::unique_ptr<Database>> reopened =
        Database::Open(inst->storage.get(), "students", options_);
    const double recovery_s = static_cast<double>(NowNs() - start) / 1e9;
    if (!report_->Check(reopened.status(), "recovery open")) return recovery_s;
    inst->db = std::move(reopened).value();
    *replayed = inst->db->metrics()->CounterValue("wal.replayed_records");

    uint64_t lost = 0, wrong = 0, resurrected = 0;
    for (const auto& [key, s] : inst->oracle.live()) {
      StatusOr<sigsetdb::MultiSetObject> got = inst->db->Get(Oid(key));
      if (!got.ok()) {
        ++lost;
      } else if (got->attrs.size() != 2 || got->attrs[0] != s.courses ||
                 got->attrs[1] != s.hobbies) {
        ++wrong;
      }
    }
    for (uint64_t key : inst->oracle.deleted()) {
      if (inst->db->Get(Oid(key)).ok()) ++resurrected;
    }
    const bool count_ok = inst->db->num_objects() == inst->oracle.size();
    report_->Note(Format(
        "recovery: %llu acked objects checked after %llu replayed records: "
        "%llu lost, %llu wrong, %llu acked deletes reappeared, num_objects "
        "%s",
        static_cast<unsigned long long>(inst->oracle.size()),
        static_cast<unsigned long long>(*replayed),
        static_cast<unsigned long long>(lost),
        static_cast<unsigned long long>(wrong),
        static_cast<unsigned long long>(resurrected),
        count_ok ? "matches" : "differs"));
    if (lost + wrong + resurrected > 0 || !count_ok) {
      report_->Fail("recovered database differs from acknowledged writes");
    }
    return recovery_s;
  }

  static double SpaceAmp(const Instance& inst) {
    return static_cast<double>(inst.storage->TotalPages() *
                               sigsetdb::kPageSize) /
           static_cast<double>(inst.oracle.user_bytes());
  }

  void RunUntraced() {
    std::vector<double> setups;
    std::unique_ptr<Instance> inst;
    for (int k = 0; k < kUntracedSetups; ++k) {
      inst.reset();
      inst = Build(k, nullptr);
      setups.push_back(inst->setup_s);
    }
    SyncFilesystem(args_.work_dir);
    const StreamStats st =
        RunStream(*inst, 0, UINT64_MAX, args_.seconds, nullptr, nullptr);
    const double wall_s = static_cast<double>(st.wall_ns) / 1e9;
    // Compact leaves the superseded generation's files registered, so the
    // pages registered before the stop grow with the number of compactions
    // the window happened to reach.  space_amp is taken on the reopened
    // database, which registers only the files it recovers from.
    const double registered_amp = SpaceAmp(*inst);
    uint64_t replayed = 0;
    const double recovery_s = CrashAndRecover(inst, nullptr, &replayed);
    const double space_amp = SpaceAmp(*inst);
    report_->Note(Format("space: %.4f x live bytes registered before the "
                         "stop, %.4f x after the reopen",
                         registered_amp, space_amp));
    report_->Note(Format(
        "student_churn: N=%lld loaded, %llu ops in %.3f s measured (%zu "
        "writes, %zu batches, %zu live, %zu snapshot, %zu checkpoints, %zu "
        "compacts); %zu objects at the end; setup runs %.3f s, %.3f s, "
        "%.3f s",
        static_cast<long long>(kStudents),
        static_cast<unsigned long long>(st.ops), wall_s, st.write_us.size(),
        st.batch_ms.size(), st.select_us.size(), st.snapshot_us.size(),
        st.checkpoint_ms.size(), st.compact_ms.size(), inst->oracle.size(),
        setups[0], setups[1], setups[2]));
    report_->Set("setup_s", MedianOf(setups), "s");
    report_->Set("ops_s", static_cast<double>(st.ops) / wall_s, "ops/s");
    report_->Set("select_p50_us", st.select_us.Quantile(0.50), "us");
    report_->Set("select_p99_us", st.select_us.Quantile(0.99), "us");
    report_->Set("write_p50_us", st.write_us.Quantile(0.50), "us");
    report_->Set("write_p99_us", st.write_us.Quantile(0.99), "us");
    report_->Set("batch_p50_ms", st.batch_ms.Median(), "ms");
    report_->Set("snapshot_p50_us", st.snapshot_us.Median(), "us");
    report_->Set("recovery_s", recovery_s, "s");
    report_->Set("rss_mb", st.rss_mb, "MiB");
    report_->Set("space_amp", space_amp, "ratio");
  }

  void RunTraced() {
    // Untraced half on an undecorated database.
    double untraced_op_us = 0.0;
    uint64_t ops = 0;
    uint64_t plain_digest = 0;
    sigsetdb::IoStats plain_io;
    {
      std::unique_ptr<Instance> inst = Build(0, nullptr);
      const sigsetdb::IoStats before = inst->storage->TotalStats();
      const StreamStats slice =
          RunStream(*inst, 0, kSliceOps, 1e9, nullptr, nullptr);
      plain_io = inst->storage->TotalStats() - before;
      plain_digest = slice.digest;
      SyncFilesystem(args_.work_dir);
      const StreamStats st = RunStream(*inst, kSliceOps, UINT64_MAX,
                                       args_.seconds / 2, nullptr, nullptr);
      ops = st.ops;
      untraced_op_us = static_cast<double>(st.wall_ns) / 1e3 /
                       static_cast<double>(std::max<uint64_t>(1, st.ops));
    }
    // Traced half: same seed, timing decorator installed before Create.
    IoClock clock;
    std::unique_ptr<Instance> inst = Build(1, &clock);
    const sigsetdb::IoStats before = inst->storage->TotalStats();
    const StreamStats slice =
        RunStream(*inst, 0, kSliceOps, 1e9, nullptr, nullptr);
    const sigsetdb::IoStats decorated_io =
        inst->storage->TotalStats() - before;
    const auto io_string = [](const sigsetdb::IoStats& io, uint64_t digest) {
      return Format("answers=%016llx TotalStats{reads=%llu writes=%llu "
                    "hot=%llu skipped=%llu cow=%llu}",
                    static_cast<unsigned long long>(digest),
                    static_cast<unsigned long long>(io.reads()),
                    static_cast<unsigned long long>(io.writes()),
                    static_cast<unsigned long long>(io.hots()),
                    static_cast<unsigned long long>(io.skips()),
                    static_cast<unsigned long long>(io.cows()));
    };
    report_->Note("neutrality: without decorator " +
                  io_string(plain_io, plain_digest));
    report_->Note("neutrality: with decorator    " +
                  io_string(decorated_io, slice.digest));
    if (slice.digest != plain_digest ||
        decorated_io.reads() != plain_io.reads() ||
        decorated_io.writes() != plain_io.writes() ||
        decorated_io.hots() != plain_io.hots() ||
        decorated_io.skips() != plain_io.skips() ||
        decorated_io.cows() != plain_io.cows()) {
      report_->Fail("timing decorator changed answers or page counts");
    }

    SyncFilesystem(args_.work_dir);
    Tracer tracer(&clock);
    TraceCounts counts;
    sigsetdb::MetricsRegistry* registry = inst->db->metrics();
    const uint64_t fsyncs = registry->CounterValue("wal.fsyncs");
    const uint64_t reclaimed =
        registry->CounterValue("epoch.reclaimed_versions");
    const sigsetdb::Histogram* groups = registry->FindHistogram("wal.group_size");
    const uint64_t group_count = groups ? groups->count() : 0;
    const uint64_t group_sum = groups ? groups->sum() : 0;
    const std::vector<const StorageManager*> storages = {inst->storage.get()};
    const ClassIo io_before = ClassIo::Of(storages);
    const StreamStats st = RunStream(*inst, kSliceOps, ops,
                                     2 * args_.seconds, &tracer, &counts);
    counts.ops = st.ops;
    counts.io = ClassIo::Of(storages) - io_before;
    counts.wal_fsyncs = registry->CounterValue("wal.fsyncs") - fsyncs;
    counts.reclaimed =
        registry->CounterValue("epoch.reclaimed_versions") - reclaimed;
    groups = registry->FindHistogram("wal.group_size");
    if (groups != nullptr) {
      counts.wal_groups = groups->count() - group_count;
      counts.wal_group_sum = static_cast<double>(groups->sum() - group_sum);
    }
    const int64_t traced_wall_ns = st.wall_ns;
    CrashAndRecover(inst, &clock, &counts.replayed_records);
    EmitLayerMetrics(tracer, counts, traced_wall_ns, untraced_op_us, report_);
    WriteSpanDump(tracer, args_, report_);
  }

  const Args& args_;
  RunReport* report_;
  const Database::Options options_ = ChurnOptions();
};

}  // namespace

void RunStudentChurn(const Args& args, RunReport* report) {
  ChurnBench(args, report).Run();
}

}  // namespace perfbench
