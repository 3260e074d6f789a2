// paper_mem and paper_disk: the paper's configuration end to end.
//
// SetIndex with its defaults (BSSF + NIX, kAuto planning, every opt-in off)
// over the Table-2 database (V = 13,000, Dt = 10, F = 250, m = 2).  The
// selection mix covers all six operators; after every 500 selections one
// kAuto join runs over a second SetIndex pair at bench_join's shape.
//
//   paper_mem   N = 32,000 on the in-memory backend.  No page leaves RAM, so
//               planning, facility CPU, resolution and joins carry the time.
//               Every selection is distinct.
//   paper_disk  N = 100,000 on the disk backend (~28 MB of page files, each
//               bit slice 4 pages).  Every logical access is a pread(2);
//               half the selections repeat, drawn Zipf(0.99) from a fixed
//               pool of 1,000, so a cache would have something to hit.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "db/set_index.h"
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

using sigsetdb::AccessPathChoice;
using sigsetdb::ElementSet;
using sigsetdb::Oid;
using sigsetdb::QueryKind;
using sigsetdb::SetIndex;
using sigsetdb::StatusOr;
using sigsetdb::StorageManager;

constexpr int64_t kDomain = 13000;
constexpr int64_t kDt = 10;
constexpr uint64_t kHeadroom = 768;
constexpr uint64_t kLoadBatch = 1000;
constexpr uint64_t kJoinEvery = 500;   // selections between joins
constexpr uint64_t kCheckEvery = 100;  // every 100th selection vs brute force
// The exact-count replay slice: the stream's first 500 selections and the
// join after them, run untimed on every database a run loads.
constexpr uint64_t kSliceSelections = 500;
constexpr uint64_t kSliceCheckEvery = 10;
constexpr int kUntracedSetups = 3;
constexpr size_t kPoolSize = 1000;
constexpr double kPoolZipfTheta = 0.99;
constexpr uint64_t kPoolSeed = 19930526;

// bench_join's shape: narrow R, wide S, small domain.
constexpr int64_t kJoinR = 1000;
constexpr int64_t kJoinDtR = 3;
constexpr int64_t kJoinS = 4000;
constexpr int64_t kJoinDtS = 12;
constexpr int64_t kJoinDomain = 200;

struct Selection {
  QueryKind kind;
  ElementSet query;
};

struct PaperData {
  std::vector<ElementSet> sets;
  std::vector<ElementSet> r_sets;
  std::vector<ElementSet> s_sets;
  std::vector<std::pair<uint32_t, uint32_t>> join_truth;  // (r, s) indexes
  uint64_t user_bytes = 0;                                // Σ|set|·8
};

PaperData MakePaperData(uint64_t seed, int64_t n) {
  using sigsetdb::CardinalitySpec;
  using sigsetdb::MakeDatabase;
  using sigsetdb::SkewKind;
  PaperData data;
  data.sets = MakeDatabase({n, kDomain, CardinalitySpec::Fixed(kDt),
                            SkewKind::kUniform, 0.99, MixSeed(seed, 1)});
  data.r_sets =
      MakeDatabase({kJoinR, kJoinDomain, CardinalitySpec::Fixed(kJoinDtR),
                    SkewKind::kUniform, 0.99, MixSeed(seed, 2)});
  data.s_sets =
      MakeDatabase({kJoinS, kJoinDomain, CardinalitySpec::Fixed(kJoinDtS),
                    SkewKind::kUniform, 0.99, MixSeed(seed, 3)});
  for (uint32_t r = 0; r < data.r_sets.size(); ++r) {
    for (uint32_t s = 0; s < data.s_sets.size(); ++s) {
      if (Contains(data.s_sets[s], data.r_sets[r])) {
        data.join_truth.emplace_back(r, s);
      }
    }
  }
  for (const ElementSet& set : data.sets) data.user_bytes += set.size() * 8;
  return data;
}

// The selection stream of one seed.  Half of the ⊇/⊆/= selections hit a
// stored object through the generator's MakeHitting* helpers; the rest are
// uniform draws.  Fresh selections never repeat.
class SelectionSource {
 public:
  SelectionSource(uint64_t seed, const std::vector<ElementSet>* sets,
                  bool pooled)
      : rng_(MixSeed(seed, 11)), sets_(sets) {
    if (!pooled) return;
    // The pool's draws do not depend on the seed: under Zipf(0.99) its top
    // ten entries carry ~10% of all selections, so a per-seed pool would
    // make a run's cost hinge on which few queries land on top.
    sigsetdb::Rng pool_rng(kPoolSeed);
    double acc = 0.0;
    for (size_t i = 0; i < kPoolSize; ++i) {
      pool_.push_back(Draw(pool_rng));
      acc += 1.0 / std::pow(static_cast<double>(i + 1), kPoolZipfTheta);
      pool_cdf_.push_back(acc);
    }
    for (double& c : pool_cdf_) c /= acc;
  }

  Selection Next() {
    if (!pool_.empty() && rng_.NextBelow(2) == 0) {
      const double u = rng_.NextDouble();
      const size_t rank = static_cast<size_t>(
          std::lower_bound(pool_cdf_.begin(), pool_cdf_.end(), u) -
          pool_cdf_.begin());
      return pool_[std::min(rank, pool_.size() - 1)];
    }
    for (;;) {
      Selection s = Draw(rng_);
      if (seen_.insert(Key(s)).second) return s;
    }
  }

 private:
  static ElementSet Uniform(sigsetdb::Rng& rng, int64_t dq) {
    return rng.SampleWithoutReplacement(kDomain, static_cast<uint64_t>(dq));
  }

  Selection Draw(sigsetdb::Rng& rng) const {
    const uint64_t u = rng.NextBelow(100);
    const bool hit = rng.NextBelow(2) == 0;
    const ElementSet& target = (*sets_)[rng.NextBelow(sets_->size())];
    if (u < 30) {  // 30% ⊇, Dq 1-10
      const int64_t dq = 1 + static_cast<int64_t>(rng.NextBelow(10));
      return {QueryKind::kSuperset,
              hit ? sigsetdb::MakeHittingSupersetQuery(target, dq, rng)
                  : Uniform(rng, dq)};
    }
    if (u < 40) {  // 10% ⊋, Dq 1-5
      const int64_t dq = 1 + static_cast<int64_t>(rng.NextBelow(5));
      return {QueryKind::kProperSuperset, Uniform(rng, dq)};
    }
    if (u < 65) {  // 25% ⊆, Dq log-uniform 10-400
      const double lo = std::log(10.0), hi = std::log(400.0);
      const int64_t dq =
          std::llround(std::exp(lo + rng.NextDouble() * (hi - lo)));
      return {QueryKind::kSubset,
              hit ? sigsetdb::MakeHittingSubsetQuery(target, kDomain, dq, rng)
                  : Uniform(rng, dq)};
    }
    if (u < 70) {  // 5% ⊊, Dq 10-110
      const int64_t dq = 10 + static_cast<int64_t>(rng.NextBelow(101));
      return {QueryKind::kProperSubset, Uniform(rng, dq)};
    }
    if (u < 85) {  // 15% =, Dq 10
      return {QueryKind::kEquals,
              hit ? sigsetdb::MakeHittingSupersetQuery(target, kDt, rng)
                  : Uniform(rng, kDt)};
    }
    const int64_t dq = 1 + static_cast<int64_t>(rng.NextBelow(5));
    return {QueryKind::kOverlaps, Uniform(rng, dq)};  // 15% overlap, Dq 1-5
  }

  static uint64_t Key(const Selection& s) {
    uint64_t h = MixSeed(static_cast<uint64_t>(s.kind), s.query.size());
    for (uint64_t e : s.query) h = MixSeed(h, e);
    return h;
  }

  sigsetdb::Rng rng_;
  const std::vector<ElementSet>* sets_;
  std::unordered_set<uint64_t> seen_;
  std::vector<Selection> pool_;
  std::vector<double> pool_cdf_;
};

// One loaded database plus its join pair.
struct Instance {
  std::string dir;  // disk backend root; empty in memory
  std::unique_ptr<StorageManager> storage;
  std::unique_ptr<StorageManager> join_storage;
  std::unique_ptr<SetIndex> index;
  std::unique_ptr<SetIndex> r;
  std::unique_ptr<SetIndex> s;
  std::vector<Oid> oids;
  std::vector<std::pair<uint64_t, uint64_t>> join_expected;  // oid values
  double setup_s = 0.0;

  Instance() = default;
  Instance(const Instance&) = delete;
  Instance& operator=(const Instance&) = delete;
  ~Instance() {
    index.reset();
    r.reset();
    s.reset();
    storage.reset();
    join_storage.reset();
    if (!dir.empty()) {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  }
};

std::vector<Oid> Load(SetIndex* index, const std::vector<ElementSet>& sets) {
  std::vector<Oid> oids;
  oids.reserve(sets.size());
  sigsetdb::WriteBatch batch;
  for (size_t i = 0; i < sets.size(); ++i) {
    batch.Insert(sets[i]);
    if (batch.size() == kLoadBatch || i + 1 == sets.size()) {
      std::vector<Oid> got = Must(index->ApplyBatch(batch), "load batch");
      oids.insert(oids.end(), got.begin(), got.end());
      batch.Clear();
    }
  }
  Must(index->Checkpoint(), "checkpoint");
  return oids;
}

// Counts that repeat exactly for a seed: the replay slice's logical page
// accesses, candidates, false drops and answers, and the storage totals.
struct SliceCounts {
  uint64_t pages = 0;
  uint64_t candidates = 0;
  uint64_t false_drops = 0;
  uint64_t answer_digest = 0;
  uint64_t join_pages = 0;
  uint64_t join_candidate_pairs = 0;
  uint64_t join_pairs = 0;
  uint64_t reads = 0, writes = 0, hot = 0, skipped = 0, cow = 0;

  bool operator==(const SliceCounts& o) const {
    return pages == o.pages && candidates == o.candidates &&
           false_drops == o.false_drops && answer_digest == o.answer_digest &&
           join_pages == o.join_pages &&
           join_candidate_pairs == o.join_candidate_pairs &&
           join_pairs == o.join_pairs && reads == o.reads &&
           writes == o.writes && hot == o.hot && skipped == o.skipped &&
           cow == o.cow;
  }
  std::string ToString() const {
    return Format(
        "pages=%llu candidates=%llu false_drops=%llu answers=%016llx "
        "join_pages=%llu join_candidate_pairs=%llu join_pairs=%llu "
        "TotalStats{reads=%llu writes=%llu hot=%llu skipped=%llu cow=%llu}",
        static_cast<unsigned long long>(pages),
        static_cast<unsigned long long>(candidates),
        static_cast<unsigned long long>(false_drops),
        static_cast<unsigned long long>(answer_digest),
        static_cast<unsigned long long>(join_pages),
        static_cast<unsigned long long>(join_candidate_pairs),
        static_cast<unsigned long long>(join_pairs),
        static_cast<unsigned long long>(reads),
        static_cast<unsigned long long>(writes),
        static_cast<unsigned long long>(hot),
        static_cast<unsigned long long>(skipped),
        static_cast<unsigned long long>(cow));
  }
};

class PaperBench {
 public:
  PaperBench(const Args& args, bool disk, RunReport* report)
      : args_(args),
        disk_(disk),
        name_(disk ? "paper_disk" : "paper_mem"),
        n_(disk ? 100000 : 32000),
        report_(report) {}

  void Run() {
    report_->Note(EnvironmentLine(args_.work_dir));
    data_ = MakePaperData(args_.seed, n_);
    if (args_.trace) {
      RunTraced();
    } else {
      RunUntraced();
    }
    if (args_.has_replay_seed) ReplayOtherSeed(args_.replay_seed);
  }

 private:
  struct StreamStats {
    uint64_t ops = 0;
    uint64_t selections = 0;
    uint64_t joins = 0;
    int64_t wall_ns = 0;
    double rss_mb = 0.0;  // peak RSS after kRssOps ops (or the window)
    Samples select_us;
    Samples join_ms;
  };

  std::unique_ptr<Instance> Build(const PaperData& data, int k,
                                  IoClock* clock) const {
    auto inst = std::make_unique<Instance>();
    if (disk_) {
      inst->dir = args_.work_dir + "/" + name_ + "-" + std::to_string(k);
      std::error_code ignored;
      std::filesystem::remove_all(inst->dir, ignored);
      std::filesystem::create_directories(inst->dir + "/join");
      inst->storage = std::make_unique<StorageManager>(inst->dir);
      inst->join_storage = std::make_unique<StorageManager>(inst->dir + "/join");
    } else {
      inst->storage = std::make_unique<StorageManager>();
      inst->join_storage = std::make_unique<StorageManager>();
    }
    if (clock != nullptr) {
      InstallTiming(inst->storage.get(), clock);
      InstallTiming(inst->join_storage.get(), clock);
    }
    SetIndex::Options options;  // the defaults, sized to the database
    options.capacity = static_cast<uint64_t>(n_) + kHeadroom;
    SetIndex::Options join_options;
    join_options.capacity = static_cast<uint64_t>(kJoinS) + 64;

    const int64_t start = NowNs();
    inst->index = Must(SetIndex::Create(inst->storage.get(), "paper", options),
                       "create index");
    inst->oids = Load(inst->index.get(), data.sets);
    inst->r = Must(SetIndex::Create(inst->join_storage.get(), "join_r",
                                    join_options),
                   "create join R");
    inst->s = Must(SetIndex::Create(inst->join_storage.get(), "join_s",
                                    join_options),
                   "create join S");
    const std::vector<Oid> r_oids = Load(inst->r.get(), data.r_sets);
    const std::vector<Oid> s_oids = Load(inst->s.get(), data.s_sets);
    inst->setup_s = static_cast<double>(NowNs() - start) / 1e9;

    for (const auto& [ri, si] : data.join_truth) {
      inst->join_expected.emplace_back(r_oids[ri].value(),
                                       s_oids[si].value());
    }
    std::sort(inst->join_expected.begin(), inst->join_expected.end());
    return inst;
  }

  bool SelectionCorrect(const PaperData& data, const Instance& inst,
                        const Selection& sel,
                        const std::vector<Oid>& got) const {
    std::vector<uint64_t> want;
    for (size_t i = 0; i < data.sets.size(); ++i) {
      if (Satisfies(sel.kind, data.sets[i], sel.query)) {
        want.push_back(inst.oids[i].value());
      }
    }
    std::sort(want.begin(), want.end());
    return want == SortedValues(got);
  }

  static bool JoinCorrect(const Instance& inst,
                          const sigsetdb::JoinResult& join) {
    std::vector<std::pair<uint64_t, uint64_t>> got;
    got.reserve(join.pairs.size());
    for (const sigsetdb::JoinPair& p : join.pairs) {
      got.emplace_back(p.r.value(), p.s.value());
    }
    std::sort(got.begin(), got.end());
    return got == inst.join_expected;
  }

  sigsetdb::IoStats Totals(const Instance& inst) const {
    sigsetdb::IoStats total = inst.storage->TotalStats();
    total += inst.join_storage->TotalStats();
    return total;
  }

  // Runs the replay slice on `inst` with plain Query/ExecuteSetJoin calls;
  // `check_every` > 0 verifies that share of the selections.
  SliceCounts RunSlice(const PaperData& data, uint64_t seed, Instance& inst,
                       SelectionSource* source, uint64_t check_every) {
    SliceCounts counts;
    const sigsetdb::IoStats before = Totals(inst);
    uint64_t digest = 0;
    for (uint64_t i = 0; i < kSliceSelections; ++i) {
      const Selection sel = source->Next();
      report_->Attempt();
      StatusOr<sigsetdb::SetIndexResult> r =
          inst.index->Query(sel.kind, sel.query);
      if (!report_->Check(r.status(), "replay selection")) continue;
      counts.pages += r->page_accesses;
      counts.candidates += r->result.num_candidates;
      counts.false_drops += r->result.num_false_drops;
      digest = MixSeed(digest, AnswerDigest(r->result.oids));
      if (check_every > 0 && i % check_every == 0 &&
          !SelectionCorrect(data, inst, sel, r->result.oids)) {
        report_->Fail(Format("replay selection %llu (seed %llu) differs from "
                             "brute force",
                             static_cast<unsigned long long>(i),
                             static_cast<unsigned long long>(seed)));
      }
    }
    report_->Attempt();
    StatusOr<sigsetdb::SetIndexJoinResult> j =
        inst.r->ExecuteSetJoin(inst.s.get());
    if (report_->Check(j.status(), "replay join")) {
      counts.join_pages = j->page_accesses;
      counts.join_candidate_pairs = j->join.num_candidate_pairs;
      counts.join_pairs = j->join.pairs.size();
      if (!JoinCorrect(inst, j->join)) report_->Fail("replay join differs");
    }
    const sigsetdb::IoStats delta = Totals(inst) - before;
    counts.answer_digest = digest;
    counts.reads = delta.reads();
    counts.writes = delta.writes();
    counts.hot = delta.hots();
    counts.skipped = delta.skips();
    counts.cow = delta.cows();
    return counts;
  }

  // The timed stream, continuing `source` after the replay slice.  Stops
  // after `seconds` of measured wall time or `max_ops` operations.  With a
  // tracer every selection is a DomainEstimate + AdviseAccessPaths +
  // Explain triple of spans and every join an ExplainSetJoin span.
  StreamStats RunStream(Instance& inst, SelectionSource* source,
                        double seconds, uint64_t max_ops, Tracer* tracer,
                        TraceCounts* counts) {
    StreamStats st;
    TimedWall wall;
    uint64_t index = kSliceSelections;  // stream position of the next selection
    wall.Start();
    while (st.ops < max_ops && wall.Seconds() < seconds) {
      const Selection sel = source->Next();
      report_->Attempt();
      ++st.ops;
      ++st.selections;
      std::vector<Oid> answer;
      bool ok = false;
      const int64_t start = NowNs();
      if (tracer == nullptr) {
        StatusOr<sigsetdb::SetIndexResult> r =
            inst.index->Query(sel.kind, sel.query);
        const int64_t end = NowNs();
        if (report_->Check(r.status(), "selection")) {
          st.select_us.Add(static_cast<double>(end - start) / 1e3);
          answer = std::move(r->result.oids);
          ok = true;
        }
      } else {
        ok = TracedSelection(inst, sel, st.ops, tracer, counts, &answer);
        st.select_us.Add(static_cast<double>(NowNs() - start) / 1e3);
      }
      if (ok && index % kCheckEvery == 0) {
        wall.Pause();
        if (!SelectionCorrect(data_, inst, sel, answer)) {
          report_->Fail(Format("selection %llu differs from brute force",
                               static_cast<unsigned long long>(index)));
        }
        wall.Resume();
      }
      ++index;
      if (st.rss_mb == 0.0 && st.ops >= kRssOps) {
        wall.Pause();
        st.rss_mb = PeakRssMiB();
        wall.Resume();
      }
      if (index % kJoinEvery != 0 || st.ops >= max_ops) continue;

      report_->Attempt();
      ++st.ops;
      ++st.joins;
      const int64_t join_start = NowNs();
      sigsetdb::JoinResult join;
      if (tracer == nullptr) {
        StatusOr<sigsetdb::SetIndexJoinResult> j =
            inst.r->ExecuteSetJoin(inst.s.get());
        const int64_t join_end = NowNs();
        if (!report_->Check(j.status(), "join")) continue;
        st.join_ms.Add(static_cast<double>(join_end - join_start) / 1e6);
        join = std::move(j->join);
      } else {
        const Tracer::Mark mark = tracer->Begin();
        StatusOr<sigsetdb::SetIndexJoinExplainResult> j =
            inst.r->ExplainSetJoin(inst.s.get());
        const Tracer::Closed call =
            tracer->End(mark, st.ops, "db.SetIndex::ExplainSetJoin");
        st.join_ms.Add(static_cast<double>(NowNs() - join_start) / 1e6);
        if (!report_->Check(j.status(), "join")) continue;
        tracer->SetStages(StagesOf(j->trace));
        AttributeJoin(j->trace, call, j->result.join.num_candidate_pairs,
                      j->result.join.num_probes, &tracer->layers(), counts);
        join = std::move(j->result.join);
      }
      wall.Pause();
      if (!JoinCorrect(inst, join)) report_->Fail("join differs");
      wall.Resume();
    }
    wall.Pause();
    st.wall_ns = static_cast<int64_t>(wall.Seconds() * 1e9);
    if (st.rss_mb == 0.0) st.rss_mb = PeakRssMiB();
    return st;
  }

  static std::vector<Tracer::Stage> StagesOf(const sigsetdb::QueryTrace& t) {
    std::vector<Tracer::Stage> stages;
    for (const sigsetdb::TraceSpan& span : t.stages()) {
      stages.push_back({span.name, std::llround(span.wall_ms * 1e6)});
    }
    return stages;
  }

  bool TracedSelection(Instance& inst, const Selection& sel, uint64_t op,
                       Tracer* tracer, TraceCounts* counts,
                       std::vector<Oid>* answer) {
    SetIndex* index = inst.index.get();
    LayerTimes& layers = tracer->layers();

    Tracer::Mark mark = tracer->Begin();
    const int64_t v = index->DomainEstimate();
    AttributeLeaf(tracer->End(mark, op, "db.SetIndex::DomainEstimate"),
                  &layers.db_domain_estimate);

    // The planner's inputs, from the index's public statistics.
    const SetIndex::Options& options = index->options();
    const int64_t dt = std::max<int64_t>(
        1, std::llround(index->mean_cardinality()));
    sigsetdb::DatabaseParams db;
    db.n = std::max<int64_t>(1, static_cast<int64_t>(index->num_objects()));
    db.v = std::max<int64_t>(v, dt + 1);
    const sigsetdb::SignatureParams sig{options.sig.f, options.sig.m};
    sigsetdb::NixParams nix;
    nix.fanout = options.nix_fanout;
    mark = tracer->Begin();
    StatusOr<std::vector<AccessPathChoice>> choices =
        sigsetdb::AdviseAccessPaths(
            db, sig, nix, dt, static_cast<int64_t>(sel.query.size()),
            sigsetdb::CandidateKind(sel.kind), /*allow_smart=*/true);
    AttributeLeaf(tracer->End(mark, op, "query.AdviseAccessPaths"),
                  &layers.query_plan);
    if (!report_->Check(choices.status(), "plan")) return false;

    mark = tracer->Begin();
    StatusOr<sigsetdb::SetIndexExplainResult> ex =
        index->Explain(sel.kind, sel.query);
    const Tracer::Closed call = tracer->End(mark, op, "db.SetIndex::Explain");
    if (!report_->Check(ex.status(), "selection")) return false;
    tracer->SetStages(StagesOf(ex->trace));
    const sigsetdb::QueryResult& result = ex->result.result;
    AttributeSelection(ex->trace, ex->result.plan, result.num_candidates,
                       result.oids.size(), call, &layers, counts);
    *answer = result.oids;
    return true;
  }

  void RunUntraced() {
    std::vector<double> setups;
    SliceCounts first;
    std::unique_ptr<Instance> inst;
    std::unique_ptr<SelectionSource> source;
    for (int k = 0; k < kUntracedSetups; ++k) {
      inst.reset();
      inst = Build(data_, k, nullptr);
      setups.push_back(inst->setup_s);
      source = std::make_unique<SelectionSource>(args_.seed, &data_.sets,
                                                 disk_);
      const SliceCounts counts =
          RunSlice(data_, args_.seed, *inst, source.get(),
                   k == 0 ? kSliceCheckEvery : 0);
      if (k == 0) {
        first = counts;
        report_->Note("replay seed=" + std::to_string(args_.seed) + " " +
                      counts.ToString());
      } else if (!(counts == first)) {
        report_->Fail("replay counts differ between same-seed loads: " +
                      counts.ToString());
      }
    }

    SyncFilesystem(args_.work_dir);
    const StreamStats st = RunStream(*inst, source.get(), args_.seconds,
                                     UINT64_MAX, nullptr, nullptr);
    const double wall_s = static_cast<double>(st.wall_ns) / 1e9;
    report_->Note(Format(
        "%s: N=%lld, %llu selections + %llu joins in %.3f s measured; setup "
        "runs %s",
        name_.c_str(), static_cast<long long>(n_),
        static_cast<unsigned long long>(st.selections),
        static_cast<unsigned long long>(st.joins), wall_s,
        JoinSetups(setups).c_str()));
    report_->Set("setup_s", MedianOf(setups), "s");
    report_->Set("ops_s", static_cast<double>(st.ops) / wall_s, "ops/s");
    report_->Set("select_p50_us", st.select_us.Quantile(0.50), "us");
    report_->Set("select_p99_us", st.select_us.Quantile(0.99), "us");
    report_->Set("join_p50_ms", st.join_ms.Median(), "ms");
    report_->Set("rss_mb", st.rss_mb, "MiB");
    report_->Set("space_amp",
                 static_cast<double>(inst->storage->TotalPages() *
                                     sigsetdb::kPageSize) /
                     static_cast<double>(data_.user_bytes),
                 "ratio");
  }

  void RunTraced() {
    // Untraced half: no decorator, plain calls.
    double untraced_op_us = 0.0;
    uint64_t ops = 0;
    SliceCounts plain;
    {
      std::unique_ptr<Instance> inst = Build(data_, 0, nullptr);
      SelectionSource source(args_.seed, &data_.sets, disk_);
      plain = RunSlice(data_, args_.seed, *inst, &source, kSliceCheckEvery);
      SyncFilesystem(args_.work_dir);
      const StreamStats st = RunStream(*inst, &source, args_.seconds / 2,
                                       UINT64_MAX, nullptr, nullptr);
      ops = st.ops;
      untraced_op_us = static_cast<double>(st.wall_ns) / 1e3 /
                       static_cast<double>(std::max<uint64_t>(1, st.ops));
    }
    // Traced half: the same seed on a database built with the timing
    // decorator; the slice must match the undecorated one exactly.
    IoClock clock;
    std::unique_ptr<Instance> inst = Build(data_, 1, &clock);
    SelectionSource source(args_.seed, &data_.sets, disk_);
    const SliceCounts decorated =
        RunSlice(data_, args_.seed, *inst, &source, 0);
    report_->Note("neutrality: without decorator " + plain.ToString());
    report_->Note("neutrality: with decorator    " + decorated.ToString());
    if (!(decorated == plain)) {
      report_->Fail("timing decorator changed answers or page counts");
    }

    SyncFilesystem(args_.work_dir);
    Tracer tracer(&clock);
    TraceCounts counts;
    const std::vector<const StorageManager*> storages = {
        inst->storage.get(), inst->join_storage.get()};
    const ClassIo io_before = ClassIo::Of(storages);
    const StreamStats st = RunStream(*inst, &source, 2 * args_.seconds,
                                     ops, &tracer, &counts);
    counts.ops = st.ops;
    counts.io = ClassIo::Of(storages) - io_before;
    if (st.ops != ops) {
      report_->Note(Format("traced stream stopped at %llu of %llu ops",
                           static_cast<unsigned long long>(st.ops),
                           static_cast<unsigned long long>(ops)));
    }
    EmitLayerMetrics(tracer, counts, st.wall_ns, untraced_op_us, report_);
    WriteSpanDump(tracer, args_, report_);
  }

  // Exact-count replay for a second seed: two loads, identical counts.
  void ReplayOtherSeed(uint64_t seed) {
    const PaperData data = MakePaperData(seed, n_);
    SliceCounts first;
    for (int k = 0; k < 2; ++k) {
      std::unique_ptr<Instance> inst = Build(data, 10 + k, nullptr);
      SelectionSource source(seed, &data.sets, disk_);
      const SliceCounts counts =
          RunSlice(data, seed, *inst, &source, k == 0 ? kSliceCheckEvery : 0);
      if (k == 0) {
        first = counts;
        report_->Note("replay seed=" + std::to_string(seed) + " " +
                      counts.ToString());
      } else if (!(counts == first)) {
        report_->Fail("replay counts differ for seed " +
                      std::to_string(seed));
      }
    }
  }

  static std::string JoinSetups(const std::vector<double>& setups) {
    std::string out;
    for (double s : setups) out += (out.empty() ? "" : ", ") + Format("%.3f s", s);
    return out;
  }

  const Args& args_;
  const bool disk_;
  const std::string name_;
  const int64_t n_;
  RunReport* report_;
  PaperData data_;
};

}  // namespace

void RunPaperWorkload(const Args& args, bool disk, RunReport* report) {
  PaperBench(args, disk, report).Run();
}

}  // namespace perfbench
