#include "layers.h"

#include <cmath>

#include "storage/page.h"

namespace perfbench {

ClassIo ClassIo::Of(const std::vector<const sigsetdb::StorageManager*>& all) {
  ClassIo out;
  for (const sigsetdb::StorageManager* storage : all) {
    storage->ForEachFile([&](const sigsetdb::PageFile& file) {
      const StorageClass cls = ClassifyFile(file.name());
      out.reads[cls] += file.stats().reads();
      out.writes[cls] += file.stats().writes();
      out.cows += file.stats().cows();
    });
  }
  return out;
}

ClassIo ClassIo::operator-(const ClassIo& other) const {
  ClassIo out;
  for (int c = 0; c < kNumClasses; ++c) {
    out.reads[c] = reads[c] - other.reads[c];
    out.writes[c] = writes[c] - other.writes[c];
  }
  out.cows = cows - other.cows;
  return out;
}

uint64_t ClassIo::TotalWrites() const {
  uint64_t sum = 0;
  for (int c = 0; c < kNumClasses; ++c) sum += writes[c];
  return sum;
}

namespace {

int64_t MsToNs(double ms) { return std::llround(ms * 1e6); }

// "courses via bssf smart(k=2)" or "bssf smart(s=91)" -> {"bssf", "smart"}.
std::pair<std::string, std::string> PlanShape(const std::string& plan) {
  std::string rest = plan;
  const size_t via = rest.find(" via ");
  if (via != std::string::npos) rest = rest.substr(via + 5);
  const size_t space = rest.find(' ');
  const std::string facility = rest.substr(0, space);
  const std::string strategy =
      space == std::string::npos ? "plain" : rest.substr(space + 1);
  return {facility, strategy.rfind("plain", 0) == 0 ? "plain" : "smart"};
}

}  // namespace

void AttributeSelection(const sigsetdb::QueryTrace& trace,
                        const std::string& plan, uint64_t candidates,
                        uint64_t answers, const Tracer::Closed& call,
                        LayerTimes* layers,
                        TraceCounts* counts) {
  const auto [facility, strategy] = PlanShape(plan);
  const bool nix = facility == "nix";
  int64_t candidate_ns = 0;
  int64_t resolve_ns = 0;
  for (const sigsetdb::TraceSpan& stage : trace.stages()) {
    if (stage.name == "resolution") {
      resolve_ns += MsToNs(stage.wall_ms);
      counts->obj_fetches += stage.page_reads;
    } else {
      candidate_ns += MsToNs(stage.wall_ms);
      (nix ? counts->nix_pages : counts->sig_pages) += stage.page_reads;
      counts->hot_pages += stage.pages_hot;
      counts->skipped_pages += stage.pages_skipped;
    }
  }
  const int64_t object_io = call.io.ClassNs(kObjects);
  const int64_t facility_io = call.io.TotalNs() - object_io;
  layers->db_self += call.dur_ns - candidate_ns - resolve_ns;
  (nix ? layers->nix_self : layers->sig_self) += candidate_ns - facility_io;
  layers->query_resolve_self += resolve_ns - object_io;
  counts->candidate_ns += candidate_ns;
  counts->resolve_ns += resolve_ns;
  counts->candidates += candidates;
  counts->answers += answers;
  ++counts->selections;
  ++counts->plans[facility + "_" + strategy];
}

void AttributeJoin(const sigsetdb::QueryTrace& trace,
                   const Tracer::Closed& call, uint64_t candidate_pairs,
                   uint64_t probes, LayerTimes* layers, TraceCounts* counts) {
  int64_t stages_ns = 0;
  for (const sigsetdb::TraceSpan& stage : trace.stages()) {
    const int64_t ns = MsToNs(stage.wall_ms);
    stages_ns += ns;
    counts->join_stage_ns[stage.name] += ns;
  }
  layers->db_self += call.dur_ns - stages_ns;
  layers->query_join_self += stages_ns - call.io.TotalNs();
  counts->join_candidate_pairs += candidate_pairs;
  counts->join_probes += probes;
  ++counts->joins;
}

void EmitLayerMetrics(const Tracer& tracer, const TraceCounts& counts,
                      int64_t traced_wall_ns, double untraced_op_us,
                      RunReport* report) {
  LayerTimes layers = tracer.layers();
  layers.client_self = traced_wall_ns - layers.top_level;
  const double ops = counts.ops == 0 ? 1.0 : static_cast<double>(counts.ops);
  const auto per = [](double total, uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  const auto us_per_op = [&](int64_t ns) {
    return static_cast<double>(ns) / 1e3 / ops;
  };
  const double sel = static_cast<double>(counts.selections);

  report->Set("db.self_us", us_per_op(layers.db_self), "us");
  report->Set("db.domain_estimate_us", us_per_op(layers.db_domain_estimate),
              "us");
  report->Set("db.wal_fsyncs_per_write",
              per(static_cast<double>(counts.wal_fsyncs), counts.mutations),
              "count");
  report->Set("db.wal_group_size", per(counts.wal_group_sum, counts.wal_groups),
              "count");
  report->Set("db.snapshot_pin_us",
              per(static_cast<double>(counts.pin_ns) / 1e3, counts.pins), "us");
  report->Set("db.reclaim_backlog", per(counts.backlog_sum, counts.pins),
              "count");
  report->Set("db.reclaimed_versions",
              static_cast<double>(counts.reclaimed) / ops, "count");
  report->Set("db.checkpoint_ms",
              per(static_cast<double>(counts.checkpoint_ns) / 1e6,
                  counts.checkpoints),
              "ms");
  report->Set("db.compact_ms",
              per(static_cast<double>(counts.compact_ns) / 1e6,
                  counts.compacts),
              "ms");
  report->Set("db.compact_pages_written",
              per(static_cast<double>(counts.compact_pages_written),
                  counts.compacts),
              "count");
  report->Set("db.replayed_records",
              static_cast<double>(counts.replayed_records), "count");

  report->Set("query.plan_us", us_per_op(layers.query_plan), "us");
  report->Set("query.candidate_us",
              per(static_cast<double>(counts.candidate_ns) / 1e3,
                  counts.selections),
              "us");
  report->Set("query.resolve_us",
              per(static_cast<double>(counts.resolve_ns) / 1e3,
                  counts.selections),
              "us");
  report->Set("query.resolve_self_us", us_per_op(layers.query_resolve_self),
              "us");
  report->Set("query.join_self_us", us_per_op(layers.query_join_self), "us");
  report->Set("query.candidates_per_select",
              per(static_cast<double>(counts.candidates), counts.selections),
              "count");
  report->Set("query.useful_ratio",
              per(static_cast<double>(counts.answers), counts.candidates),
              "ratio");
  for (const char* shape :
       {"bssf_plain", "bssf_smart", "nix_plain", "nix_smart"}) {
    const auto it = counts.plans.find(shape);
    const double n = it == counts.plans.end() ? 0.0 : it->second;
    report->Set(std::string("query.plan_share.") + shape,
                sel == 0 ? 0.0 : n / sel, "fraction");
  }
  static const std::pair<const char*, const char*> kJoinStages[] = {
      {"r scan", "query.join_r_scan_ms"},
      {"s scan", "query.join_s_scan_ms"},
      {"partition", "query.join_partition_ms"},
      {"probe+verify", "query.join_probe_verify_ms"},
      {"probe loop", "query.join_probe_loop_ms"}};
  for (const auto& [stage, metric] : kJoinStages) {
    const auto it = counts.join_stage_ns.find(stage);
    const double ns = it == counts.join_stage_ns.end() ? 0.0 : it->second;
    report->Set(metric, per(ns / 1e6, counts.joins), "ms");
  }
  report->Set("query.join_candidate_pairs",
              per(static_cast<double>(counts.join_candidate_pairs),
                  counts.joins),
              "count");
  report->Set("query.join_probes",
              per(static_cast<double>(counts.join_probes), counts.joins),
              "count");

  report->Set("sig.self_us", us_per_op(layers.sig_self), "us");
  report->Set("sig.pages_per_select",
              per(static_cast<double>(counts.sig_pages), counts.selections),
              "count");
  report->Set("sig.pages_hot",
              per(static_cast<double>(counts.hot_pages), counts.selections),
              "count");
  report->Set("sig.pages_skipped",
              per(static_cast<double>(counts.skipped_pages),
                  counts.selections),
              "count");
  report->Set("nix.self_us", us_per_op(layers.nix_self), "us");
  report->Set("nix.pages_per_select",
              per(static_cast<double>(counts.nix_pages), counts.selections),
              "count");
  report->Set("obj.fetches_per_select",
              per(static_cast<double>(counts.obj_fetches), counts.selections),
              "count");

  for (int c = 0; c < kNumClasses; ++c) {
    const std::string prefix =
        std::string("storage.") + StorageClassName(c) + ".";
    report->Set(prefix + "reads", static_cast<double>(counts.io.reads[c]) / ops,
                "count");
    report->Set(prefix + "read_us", us_per_op(layers.io.ns[c][kRead]), "us");
    report->Set(prefix + "writes",
                static_cast<double>(counts.io.writes[c]) / ops, "count");
    report->Set(prefix + "write_us", us_per_op(layers.io.ns[c][kWrite]), "us");
    report->Set(prefix + "syncs",
                static_cast<double>(layers.io.calls[c][kSync]) / ops, "count");
    report->Set(prefix + "sync_us", us_per_op(layers.io.ns[c][kSync]), "us");
  }
  report->Set("storage.pages_cow",
              per(static_cast<double>(counts.io.cows), counts.mutations),
              "count");
  report->Set("storage.write_amp",
              per(static_cast<double>(counts.io.TotalWrites() *
                                      sigsetdb::kPageSize),
                  counts.user_bytes),
              "ratio");

  report->Set("client.self_us", us_per_op(layers.client_self), "us");
  const double traced_op_us = static_cast<double>(traced_wall_ns) / 1e3 / ops;
  report->Set("trace.op_us", traced_op_us, "us");
  report->Set("trace.overhead_us", traced_op_us - untraced_op_us, "us");
  report->Note(Format(
      "trace: %llu traced ops; layer self times sum to %.3f us/op, traced "
      "mean op %.3f us, untraced mean op %.3f us, tracing overhead %.3f us/op "
      "(%.1f%%)",
      static_cast<unsigned long long>(counts.ops),
      static_cast<double>(layers.Sum()) / 1e3 / ops, traced_op_us,
      untraced_op_us, traced_op_us - untraced_op_us,
      untraced_op_us > 0 ? 100.0 * (traced_op_us / untraced_op_us - 1.0)
                         : 0.0));
}

void WriteSpanDump(const Tracer& tracer, const Args& args, RunReport* report) {
  const std::string path = args.spans_dir + "/spans-" + args.workload +
                           "-seed" + std::to_string(args.seed) + ".jsonl";
  report->Note(tracer.WriteJsonl(path) ? "spans written to " + path
                                       : "could not write spans to " + path);
}

}  // namespace perfbench
