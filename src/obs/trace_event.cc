#include "obs/trace_event.h"

#include <algorithm>
#include <cstdio>

#include "obs/json.h"

namespace sigsetdb {

namespace {

// Durations are measured in ms doubles; the trace format wants integer
// microseconds.  Clamp to >= 1 so zero-length spans stay visible.
uint64_t DurUs(double wall_ms) {
  const double us = wall_ms * 1000.0;
  return us < 1.0 ? 1 : static_cast<uint64_t>(us);
}

// Renders a span's measurements (and prediction, when attached) as the
// trace-event "args" object.
std::string SpanArgs(const TraceSpan& span) {
  JsonWriter w;
  w.BeginObject();
  for (const auto& c : kPageCounters) w.Field(c.name, span.*c.field);
  if (span.predicted_pages >= 0) {
    w.Field("predicted_pages", span.predicted_pages);
  }
  if (span.candidates >= 0) w.Field("candidates", span.candidates);
  if (span.false_drops >= 0) w.Field("false_drops", span.false_drops);
  // Untimed children (the per-file breakdown) fold into their parent here;
  // timed children become spans of their own.
  for (const TraceSpan& child : span.children) {
    if (child.wall_ms <= 0.0) {
      w.Field("pages." + child.name, child.pages());
    }
  }
  w.EndObject();
  return w.str();
}

}  // namespace

int TraceEventWriter::TidForTrack(const std::string& track_name) {
  auto it = track_tids_.find(track_name);
  if (it != track_tids_.end()) return it->second;
  const int tid = 2 + static_cast<int>(track_tids_.size());
  track_tids_.emplace(track_name, tid);
  return tid;
}

void TraceEventWriter::AddTrace(const QueryTrace& trace) {
  ++trace_count_;
  const uint64_t query_start = cursor_us_;
  uint64_t offset = 0;

  for (const TraceSpan& stage : trace.stages()) {
    Event ev;
    ev.name = stage.name;
    ev.ts_us = query_start + offset;
    ev.dur_us = DurUs(stage.wall_ms);
    ev.tid = 1;
    ev.args_json = SpanArgs(stage);
    // Timed children ran inside this stage on pool threads; give each its
    // own track so the fan-out is visible as parallel rows.
    for (const TraceSpan& child : stage.children) {
      if (child.wall_ms <= 0.0) continue;
      Event cev;
      cev.name = child.name;
      cev.ts_us = ev.ts_us;
      cev.dur_us = std::min(DurUs(child.wall_ms), ev.dur_us);
      cev.tid = TidForTrack(child.name);
      cev.args_json = SpanArgs(child);
      events_.push_back(std::move(cev));
    }
    offset += ev.dur_us;
    events_.push_back(std::move(ev));
  }

  // The enclosing query-level span (emitted last, rendered as the parent).
  Event query;
  query.name = trace.kind.empty() ? "query" : trace.kind + " " + trace.plan;
  query.ts_us = query_start;
  query.dur_us = offset == 0 ? 1 : offset;
  query.tid = 1;
  {
    JsonWriter w;
    w.BeginObject();
    w.Field("plan", trace.plan);
    w.Field("dq", trace.dq);
    // The counters in total() as their sum, the others one by one.
    const PageCounts totals = trace.Totals();
    w.Field("pages", totals.pages());
    for (const auto& c : kPageCounters) {
      if (!c.in_total) w.Field(c.name, totals.*c.field);
    }
    if (trace.predicted_total >= 0) {
      w.Field("predicted_pages", trace.predicted_total);
    }
    w.EndObject();
    query.args_json = w.str();
  }
  events_.push_back(std::move(query));

  cursor_us_ += query.dur_us + 10;  // small gap between traces
}

std::string TraceEventWriter::ToJson() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&out, &first](const std::string& obj) {
    if (!first) out += ",";
    first = false;
    out += obj;
  };

  // Thread-name metadata: track 1 is the query timeline, the rest are the
  // named worker tracks.
  {
    JsonWriter w;
    w.BeginObject();
    w.Field("ph", "M");
    w.Field("name", "thread_name");
    w.Field("pid", uint64_t{1});
    w.Field("tid", uint64_t{1});
    w.Key("args");
    w.BeginObject();
    w.Field("name", "queries");
    w.EndObject();
    w.EndObject();
    append(w.str());
  }
  for (const auto& [track, tid] : track_tids_) {
    JsonWriter w;
    w.BeginObject();
    w.Field("ph", "M");
    w.Field("name", "thread_name");
    w.Field("pid", uint64_t{1});
    w.Field("tid", static_cast<uint64_t>(tid));
    w.Key("args");
    w.BeginObject();
    w.Field("name", "resolve " + track);
    w.EndObject();
    w.EndObject();
    append(w.str());
  }

  for (const Event& ev : events_) {
    JsonWriter w;
    w.BeginObject();
    w.Field("name", ev.name);
    w.Field("cat", "query");
    w.Field("ph", "X");
    w.Field("ts", ev.ts_us);
    w.Field("dur", ev.dur_us);
    w.Field("pid", uint64_t{1});
    w.Field("tid", static_cast<uint64_t>(ev.tid));
    w.EndObject();
    std::string obj = w.str();
    if (!ev.args_json.empty()) {
      // Splice the pre-rendered args object in before the closing brace.
      obj.insert(obj.size() - 1, ",\"args\":" + ev.args_json);
    }
    append(obj);
  }
  out += "]}";
  return out;
}

Status TraceEventWriter::WriteFile(const std::string& path) const {
  const std::string body = ToJson();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace file " + path);
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const int closed = std::fclose(f);
  if (written != body.size() || closed != 0) {
    return Status::IoError("short write to trace file " + path);
  }
  return Status::OK();
}

std::string TraceEventJson(const QueryTrace& trace) {
  TraceEventWriter writer;
  writer.AddTrace(trace);
  return writer.ToJson();
}

}  // namespace sigsetdb
