#include "obs/trace.h"

#include "obs/json.h"

namespace sigsetdb {

namespace {

// Writes the counters in total() always, then their sum as `pages`, then
// the others only when nonzero.  Keys are `prefix` + the counter's short
// name, or its field name when `prefix` is null.
void WriteCounts(JsonWriter* w, const PageCounts& counts, const char* prefix) {
  const auto key = [prefix](const char* name, const char* short_name) {
    return prefix == nullptr ? std::string(name)
                             : std::string(prefix) + short_name;
  };
  for (const auto& c : kPageCounters) {
    if (c.in_total) w->Field(key(c.name, c.short_name), counts.*c.field);
  }
  w->Field(key("pages", "pages"), counts.pages());
  for (const auto& c : kPageCounters) {
    if (!c.in_total && counts.*c.field > 0) {
      w->Field(key(c.name, c.short_name), counts.*c.field);
    }
  }
}

void WriteSpan(JsonWriter* w, const TraceSpan& span) {
  w->BeginObject();
  w->Field("name", span.name);
  WriteCounts(w, span, nullptr);
  if (span.wall_ms > 0.0) w->Field("wall_ms", span.wall_ms);
  if (span.predicted_pages >= 0.0) {
    w->Field("predicted_pages", span.predicted_pages);
  }
  if (span.candidates >= 0) w->Field("candidates", span.candidates);
  if (span.false_drops >= 0) w->Field("false_drops", span.false_drops);
  if (!span.children.empty()) {
    w->Key("children");
    w->BeginArray();
    for (const TraceSpan& child : span.children) WriteSpan(w, child);
    w->EndArray();
  }
  w->EndObject();
}

}  // namespace

TraceSpan* TraceSpan::FindChild(const std::string& child_name) {
  for (TraceSpan& child : children) {
    if (child.name == child_name) return &child;
  }
  return nullptr;
}

TraceSpan* QueryTrace::AddStage(std::string name) {
  stages_.emplace_back();
  stages_.back().name = std::move(name);
  return &stages_.back();
}

TraceSpan* AddSnapshotStage(QueryTrace* trace, std::string name,
                            const IoSnapshots& before,
                            const IoSnapshots& after) {
  TraceSpan* span = trace->AddStage(std::move(name));
  for (size_t i = 0; i < after.size() && i < before.size(); ++i) {
    const PageCounts delta = (after[i].second - before[i].second).counts();
    TraceSpan child;
    child.name = after[i].first;
    child += delta;
    *span += delta;
    span->children.push_back(std::move(child));
  }
  return span;
}

PageCounts QueryTrace::Totals() const {
  PageCounts total;
  for (const TraceSpan& s : stages_) total += s;
  return total;
}

double QueryTrace::TotalWallMs() const {
  double total = 0;
  for (const TraceSpan& s : stages_) total += s.wall_ms;
  return total;
}

std::string QueryTrace::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Field("plan", plan);
  w.Field("kind", kind);
  w.Field("dq", dq);
  WriteCounts(&w, Totals(), "measured_");
  if (predicted_total >= 0.0) w.Field("predicted_total", predicted_total);
  w.Field("wall_ms", TotalWallMs());
  w.Key("stages");
  w.BeginArray();
  for (const TraceSpan& s : stages_) WriteSpan(&w, s);
  w.EndArray();
  w.EndObject();
  return w.str();
}

}  // namespace sigsetdb
