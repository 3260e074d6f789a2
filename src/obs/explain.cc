#include "obs/explain.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/table_printer.h"

namespace sigsetdb {

namespace {

constexpr const char* kNone = "-";

std::string CountCell(int64_t v) {
  return v < 0 ? kNone : TablePrinter::Int(v);
}

void AddSpanRow(TablePrinter* table, const TraceSpan& span, int depth) {
  std::vector<std::string> row = {
      std::string(static_cast<size_t>(depth) * 2, ' ') + span.name,
      TablePrinter::Int(static_cast<int64_t>(span.pages())),
      span.predicted_pages < 0.0 ? kNone
                                 : TablePrinter::Num(span.predicted_pages)};
  // Counters in total() always show; the others show "-" when zero.
  for (const auto& c : kPageCounters) {
    const uint64_t v = span.*c.field;
    row.push_back(c.in_total || v > 0
                      ? TablePrinter::Int(static_cast<int64_t>(v))
                      : kNone);
  }
  row.push_back(span.wall_ms > 0.0 ? TablePrinter::Num(span.wall_ms, 3)
                                   : kNone);
  row.push_back(CountCell(span.candidates));
  row.push_back(CountCell(span.false_drops));
  table->AddRow(std::move(row));
  for (const TraceSpan& child : span.children) {
    AddSpanRow(table, child, depth + 1);
  }
}

}  // namespace

std::string RenderExplain(const QueryTrace& trace) {
  std::ostringstream os;
  os << "EXPLAIN " << trace.kind << " Dq=" << trace.dq
     << " — plan: " << trace.plan << "\n";
  std::vector<std::string> header = {"stage", "pages", "predicted"};
  for (const auto& c : kPageCounters) header.push_back(c.short_name);
  header.insert(header.end(), {"wall_ms", "cand", "fdrops"});
  TablePrinter table(header);
  for (const TraceSpan& span : trace.stages()) {
    AddSpanRow(&table, span, 0);
  }
  TraceSpan total;
  total.name = "total";
  total += trace.Totals();
  total.wall_ms = trace.TotalWallMs();
  total.predicted_pages = trace.predicted_total;
  AddSpanRow(&table, total, 0);
  table.Print(os);
  return os.str();
}

}  // namespace sigsetdb
