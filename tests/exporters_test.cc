// Exporters: the OpenMetrics text exposition and the Chrome trace-event
// (Perfetto) JSON writer.  Both are held to the round-trip standard — the
// exposition passes a line-level format lint implementing the OpenMetrics
// grammar subset we emit, and every trace document passes the strict JSON
// validator.

#include "obs/openmetrics.h"
#include "obs/trace_event.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "json_validate.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sigsetdb {
namespace {

// Line-level lint of the OpenMetrics exposition: every line must be a
// comment ("# TYPE <name> <type>" or "# EOF"), or a sample
// "<name>[{le=\"<bound>\"}] <value>"; histogram buckets must be cumulative
// (non-decreasing, ending in the +Inf bucket == _count); the exposition
// must end with exactly one "# EOF".
void LintOpenMetrics(const std::string& body) {
  std::istringstream in(body);
  std::string line;
  bool saw_eof = false;
  std::map<std::string, uint64_t> last_bucket;  // metric -> last cumulative
  std::map<std::string, uint64_t> inf_bucket;
  std::map<std::string, uint64_t> count_sample;
  while (std::getline(in, line)) {
    ASSERT_FALSE(saw_eof) << "content after # EOF: " << line;
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    if (line[0] == '#') {
      if (line == "# EOF") {
        saw_eof = true;
        continue;
      }
      std::istringstream fields(line);
      std::string hash, keyword, name, type;
      fields >> hash >> keyword >> name >> type;
      EXPECT_EQ(keyword, "TYPE") << line;
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram")
          << line;
      EXPECT_EQ(name.find_first_not_of(
                    "abcdefghijklmnopqrstuvwxyz"
                    "ABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_"),
                std::string::npos)
          << "bad metric charset: " << name;
      continue;
    }
    // Sample line: name or name{le="bound"}, one space, one value.
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string name_part = line.substr(0, space);
    const std::string value_part = line.substr(space + 1);
    ASSERT_FALSE(value_part.empty()) << line;
    char* end = nullptr;
    const double value = std::strtod(value_part.c_str(), &end);
    EXPECT_EQ(*end, '\0') << "unparseable sample value: " << line;

    const size_t brace = name_part.find('{');
    if (brace != std::string::npos) {
      // Our only label is le="..." on _bucket samples.
      const std::string base = name_part.substr(0, brace);
      EXPECT_TRUE(base.size() > 7 &&
                  base.compare(base.size() - 7, 7, "_bucket") == 0)
          << line;
      const std::string label = name_part.substr(brace);
      EXPECT_EQ(label.find("{le=\""), 0u) << line;
      EXPECT_EQ(label.back(), '}') << line;
      const std::string metric = base.substr(0, base.size() - 7);
      const uint64_t cumulative = static_cast<uint64_t>(value);
      if (last_bucket.count(metric) != 0) {
        EXPECT_GE(cumulative, last_bucket[metric])
            << "non-cumulative bucket: " << line;
      }
      last_bucket[metric] = cumulative;
      if (label == "{le=\"+Inf\"}") inf_bucket[metric] = cumulative;
    } else if (name_part.size() > 6 &&
               name_part.compare(name_part.size() - 6, 6, "_count") == 0) {
      count_sample[name_part.substr(0, name_part.size() - 6)] =
          static_cast<uint64_t>(value);
    }
  }
  EXPECT_TRUE(saw_eof) << "exposition does not end with # EOF";
  for (const auto& [metric, count] : count_sample) {
    if (inf_bucket.count(metric) != 0) {
      EXPECT_EQ(inf_bucket[metric], count)
          << metric << ": +Inf bucket must equal _count";
    }
  }
}

TEST(SanitizeMetricNameTest, MapsOutOfCharsetToUnderscore) {
  EXPECT_EQ(SanitizeMetricName("query.bssf.count"), "query_bssf_count");
  EXPECT_EQ(SanitizeMetricName("a-b c/d"), "a_b_c_d");
  EXPECT_EQ(SanitizeMetricName("Already_OK_9"), "Already_OK_9");
}

TEST(OpenMetricsTest, ExportsAllKindsAndLints) {
  MetricsRegistry registry;
  registry.counter("query.count")->Increment(3);
  registry.gauge("epoch.pins")->Set(2.5);
  Histogram* h = registry.histogram("op.insert.latency_us");
  for (uint64_t v : {0ull, 1ull, 2ull, 3ull, 1024ull}) h->Record(v);

  const std::string body = ExportOpenMetrics(registry);
  LintOpenMetrics(body);
  EXPECT_NE(body.find("# TYPE sigset_query_count counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_query_count_total 3\n"), std::string::npos);
  EXPECT_NE(body.find("# TYPE sigset_epoch_pins gauge\n"), std::string::npos);
  EXPECT_NE(body.find("sigset_epoch_pins 2.5\n"), std::string::npos);
  EXPECT_NE(
      body.find("# TYPE sigset_op_insert_latency_us histogram\n"),
      std::string::npos);
  // Value 0 -> bucket le="0" count 1; values 1,2,3 cumulative by 2^i-1;
  // 1024 lands at le="2047"; +Inf repeats the total.
  EXPECT_NE(body.find("sigset_op_insert_latency_us_bucket{le=\"0\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_op_insert_latency_us_bucket{le=\"1\"} 2\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_op_insert_latency_us_bucket{le=\"3\"} 4\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_op_insert_latency_us_bucket{le=\"2047\"} 5\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_op_insert_latency_us_bucket{le=\"+Inf\"} 5\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_op_insert_latency_us_sum 1030\n"),
            std::string::npos);
  EXPECT_NE(body.find("sigset_op_insert_latency_us_count 5\n"),
            std::string::npos);
  EXPECT_EQ(body.rfind("# EOF\n"), body.size() - 6);
}

TEST(OpenMetricsTest, EmptyRegistryIsJustEof) {
  MetricsRegistry registry;
  EXPECT_EQ(ExportOpenMetrics(registry), "# EOF\n");
}

TEST(OpenMetricsTest, CustomPrefixAndFile) {
  MetricsRegistry registry;
  registry.counter("hits")->Increment();
  const std::string body = ExportOpenMetrics(registry, "acme");
  EXPECT_NE(body.find("acme_hits_total 1\n"), std::string::npos);
  LintOpenMetrics(body);

  const std::string path = ::testing::TempDir() + "exporters_test.om";
  ASSERT_TRUE(WriteOpenMetricsFile(registry, path, "acme").ok());
  std::ifstream in(path);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), body);
  std::remove(path.c_str());
}

// A synthetic two-stage trace with parallel worker children, the shape the
// db layer produces with num_threads > 1.
QueryTrace MakeWorkerTrace() {
  QueryTrace trace;
  trace.plan = "bssf plain";
  trace.kind = "superset";
  trace.dq = 3;
  trace.predicted_total = 8.25;
  TraceSpan* selection = trace.AddStage("candidate selection");
  selection->page_reads = 6;
  selection->wall_ms = 0.4;
  selection->candidates = 10;
  TraceSpan untimed;
  untimed.name = "bssf.slices";
  untimed.page_reads = 6;
  selection->children.push_back(untimed);
  TraceSpan* resolution = trace.AddStage("resolution");
  resolution->page_reads = 10;
  resolution->wall_ms = 1.2;
  resolution->candidates = 10;
  resolution->false_drops = 2;
  for (int w = 0; w < 3; ++w) {
    TraceSpan child;
    child.name = "worker " + std::to_string(w);
    child.page_reads = 3;
    child.wall_ms = 0.3 + 0.1 * w;
    child.candidates = 3;
    resolution->children.push_back(child);
  }
  return trace;
}

TEST(TraceEventTest, DocumentValidatesAndNamesWorkerTracks) {
  TraceEventWriter writer;
  writer.AddTrace(MakeWorkerTrace());
  // 2 stages + 3 worker children + 1 query parent.
  EXPECT_EQ(writer.num_events(), 6u);
  const std::string json = writer.ToJson();
  std::string error;
  ASSERT_TRUE(testjson::IsValidJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  // Thread-name metadata for the query track and each worker track.
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"queries\""), std::string::npos);
  EXPECT_NE(json.find("\"resolve worker 0\""), std::string::npos);
  EXPECT_NE(json.find("\"resolve worker 2\""), std::string::npos);
  // Span args carry the measurements and the attached prediction.
  EXPECT_NE(json.find("\"predicted_pages\":8.25"), std::string::npos);
  EXPECT_NE(json.find("\"false_drops\":2"), std::string::npos);
  // The untimed per-file child folds into its stage's args.
  EXPECT_NE(json.find("\"pages.bssf.slices\":6"), std::string::npos);
}

TEST(TraceEventTest, TracesLayOutSequentiallyWithoutOverlap) {
  TraceEventWriter writer;
  writer.AddTrace(MakeWorkerTrace());
  writer.AddTrace(MakeWorkerTrace());
  const std::string json = writer.ToJson();
  std::string error;
  ASSERT_TRUE(testjson::IsValidJson(json, &error)) << error;
  // Two queries: every event name appears twice.
  size_t count = 0;
  for (size_t pos = 0;
       (pos = json.find("\"candidate selection\"", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 2u);
  // Worker tracks are shared between traces (stable tids), so the metadata
  // lists each once.
  count = 0;
  for (size_t pos = 0;
       (pos = json.find("\"resolve worker 0\"", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 1u);
}

TEST(TraceEventTest, OneShotAndFileRoundTrip) {
  const QueryTrace trace = MakeWorkerTrace();
  const std::string json = TraceEventJson(trace);
  std::string error;
  ASSERT_TRUE(testjson::IsValidJson(json, &error)) << error;

  TraceEventWriter writer;
  writer.AddTrace(trace);
  const std::string path = ::testing::TempDir() + "exporters_test.trace.json";
  ASSERT_TRUE(writer.WriteFile(path).ok());
  std::ifstream in(path);
  std::stringstream read_back;
  read_back << in.rdbuf();
  EXPECT_EQ(read_back.str(), writer.ToJson());
  std::remove(path.c_str());
}

// A span with all five page counters set by name.
TraceSpan CountedSpan(std::string name, uint64_t reads, uint64_t writes,
                      uint64_t skipped, uint64_t cow, uint64_t hot) {
  TraceSpan span;
  span.name = std::move(name);
  span.page_reads = reads;
  span.page_writes = writes;
  span.pages_skipped = skipped;
  span.pages_cow = cow;
  span.pages_hot = hot;
  return span;
}

// A hand-built two-stage trace whose stages and children carry every page
// counter nonzero, each with its own value, so a byte-exact pin of its
// renderings catches a counter that is dropped, swapped or moved.
QueryTrace MakeAllCountersTrace() {
  QueryTrace trace;
  trace.plan = "bssf smart(k=2)";
  trace.kind = "superset";
  trace.dq = 4;
  trace.predicted_total = 30.5;
  TraceSpan* selection = trace.AddStage("candidate selection");
  *selection = CountedSpan("candidate selection", 11, 2, 3, 4, 5);
  selection->wall_ms = 0.25;
  selection->predicted_pages = 12.5;
  selection->candidates = 9;
  selection->children.push_back(CountedSpan("bssf.slices", 7, 1, 2, 3, 4));
  selection->children.push_back(CountedSpan("bssf.oids", 4, 1, 1, 1, 1));
  TraceSpan* resolution = trace.AddStage("resolution");
  *resolution = CountedSpan("resolution", 20, 6, 7, 8, 9);
  resolution->wall_ms = 1.5;
  resolution->predicted_pages = 18;
  resolution->candidates = 9;
  resolution->false_drops = 3;
  for (int w = 0; w < 2; ++w) {
    TraceSpan worker = CountedSpan("worker " + std::to_string(w), 10, 3,
                                   3 + w, 4, 4 + w);
    worker.wall_ms = 0.75 - 0.25 * w;
    worker.candidates = 5 - w;
    worker.false_drops = 1 + w;
    resolution->children.push_back(worker);
  }
  return trace;
}

// The whole trace-event document of a trace whose stages and children carry
// every counter, byte for byte: the span args, the query args and the
// untimed per-file children folded into their stage.
TEST(TraceEventTest, DocumentCarriesEveryCounter) {
  EXPECT_EQ(TraceEventJson(MakeAllCountersTrace()),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"ph\":\"M\","
            "\"name\":\"thread_name\",\"pid\":1,\"tid\":1,"
            "\"args\":{\"name\":\"queries\"}},{\"ph\":\"M\","
            "\"name\":\"thread_name\",\"pid\":1,\"tid\":2,"
            "\"args\":{\"name\":\"resolve worker 0\"}},{\"ph\":\"M\","
            "\"name\":\"thread_name\",\"pid\":1,\"tid\":3,"
            "\"args\":{\"name\":\"resolve worker 1\"}},{\"name\":\"candidate "
            "selection\",\"cat\":\"query\",\"ph\":\"X\",\"ts\":0,\"dur\":250,"
            "\"pid\":1,\"tid\":1,\"args\":{\"page_reads\":11,"
            "\"page_writes\":2,\"pages_skipped\":3,\"pages_cow\":4,"
            "\"pages_hot\":5,\"predicted_pages\":12.5,\"candidates\":9,"
            "\"pages.bssf.slices\":8,\"pages.bssf.oids\":5}},"
            "{\"name\":\"worker 0\",\"cat\":\"query\",\"ph\":\"X\",\"ts\":250,"
            "\"dur\":750,\"pid\":1,\"tid\":2,\"args\":{\"page_reads\":10,"
            "\"page_writes\":3,\"pages_skipped\":3,\"pages_cow\":4,"
            "\"pages_hot\":4,\"candidates\":5,\"false_drops\":1}},"
            "{\"name\":\"worker 1\",\"cat\":\"query\",\"ph\":\"X\",\"ts\":250,"
            "\"dur\":500,\"pid\":1,\"tid\":3,\"args\":{\"page_reads\":10,"
            "\"page_writes\":3,\"pages_skipped\":4,\"pages_cow\":4,"
            "\"pages_hot\":5,\"candidates\":4,\"false_drops\":2}},"
            "{\"name\":\"resolution\",\"cat\":\"query\",\"ph\":\"X\","
            "\"ts\":250,\"dur\":1500,\"pid\":1,\"tid\":1,"
            "\"args\":{\"page_reads\":20,\"page_writes\":6,"
            "\"pages_skipped\":7,\"pages_cow\":8,\"pages_hot\":9,"
            "\"predicted_pages\":18,\"candidates\":9,\"false_drops\":3}},"
            "{\"name\":\"superset bssf smart(k=2)\",\"cat\":\"query\","
            "\"ph\":\"X\",\"ts\":0,\"dur\":1750,\"pid\":1,\"tid\":1,"
            "\"args\":{\"plan\":\"bssf smart(k=2)\",\"dq\":4,\"pages\":39,"
            "\"pages_skipped\":10,\"pages_cow\":12,\"pages_hot\":14,"
            "\"predicted_pages\":30.5}}]}");
}

TEST(TraceEventTest, EmptyTraceStillEmitsQuerySpan) {
  QueryTrace trace;
  TraceEventWriter writer;
  writer.AddTrace(trace);
  EXPECT_EQ(writer.num_events(), 1u);
  const std::string json = writer.ToJson();
  std::string error;
  ASSERT_TRUE(testjson::IsValidJson(json, &error)) << error;
  EXPECT_NE(json.find("\"query\""), std::string::npos);
}

}  // namespace
}  // namespace sigsetdb
