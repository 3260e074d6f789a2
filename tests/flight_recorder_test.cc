// FlightRecorder: ring semantics (wrap, ordering), event field round-trips,
// fingerprint stability, postmortem rendering (text + validating-parser
// JSON), file dumps, and — the sanitizer target — torn-slot-free concurrent
// Record/Events.

#include "obs/flight_recorder.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_validate.h"
#include "storage/io_stats.h"

namespace sigsetdb {
namespace {

FlightEvent MakeEvent(FlightOp op, uint64_t fingerprint) {
  FlightEvent event;
  event.op = op;
  event.fingerprint = fingerprint;
  return event;
}

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlightRecorder(5).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(8).capacity(), 8u);
  EXPECT_EQ(FlightRecorder(9).capacity(), 16u);
  EXPECT_EQ(FlightRecorder(1).capacity(), 8u);  // minimum
}

TEST(FlightRecorderTest, EventsComeBackInOrderWithFields) {
  FlightRecorder recorder(16);
  for (uint64_t i = 0; i < 5; ++i) {
    FlightEvent event = MakeEvent(FlightOp::kInsert, 100 + i);
    event.epoch = 7;
    event.wal_lsn = 40 + i;
    event.status_code = 0;
    event.SetDelta(IoStats{3, 2, 1, 4, 6});
    event.SetDetail("bssf smart(s=91)");
    recorder.Record(event);
  }
  std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 5u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, i);
    EXPECT_EQ(events[i].fingerprint, 100 + i);
    EXPECT_EQ(events[i].epoch, 7u);
    EXPECT_EQ(events[i].wal_lsn, 40 + i);
    EXPECT_EQ(events[i].page_reads, 3u);
    EXPECT_EQ(events[i].page_writes, 2u);
    EXPECT_EQ(events[i].pages_skipped, 1u);
    EXPECT_EQ(events[i].pages_cow, 4u);
    EXPECT_EQ(events[i].pages_hot, 6u);
    EXPECT_EQ(events[i].op, FlightOp::kInsert);
    EXPECT_STREQ(events[i].detail, "bssf smart(s=91)");
    if (i > 0) {
      EXPECT_GT(events[i].micros + 1, events[i - 1].micros);
    }
  }
  EXPECT_EQ(recorder.total_recorded(), 5u);
  // Both postmortems carry every counter, the hot count included.
  const std::string text = recorder.PostmortemText("fields");
  EXPECT_NE(text.find("  r     w  skip   cow   hot "), std::string::npos)
      << text;
  EXPECT_NE(text.find("insert             3     2     1     4     6 "),
            std::string::npos)
      << text;
  const std::string json = recorder.PostmortemJson("fields");
  EXPECT_NE(json.find("\"page_reads\":3,\"page_writes\":2,"
                      "\"pages_skipped\":1,\"pages_cow\":4,"
                      "\"pages_hot\":6,"),
            std::string::npos)
      << json;
}

TEST(FlightRecorderTest, RingKeepsOnlyTheMostRecent) {
  FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 20; ++i) {
    recorder.Record(MakeEvent(FlightOp::kQuery, i));
  }
  std::vector<FlightEvent> events = recorder.Events();
  ASSERT_EQ(events.size(), 8u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].seq, 12 + i);
    EXPECT_EQ(events[i].fingerprint, 12 + i);
  }
  EXPECT_EQ(recorder.total_recorded(), 20u);
}

TEST(FlightRecorderTest, DetailTruncatesAndStaysTerminated) {
  FlightEvent event;
  event.SetDetail(std::string(100, 'x'));
  EXPECT_EQ(std::string(event.detail).size(), sizeof(event.detail) - 1);
  event.SetDetail("short");
  EXPECT_STREQ(event.detail, "short");
}

TEST(FlightRecorderTest, FingerprintIsStableAndDiscriminates) {
  const std::vector<uint64_t> set = {3, 17, 99};
  const uint64_t fp = FlightRecorder::Fingerprint(0, set);
  EXPECT_EQ(FlightRecorder::Fingerprint(0, set), fp);
  EXPECT_NE(FlightRecorder::Fingerprint(1, set), fp);
  EXPECT_NE(FlightRecorder::Fingerprint(0, {3, 17, 98}), fp);
  EXPECT_NE(FlightRecorder::Fingerprint(0, {}), fp);
}

TEST(FlightRecorderTest, PostmortemTextNamesOpsAndReason) {
  FlightRecorder recorder(8);
  FlightEvent event = MakeEvent(FlightOp::kCompact, 0);
  event.SetDetail("generation 3");
  recorder.Record(event);
  recorder.Record(MakeEvent(FlightOp::kWalCommit, 0));
  const std::string text = recorder.PostmortemText("simulated crash");
  EXPECT_NE(text.find("simulated crash"), std::string::npos);
  EXPECT_NE(text.find("compact"), std::string::npos);
  EXPECT_NE(text.find("wal_commit"), std::string::npos);
  EXPECT_NE(text.find("generation 3"), std::string::npos);
}

TEST(FlightRecorderTest, PostmortemJsonRoundTripsThroughValidator) {
  FlightRecorder recorder(8);
  for (uint64_t i = 0; i < 10; ++i) {
    FlightEvent event = MakeEvent(FlightOp::kQuery, i);
    // A detail with every character class the escaper must handle.
    event.SetDetail("plan \"q\\x\" \n\t");
    event.status_code = static_cast<int32_t>(i % 3);
    recorder.Record(event);
  }
  const std::string json =
      recorder.PostmortemJson("reason with \"quotes\" and \\ slashes");
  std::string error;
  EXPECT_TRUE(testjson::IsValidJson(json, &error)) << error << "\n" << json;
  EXPECT_NE(json.find("\"events\""), std::string::npos);
  EXPECT_NE(json.find("\"reason\""), std::string::npos);
  // Ring of 8: only the 8 most recent events appear.
  size_t count = 0;
  for (size_t pos = 0; (pos = json.find("\"seq\"", pos)) != std::string::npos;
       ++pos) {
    ++count;
  }
  EXPECT_EQ(count, 8u);
}

TEST(FlightRecorderTest, WritePostmortemProducesBothFiles) {
  FlightRecorder recorder(8);
  recorder.Record(MakeEvent(FlightOp::kFatal, 0));
  const std::string prefix = ::testing::TempDir() + "flightrec_postmortem";
  ASSERT_TRUE(recorder.WritePostmortem(prefix, "io error").ok());
  std::ifstream text_file(prefix + ".txt");
  ASSERT_TRUE(text_file.good());
  std::stringstream text;
  text << text_file.rdbuf();
  EXPECT_NE(text.str().find("io error"), std::string::npos);
  std::ifstream json_file(prefix + ".json");
  ASSERT_TRUE(json_file.good());
  std::stringstream json;
  json << json_file.rdbuf();
  std::string error;
  EXPECT_TRUE(testjson::IsValidJson(json.str(), &error)) << error;
  std::remove((prefix + ".txt").c_str());
  std::remove((prefix + ".json").c_str());
}

// The seqlock contract: concurrent Record/Events must be race-free, readers
// must never observe a torn slot (every returned event is internally
// consistent and in seq order), and no producer increment may be lost.  Run
// under TSan by tools/run_sanitizers.sh telemetry.
//
// Writers start only after both readers have counted themselves in, and each
// reader dumps at least once (do-while), so a loaded machine cannot finish
// every write before a reader first runs.
TEST(FlightRecorderTest, ConcurrentRecordAndDumpStaysConsistent) {
  FlightRecorder recorder(64);
  constexpr int kWriters = 4;
  constexpr int kReaders = 2;
  constexpr uint64_t kPerWriter = 50000;
  std::atomic<int> readers_in{0};
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> threads;
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&recorder, &readers_in, w] {
      while (readers_in.load(std::memory_order_acquire) < kReaders) {
        std::this_thread::yield();
      }
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        FlightEvent event = MakeEvent(
            static_cast<FlightOp>(i % 8), (static_cast<uint64_t>(w) << 32) | i);
        // fingerprint encodes (writer, i); detail mirrors it so a torn slot
        // (payload mixed between two writers) is detectable below.
        event.epoch = event.fingerprint;
        event.wal_lsn = event.fingerprint;
        recorder.Record(event);
      }
    });
  }
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&recorder, &readers_in, &stop, &reads] {
      readers_in.fetch_add(1, std::memory_order_release);
      do {
        std::vector<FlightEvent> events = recorder.Events();
        for (size_t i = 0; i < events.size(); ++i) {
          // Internal consistency: the three fields written from the same
          // fingerprint must agree — a torn slot could not satisfy this.
          ASSERT_EQ(events[i].epoch, events[i].fingerprint);
          ASSERT_EQ(events[i].wal_lsn, events[i].fingerprint);
          if (i > 0) {
            ASSERT_GT(events[i].seq, events[i - 1].seq);
          }
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }
  for (auto& t : threads) t.join();
  stop.store(true, std::memory_order_relaxed);
  for (auto& t : readers) t.join();

  EXPECT_EQ(recorder.total_recorded(), kWriters * kPerWriter);
  EXPECT_GT(reads.load(), 0u);
  std::vector<FlightEvent> final_events = recorder.Events();
  EXPECT_EQ(final_events.size(), recorder.capacity());
  for (size_t i = 1; i < final_events.size(); ++i) {
    EXPECT_GT(final_events[i].seq, final_events[i - 1].seq);
  }
}

}  // namespace
}  // namespace sigsetdb
