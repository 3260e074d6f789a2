#include "obs/flight_recorder.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <thread>
#include <utility>

#include "obs/json.h"

#ifndef _WIN32
#include <unistd.h>
#endif

namespace sigsetdb {

const char* FlightOpName(FlightOp op) {
  switch (op) {
    case FlightOp::kInsert:
      return "insert";
    case FlightOp::kDelete:
      return "delete";
    case FlightOp::kBatch:
      return "batch";
    case FlightOp::kCompact:
      return "compact";
    case FlightOp::kCheckpoint:
      return "checkpoint";
    case FlightOp::kQuery:
      return "query";
    case FlightOp::kSnapshotQuery:
      return "snapshot_query";
    case FlightOp::kJoin:
      return "join";
    case FlightOp::kWalCommit:
      return "wal_commit";
    case FlightOp::kDriftWarning:
      return "drift_warning";
    case FlightOp::kFatal:
      return "fatal";
  }
  return "unknown";
}

void FlightEvent::SetDetail(const std::string& s) {
  const size_t n = std::min(s.size(), sizeof(detail) - 1);
  std::memcpy(detail, s.data(), n);
  detail[n] = '\0';
}

void FlightEvent::SetDelta(const IoStats& delta) {
  page_reads = static_cast<uint32_t>(delta.reads());
  page_writes = static_cast<uint32_t>(delta.writes());
  pages_skipped = static_cast<uint32_t>(delta.skips());
  pages_cow = static_cast<uint32_t>(delta.cows());
  pages_hot = static_cast<uint32_t>(delta.hots());
}

namespace {
size_t RoundUpPow2(size_t n) {
  size_t p = 8;
  while (p < n) p <<= 1;
  return p;
}
}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : slots_(new Slot[RoundUpPow2(capacity)]),
      mask_(RoundUpPow2(capacity) - 1),
      start_time_(std::chrono::steady_clock::now()) {}

void FlightRecorder::Record(FlightEvent event) {
  const uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
  event.seq = ticket;
  event.micros = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  uint64_t words[kWords] = {};
  std::memcpy(words, &event, sizeof(event));
  Slot& slot = slots_[ticket & mask_];
  const uint64_t complete = (ticket + 1) << 1;
  uint64_t state = slot.state.load(std::memory_order_relaxed);
  while (true) {
    if (state > complete) return;  // a later ticket holds or claims it
    if (state & 1) {
      // An earlier ticket is still storing its words.
      std::this_thread::yield();
      state = slot.state.load(std::memory_order_relaxed);
      continue;
    }
    // Acquire: an earlier writer's words come before ours.
    if (slot.state.compare_exchange_weak(state, complete | 1,
                                         std::memory_order_acquire,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
  // Seqlock writer: the claim is ordered before the payload stores, so a
  // reader that copies any of these words sees the state move off the
  // frame it started from and drops it.
  std::atomic_thread_fence(std::memory_order_release);
  for (size_t i = 0; i < kWords; ++i) {
    slot.words[i].store(words[i], std::memory_order_relaxed);
  }
  slot.state.store(complete, std::memory_order_release);
}

std::vector<FlightEvent> FlightRecorder::Events() const {
  const uint64_t n = next_.load(std::memory_order_acquire);
  const uint64_t cap = mask_ + 1;
  const uint64_t first = n > cap ? n - cap : 0;
  std::vector<FlightEvent> out;
  out.reserve(static_cast<size_t>(n - first));
  for (uint64_t t = first; t < n; ++t) {
    const Slot& slot = slots_[t & mask_];
    // Accept only a frame complete at this ticket before and after the
    // copy: any writer that claims the slot in between moves its state to
    // a later ticket, never back.
    const uint64_t complete = (t + 1) << 1;
    if (slot.state.load(std::memory_order_acquire) != complete) continue;
    uint64_t words[kWords];
    for (size_t i = 0; i < kWords; ++i) {
      words[i] = slot.words[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (slot.state.load(std::memory_order_relaxed) != complete) continue;
    FlightEvent event;
    std::memcpy(&event, words, sizeof(event));
    out.push_back(event);
  }
  return out;
}

std::string FlightRecorder::PostmortemText(const std::string& reason) const {
  std::vector<FlightEvent> events = Events();
  std::string out;
  out += "=== sigsetdb flight-recorder postmortem ===\n";
  out += "reason: " + reason + "\n";
  out += "events: " + std::to_string(events.size()) + " of " +
         std::to_string(total_recorded()) + " recorded (ring capacity " +
         std::to_string(capacity()) + ")\n";
  out +=
      "  seq        t_us op             r     w  skip   cow   hot      lsn"
      " epoch status detail\n";
  char line[256];
  for (const FlightEvent& e : events) {
    std::snprintf(line, sizeof(line),
                  "%5llu %11llu %-14s %5u %5u %5u %5u %5u %8llu %5llu %6d"
                  " %s\n",
                  static_cast<unsigned long long>(e.seq),
                  static_cast<unsigned long long>(e.micros), FlightOpName(e.op),
                  e.page_reads, e.page_writes, e.pages_skipped, e.pages_cow,
                  e.pages_hot, static_cast<unsigned long long>(e.wal_lsn),
                  static_cast<unsigned long long>(e.epoch), e.status_code,
                  e.detail);
    out += line;
  }
  return out;
}

std::string FlightRecorder::PostmortemJson(const std::string& reason) const {
  std::vector<FlightEvent> events = Events();
  JsonWriter w;
  w.BeginObject();
  w.Field("reason", reason);
  w.Field("total_recorded", total_recorded());
  w.Field("capacity", static_cast<uint64_t>(capacity()));
  w.Key("events");
  w.BeginArray();
  for (const FlightEvent& e : events) {
    w.BeginObject();
    w.Field("seq", e.seq);
    w.Field("t_us", e.micros);
    w.Field("op", FlightOpName(e.op));
    w.Field("status_code", static_cast<int64_t>(e.status_code));
    w.Field("fingerprint", e.fingerprint);
    w.Field("epoch", e.epoch);
    w.Field("wal_lsn", e.wal_lsn);
    w.Field("page_reads", static_cast<uint64_t>(e.page_reads));
    w.Field("page_writes", static_cast<uint64_t>(e.page_writes));
    w.Field("pages_skipped", static_cast<uint64_t>(e.pages_skipped));
    w.Field("pages_cow", static_cast<uint64_t>(e.pages_cow));
    w.Field("pages_hot", static_cast<uint64_t>(e.pages_hot));
    w.Field("detail", std::string(e.detail));
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return w.str();
}

Status FlightRecorder::WritePostmortem(const std::string& path_prefix,
                                       const std::string& reason) const {
  const std::string text = PostmortemText(reason);
  const std::string json = PostmortemJson(reason);
  for (const auto& [suffix, body] :
       {std::pair<const char*, const std::string*>{".txt", &text},
        std::pair<const char*, const std::string*>{".json", &json}}) {
    const std::string path = path_prefix + suffix;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      return Status::IoError("cannot open postmortem file " + path);
    }
    const size_t written = std::fwrite(body->data(), 1, body->size(), f);
    const int closed = std::fclose(f);
    if (written != body->size() || closed != 0) {
      return Status::IoError("short write to postmortem file " + path);
    }
  }
  return Status::OK();
}

uint64_t FlightRecorder::Fingerprint(int kind,
                                     const std::vector<uint64_t>& set) {
  // FNV-1a over the kind tag and the (normalized) element sequence.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(kind));
  for (uint64_t e : set) mix(e);
  return h;
}

namespace {

std::atomic<FlightRecorder*> g_signal_recorder{nullptr};

#ifndef _WIN32
void SignalPostmortem(int signo) {
  FlightRecorder* recorder =
      g_signal_recorder.load(std::memory_order_acquire);
  if (recorder != nullptr) {
    // Best effort: snprintf/write only, no allocation beyond the events
    // copy.  A crash handler that itself crashes just re-raises sooner.
    char head[128];
    int n = std::snprintf(head, sizeof(head),
                          "\n=== sigsetdb postmortem (signal %d) ===\n",
                          signo);
    if (n > 0) (void)!write(STDERR_FILENO, head, static_cast<size_t>(n));
    for (const FlightEvent& e : recorder->Events()) {
      char line[192];
      n = std::snprintf(line, sizeof(line),
                        "%llu %s status=%d lsn=%llu epoch=%llu r=%u w=%u %s\n",
                        static_cast<unsigned long long>(e.seq),
                        FlightOpName(e.op), e.status_code,
                        static_cast<unsigned long long>(e.wal_lsn),
                        static_cast<unsigned long long>(e.epoch),
                        e.page_reads, e.page_writes, e.detail);
      if (n > 0) (void)!write(STDERR_FILENO, line, static_cast<size_t>(n));
    }
  }
  std::signal(signo, SIG_DFL);
  std::raise(signo);
}
#endif

}  // namespace

void FlightRecorder::InstallSignalHandler(FlightRecorder* recorder) {
  g_signal_recorder.store(recorder, std::memory_order_release);
#ifndef _WIN32
  for (int signo : {SIGSEGV, SIGBUS, SIGABRT}) {
    std::signal(signo, recorder != nullptr ? SignalPostmortem : SIG_DFL);
  }
#endif
}

}  // namespace sigsetdb
