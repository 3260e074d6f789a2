#include "tracing.h"

#include <cstdio>


namespace perfbench {

const char* StorageClassName(int cls) {
  switch (cls) {
    case kObjects:
      return "objects";
    case kSig:
      return "sig";
    case kNix:
      return "nix";
    case kWal:
      return "wal";
    default:
      return "meta";
  }
}

StorageClass ClassifyFile(const std::string& file_name) {
  const auto has = [&](const char* part) {
    return file_name.find(part) != std::string::npos;
  };
  if (has(".wal")) return kWal;
  if (has(".nix")) return kNix;
  if (has(".objects")) return kObjects;
  if (has(".ssf") || has(".bssf") || has(".sig") || has(".slices")) {
    return kSig;
  }
  return kMeta;
}

IoTotals IoTotals::operator-(const IoTotals& other) const {
  IoTotals out;
  for (int c = 0; c < kNumClasses; ++c) {
    for (int o = 0; o < kNumOps; ++o) {
      out.ns[c][o] = ns[c][o] - other.ns[c][o];
      out.calls[c][o] = calls[c][o] - other.calls[c][o];
    }
  }
  return out;
}

IoTotals& IoTotals::operator+=(const IoTotals& other) {
  for (int c = 0; c < kNumClasses; ++c) {
    for (int o = 0; o < kNumOps; ++o) {
      ns[c][o] += other.ns[c][o];
      calls[c][o] += other.calls[c][o];
    }
  }
  return *this;
}

int64_t IoTotals::TotalNs() const {
  int64_t sum = 0;
  for (int c = 0; c < kNumClasses; ++c) sum += ClassNs(c);
  return sum;
}

int64_t IoTotals::ClassNs(int cls) const {
  int64_t sum = 0;
  for (int o = 0; o < kNumOps; ++o) sum += ns[cls][o];
  return sum;
}

sigsetdb::StatusOr<sigsetdb::PageId> TimingPageFile::Allocate() {
  const int64_t start = NowNs();
  sigsetdb::StatusOr<sigsetdb::PageId> id = base_->Allocate();
  clock_->Record(cls_, kWrite, start, NowNs());
  return id;
}

sigsetdb::Status TimingPageFile::Read(sigsetdb::PageId id,
                                      sigsetdb::Page* out,
                                      sigsetdb::IoStats* io) {
  const int64_t start = NowNs();
  sigsetdb::Status status = base_->Read(id, out, io);
  clock_->Record(cls_, kRead, start, NowNs());
  return status;
}

sigsetdb::Status TimingPageFile::Write(sigsetdb::PageId id,
                                       const sigsetdb::Page& page,
                                       sigsetdb::IoStats* io) {
  const int64_t start = NowNs();
  sigsetdb::Status status = base_->Write(id, page, io);
  clock_->Record(cls_, kWrite, start, NowNs());
  return status;
}

sigsetdb::Status TimingPageFile::Sync() {
  const int64_t start = NowNs();
  sigsetdb::Status status = base_->Sync();
  clock_->Record(cls_, kSync, start, NowNs());
  return status;
}

void InstallTiming(sigsetdb::StorageManager* storage, IoClock* clock) {
  storage->SetInterceptor(
      [clock](std::unique_ptr<sigsetdb::PageFile> file)
          -> std::unique_ptr<sigsetdb::PageFile> {
        return std::make_unique<TimingPageFile>(std::move(file), clock);
      });
}

Tracer::Closed Tracer::End(const Mark& mark, uint64_t op, const char* name) {
  Closed closed{NowNs() - mark.start_ns, clock_->totals() - mark.io};
  layers_.top_level += closed.dur_ns;
  layers_.io += closed.io;
  spans_.push_back(
      {op, name, mark.start_ns, closed.dur_ns, {}, closed.io});
  return closed;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (const Span& span : spans_) {
    std::fprintf(out,
                 "{\"op\": %llu, \"name\": \"%s\", \"start_us\": %.3f, "
                 "\"dur_us\": %.3f, \"stages\": [",
                 static_cast<unsigned long long>(span.op), span.name,
                 static_cast<double>(span.start_ns - origin) / 1e3,
                 static_cast<double>(span.dur_ns) / 1e3);
    for (size_t i = 0; i < span.stages.size(); ++i) {
      std::fprintf(out, "%s{\"name\": \"%s\", \"dur_us\": %.3f}",
                   i == 0 ? "" : ", ", span.stages[i].name.c_str(),
                   static_cast<double>(span.stages[i].dur_ns) / 1e3);
    }
    std::fprintf(out, "], \"storage\": [");
    bool first = true;
    static const char* kOpNames[kNumOps] = {"read", "write", "sync"};
    for (int c = 0; c < kNumClasses; ++c) {
      for (int o = 0; o < kNumOps; ++o) {
        if (span.io.calls[c][o] == 0) continue;
        std::fprintf(out,
                     "%s{\"class\": \"%s\", \"op\": \"%s\", \"calls\": %llu, "
                     "\"us\": %.3f}",
                     first ? "" : ", ", StorageClassName(c), kOpNames[o],
                     static_cast<unsigned long long>(span.io.calls[c][o]),
                     static_cast<double>(span.io.ns[c][o]) / 1e3);
        first = false;
      }
    }
    std::fprintf(out, "]}\n");
  }
  return std::fclose(out) == 0;
}

}  // namespace perfbench
