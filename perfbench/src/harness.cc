#include "harness.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdarg>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "sig/kernels.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<size_t>(rank)) - 1;
  return sorted[index];
}

void RunReport::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 10) std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

bool RunReport::Check(const sigsetdb::Status& status, const std::string& what) {
  if (status.ok()) return true;
  Fail(what + ": " + status.ToString());
  return false;
}

void RunReport::Set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

namespace {

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  return Format("%.17g", v);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += Format("\\u%04x", c);
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void RunReport::Print(const Args& args) const {
  for (const std::string& note : notes_) std::printf("# %s\n", note.c_str());
  const double error_rate =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  std::printf("%-34s %16.6g %s\n", "error_rate", error_rate, "fraction");
  for (const Metric& m : metrics_) {
    std::printf("%-34s %16.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"workload\": " + JsonString(args.workload) +
                     ", \"seed\": " + std::to_string(args.seed) +
                     ", \"trace\": " + (args.trace ? "1" : "0") +
                     ", \"correct\": " +
                     (failed_ == 0 && attempted_ > 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) +
                     ", \"metrics\": {";
  json += "\"error_rate\": {\"value\": " + JsonNumber(error_rate) +
          ", \"unit\": \"fraction\"}";
  for (const Metric& m : metrics_) {
    json += ", " + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

void SyncFilesystem(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

double PeakRssMiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

// Filesystem type of the mount holding `path` (longest mount-point prefix
// of its real path in /proc/self/mounts).
std::string FilesystemOf(const std::string& path) {
  char resolved[PATH_MAX];
  if (::realpath(path.c_str(), resolved) == nullptr) return "unknown";
  const std::string real = resolved;
  std::ifstream mounts("/proc/self/mounts");
  std::string device, mount_point, type, rest;
  std::string best_type = "unknown";
  size_t best_len = 0;
  while (mounts >> device >> mount_point >> type) {
    std::getline(mounts, rest);
    const bool prefix =
        real.compare(0, mount_point.size(), mount_point) == 0 &&
        (real.size() == mount_point.size() || mount_point == "/" ||
         real[mount_point.size()] == '/');
    if (prefix && mount_point.size() >= best_len) {
      best_len = mount_point.size();
      best_type = type;
    }
  }
  return best_type;
}

}  // namespace

std::string EnvironmentLine(const std::string& data_dir) {
  return Format(
      "env: nproc=%ld cpu=\"%s\" kernels=%s build=%s disk_fs=%s; the disk "
      "workloads' page files (~10-30 MB) are served from the OS page cache, "
      "so their latencies are this machine's, not a storage device's",
      ::sysconf(_SC_NPROCESSORS_ONLN), CpuModel().c_str(),
      sigsetdb::ActiveKernels().name, PERFBENCH_BUILD_TYPE,
      FilesystemOf(data_dir).c_str());
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

}  // namespace perfbench
