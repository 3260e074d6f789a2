// perfbench: seeded wall-clock benchmark of the sigsetdb engine.
//
//   perfbench --workload paper_mem|paper_disk|student_churn --seed N
//             --seconds S --trace 0|1 [--replay-seed M] [--work-dir DIR]
//             [--spans-dir DIR]
//
// Prints notes and every metric with its unit, then one JSON object as the
// last stdout line.  Exits 1 when any operation failed or answered wrong,
// 2 on bad arguments, 3 when set-up failed.  perfbench/run.py builds this
// binary and adapts its output to BENCHMARK.json.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "paper_mem|paper_disk|student_churn --seed N --seconds S "
               "--trace 0|1 [--replay-seed M] [--work-dir DIR] "
               "[--spans-dir DIR]\n",
               why);
  std::exit(2);
}

uint64_t ParseU64(const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') Usage("expected a whole number");
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.work_dir = ".bench_build/perfbench-work";
  args.spans_dir = ".bench_build/perfbench-traces";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage("missing value");
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = ParseU64(value);
    } else if (flag == "--seconds") {
      args.seconds = static_cast<double>(ParseU64(value));
    } else if (flag == "--trace") {
      args.trace = ParseU64(value) != 0;
    } else if (flag == "--replay-seed") {
      args.has_replay_seed = true;
      args.replay_seed = ParseU64(value);
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--spans-dir") {
      args.spans_dir = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.seconds < 1) Usage("--seconds must be at least 1");
  for (const std::string& dir : {args.work_dir, args.spans_dir}) {
    std::error_code error;
    std::filesystem::create_directories(dir, error);
    if (error) perfbench::Die("cannot create directory " + dir);
  }

  perfbench::RunReport report;
  if (args.workload == "paper_mem") {
    perfbench::RunPaperWorkload(args, /*disk=*/false, &report);
  } else if (args.workload == "paper_disk") {
    perfbench::RunPaperWorkload(args, /*disk=*/true, &report);
  } else if (args.workload == "student_churn") {
    perfbench::RunStudentChurn(args, &report);
  } else {
    Usage("unknown workload");
  }
  report.Print(args);
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
