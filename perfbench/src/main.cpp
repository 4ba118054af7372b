// uts_perfbench: end-to-end and per-layer benchmark of the uts library.
//
//   uts_perfbench --workload serve-knn|offline-match|paged-sigma-sweep
//                 --seed N --seconds S --trace 0|1 [--smoke]
//                 [--work-dir DIR]
//
// Prints a human-readable report (lines starting with '#') and, as the last
// line of stdout, one JSON object {correct, attempted, failed, metrics}.
// With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones from the traced replay. Exit code 0 only when the run
// finished; a failed correctness gate still prints its line with
// "correct": false.
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "common.hpp"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "uts_perfbench: %s\nusage: uts_perfbench --workload "
               "serve-knn|offline-match|paged-sigma-sweep --seed N "
               "--seconds S --trace 0|1 [--smoke] [--work-dir DIR]\n",
               message);
  return 2;
}

bool ParseUnsigned(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno != 0 || end == text || *end != '\0' || text[0] == '-') {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--serve-child") == 0) {
    return perfbench::ServeChild(argc, argv);
  }
  // Leave single-threaded mode before measuring anything: the server and
  // the engines run multi-threaded, and libstdc++ drops atomic reference
  // counting in a process that never started a thread, which would make
  // in-process reference timings cheaper than the same calls in a server.
  std::thread([] {}).join();
  perfbench::Args args;
  args.self_path = argv[0];
  args.work_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &number)) return Usage("bad --seed");
      args.seed = number;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 600) {
        return Usage("bad --seconds (1..600)");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (!ParseUnsigned(value, &number) || number > 1) {
        return Usage("bad --trace (0|1)");
      }
      args.trace = number == 1;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }

  perfbench::RunResult result;
  if (args.workload == "serve-knn") {
    result = perfbench::RunServeKnn(args);
  } else if (args.workload == "offline-match") {
    result = perfbench::RunOfflineMatch(args);
  } else if (args.workload == "paged-sigma-sweep") {
    result = perfbench::RunPagedSigmaSweep(args);
  } else {
    return Usage("unknown --workload");
  }

  // A metric that is not a finite number is a failed measurement: the run
  // is not correct, and the value prints as null.
  for (const auto& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "uts_perfbench: %s is not finite\n",
                   m.name.c_str());
      result.correct = false;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const auto& m = result.metrics[i];
    char value[32] = "null";
    if (std::isfinite(m.value)) {
      std::snprintf(value, sizeof(value), "%.17g", m.value);
    }
    std::printf("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), value, m.unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return 0;
}
