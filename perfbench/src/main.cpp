// perfbench: one workload per process.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --ref DIR
//             [--git-sha SHA] [--trace-out PATH]
//   perfbench --emit-golden DIR
//
// Runs in the current directory, which must be an empty scratch directory
// (cache dirs and the daemon socket go there).  Prints a header line, a
// few "#" lines, and last the result object as one JSON line.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>
#include <unistd.h>

#include "workloads.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "perfbench: %s\n", why);
  std::exit(2);
}

std::string header_json(const RunOptions& opt) {
  return "\"workload\": " + json_string(opt.workload) +
         ", \"seed\": " + std::to_string(opt.seed) +
         ", \"seconds\": " + json_number(opt.seconds) +
         ", \"trace\": " + (opt.trace ? "1" : "0") +
         ", \"git_sha\": " + json_string(opt.git_sha) +
         ", \"nproc\": " +
         std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"sweep_threads\": " + std::to_string(kSweepThreads) +
         ", \"eco_threads\": " + std::to_string(kEcoThreads) +
         ", \"daemon_pool_threads\": " + std::to_string(kDaemonPoolThreads) +
         ", \"daemon_lanes\": " + std::to_string(kDaemonLanes) +
         ", \"daemon_connections\": " + std::to_string(kDaemonConnections) +
         ", \"daemon_loop\": \"closed\"" +
         ", \"daemon_repeat_share\": " + json_number(kDaemonRepeatShare) +
         ", \"daemon_limit_ms\": " + json_number(kDaemonLimitMs);
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions opt;
  std::string emit_dir;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opt.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace expects 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--ref") {
      opt.ref_dir = value;
    } else if (flag == "--git-sha") {
      opt.git_sha = value;
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--emit-golden") {
      emit_dir = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  try {
    if (!emit_dir.empty()) {
      emit_golden(emit_dir);
      return 0;
    }
    if (opt.workload != "table2_sweep" && opt.workload != "eco_ssta" &&
        opt.workload != "daemon_mix")
      usage("--workload must be table2_sweep, eco_ssta or daemon_mix");
    if (!have_trace || opt.ref_dir.empty() || !(opt.seconds > 0.0))
      usage("--trace, --ref and a positive --seconds are required");

    const References refs = References::load(opt.ref_dir);
    opt.header = header_json(opt);
    std::printf("# perfbench {%s}\n", opt.header.c_str());
    std::fflush(stdout);
    Tally tally;
    MetricSet metrics;
    if (opt.trace)
      run_traced(opt, refs, tally, metrics);
    else
      run_timed(opt, refs, tally, metrics);
    for (const std::string& why : tally.reasons())
      std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    std::printf("%s\n", metrics.result_json(tally).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: error: %s\n", e.what());
    return 1;
  }
}
