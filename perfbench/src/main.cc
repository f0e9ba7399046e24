// secmem_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--commit ID]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics with --trace 0, the per-layer ladder with --trace 1. The line
// before it carries the run's provenance. Exit code 0 once a result is
// printed (failed operations are reported in it), 2 on bad arguments.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "crypto/crypto_backend.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "[--commit ID]\nworkloads:",
               argv0);
  for (const std::string& w : perfbench::workload_names())
    std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end && *end == '\0' && end != s;
}

}  // namespace

int main(int argc, char** argv) {
  using perfbench::json_escape;
  perfbench::Options opts;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) return usage(argv[0]);
    const char* v = argv[++i];
    std::uint64_t n = 0;
    if (a == "--workload") {
      opts.workload = v;
      have_workload = true;
    } else if (a == "--seed" && parse_u64(v, n)) {
      opts.seed = n;
    } else if (a == "--seconds") {
      char* end = nullptr;
      opts.seconds = std::strtod(v, &end);
      if (!end || *end != '\0' || !(opts.seconds > 0)) return usage(argv[0]);
    } else if (a == "--trace" && parse_u64(v, n) && n <= 1) {
      opts.trace = n == 1;
    } else if (a == "--commit") {
      commit = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (!have_workload) return usage(argv[0]);

  perfbench::RunResult result;
  try {
    result = perfbench::run_workload(opts);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  std::printf(
      "{\"provenance\": {\"commit\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
      "\"build_type\": \"%s\", \"seed\": %llu, \"crypto_backend\": \"%s\", "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}}\n",
      json_escape(commit).c_str(), perfbench::host_cpus(),
      json_escape(perfbench::cpu_model()).c_str(), PERFBENCH_BUILD_TYPE,
      static_cast<unsigned long long>(opts.seed),
      secmem::crypto_backend_summary(), json_escape(opts.workload).c_str(),
      opts.seconds, opts.trace ? 1 : 0);
  std::string metrics;
  for (const perfbench::Metric& m : result.metrics.all()) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
               m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      result.tally.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(result.tally.attempted),
      static_cast<unsigned long long>(result.tally.failed), metrics.c_str());
  return 0;
}
