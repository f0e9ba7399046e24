// Self-test of the benchmark's oracle: injected faults the engine must
// refuse are counted as failed operations instead of passing silently,
// the same short runs without injection fail nothing, and the metrics
// that depend on the seed only repeat exactly across runs of different
// lengths.
//
//   perfbench_selftest        (ctest -R perfbench_selftest in the build)
#include <cstdio>
#include <string>

#include "workloads.h"

namespace {

int failures = 0;

void check(bool cond, const std::string& what) {
  std::printf("%s: %s\n", cond ? "ok  " : "FAIL", what.c_str());
  if (!cond) ++failures;
}

perfbench::RunResult run(const std::string& workload, unsigned flip_bits,
                         bool tamper, double seconds = 1.0) {
  perfbench::Options o;
  o.workload = workload;
  o.seed = 7;
  o.seconds = seconds;
  o.flip_bits = flip_bits;
  o.tamper_delta = tamper;
  return perfbench::run_workload(o);
}

double metric(const perfbench::RunResult& r, const std::string& name) {
  for (const perfbench::Metric& m : r.metrics.all())
    if (m.name == name) return m.value;
  return -1;
}

}  // namespace

int main() {
  {
    const auto r = run("kv-zipf", 1, false);
    check(r.tally.attempted > 0 && r.tally.failed == 0,
          "kv-zipf clean run fails nothing");
  }
  {
    // Three flipped bits exceed flip-and-check's two-bit reach: every
    // corrected-read op must come back refused and be counted.
    const auto r = run("kv-zipf", 3, false);
    check(r.tally.failed > 0, "kv-zipf 3-bit flip counted as failed (" +
                                  std::to_string(r.tally.failed) + ")");
  }
  {
    const auto r = run("checkpoint", 1, false);
    check(r.tally.attempted > 0 && r.tally.failed == 0,
          "checkpoint clean run fails nothing");
  }
  {
    const auto r = run("checkpoint", 1, true);
    check(r.tally.failed > 0, "checkpoint tampered delta counted as failed (" +
                                  std::to_string(r.tally.failed) + ")");
  }
  for (const char* workload : {"kv-zipf", "checkpoint"}) {
    // Runs of different lengths complete different numbers of intervals;
    // the deterministic metrics must not notice.
    const auto a = run(workload, 1, false, 1.0);
    const auto b = run(workload, 1, false, 2.5);
    for (const char* name : {"delta_bytes_per_dirty_byte", "sim_ipc_norm"}) {
      const double x = metric(a, name), y = metric(b, name);
      check(x > 0 && x == y, std::string(workload) + " " + name +
                                 " repeats exactly (" + std::to_string(x) +
                                 " vs " + std::to_string(y) + ")");
    }
  }
  std::printf("%s\n", failures ? "SELFTEST FAILED" : "selftest passed");
  return failures ? 1 : 0;
}
