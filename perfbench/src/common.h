// Shared plumbing for the secmem benchmark: clocks, latency samples and
// their percentiles, the Zipf sampler, write payloads, the metric table
// of the result line, and host provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return seconds_between(t0, Clock::now());
}
inline std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// Fixed-capacity latency sample (Algorithm R once full), allocated and
/// touched up front so recording never allocates and the process's
/// resident size does not grow with the number of operations completed.
class Reservoir {
 public:
  Reservoir(std::size_t capacity, std::uint64_t seed);
  void add(double v) noexcept;
  /// Retained samples (min(seen, capacity)), appended to `out`.
  void append_to(std::vector<double>& out) const;

 private:
  std::vector<double> buf_;
  std::size_t size_ = 0;
  std::uint64_t seen_ = 0;
  secmem::Xoshiro256 rng_;
};

/// Samples bucketed by window (a short stretch of one phase), each window
/// in a reservoir of its own, so a metric can be taken per window and
/// over the windows the host left calm only (see calm_units).
class WindowSamples {
 public:
  static constexpr std::size_t kDrop = ~std::size_t{0};
  WindowSamples(std::size_t capacity, std::uint64_t seed);
  /// Record `v` in `window`, growing the window list on demand; kDrop
  /// discards the sample.
  void add(std::size_t window, double v);
  /// Allocate windows [0, n) up front, outside any timed loop.
  void reserve(std::size_t n);
  /// Append the retained samples of `window` (if any) to `out`.
  void append(std::size_t window, std::vector<double>& out) const;

 private:
  std::vector<Reservoir> windows_;
  std::size_t capacity_;
  std::uint64_t seed_;
};

/// Percentile `p` in [0, 1] of `v` (sorted in place). Timings come from a
/// clock with 1 ns ticks, so many samples tie; a value tied across ranks
/// [lo, hi) is taken as spread uniformly over [v, v + tick), which keeps
/// the estimate continuous instead of snapping to a whole tick.
double percentile(std::vector<double>& v, double p, double tick = 1.0);
/// Highest percentile with at least ten samples above it, capped at p99
/// (the metric names assume the run is long enough for p99).
double tail_percentile(std::vector<double>& v, double tick = 1.0);
double median(std::vector<double> v);

/// CPU time the hypervisor handed to other guests while this machine's
/// CPUs wanted it ("steal" in /proc/stat), in clock ticks summed over all
/// CPUs; 0 where the kernel does not report it.
std::uint64_t host_steal_ticks();

/// Share of the CPU time the host stole between construction and share(),
/// in [0, 1]. The program under test never sees it.
/// `busy_cpus` is how many CPUs the measured code keeps busy: an idle
/// CPU asks for no time, so the hypervisor steals none from it, and the
/// share is of the busy CPUs' time only.
class StealMeter {
 public:
  explicit StealMeter(unsigned busy_cpus)
      : busy_(busy_cpus), ticks_(host_steal_ticks()), t0_(Clock::now()) {}
  double share() const;

 private:
  unsigned busy_;
  std::uint64_t ticks_;
  Clock::time_point t0_;
};

/// Which of a phase's units (windows, sim repetitions, re-bases) ran
/// calm: those whose stolen share is at most 2%, or at most the phase's
/// lower quartile of stolen shares when fewer are that calm. Steal is
/// measured outside the program, so the choice cannot depend on how fast
/// the program itself ran; on a host that reports no steal every unit is
/// kept.
std::vector<bool> calm_units(const std::vector<double>& stolen);

/// Median of the kept `values` (keep[i] false drops values[i]).
double median_kept(const std::vector<double>& values,
                   const std::vector<bool>& keep);

/// Median over the kept windows of `stat`, taken on each window's
/// retained samples pooled over `parts` (one WindowSamples per client
/// thread). Windows that retained no sample are skipped; 0 when none is
/// left. One disturbed window moves the result by at most one rank.
double window_median(const std::vector<const WindowSamples*>& parts,
                     const std::vector<bool>& keep,
                     double (*stat)(std::vector<double>&));

/// YCSB-style Zipf sampler over [0, n): O(1) per draw after an O(n) zeta
/// sum at construction (Gray et al., "Quickly generating billion-record
/// synthetic databases"). Rank 0 is the most popular item.
class Zipf {
 public:
  Zipf(std::uint64_t n, double theta);
  std::uint64_t next(secmem::Xoshiro256& rng) const noexcept;

 private:
  std::uint64_t n_;
  double theta_, alpha_, zetan_, eta_, half_pow_theta_;
};

/// Pool of random write payloads, generated once per run so the timed
/// loop only copies bytes; each write stamps a sequence number over the
/// first eight bytes so no two writes of one run carry the same data.
class PayloadPool {
 public:
  static constexpr std::size_t kEntries = 4096;
  static constexpr std::size_t kBytes = 128;
  explicit PayloadPool(std::uint64_t seed);
  const std::uint8_t* entry(std::uint32_t i) const noexcept {
    return data_.data() + (i % kEntries) * kBytes;
  }

 private:
  std::vector<std::uint8_t> data_;
};

/// Named metric values in insertion order, printed in the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};
class MetricTable {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  const std::vector<Metric>& all() const noexcept { return rows_; }

 private:
  std::vector<Metric> rows_;
};

/// Peak resident set of this process in MiB.
double peak_rss_mib();
unsigned host_cpus();
/// Client threads of a multi-client workload: one per CPU but one, which
/// is left to the kernel and the rest of the process, so the clients'
/// tails measure the engine rather than the guest's scheduler.
unsigned client_threads();
/// Pins the calling thread to one CPU of those it may run on: client `t`
/// gets the (t + 1)-th, leaving the first to the thread that started the
/// clients. Unpinned, freshly started threads often queue on one CPU
/// until the guest's load balancer spreads them, which on a 4-vCPU VM
/// took up to a second, longer than a measuring window.
void pin_client_thread(unsigned t);
std::string cpu_model();

/// Pass/fail accounting: every operation the benchmark issues is
/// attempted; a non-ok status, wrong bytes or a rejected restore fails.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(bool ok) noexcept {
    ++attempted;
    failed += ok ? 0 : 1;
  }
  void merge(const Tally& o) noexcept {
    attempted += o.attempted;
    failed += o.failed;
  }
};

std::string json_escape(const std::string& s);

}  // namespace perfbench
