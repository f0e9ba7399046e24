#include "common.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

Reservoir::Reservoir(std::size_t capacity, std::uint64_t seed)
    : buf_(capacity ? capacity : 1, 0.0), rng_(seed) {}

void Reservoir::add(double v) noexcept {
  ++seen_;
  if (size_ < buf_.size()) {
    buf_[size_++] = v;
    return;
  }
  const std::uint64_t j = rng_.next_below(seen_);
  if (j < buf_.size()) buf_[j] = v;
}

void Reservoir::append_to(std::vector<double>& out) const {
  out.insert(out.end(), buf_.begin(),
             buf_.begin() + static_cast<std::ptrdiff_t>(size_));
}

WindowSamples::WindowSamples(std::size_t capacity, std::uint64_t seed)
    : capacity_(capacity), seed_(seed) {}

void WindowSamples::reserve(std::size_t n) {
  while (windows_.size() < n)
    windows_.emplace_back(capacity_, seed_ + windows_.size());
}

void WindowSamples::add(std::size_t window, double v) {
  if (window == kDrop) return;
  reserve(window + 1);
  windows_[window].add(v);
}

void WindowSamples::append(std::size_t window,
                           std::vector<double>& out) const {
  if (window < windows_.size()) windows_[window].append_to(out);
}

std::uint64_t host_steal_ticks() {
  // cpu  user nice system idle iowait irq softirq steal ...
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t field[8] = {};
  in >> cpu;
  for (std::uint64_t& f : field) in >> f;
  return in && cpu == "cpu" ? field[7] : 0;
}

double StealMeter::share() const {
  static const auto ticks_per_s = static_cast<double>(sysconf(_SC_CLK_TCK));
  const double span =
      seconds_since(t0_) * ticks_per_s * std::max(1u, busy_);
  const auto stolen = static_cast<double>(host_steal_ticks() - ticks_);
  return span > 0 ? std::min(1.0, stolen / span) : 0.0;
}

std::vector<bool> calm_units(const std::vector<double>& stolen) {
  constexpr double kCalmShare = 0.02;
  std::vector<bool> keep(stolen.size(), true);
  if (stolen.empty()) return keep;
  std::vector<double> sorted = stolen;
  const double limit = std::max(kCalmShare, percentile(sorted, 0.25, 0));
  for (std::size_t i = 0; i < stolen.size(); ++i) keep[i] = stolen[i] <= limit;
  return keep;
}

double median_kept(const std::vector<double>& values,
                   const std::vector<bool>& keep) {
  std::vector<double> kept;
  for (std::size_t i = 0; i < values.size(); ++i)
    if (i < keep.size() && keep[i]) kept.push_back(values[i]);
  return median(std::move(kept));
}

double window_median(const std::vector<const WindowSamples*>& parts,
                     const std::vector<bool>& keep,
                     double (*stat)(std::vector<double>&)) {
  std::vector<double> per_window, samples;
  for (std::size_t w = 0; w < keep.size(); ++w) {
    if (!keep[w]) continue;
    samples.clear();
    for (const WindowSamples* p : parts) p->append(w, samples);
    if (!samples.empty()) per_window.push_back(stat(samples));
  }
  return median(std::move(per_window));
}

double percentile(std::vector<double>& v, double p, double tick) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = p * static_cast<double>(v.size() - 1);
  const auto i = static_cast<std::size_t>(rank);
  if (tick <= 0.0) {
    const double frac = rank - static_cast<double>(i);
    const double hi = v[std::min(i + 1, v.size() - 1)];
    return v[i] + frac * (hi - v[i]);
  }
  const double x = v[i];
  const auto lo = std::lower_bound(v.begin(), v.end(), x) - v.begin();
  const auto hi = std::upper_bound(v.begin(), v.end(), x) - v.begin();
  return x + tick * (rank - static_cast<double>(lo) + 0.5) /
                 static_cast<double>(hi - lo);
}

double tail_percentile(std::vector<double>& v, double tick) {
  if (v.empty()) return 0.0;
  // p such that at least ten samples lie above it.
  const double n = static_cast<double>(v.size());
  const double p = std::clamp((n - 10.0) / n, 0.5, 0.99);
  return percentile(v, p, tick);
}

double median(std::vector<double> v) { return percentile(v, 0.5, 0.0); }

Zipf::Zipf(std::uint64_t n, double theta) : n_(n), theta_(theta) {
  if (n < 2) throw std::invalid_argument("Zipf: need n >= 2");
  double zeta = 0;
  for (std::uint64_t i = 1; i <= n; ++i)
    zeta += 1.0 / std::pow(static_cast<double>(i), theta);
  const double zeta2 = 1.0 + 1.0 / std::pow(2.0, theta);
  zetan_ = zeta;
  alpha_ = 1.0 / (1.0 - theta);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
         (1.0 - zeta2 / zeta);
  half_pow_theta_ = 1.0 + std::pow(0.5, theta);
}

std::uint64_t Zipf::next(secmem::Xoshiro256& rng) const noexcept {
  const double u = rng.next_double();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < half_pow_theta_) return 1;
  const auto r = static_cast<std::uint64_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return std::min(r, n_ - 1);
}

PayloadPool::PayloadPool(std::uint64_t seed) : data_(kEntries * kBytes) {
  secmem::Xoshiro256 rng(seed ^ 0x9a71'0adULL);
  for (std::size_t i = 0; i < data_.size(); i += 8) {
    const std::uint64_t w = rng.next();
    for (unsigned b = 0; b < 8; ++b)
      data_[i + b] = static_cast<std::uint8_t>(w >> (8 * b));
  }
}

void MetricTable::set(const std::string& name, double value,
                      const std::string& unit) {
  for (Metric& m : rows_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  rows_.push_back({name, value, unit});
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned host_cpus() {
  // What `nproc` reports: the CPUs this process may run on.
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return 1;
}

unsigned client_threads() { return std::max(1u, host_cpus() - 1); }

void pin_client_thread(unsigned t) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[(t + 1) % cpus.size()], &one);
  // Best effort: an unpinned client still measures correctly, only noisier.
  static_cast<void>(pthread_setaffinity_np(pthread_self(), sizeof(one), &one));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string m = line.substr(colon + 1);
        m.erase(0, m.find_first_not_of(' '));
        return m;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace perfbench
