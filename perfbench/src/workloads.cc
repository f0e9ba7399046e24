#include "workloads.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <istream>
#include <ostream>
#include <numeric>
#include <stdexcept>
#include <streambuf>
#include <thread>

#include "sim/system_sim.h"
#include "sim/workload.h"

namespace perfbench {

using secmem::BlockWrite;
using secmem::DataBlock;
using secmem::ReadResult;
using secmem::ScrubStatus;
using secmem::SecureMemory;
using secmem::SecureMemoryLike;
using secmem::ShardedSecureMemory;
using secmem::Status;
using secmem::Xoshiro256;

namespace {

constexpr std::uint64_t kMiB = 1024 * 1024;
constexpr std::size_t kStreamOps = std::size_t{1} << 19;  ///< per thread
constexpr std::uint64_t kCorrectEvery = 1000;  ///< one corrected read per
constexpr std::size_t kBatch = 256;            ///< write_blocks batch
constexpr unsigned kSampleReads = 64;          ///< replica reads per delta
constexpr unsigned kCorrectedPerInterval = 4;  ///< checkpoint's own client
constexpr std::uint64_t kSimRefsPerCore = 20000;
constexpr unsigned kSetupReps = 5;
/// delta_bytes_per_dirty_byte is taken over this many delta intervals, run
/// before the timed rounds, so it depends on the seed only.
constexpr unsigned kMeteredDeltas = 30;
/// The phases alternate in rounds of about kRoundSeconds; the client and
/// checkpoint slices of a round are cut into windows of about
/// kClientWindowSeconds and kCkptWindowSeconds (the latter long enough to
/// hold a p99 of the loop's own client ops). A timing metric is taken per
/// window, then as the median over the windows the host left calm
/// (calm_units), and no other (README.md: why).
constexpr double kRoundSeconds = 1.0;
constexpr double kClientWindowSeconds = 0.1;
constexpr double kCkptWindowSeconds = 0.25;
/// Per-window reservoir sizes.
constexpr std::size_t kReadSamples = 2048;
constexpr std::size_t kWriteSamples = 1024;
constexpr std::size_t kCorrectedSamples = 64;
constexpr std::size_t kDeltaSamples = 256;

/// Calls `window(s)` with windows of about `window_s` until `seconds` have
/// passed. A window may overrun (a re-base inside it), and the slice then
/// holds fewer windows, not more time.
template <typename Fn>
void run_windows(double seconds, double window_s, Fn&& window) {
  const auto start = Clock::now();
  for (double left = seconds; left > 0;
       left = seconds - seconds_since(start))
    window(left < 1.5 * window_s ? left : window_s);
}

// name, sharded, shards, bytes, multi-client, byte writes,
// client / checkpoint / sim shares of the run, re-base cadence, parsec sim.
const Spec kSpecs[] = {
    {"kv-zipf", false, 1, 32 * kMiB, false, false, 0.50, 0.30, 0.20, 32,
     false},
    {"uniform-mt", true, 8, 64 * kMiB, true, true, 0.50, 0.30, 0.20, 32,
     false},
    {"checkpoint", true, 8, 32 * kMiB, false, false, 0.0, 0.85, 0.15, 32,
     false},
    {"fig8-sim", false, 1, 32 * kMiB, false, false, 0.25, 0.25, 0.50, 32,
     true},
};

const char* const kFig8Apps[] = {"canneal", "facesim", "freqmine"};

// ---------------------------------------------------------------------
// Spans: the traced run records one per call into a layer, from these
// files, as per-kind counts and busy time, summarized on stderr when the
// run ends.
// ---------------------------------------------------------------------
enum class SpanKind : std::uint8_t {
  kRead, kWrite, kCorrect, kScrub, kWriteBatch, kSave, kSaveDelta,
  kRestore, kVerify, kSim, kCount_
};
constexpr auto kSpanKinds = static_cast<std::size_t>(SpanKind::kCount_);
const char* const kSpanNames[kSpanKinds] = {
    "read_block", "write",      "corrected_read", "scrub_block",
    "write_blocks", "save",     "save_delta",     "restore",
    "verify_region", "sim_run"};

class SpanLog {
 public:
  void add(SpanKind kind, Clock::time_point a, Clock::time_point b) noexcept {
    const auto k = static_cast<std::size_t>(kind);
    ++count_[k];
    total_ns_[k] += ns_between(a, b);
  }
  void merge_into(std::array<std::uint64_t, kSpanKinds>& count,
                  std::array<std::uint64_t, kSpanKinds>& total) const {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      count[k] += count_[k];
      total[k] += total_ns_[k];
    }
  }

 private:
  std::array<std::uint64_t, kSpanKinds> count_{}, total_ns_{};
};

void add_span(SpanLog* log, SpanKind kind, Clock::time_point a,
              Clock::time_point b) {
  if (log) log->add(kind, a, b);
}

void print_span_summary(const std::vector<const SpanLog*>& logs) {
  std::array<std::uint64_t, kSpanKinds> count{}, total{};
  for (const SpanLog* l : logs) l->merge_into(count, total);
  std::fprintf(stderr, "spans (benchmark-side, per layer call):\n");
  for (std::size_t k = 0; k < count.size(); ++k) {
    if (count[k] == 0) continue;
    std::fprintf(stderr, "  %-15s n=%-10llu mean=%.1f ns\n", kSpanNames[k],
                 static_cast<unsigned long long>(count[k]),
                 static_cast<double>(total[k]) /
                     static_cast<double>(count[k]));
  }
}

// ---------------------------------------------------------------------
// Engine helpers.
// ---------------------------------------------------------------------
class MemSource final : public std::streambuf {
 public:
  explicit MemSource(const std::vector<std::byte>& image) {
    char* p = const_cast<char*>(reinterpret_cast<const char*>(image.data()));
    setg(p, p, p + image.size());
  }
};

class VectorSink final : public std::streambuf {
 public:
  explicit VectorSink(std::vector<std::byte>& out) : out_(out) { out_.clear(); }

 protected:
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const auto* p = reinterpret_cast<const std::byte*>(s);
    out_.insert(out_.end(), p, p + n);
    return n;
  }
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof()))
      return traits_type::not_eof(ch);
    out_.push_back(static_cast<std::byte>(ch));
    return ch;
  }

 private:
  std::vector<std::byte>& out_;
};

std::uint64_t granule_blocks_of(SecureMemoryLike& mem) {
  if (auto* s = dynamic_cast<ShardedSecureMemory*>(&mem))
    return s->granule_blocks();
  return static_cast<SecureMemory&>(mem).delta_granule_blocks();
}

std::uint64_t dirty_granules_of(SecureMemoryLike& mem) {
  if (auto* s = dynamic_cast<ShardedSecureMemory*>(&mem))
    return s->dirty_granules();
  return static_cast<SecureMemory&>(mem).dirty_granules();
}

void stamp_block(DataBlock& b, const PayloadPool& pool, std::uint32_t idx,
                 std::uint64_t stamp) {
  std::memcpy(b.data(), pool.entry(idx), b.size());
  std::memcpy(b.data(), &stamp, sizeof(stamp));
}

bool matches(const ReadResult& r, Status want, const std::uint8_t* shadow) {
  return r.status == want && std::memcmp(r.data.data(), shadow, 64) == 0;
}

std::unique_ptr<SecureMemoryLike> make_region(const Spec& spec,
                                              std::uint64_t bytes) {
  secmem::SecureMemoryConfig cfg;
  cfg.size_bytes = bytes;
  if (spec.sharded)
    return std::make_unique<ShardedSecureMemory>(cfg, spec.shards);
  return std::make_unique<SecureMemory>(cfg);
}

/// Flip one ciphertext bit of a (global) block through the untrusted
/// view of whichever engine owns it.
void flip_ciphertext_bit(SecureMemoryLike& mem, std::uint64_t block,
                         unsigned bit) {
  if (auto* s = dynamic_cast<ShardedSecureMemory*>(&mem)) {
    // Same striping as the engine's router: granules round-robin.
    const std::uint64_t g = s->granule_blocks();
    const std::uint64_t granule = block / g;
    const auto shard = static_cast<unsigned>(granule % s->num_shards());
    const std::uint64_t local = (granule / s->num_shards()) * g + block % g;
    s->with_shard_exclusive(shard, [&](SecureMemory& e) {
      e.untrusted().flip_ciphertext_bit(local, bit);
    });
    return;
  }
  static_cast<SecureMemory&>(mem).untrusted().flip_ciphertext_bit(block, bit);
}

// Flip `bits` ciphertext bits of `block`, read it back (the corrected
// read, timed), then scrub to heal. A block the engine could not repair
// is rewritten from the shadow so later operations stay checkable.
bool corrected_read(SecureMemoryLike& mem, const std::uint8_t* shadow,
                    std::uint64_t block, std::uint32_t bit, unsigned bits,
                    double& ns, SpanLog* spans, Clock::time_point& end) {
  for (unsigned k = 0; k < bits; ++k)
    flip_ciphertext_bit(mem, block, (bit + 173 * k) % 512);
  const auto t0 = Clock::now();
  const ReadResult r = mem.read_block(block);
  end = Clock::now();
  ns = static_cast<double>(ns_between(t0, end));
  add_span(spans, SpanKind::kCorrect, t0, end);
  const std::uint8_t* want = shadow + block * 64;
  bool ok = matches(r, Status::kCorrectedData, want);
  const auto s0 = Clock::now();
  const ScrubStatus scrub = mem.scrub_block(block);
  add_span(spans, SpanKind::kScrub, s0, Clock::now());
  if (ok && scrub == ScrubStatus::kRepairedData) return true;
  // The op has failed; a heal that fails too shows up in later reads.
  DataBlock b;
  std::memcpy(b.data(), want, b.size());
  const Status healed = mem.write_block(block, b);
  static_cast<void>(healed);
  return false;
}

// ---------------------------------------------------------------------
// Op samples, bucketed by window.
// ---------------------------------------------------------------------
struct OpSamples {
  explicit OpSamples(std::uint64_t seed)
      : read(kReadSamples, seed),
        write(kWriteSamples, seed + 1),
        corrected(kCorrectedSamples, seed + 2) {}
  void reserve(std::size_t windows) {
    read.reserve(windows);
    write.reserve(windows);
    corrected.reserve(windows);
    if (ops.size() < windows) ops.resize(windows, 0);
  }
  void count(std::size_t window) {
    if (window == WindowSamples::kDrop) return;
    if (ops.size() <= window) ops.resize(window + 1, 0);
    ++ops[window];
  }
  WindowSamples read, write, corrected;
  std::vector<std::uint64_t> ops;  ///< completed client ops per window
  Tally tally;
};

/// Client metrics over the kept windows: each is taken per window (ops/s
/// as the window's completed ops over its wall time, latencies as
/// percentiles of the samples it retained), then the median over them.
struct ClientView {
  double ops_per_s = 0;
  double read_p50 = 0, read_p99 = 0, write_p50 = 0, write_p99 = 0;
  double corrected_p50 = 0;
  std::size_t kept = 0, windows = 0;
};

ClientView client_view(const std::vector<const OpSamples*>& parts,
                       const std::vector<double>& window_seconds,
                       const std::vector<bool>& keep) {
  ClientView v;
  std::vector<double> rates;
  for (std::size_t w = 0; w < window_seconds.size(); ++w) {
    if (!keep[w] || window_seconds[w] <= 0) continue;
    double ops = 0;
    for (const OpSamples* p : parts)
      if (w < p->ops.size()) ops += static_cast<double>(p->ops[w]);
    rates.push_back(ops / window_seconds[w]);
  }
  v.kept = rates.size();
  v.windows = window_seconds.size();
  v.ops_per_s = median(std::move(rates));
  std::vector<const WindowSamples*> read, write, corrected;
  for (const OpSamples* p : parts) {
    read.push_back(&p->read);
    write.push_back(&p->write);
    corrected.push_back(&p->corrected);
  }
  const auto p50 = [](std::vector<double>& x) { return percentile(x, 0.5); };
  const auto p99 = [](std::vector<double>& x) { return tail_percentile(x); };
  v.read_p50 = window_median(read, keep, p50);
  v.read_p99 = window_median(read, keep, p99);
  v.write_p50 = window_median(write, keep, p50);
  v.write_p99 = window_median(write, keep, p99);
  v.corrected_p50 = window_median(corrected, keep, p50);
  return v;
}

// ---------------------------------------------------------------------
// Client phase: closed loop, one thread per stream. Each slice is cut
// into windows; slices resume where the previous one stopped.
// ---------------------------------------------------------------------
class ClientPhase {
 public:
  ClientPhase(SecureMemoryLike& mem, std::uint8_t* shadow,
              const Streams& streams, const PayloadPool& pool,
              const Spec& spec, unsigned flip_bits, std::uint64_t seed,
              std::vector<SpanLog>* spans)
      : mem_(mem), shadow_(shadow), streams_(streams), pool_(pool),
        spec_(spec), flip_bits_(flip_bits), spans_(spans) {
    const std::size_t n = streams.per_thread.size();
    threads_.reserve(n);
    for (std::size_t t = 0; t < n; ++t)
      threads_.push_back({OpSamples(seed * 31 + t * 1000003), 0,
                          (seed << 40) ^ (std::uint64_t{t} << 56)});
  }

  void run_for(double seconds) {
    run_windows(seconds, kClientWindowSeconds,
                [this](double s) { run_window(s); });
  }

  ClientView view() const {
    std::vector<const OpSamples*> parts;
    for (const Thread& t : threads_) parts.push_back(&t.samples);
    return client_view(parts, window_seconds_, calm_units(window_stolen_));
  }
  Tally tally() const {
    Tally out;
    for (const Thread& t : threads_) out.merge(t.samples.tally);
    return out;
  }

 private:
  struct Thread {
    OpSamples samples;
    std::size_t cursor;
    std::uint64_t stamp;
  };

  void run_window(double seconds) {
    const std::size_t window = window_seconds_.size();
    for (Thread& t : threads_) t.samples.reserve(window + 1);
    std::atomic<bool> go{false};
    Clock::time_point deadline;
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads_.size(); ++t) {
      workers.emplace_back([&, t] {
        pin_client_thread(static_cast<unsigned>(t));
        while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
        loop(threads_[t], streams_.per_thread[t], deadline, window,
             spans_ ? &(*spans_)[t] : nullptr);
      });
    }
    const StealMeter steal(static_cast<unsigned>(threads_.size()));
    const auto start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    go.store(true, std::memory_order_release);
    for (std::thread& w : workers) w.join();
    window_seconds_.push_back(seconds_since(start));
    window_stolen_.push_back(steal.share());
  }

  void loop(Thread& th, const std::vector<Op>& ops,
            Clock::time_point deadline, std::size_t window, SpanLog* spans) {
    OpSamples& st = th.samples;
    DataBlock block{};
    std::uint8_t record[kRecordBytes];
    for (;;) {
      const Op& op = ops[th.cursor];
      if (++th.cursor == ops.size()) th.cursor = 0;
      bool ok = false;
      Clock::time_point t0, t1;
      double ns = 0;
      switch (op.kind) {
        case OpKind::kRead: {
          t0 = Clock::now();
          const ReadResult r = mem_.read_block(op.where);
          t1 = Clock::now();
          add_span(spans, SpanKind::kRead, t0, t1);
          ok = matches(r, Status::kOk, shadow_ + op.where * 64);
          break;
        }
        case OpKind::kWrite: {
          ++th.stamp;
          Status s;
          if (spec_.byte_writes) {
            std::memcpy(record, pool_.entry(op.aux), kRecordBytes);
            std::memcpy(record, &th.stamp, sizeof(th.stamp));
            t0 = Clock::now();
            s = mem_.write_bytes(op.where,
                                 std::span<const std::uint8_t>(record));
            t1 = Clock::now();
            if (s == Status::kOk)
              std::memcpy(shadow_ + op.where, record, kRecordBytes);
          } else {
            stamp_block(block, pool_, op.aux, th.stamp);
            t0 = Clock::now();
            s = mem_.write_block(op.where, block);
            t1 = Clock::now();
            if (s == Status::kOk)
              std::memcpy(shadow_ + op.where * 64, block.data(), block.size());
          }
          add_span(spans, SpanKind::kWrite, t0, t1);
          ok = s == Status::kOk;
          break;
        }
        case OpKind::kCorrect:
          ok = corrected_read(mem_, shadow_, op.where, op.aux, flip_bits_, ns,
                              spans, t1);
          break;
      }
      if (op.kind == OpKind::kRead)
        st.read.add(window, static_cast<double>(ns_between(t0, t1)));
      else if (op.kind == OpKind::kWrite)
        st.write.add(window, static_cast<double>(ns_between(t0, t1)));
      else
        st.corrected.add(window, ns);
      st.count(window);
      st.tally.add(ok);
      if (t1 >= deadline) break;
    }
  }

  SecureMemoryLike& mem_;
  std::uint8_t* shadow_;
  const Streams& streams_;
  const PayloadPool& pool_;
  const Spec& spec_;
  unsigned flip_bits_;
  std::vector<SpanLog>* spans_;
  std::vector<Thread> threads_;
  std::vector<double> window_seconds_;  ///< wall time of each window
  std::vector<double> window_stolen_;   ///< host-stolen share of each
};

// ---------------------------------------------------------------------
// Checkpoint phase: each slice is cut into windows of whole intervals.
// ---------------------------------------------------------------------
struct CkptResult {
  /// Medians over the kept windows of each window's median delta.
  double save_p50_ms = 0, restore_p50_ms = 0, stage_ms = 0, commit_ms = 0;
  /// Over every timed delta of the kept windows.
  double save_p99_ms = 0, restore_p99_ms = 0;
  double rebase_p50_ms = 0;  ///< median of the calm timed re-bases
  double delta_bytes_per_user_byte = 0;  ///< over the metered intervals
  std::uint64_t deltas = 0, rebases = 0, dirty_granules = 0;
  ClientView client;  ///< the loop's own client ops
  Tally tally;
};

/// Whole-region check of `mem` against the shadow through batched reads,
/// spread over `threads` clients when the engine is thread-safe.
std::uint64_t verify_region(SecureMemoryLike& mem, const std::uint8_t* shadow,
                            unsigned threads) {
  constexpr std::uint64_t kChunk = 4096;
  const std::uint64_t nb = mem.num_blocks();
  const std::uint64_t chunks = (nb + kChunk - 1) / kChunk;
  if (!dynamic_cast<ShardedSecureMemory*>(&mem)) threads = 1;
  std::atomic<std::uint64_t> bad{0};
  auto work = [&](unsigned t) {
    std::vector<std::uint64_t> idx;
    for (std::uint64_t c = t; c < chunks; c += threads) {
      idx.resize(std::min(kChunk, nb - c * kChunk));
      std::iota(idx.begin(), idx.end(), c * kChunk);
      const std::vector<ReadResult> rs = mem.read_blocks(idx);
      std::uint64_t local = 0;
      for (std::size_t i = 0; i < rs.size(); ++i)
        local += !matches(rs[i], Status::kOk, shadow + idx[i] * 64);
      bad.fetch_add(local, std::memory_order_relaxed);
    }
  };
  std::vector<std::thread> pool;
  for (unsigned t = 1; t < threads; ++t) pool.emplace_back(work, t);
  work(0);
  for (std::thread& th : pool) th.join();
  return bad.load();
}

/// Blocks each non-checkpoint workload dirties per interval: the next
/// kBatch writes of its own streams, round-robin over threads.
std::vector<std::uint64_t> stream_write_blocks(const Streams& streams,
                                               bool byte_writes) {
  std::vector<std::uint64_t> out;
  const std::size_t n = streams.per_thread.front().size();
  for (std::size_t i = 0; i < n; ++i)
    for (const std::vector<Op>& s : streams.per_thread)
      if (s[i].kind == OpKind::kWrite)
        out.push_back(byte_writes ? s[i].where / 64 : s[i].where);
  return out;
}

/// restore_delta through its stage / commit split, timing each half.
bool restore_delta_timed(SecureMemoryLike& mem,
                         const std::vector<std::byte>& image,
                         double& stage_ms, double& commit_ms) {
  MemSource buf(image);
  std::istream in(&buf);
  if (auto* sharded = dynamic_cast<ShardedSecureMemory*>(&mem)) {
    secmem::SnapshotTiming timing;
    const bool ok = sharded->restore_timed(in, timing);
    stage_ms = timing.stage_s * 1e3;
    commit_ms = timing.commit_s * 1e3;
    return ok;
  }
  auto& plain = static_cast<SecureMemory&>(mem);
  const auto t0 = Clock::now();
  auto staged = plain.stage_delta(in);
  const auto t1 = Clock::now();
  const bool ok = staged && plain.commit_delta(std::move(*staged));
  stage_ms = seconds_between(t0, t1) * 1e3;
  commit_ms = seconds_since(t1) * 1e3;
  return ok;
}

bool restore_full(SecureMemoryLike& mem, const std::vector<std::byte>& image) {
  MemSource buf(image);
  std::istream in(&buf);
  return mem.restore(in);
}

class CheckpointLoop {
 public:
  /// `own_client`: this loop's writes, replica reads and corrected reads
  /// are the workload's client ops (checkpoint has no client phase).
  CheckpointLoop(const Spec& spec, SecureMemoryLike& src,
                 SecureMemoryLike& replica, std::uint8_t* shadow,
                 const Streams& streams, const PayloadPool& pool,
                 std::uint64_t seed, bool own_client, bool tamper,
                 SpanLog* spans)
      : spec_(spec), src_(src), replica_(replica), shadow_(shadow),
        streams_(streams), pool_(pool), own_client_(own_client),
        tamper_(tamper), spans_(spans), rng_(seed ^ 0xc0ffee),
        stamp_(seed << 32), client_(seed * 7),
        save_(kDeltaSamples, seed + 11), restore_(kDeltaSamples, seed + 12),
        stage_(kDeltaSamples, seed + 13), commit_(kDeltaSamples, seed + 14) {
    if (streams.hot_blocks.empty())
      stream_writes_ = stream_write_blocks(streams, spec.byte_writes);
    batch_.reserve(kBatch);
    // Align the replica on the source before the first interval.
    tally_.add(rebase() >= 0);
  }

  /// Runs `n` delta intervals outside any window. Their image sizes give
  /// delta_bytes_per_dirty_byte; run before anything time-bounded touches
  /// the region, they depend on the seed only.
  void meter(unsigned n) {
    for (unsigned i = 0; i < n; ++i) {
      interval();
      metered_bytes_ += last_delta_bytes_;
      metered_user_bytes_ += last_user_bytes_;
    }
  }

  /// Roll writes made outside this loop (the client phase) onto the
  /// replica, untimed, so every timed delta covers one interval's writes.
  void catch_up() {
    const Status s = save_image(src_, image_, true);
    double stage_ms = 0, commit_ms = 0;
    const bool r = s == Status::kOk &&
                   restore_delta_timed(replica_, image_, stage_ms, commit_ms);
    tally_.add(s == Status::kOk);
    tally_.add(r);
    if (!r) tally_.add(rebase() >= 0);
  }

  void run_for(double seconds) {
    run_windows(seconds, kCkptWindowSeconds,
                [this](double s) { run_window(s); });
  }

  CkptResult result() const {
    CkptResult out;
    const std::vector<bool> keep = calm_units(window_stolen_);
    const auto p50 = [](std::vector<double>& x) {
      return percentile(x, 0.5, 0);
    };
    out.save_p50_ms = window_median({&save_}, keep, p50);
    out.restore_p50_ms = window_median({&restore_}, keep, p50);
    out.stage_ms = window_median({&stage_}, keep, p50);
    out.commit_ms = window_median({&commit_}, keep, p50);
    // A delta tail needs more samples than a window holds: pooled.
    std::vector<double> save, restore;
    for (std::size_t w = 0; w < keep.size(); ++w) {
      if (!keep[w]) continue;
      save_.append(w, save);
      restore_.append(w, restore);
    }
    out.save_p99_ms = tail_percentile(save, 0);
    out.restore_p99_ms = tail_percentile(restore, 0);
    out.rebase_p50_ms = median_kept(rebase_ms_, calm_units(rebase_stolen_));
    if (own_client_)
      out.client = client_view({&client_}, window_seconds_, keep);
    out.delta_bytes_per_user_byte =
        metered_user_bytes_ > 0 ? metered_bytes_ / metered_user_bytes_ : 0;
    out.deltas = deltas_;
    out.rebases = rebase_ms_.size();
    out.dirty_granules = dirty_granules_;
    out.tally = tally_;
    out.tally.merge(client_.tally);
    return out;
  }

 private:
  static constexpr std::size_t kDrop = WindowSamples::kDrop;

  void run_window(double seconds) {
    window_ = windows_++;
    for (WindowSamples* r : {&save_, &restore_, &stage_, &commit_})
      r->reserve(windows_);
    client_.reserve(windows_);
    window_seconds_.resize(windows_, 0.0);
    // One client thread; the engines' short shard fan-outs are not counted.
    const StealMeter steal(1);
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    do {
      interval();
    } while (Clock::now() < deadline);
    window_stolen_.push_back(steal.share());
  }

  /// Full save + restore, then the whole replica checked against the
  /// shadow. Returns the save + restore wall time in ms, or a negative
  /// value when any step failed (each step is tallied).
  double rebase() {
    const auto t0 = Clock::now();
    const Status s = save_image(src_, image_, false);
    const auto t1 = Clock::now();
    const bool r = s == Status::kOk && restore_full(replica_, image_);
    const auto t2 = Clock::now();
    add_span(spans_, SpanKind::kSave, t0, t1);
    add_span(spans_, SpanKind::kRestore, t1, t2);
    tally_.add(s == Status::kOk);
    tally_.add(r);
    const auto v0 = Clock::now();
    const std::uint64_t bad = verify_region(replica_, shadow_, host_cpus());
    add_span(spans_, SpanKind::kVerify, v0, Clock::now());
    tally_.add(bad == 0);
    return s == Status::kOk && r && bad == 0 ? seconds_between(t0, t2) * 1e3
                                             : -1.0;
  }

  void interval() {
    const auto i0 = Clock::now();
    last_delta_bytes_ = last_user_bytes_ = 0;
    const std::uint64_t nb = src_.num_blocks();
    const bool rebase_now = (++intervals_ % spec_.rebase_every) == 0;
    // Client samples of a re-base interval belong to no window.
    const std::size_t window = rebase_now || !own_client_ ? kDrop : window_;
    // 1. Dirty this interval's blocks through write_blocks batches.
    if (!streams_.hot_blocks.empty()) {
      dirty_ = streams_.hot_blocks;
    } else {
      dirty_.clear();
      for (std::size_t k = 0; k < kBatch; ++k) {
        dirty_.push_back(stream_writes_[cursor_]);
        if (++cursor_ == stream_writes_.size()) cursor_ = 0;
      }
    }
    double user_bytes = 0;
    for (std::size_t i = 0; i < dirty_.size(); i += kBatch) {
      batch_.clear();
      for (std::size_t k = i; k < std::min(dirty_.size(), i + kBatch); ++k) {
        BlockWrite w{dirty_[k], {}};
        stamp_block(w.data, pool_, static_cast<std::uint32_t>(rng_.next()),
                    ++stamp_);
        batch_.push_back(w);
      }
      const auto t0 = Clock::now();
      const Status s = src_.write_blocks(batch_);
      const auto t1 = Clock::now();
      add_span(spans_, SpanKind::kWriteBatch, t0, t1);
      tally_.add(s == Status::kOk);
      // Per-block cost inside the batch is the client's write latency.
      client_.write.add(window, static_cast<double>(ns_between(t0, t1)) /
                                   static_cast<double>(batch_.size()));
      if (s != Status::kOk) continue;
      for (const BlockWrite& w : batch_) {
        std::memcpy(shadow_ + w.block * 64, w.data.data(), 64);
        client_.count(window);
      }
      user_bytes += 64.0 * static_cast<double>(batch_.size());
    }
    for (unsigned k = 0; own_client_ && k < kCorrectedPerInterval; ++k) {
      Clock::time_point end;
      double ns = 0;
      tally_.add(corrected_read(
          src_, shadow_, rng_.next_below(nb),
          static_cast<std::uint32_t>(rng_.next_below(512)), 1, ns, spans_,
          end));
      client_.corrected.add(window, ns);
      client_.count(window);
    }
    // 2. Re-base, or seal a delta and roll it onto the replica.
    if (rebase_now) {
      const StealMeter steal(1);
      const double ms = rebase();
      if (ms >= 0 && window_ != kDrop) {
        rebase_ms_.push_back(ms);
        rebase_stolen_.push_back(steal.share());
      }
      return;
    }
    dirty_granules_ += dirty_granules_of(src_);
    const auto t0 = Clock::now();
    const Status s = save_image(src_, image_, true);
    const auto t1 = Clock::now();
    add_span(spans_, SpanKind::kSaveDelta, t0, t1);
    tally_.add(s == Status::kOk);
    if (tamper_ && !tampered_ && deltas_ == 2) {
      image_[image_.size() / 2] ^= std::byte{0x40};
      tampered_ = true;
    }
    double stage_ms = 0, commit_ms = 0;
    const bool restored = s == Status::kOk &&
        restore_delta_timed(replica_, image_, stage_ms, commit_ms);
    const auto t2 = Clock::now();
    add_span(spans_, SpanKind::kRestore, t1, t2);
    tally_.add(restored);
    if (!restored) {
      // The chains diverged; re-align so later intervals stay checkable.
      tally_.add(rebase() >= 0);
      return;
    }
    save_.add(window_, seconds_between(t0, t1) * 1e3);
    restore_.add(window_, seconds_between(t1, t2) * 1e3);
    stage_.add(window_, stage_ms);
    commit_.add(window_, commit_ms);
    last_delta_bytes_ = static_cast<double>(image_.size());
    last_user_bytes_ = user_bytes;
    // 3. Sample the replica: half from this interval's writes, half
    // anywhere in the region.
    for (unsigned k = 0; k < kSampleReads; ++k) {
      const std::uint64_t b = k % 2 ? rng_.next_below(nb)
                                    : dirty_[rng_.next_below(dirty_.size())];
      const auto r0 = Clock::now();
      const ReadResult r = replica_.read_block(b);
      const auto r1 = Clock::now();
      add_span(spans_, SpanKind::kRead, r0, r1);
      client_.read.add(window, static_cast<double>(ns_between(r0, r1)));
      client_.count(window);
      tally_.add(matches(r, Status::kOk, shadow_ + b * 64));
    }
    ++deltas_;
    if (window_ != kDrop) window_seconds_[window_] += seconds_since(i0);
  }

  const Spec& spec_;
  SecureMemoryLike& src_;
  SecureMemoryLike& replica_;
  std::uint8_t* shadow_;
  const Streams& streams_;
  const PayloadPool& pool_;
  const bool own_client_, tamper_;
  SpanLog* spans_;
  Xoshiro256 rng_;
  std::uint64_t stamp_;
  std::vector<std::uint64_t> stream_writes_;
  std::size_t cursor_ = 0;
  std::vector<std::uint64_t> dirty_;
  std::vector<BlockWrite> batch_;
  std::vector<std::byte> image_;
  bool tampered_ = false;
  std::uint64_t intervals_ = 0, deltas_ = 0, dirty_granules_ = 0;
  std::size_t window_ = kDrop, windows_ = 0;
  double last_delta_bytes_ = 0, last_user_bytes_ = 0;
  double metered_bytes_ = 0, metered_user_bytes_ = 0;
  OpSamples client_;
  WindowSamples save_, restore_, stage_, commit_;
  std::vector<double> window_seconds_;  ///< delta-interval time per window
  std::vector<double> window_stolen_;   ///< host-stolen share per window
  std::vector<double> rebase_ms_, rebase_stolen_;
  Tally tally_;
};

// ---------------------------------------------------------------------
// Sim phase: each repetition runs every case under the three protection
// variants. Repetitions are identical, deterministic work, so the median
// over the calm ones is the simulator's speed.
// ---------------------------------------------------------------------
struct SimVariant {
  const char* name;
  secmem::Protection protection;
  secmem::CounterSchemeKind scheme;
  secmem::MacPlacement mac;
};
const SimVariant kSimVariants[] = {
    {"none", secmem::Protection::kNone,
     secmem::CounterSchemeKind::kMonolithic56, secmem::MacPlacement::kEccLane},
    {"bmt", secmem::Protection::kEncrypted,
     secmem::CounterSchemeKind::kMonolithic56, secmem::MacPlacement::kSeparate},
    {"optimized", secmem::Protection::kEncrypted,
     secmem::CounterSchemeKind::kDelta, secmem::MacPlacement::kEccLane},
};

struct SimCase {
  secmem::WorkloadProfile profile;
  std::vector<std::vector<secmem::MemRef>> traces;  ///< empty: profile
};

struct SimResultSet {
  double refs_per_s = 0;                 ///< median over calm repetitions
  std::array<double, 3> ns_per_ref{};    ///< per variant, the same
  std::size_t reps = 0;
  double ipc_norm = 0;
  const secmem::StatRegistry* optimized = nullptr;  ///< first repetition
  std::uint64_t refs = 0;  ///< simulated per repetition, warm-up included
  Tally tally;
};

/// The workload's own op stream as per-core reference traces: one
/// reference per block op, six non-memory instructions apart.
std::vector<std::vector<secmem::MemRef>> traces_from(const Streams& streams,
                                                     bool byte_writes) {
  constexpr unsigned kCores = 4;
  std::vector<std::vector<secmem::MemRef>> traces(kCores);
  for (unsigned c = 0; c < kCores; ++c) {
    const bool own = streams.per_thread.size() >= kCores;
    const std::vector<Op>& s = streams.per_thread[own ? c : 0];
    const std::size_t first = own ? 0 : c * kSimRefsPerCore;
    for (std::size_t i = 0; i < kSimRefsPerCore; ++i) {
      const Op& op = s[(first + i) % s.size()];
      const bool write = op.kind == OpKind::kWrite;
      const std::uint64_t addr =
          write && byte_writes ? op.where : op.where * 64;
      traces[c].push_back({addr, write, 6, false});
    }
  }
  return traces;
}

bool same(const secmem::SimResult& a, const secmem::SimResult& b) {
  return a.cycles == b.cycles && a.instructions == b.instructions &&
         a.reencryptions == b.reencryptions && a.dram_reads == b.dram_reads &&
         a.dram_writes == b.dram_writes && a.ipc == b.ipc;
}

class SimPhase {
 public:
  SimPhase(std::vector<SimCase> cases, std::uint64_t seed, SpanLog* spans)
      : cases_(std::move(cases)), seed_(seed), spans_(spans) {}

  /// At least one repetition, then more until `seconds` have passed.
  void run_for(double seconds) {
    const auto start = Clock::now();
    do {
      repetition();
    } while (seconds_since(start) < seconds);
  }

  SimResultSet result() const {
    SimResultSet out;
    const std::vector<bool> keep = calm_units(stolen_);
    out.refs_per_s = median_kept(rates_, keep);
    for (std::size_t v = 0; v < 3; ++v)
      out.ns_per_ref[v] = median_kept(ns_per_ref_[v], keep);
    out.reps = rates_.size();
    out.ipc_norm = ipc_norm_;
    out.optimized = &optimized_;
    out.refs = refs_;
    out.tally = tally_;
    return out;
  }

 private:
  void repetition() {
    const StealMeter steal(1);
    std::array<double, 3> variant_s{};
    std::uint64_t refs = 0;
    std::size_t k = 0;
    double norm_sum = 0;
    const bool first = rates_.empty();
    for (const SimCase& c : cases_) {
      double ipc[3] = {};
      for (std::size_t v = 0; v < 3; ++v, ++k) {
        secmem::SystemConfig cfg;
        cfg.protection = kSimVariants[v].protection;
        cfg.scheme = kSimVariants[v].scheme;
        cfg.engine.mac_placement = kSimVariants[v].mac;
        cfg.seed = seed_;
        cfg.warmup_refs = kSimRefsPerCore / 3;
        secmem::SystemSimulator sim(cfg, c.profile);
        const auto t0 = Clock::now();
        const secmem::SimResult res = c.traces.empty()
                                          ? sim.run(kSimRefsPerCore)
                                          : sim.run_trace(c.traces);
        const auto t1 = Clock::now();
        add_span(spans_, SpanKind::kSim, t0, t1);
        variant_s[v] += seconds_between(t0, t1);
        // run() simulates its warm-up on top of the measured references;
        // a trace's warm-up is part of the trace.
        refs += c.traces.empty()
                    ? (kSimRefsPerCore + cfg.warmup_refs) * cfg.cores
                    : c.traces.size() * kSimRefsPerCore;
        ipc[v] = res.ipc;
        if (first) {
          first_.push_back(res);
          tally_.add(res.ipc > 0);
          if (v == 2) optimized_.merge_from(sim.stats());
        } else {
          // Same seed, same inputs: every count must repeat exactly.
          tally_.add(same(res, first_[k]));
        }
      }
      norm_sum += ipc[2] / ipc[0];
    }
    if (first) ipc_norm_ = norm_sum / static_cast<double>(cases_.size());
    refs_ = refs;
    rates_.push_back(static_cast<double>(refs) /
                     (variant_s[0] + variant_s[1] + variant_s[2]));
    for (std::size_t v = 0; v < 3; ++v)
      ns_per_ref_[v].push_back(variant_s[v] * 1e9 /
                               static_cast<double>(refs / 3));
    stolen_.push_back(steal.share());
  }

  std::vector<SimCase> cases_;
  std::uint64_t seed_;
  SpanLog* spans_;
  std::vector<secmem::SimResult> first_;
  std::vector<double> rates_, stolen_;
  std::array<std::vector<double>, 3> ns_per_ref_;
  secmem::StatRegistry optimized_;
  double ipc_norm_ = 0;
  std::uint64_t refs_ = 0;
  Tally tally_;
};

std::vector<SimCase> sim_cases(const Spec& spec, const Streams& streams) {
  std::vector<SimCase> cases;
  if (spec.sim_parsec) {
    for (const char* app : kFig8Apps)
      cases.push_back({secmem::profile_by_name(app), {}});
  } else {
    secmem::WorkloadProfile p;
    p.name = spec.name;
    cases.push_back({p, traces_from(streams, spec.byte_writes)});
  }
  return cases;
}

// ---------------------------------------------------------------------
// Stream generation.
// ---------------------------------------------------------------------
/// Every kCorrectEvery-th op becomes a corrected read of the block it
/// touched.
void add_corrected_reads(std::vector<Op>& ops, bool byte_writes,
                         Xoshiro256& rng) {
  for (std::size_t i = kCorrectEvery - 1; i < ops.size(); i += kCorrectEvery) {
    const bool bytes = byte_writes && ops[i].kind == OpKind::kWrite;
    ops[i] = {bytes ? ops[i].where / 64 : ops[i].where,
              static_cast<std::uint32_t>(rng.next_below(512)),
              OpKind::kCorrect};
  }
}

std::vector<Op> kv_stream(std::uint64_t nb, Xoshiro256& rng) {
  // Rank-adjacent records live in adjacent blocks; the seed picks where
  // the hottest record sits.
  const Zipf zipf(nb, 0.99);
  const std::uint64_t base = rng.next_below(nb);
  std::vector<Op> ops(kStreamOps);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const std::uint64_t b = (base + zipf.next(rng)) % nb;
    if (rng.chance(0.10))
      ops[i] = {b, static_cast<std::uint32_t>(rng.next()), OpKind::kWrite};
    else
      ops[i] = {b, 0, OpKind::kRead};
  }
  return ops;
}

std::vector<Op> uniform_stream(std::uint64_t nb, unsigned t, unsigned n,
                               Xoshiro256& rng) {
  // Thread t owns blocks [lo, hi): its records never leave its slice.
  const std::uint64_t lo = nb * t / n, hi = nb * (t + 1) / n;
  const std::uint64_t span_bytes = (hi - lo) * 64 - kRecordBytes + 1;
  std::vector<Op> ops(kStreamOps);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (rng.chance(0.05))
      ops[i] = {lo * 64 + rng.next_below(span_bytes),
                static_cast<std::uint32_t>(rng.next()), OpKind::kWrite};
    else
      ops[i] = {lo + rng.next_below(hi - lo), 0, OpKind::kRead};
  }
  return ops;
}

std::vector<std::uint64_t> hot_set(std::uint64_t nb, std::uint64_t granule,
                                   Xoshiro256& rng) {
  // 2% of the region as whole delta granules, so each interval's dirty
  // set is exactly the hot set.
  const std::uint64_t ng = nb / granule;
  const std::uint64_t want = std::max<std::uint64_t>(1, ng / 50);
  std::vector<std::uint64_t> g(ng);
  std::iota(g.begin(), g.end(), 0);
  for (std::uint64_t i = 0; i < want; ++i)
    std::swap(g[i], g[i + rng.next_below(ng - i)]);
  g.resize(want);
  std::sort(g.begin(), g.end());
  std::vector<std::uint64_t> blocks;
  for (const std::uint64_t x : g)
    for (std::uint64_t b = 0; b < granule; ++b)
      blocks.push_back(x * granule + b);
  return blocks;
}

std::vector<Op> checkpoint_stream(const std::vector<std::uint64_t>& hot,
                                  std::uint64_t nb, Xoshiro256& rng) {
  // One interval's client ops: the hot set written, then sample reads.
  std::vector<Op> ops;
  ops.reserve(kStreamOps);
  while (ops.size() < kStreamOps) {
    for (const std::uint64_t b : hot)
      ops.push_back({b, static_cast<std::uint32_t>(rng.next()),
                     OpKind::kWrite});
    for (unsigned k = 0; k < kSampleReads; ++k)
      ops.push_back({rng.next_below(nb), 0, OpKind::kRead});
  }
  ops.resize(kStreamOps);
  return ops;
}

std::vector<Op> parsec_stream(std::uint64_t nb, std::uint64_t seed,
                              Xoshiro256& rng) {
  // The Figure 8 apps' reference streams folded onto the region: runs of
  // references to one block become one block op (a write if any of them
  // writes), apps interleaved in chunks.
  constexpr std::size_t kChunk = 4096;
  std::vector<secmem::WorkloadGenerator> gens;
  for (const char* app : kFig8Apps)
    gens.emplace_back(secmem::profile_by_name(app), 0, seed);
  std::vector<Op> ops;
  ops.reserve(kStreamOps);
  for (std::size_t app = 0; ops.size() < kStreamOps; app = (app + 1) % 3) {
    std::uint64_t cur = ~0ULL;
    bool write = false;
    for (std::size_t n = 0; n < kChunk && ops.size() < kStreamOps;) {
      const secmem::MemRef r = gens[app].next();
      const std::uint64_t b = (r.addr / 64) % nb;
      if (b == cur) {
        write = write || r.is_write;
        continue;
      }
      if (cur != ~0ULL) {
        ops.push_back({cur, static_cast<std::uint32_t>(rng.next()),
                       write ? OpKind::kWrite : OpKind::kRead});
        ++n;
      }
      cur = b;
      write = r.is_write;
    }
  }
  return ops;
}

}  // namespace

// ---------------------------------------------------------------------
// Shared with the ladder.
// ---------------------------------------------------------------------
const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Spec& s : kSpecs) n.emplace_back(s.name);
    return n;
  }();
  return names;
}

const Spec& spec_by_name(const std::string& name) {
  for (const Spec& s : kSpecs)
    if (name == s.name) return s;
  throw std::invalid_argument("unknown workload '" + name + "'");
}

Streams make_streams(const Spec& spec, unsigned threads,
                     std::uint64_t granule_blocks, std::uint64_t seed) {
  Streams s;
  const std::uint64_t nb = spec.region_bytes / 64;
  const std::string name = spec.name;
  const auto t0 = Clock::now();
  for (unsigned t = 0; t < threads; ++t) {
    Xoshiro256 rng(seed * 0x9e3779b97f4a7c15ULL + t);
    if (name == "kv-zipf") {
      s.per_thread.push_back(kv_stream(nb, rng));
    } else if (name == "uniform-mt") {
      s.per_thread.push_back(uniform_stream(nb, t, threads, rng));
    } else if (name == "checkpoint") {
      if (s.hot_blocks.empty()) s.hot_blocks = hot_set(nb, granule_blocks, rng);
      s.per_thread.push_back(checkpoint_stream(s.hot_blocks, nb, rng));
    } else {
      s.per_thread.push_back(parsec_stream(nb, seed + t, rng));
    }
    add_corrected_reads(s.per_thread.back(), spec.byte_writes, rng);
  }
  s.gen_ns_per_op = seconds_since(t0) * 1e9 /
                    static_cast<double>(threads * kStreamOps);
  return s;
}


void fill_region(SecureMemoryLike& mem, const PayloadPool& pool,
                 std::uint8_t* shadow) {
  std::vector<BlockWrite> batch(kBatch);
  for (std::uint64_t b = 0; b < mem.num_blocks(); b += kBatch) {
    const std::uint64_t n =
        std::min<std::uint64_t>(kBatch, mem.num_blocks() - b);
    batch.resize(n);
    for (std::uint64_t k = 0; k < n; ++k) {
      batch[k].block = b + k;
      stamp_block(batch[k].data, pool, static_cast<std::uint32_t>(b + k),
                  b + k);
      if (shadow)
        std::memcpy(shadow + (b + k) * 64, batch[k].data.data(), 64);
    }
    if (mem.write_blocks(batch) != Status::kOk)
      throw std::runtime_error("initial fill failed");
  }
}

Status save_image(SecureMemoryLike& mem, std::vector<std::byte>& image,
                  bool delta) {
  VectorSink sink(image);
  std::ostream out(&sink);
  return delta ? mem.save_delta(out) : mem.save(out);
}


// ---------------------------------------------------------------------
// The run.
// ---------------------------------------------------------------------
RunResult run_workload(const Options& o) {
  const Spec& spec = spec_by_name(o.workload);
  const unsigned threads = spec.multi_thread ? client_threads() : 1;
  RunResult out;
  MetricTable& m = out.metrics;
  const PayloadPool pool(o.seed);
  std::vector<std::uint8_t> shadow(spec.region_bytes);

  // Set-up: region construction + initial fill (+ the replica), repeated
  // so setup_s is a median; the last repetition is kept.
  std::unique_ptr<SecureMemoryLike> src, replica;
  std::vector<double> setup_s;
  for (unsigned r = 0; r < kSetupReps; ++r) {
    src.reset();
    replica.reset();
    const auto t0 = Clock::now();
    src = make_region(spec, spec.region_bytes);
    fill_region(*src, pool, shadow.data());
    replica = make_region(spec, spec.region_bytes);
    setup_s.push_back(seconds_since(t0));
  }
  const Streams streams =
      make_streams(spec, threads, granule_blocks_of(*src), o.seed);
  const bool own_client = spec.client_share == 0;
  // The phases alternate in rounds of kRoundSeconds, so each one samples
  // the same stretches of host load.
  const auto rounds = static_cast<unsigned>(
      std::max(1.0, std::round(o.seconds / kRoundSeconds)));
  const double round_s = o.seconds / rounds;

  if (!o.trace) {
    ClientPhase client(*src, shadow.data(), streams, pool, spec, o.flip_bits,
                       o.seed, nullptr);
    CheckpointLoop ckpt(spec, *src, *replica, shadow.data(), streams, pool,
                        o.seed, own_client, o.tamper_delta, nullptr);
    SimPhase sim(sim_cases(spec, streams), o.seed, nullptr);
    ckpt.meter(kMeteredDeltas);
    for (unsigned r = 0; r < rounds; ++r) {
      if (!own_client) {
        client.run_for(round_s * spec.client_share);
        ckpt.catch_up();
      }
      ckpt.run_for(round_s * spec.ckpt_share);
      sim.run_for(round_s * spec.sim_share);
    }
    const CkptResult cr = ckpt.result();
    const ClientView cv = own_client ? cr.client : client.view();
    const SimResultSet sr = sim.result();
    out.tally.merge(client.tally());
    out.tally.merge(cr.tally);
    out.tally.merge(sr.tally);
    std::fprintf(stderr,
                 "%s: %u rounds; client windows calm %zu of %zu; checkpoint "
                 "%llu deltas + %llu re-bases; sim %zu repetitions\n",
                 spec.name, rounds, cv.kept, cv.windows,
                 static_cast<unsigned long long>(cr.deltas),
                 static_cast<unsigned long long>(cr.rebases), sr.reps);
    m.set("setup_s", median(setup_s), "s");
    m.set("ops_per_s", cv.ops_per_s, "1/s");
    m.set("read_p50_ns", cv.read_p50, "ns");
    m.set("read_p99_ns", cv.read_p99, "ns");
    m.set("write_p50_ns", cv.write_p50, "ns");
    m.set("write_p99_ns", cv.write_p99, "ns");
    m.set("corrected_read_p50_ns", cv.corrected_p50, "ns");
    m.set("ckpt_save_p50_ms", cr.save_p50_ms, "ms");
    m.set("ckpt_restore_p50_ms", cr.restore_p50_ms, "ms");
    m.set("rebase_p50_ms", cr.rebase_p50_ms, "ms");
    m.set("delta_bytes_per_dirty_byte", cr.delta_bytes_per_user_byte, "B/B");
    m.set("sim_refs_per_s", sr.refs_per_s, "1/s");
    m.set("sim_ipc_norm", sr.ipc_norm, "ratio");
    m.set("peak_rss_mib", peak_rss_mib(), "MiB");
    return out;
  }

  // Traced run: untraced and traced slices of the primary loop alternate
  // (their throughput difference is the tracing overhead), the other
  // phases run traced, then the ladder.
  std::vector<SpanLog> spans(streams.per_thread.size());
  SpanLog ckpt_spans, sim_spans;
  secmem::StatRegistry reg, ckpt_reg;
  double plain_ops_s = 0, traced_ops_s = 0;
  CkptResult cr;
  SimPhase sim(sim_cases(spec, streams), o.seed, &sim_spans);
  const double slice = 0.1 * round_s;
  src->reset_stats();
  if (!own_client) {
    ClientPhase plain(*src, shadow.data(), streams, pool, spec, o.flip_bits,
                      o.seed, nullptr);
    ClientPhase traced(*src, shadow.data(), streams, pool, spec, o.flip_bits,
                       o.seed + 1, &spans);
    for (unsigned r = 0; r < rounds; ++r) {
      plain.run_for(slice);
      traced.run_for(slice);
    }
    out.tally.merge(plain.tally());
    out.tally.merge(traced.tally());
    plain_ops_s = plain.view().ops_per_s;
    traced_ops_s = traced.view().ops_per_s;
    src->publish_metrics(reg);
    CheckpointLoop ckpt(spec, *src, *replica, shadow.data(), streams, pool,
                        o.seed, false, false, &ckpt_spans);
    for (unsigned r = 0; r < rounds; ++r) {
      ckpt.run_for(slice);
      sim.run_for(slice);
    }
    cr = ckpt.result();
  } else {
    CheckpointLoop plain(spec, *src, *replica, shadow.data(), streams, pool,
                         o.seed, true, false, nullptr);
    CheckpointLoop traced(spec, *src, *replica, shadow.data(), streams, pool,
                          o.seed + 1, true, false, &ckpt_spans);
    for (unsigned r = 0; r < rounds; ++r) {
      plain.run_for(slice);
      traced.run_for(slice);
      sim.run_for(slice);
    }
    const CkptResult a = plain.result();
    out.tally.merge(a.tally);
    plain_ops_s = a.client.ops_per_s;
    cr = traced.result();
    traced_ops_s = cr.client.ops_per_s;
    src->publish_metrics(reg);
  }
  out.tally.merge(cr.tally);
  src->publish_metrics(ckpt_reg);
  src.reset();
  replica.reset();

  const auto c = [&](const char* name) {
    return static_cast<double>(
        reg.counter_value(std::string("engine.") + name));
  };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double ops = c("reads") + c("writes");
  m.set("ecc.mac_evals_per_correction",
        ratio(c("mac_evaluations"), c("corrected_data")), "count");
  m.set("counters.reencryptions_per_kwrite",
        1e3 * ratio(c("group_reencryptions"), c("writes")), "count");
  m.set("tree.cache_hit_ratio",
        ratio(c("tree_cache.hits"),
              c("tree_cache.hits") + c("tree_cache.misses")),
        "ratio");
  m.set("tree.writebacks_per_kop", 1e3 * ratio(c("tree_cache.writebacks"), ops),
        "count");
  m.set("snapshot.stage_ms", cr.stage_ms, "ms");
  m.set("snapshot.commit_ms", cr.commit_ms, "ms");
  m.set("snapshot.dirty_granules",
        ratio(static_cast<double>(cr.dirty_granules),
              static_cast<double>(cr.deltas)),
        "count");
  m.set("snapshot.delta_fallbacks",
        static_cast<double>(
            ckpt_reg.counter_value("engine.snapshot.delta.save_fallbacks")),
        "count");
  m.set("snapshot.save_p99_ms", cr.save_p99_ms, "ms");
  m.set("snapshot.restore_p99_ms", cr.restore_p99_ms, "ms");

  const SimResultSet sr = sim.result();
  out.tally.merge(sr.tally);
  for (std::size_t v = 0; v < 3; ++v)
    m.set(std::string("sim.host_ns_per_ref.") + kSimVariants[v].name,
          sr.ns_per_ref[v], "ns");
  const secmem::StatRegistry& simreg = *sr.optimized;
  const double refs = static_cast<double>(sr.refs / 3);
  const auto sc = [&](const char* name) {
    return static_cast<double>(simreg.counter_value(name));
  };
  m.set("cache.l3_miss_ratio",
        ratio(sc("cache.l3.misses"),
              sc("cache.l3.hits") + sc("cache.l3.misses")),
        "ratio");
  m.set("dram.reads_per_kref", 1e3 * sc("dram.reads") / refs, "count");
  m.set("dram.writes_per_kref", 1e3 * sc("dram.writes") / refs, "count");
  m.set("sim.metadata_dram_per_kref",
        1e3 * (sc("dram.reads") + sc("dram.writes") - sc("engine.reads") -
               sc("engine.writes")) / refs,
        "count");
  m.set("sim.metacache_hit_ratio",
        ratio(sc("metacache.hits"),
              sc("metacache.hits") + sc("metacache.misses")),
        "ratio");
  m.set("sim.reencryptions", sc("engine.ctr_event.reencrypt"), "count");

  run_ladder(spec, streams, pool, o.seed, m, out.tally);

  m.set("trace.overhead_pct",
        100.0 * (plain_ops_s - traced_ops_s) / plain_ops_s, "%");
  const double loop_ns = 1e9 * threads / plain_ops_s;
  m.set("gen.ns_per_op", streams.gen_ns_per_op, "ns");
  m.set("gen.share_pct",
        100.0 * streams.gen_ns_per_op / (streams.gen_ns_per_op + loop_ns), "%");
  std::vector<const SpanLog*> span_ptrs{&ckpt_spans, &sim_spans};
  for (const SpanLog& l : spans) span_ptrs.push_back(&l);
  print_span_summary(span_ptrs);
  return out;
}

}  // namespace perfbench
