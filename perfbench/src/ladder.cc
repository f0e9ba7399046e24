// Per-layer ladder: each rung times one layer's public functions, called
// from here, over the workload's own op stream at the workload's
// geometry. The rungs a verified read passes through (counter-line
// verify, counter decode, lane unpack, MAC, keystream) are subtracted
// from the plain engine's measured read cost to give the residual —
// memory traffic and glue no single layer owns.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <thread>

#include "counters/counter_scheme.h"
#include "crypto/cw_mac.h"
#include "ecc/flip_and_check.h"
#include "ecc/mac_ecc.h"
#include "tree/bonsai_tree.h"
#include "tree/tree_cache.h"
#include "workloads.h"

namespace perfbench {

using secmem::DataBlock;
using secmem::SecureMemory;
using secmem::SecureMemoryLike;
using secmem::ShardedSecureMemory;
using secmem::Status;

namespace {

constexpr std::size_t kRungOps = std::size_t{1} << 17;
constexpr std::size_t kBatchBlocks = 64;  ///< one delta group
constexpr unsigned kCorrections = 2000;
constexpr double kScalingSeconds = 0.4;

/// Timed results fold into this so the compiler cannot drop the calls.
volatile std::uint64_t g_sink = 0;

/// Mean nanoseconds per call of `fn(i)` for i in [0, n).
template <typename Fn>
double ns_per_call(std::size_t n, Fn&& fn) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) fn(i);
  return static_cast<double>(ns_between(t0, Clock::now())) /
         static_cast<double>(n);
}

secmem::Aes128::Key random_key(secmem::Xoshiro256& rng) {
  secmem::Aes128::Key k{};
  for (auto& b : k) b = static_cast<std::uint8_t>(rng.next());
  return k;
}

struct Split {
  std::vector<std::uint64_t> reads;        ///< blocks read (incl. corrected)
  std::vector<const Op*> writes;           ///< write ops, in stream order
  std::vector<std::uint64_t> write_blocks; ///< first block each write hits
};

Split split_stream(const std::vector<Op>& ops, bool byte_writes) {
  Split s;
  for (const Op& op : ops) {
    if (op.kind == OpKind::kWrite) {
      if (s.writes.size() < kRungOps) {
        s.writes.push_back(&op);
        s.write_blocks.push_back(byte_writes ? op.where / 64 : op.where);
      }
    } else if (s.reads.size() < kRungOps) {
      s.reads.push_back(op.where);
    }
  }
  return s;
}

/// One op of the replay, statuses checked; corrected-read ops count as
/// plain reads here (the ladder injects no faults).
bool replay_op(SecureMemoryLike& mem, const Op& op, const PayloadPool& pool,
               bool byte_writes) {
  if (op.kind != OpKind::kWrite)
    return mem.read_block(op.where).status == Status::kOk;
  if (byte_writes)
    return mem.write_bytes(op.where, std::span<const std::uint8_t>(
                                         pool.entry(op.aux), kRecordBytes)) ==
           Status::kOk;
  DataBlock b;
  std::memcpy(b.data(), pool.entry(op.aux), b.size());
  return mem.write_block(op.where, b) == Status::kOk;
}

/// Closed-loop ops/s of `threads` clients replaying the workload's
/// streams on a thread-safe engine.
double replay_rate(SecureMemoryLike& mem, const Streams& streams,
                   const PayloadPool& pool, bool byte_writes,
                   unsigned threads, Tally& tally) {
  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> ops{0}, bad{0};
  Clock::time_point deadline;
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      pin_client_thread(t);
      const std::vector<Op>& s =
          streams.per_thread[t % streams.per_thread.size()];
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      std::uint64_t n = 0, b = 0;
      for (std::size_t i = 0; Clock::now() < deadline; ++n, ++i)
        b += !replay_op(mem, s[i % s.size()], pool, byte_writes);
      ops.fetch_add(n);
      bad.fetch_add(b);
    });
  }
  const auto start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(kScalingSeconds));
  go.store(true, std::memory_order_release);
  for (std::thread& w : workers) w.join();
  tally.add(bad.load() == 0);
  return static_cast<double>(ops.load()) / seconds_since(start);
}

double median_save_ms(SecureMemoryLike& mem, std::vector<std::byte>& image,
                      Tally& tally) {
  std::vector<double> ms;
  for (int r = 0; r < 3; ++r) {
    const auto t0 = Clock::now();
    tally.add(save_image(mem, image, false) == Status::kOk);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return median(ms);
}

}  // namespace

void run_ladder(const Spec& spec, const Streams& streams,
                const PayloadPool& pool, std::uint64_t seed, MetricTable& m,
                Tally& tally) {
  const std::uint64_t nb = spec.region_bytes / 64;
  const Split s = split_stream(streams.per_thread.front(), spec.byte_writes);
  secmem::Xoshiro256 rng(seed ^ 0x1add3f);
  std::uint64_t sink = 0;  // keeps timed results observable

  // --- counters: the scheme warmed with the stream's own writes -------
  auto scheme =
      secmem::make_counter_scheme(secmem::CounterSchemeKind::kDelta, nb);
  for (const std::uint64_t b : s.write_blocks) (void)scheme->on_write(b);
  std::vector<std::uint64_t> ctr(s.reads.size());
  for (std::size_t i = 0; i < s.reads.size(); ++i)
    ctr[i] = scheme->read_counter(s.reads[i]);
  const double read_counter_ns =
      ns_per_call(s.reads.size(), [&](std::size_t i) {
        sink += scheme->read_counter(s.reads[i]);
      });
  m.set("counters.read_counter_ns", read_counter_ns, "ns");

  // --- crypto ---------------------------------------------------------
  const secmem::CtrKeystream ks(random_key(rng));
  const secmem::CwMac mac(secmem::CwMacKey{rng.next(), random_key(rng)});
  std::vector<DataBlock> blocks(kBatchBlocks);
  for (DataBlock& b : blocks)
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  const double keystream_ns = ns_per_call(s.reads.size(), [&](std::size_t i) {
    ks.crypt(s.reads[i] * 64, ctr[i], blocks[i % kBatchBlocks]);
  });
  m.set("crypto.keystream_ns", keystream_ns, "ns");
  const double mac_ns = ns_per_call(s.reads.size(), [&](std::size_t i) {
    sink +=
        mac.compute_block(s.reads[i] * 64, ctr[i], blocks[i % kBatchBlocks]);
  });
  m.set("crypto.mac_ns", mac_ns, "ns");
  const std::size_t batches = s.reads.size() / kBatchBlocks;
  std::vector<std::uint64_t> addrs(kBatchBlocks), tags(kBatchBlocks);
  const auto batch_addrs = [&](std::size_t j) {
    for (std::size_t k = 0; k < kBatchBlocks; ++k)
      addrs[k] = s.reads[j * kBatchBlocks + k] * 64;
    return std::span<const std::uint64_t>(ctr).subspan(j * kBatchBlocks,
                                                       kBatchBlocks);
  };
  m.set("crypto.keystream_batch_ns",
        ns_per_call(batches, [&](std::size_t j) {
          const auto c = batch_addrs(j);
          ks.crypt_batch(addrs, c, blocks);
        }) / kBatchBlocks, "ns");
  m.set("crypto.mac_batch_ns", ns_per_call(batches, [&](std::size_t j) {
          const auto c = batch_addrs(j);
          mac.compute_batch(addrs, c, std::span<const DataBlock>(blocks), tags);
          sink += tags[0];
        }) / kBatchBlocks, "ns");

  // --- ecc ------------------------------------------------------------
  const secmem::MacEccCodec codec;
  std::vector<secmem::EccLane> lanes(kBatchBlocks);
  for (std::size_t k = 0; k < kBatchBlocks; ++k)
    lanes[k] = codec.pack_lane(rng.next() & secmem::kMacMask, blocks[k]);
  const double unpack_ns = ns_per_call(s.reads.size(), [&](std::size_t i) {
    sink += codec.unpack_lane(lanes[i % kBatchBlocks]).mac;
  });
  m.set("ecc.lane_unpack_ns", unpack_ns, "ns");
  m.set("ecc.lane_pack_ns", ns_per_call(s.writes.size(), [&](std::size_t i) {
          lanes[i % kBatchBlocks] =
              codec.pack_lane(i & secmem::kMacMask, blocks[i % kBatchBlocks]);
        }), "ns");
  {
    const secmem::FlipAndCheck fc;
    std::uint64_t wrong = 0;
    double ns = 0;
    for (unsigned j = 0; j < kCorrections; ++j) {
      const DataBlock& clean = blocks[j % kBatchBlocks];
      const std::uint64_t addr = s.reads[j % s.reads.size()] * 64;
      const std::uint64_t tag = mac.compute_block(addr, j, clean);
      const std::uint64_t pad = mac.pad_for(addr, j);
      DataBlock bad = clean;
      const auto bit = static_cast<unsigned>(rng.next_below(512));
      bad[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      const auto t0 = Clock::now();
      const secmem::CorrectionResult r =
          fc.correct_incremental(bad, mac, pad, tag);
      ns += static_cast<double>(ns_between(t0, Clock::now()));
      wrong += r.status != secmem::CorrectionStatus::kCorrectedOne ||
               r.data != clean;
    }
    tally.add(wrong == 0);
    m.set("ecc.flip_check_1bit_ns", ns / kCorrections, "ns");
  }
  m.set("counters.on_write_ns",
        ns_per_call(s.write_blocks.size(), [&](std::size_t i) {
          sink += scheme->on_write(s.write_blocks[i]).counter;
        }),
        "ns");

  // The plain engine at the workload's size; the tree rungs borrow its
  // geometry.
  secmem::SecureMemoryConfig cfg;
  cfg.size_bytes = spec.region_bytes;
  auto plain = std::make_unique<SecureMemory>(cfg);
  fill_region(*plain, pool, nullptr);

  // --- tree: rebuilt from this scheme's counter lines ----------------
  double cache_verify_ns = 0;
  {
    const std::uint64_t lines = scheme->num_storage_lines();
    std::vector<std::uint8_t> store(lines * 64);
    for (std::uint64_t l = 0; l < lines; ++l)
      scheme->serialize_line(
          l, std::span<std::uint8_t, 64>(store.data() + l * 64, 64));
    const secmem::CwMacKey tree_key{rng.next(), random_key(rng)};
    secmem::BonsaiTree tree(plain->layout().tree(), tree_key,
                            secmem::BonsaiTree::DeferredBuild{});
    std::vector<double> rebuild_ms;
    for (int r = 0; r < 5; ++r) {
      const auto t0 = Clock::now();
      tree.rebuild_from_lines(store);
      rebuild_ms.push_back(seconds_since(t0) * 1e3);
    }
    m.set("tree.rebuild_ms", median(rebuild_ms), "ms");
    const auto line_of = [&](std::size_t i) {
      const std::uint64_t l = scheme->storage_line_of(s.reads[i]);
      return std::pair{l, secmem::BonsaiTree::LineView(store.data() + l * 64,
                                                       64)};
    };
    std::uint64_t rejected = 0;
    m.set("tree.verify_leaf_ns",
          ns_per_call(s.reads.size(), [&](std::size_t i) {
            const auto [l, view] = line_of(i);
            rejected += !tree.verify_leaf(l, view);
          }),
          "ns");
    secmem::VerifiedTreeCache cache(tree, secmem::TreeCacheConfig{});
    for (std::size_t i = 0; i < s.reads.size(); ++i) {
      const auto [l, view] = line_of(i);
      rejected += !cache.verify(l, view);
    }
    cache_verify_ns = ns_per_call(s.reads.size(), [&](std::size_t i) {
      const auto [l, view] = line_of(i);
      rejected += !cache.verify(l, view);
    });
    m.set("tree.cache_verify_ns", cache_verify_ns, "ns");
    tally.add(rejected == 0);
  }

  // --- engine: the same stream, one client --------------------------
  const std::vector<Op>& ops = streams.per_thread.front();
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < std::min(ops.size(), kRungOps); ++i)
    bad += !replay_op(*plain, ops[i], pool, spec.byte_writes);
  const double read_ns = ns_per_call(s.reads.size(), [&](std::size_t i) {
    bad += plain->read_block(s.reads[i]).status != Status::kOk;
  });
  m.set("engine.read_ns", read_ns, "ns");
  m.set("engine.write_ns", ns_per_call(s.writes.size(), [&](std::size_t i) {
          bad += !replay_op(*plain, *s.writes[i], pool, spec.byte_writes);
        }), "ns");
  tally.add(bad == 0);
  m.set("engine.residual_ns",
        read_ns - (cache_verify_ns + read_counter_ns + unpack_ns + mac_ns +
                   keystream_ns),
        "ns");

  std::vector<std::byte> image;
  m.set("snapshot.plain_save_ms", median_save_ms(*plain, image, tally), "ms");
  m.set("snapshot.image_bytes_per_user_byte",
        static_cast<double>(image.size()) /
            static_cast<double>(spec.region_bytes),
        "B/B");
  plain.reset();

  // --- facade: the sharded engine at the same size --------------------
  auto sharded = std::make_unique<ShardedSecureMemory>(cfg, 8);
  fill_region(*sharded, pool, nullptr);
  m.set("snapshot.sharded_save_ms", median_save_ms(*sharded, image, tally),
        "ms");
  image = {};
  bad = 0;
  const double sharded_read_ns =
      ns_per_call(s.reads.size(), [&](std::size_t i) {
        bad += sharded->read_block(s.reads[i]).status != Status::kOk;
      });
  tally.add(bad == 0);
  m.set("facade.overhead_ns", sharded_read_ns - read_ns, "ns");
  const double one =
      replay_rate(*sharded, streams, pool, spec.byte_writes, 1, tally);
  sharded->reset_stats();
  const double many =
      replay_rate(*sharded, streams, pool, spec.byte_writes,
                  client_threads(), tally);
  m.set("facade.scaling_x", many / one, "x");
  secmem::StatRegistry reg;
  sharded->publish_metrics(reg);
  const auto c = [&](const char* name) {
    return static_cast<double>(
        reg.counter_value(std::string("engine.") + name));
  };
  const double reads = std::max(1.0, c("reads"));
  m.set("facade.shared_read_ratio", c("shared_reads") / reads, "ratio");
  m.set("facade.declines_per_kread", 1e3 * c("shared_read_declines") / reads,
        "count");
  m.set("tree.probe_hit_ratio",
        c("tree_cache.probe_hits") /
            std::max(1.0, c("tree_cache.probe_hits") +
                              c("tree_cache.probe_misses")),
        "ratio");
  g_sink = g_sink + sink;
}

}  // namespace perfbench
