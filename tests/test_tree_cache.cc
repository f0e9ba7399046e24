// Verified-frontier tree cache (tree/tree_cache.h): correctness against
// the eager walk, and the trust model under adversarial corruption.
//
// The cache's design invariant is *observational equivalence*: for any
// operation sequence the post-flush backing tree is bit-identical to what
// eager update_leaf calls would have produced, and every verify outcome
// matches eager verify_leaf — with one documented divergence: backing
// bytes corrupted while a node is resident are masked until the entry
// leaves the cache (the on-chip copy is not attacker-reachable). These
// tests pin down both halves: the equivalence by twin-driving an eager
// and a cached tree through randomized ops, the divergence by corrupting
// under residency and checking detection resumes after eviction/flush.
#include "tree/tree_cache.h"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/thread_annotations.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"
#include "tree/bonsai_tree.h"

namespace secmem {
namespace {

constexpr std::uint64_t kLines = 8192;  // L1=1024, L2=128, L3=16; top=3

/// An eager tree and a cached tree over the same logical leaf storage.
/// Every mutation goes to both; every check must agree.
class TreeCacheTwin : public ::testing::Test {
 protected:
  TreeCacheTwin()
      : geometry_(kLines, 3 * 1024),
        key_{0x1234'5678'9abc'def0ULL,
             Aes128::Key{0x0f, 0xed, 0xcb, 0xa9, 0x87, 0x65, 0x43, 0x21}},
        eager_tree_(geometry_, key_),
        cached_tree_(geometry_, key_),
        cache_(cached_tree_, TreeCacheConfig{8, 8}, &metrics_),
        leaves_(kLines * BonsaiTree::kLineBytes, 0) {}

  BonsaiTree::LineView line(std::uint64_t i) const {
    return BonsaiTree::LineView(
        leaves_.data() + i * BonsaiTree::kLineBytes, BonsaiTree::kLineBytes);
  }

  void set_line(std::uint64_t i, Xoshiro256& rng) {
    std::uint8_t* p = leaves_.data() + i * BonsaiTree::kLineBytes;
    for (std::size_t b = 0; b < BonsaiTree::kLineBytes; ++b)
      p[b] = static_cast<std::uint8_t>(rng.next());
  }

  void update_both(std::uint64_t i) {
    eager_tree_.update_leaf(i, line(i));
    cache_.update(i, line(i));
  }

  /// Interior + root levels of both trees must be byte-identical.
  void expect_trees_identical(const char* when) {
    for (unsigned lvl = 1; lvl < geometry_.total_levels(); ++lvl)
      for (std::uint64_t n = 0; n < geometry_.nodes_at[lvl]; ++n)
        ASSERT_EQ(eager_tree_.read_node(lvl, n), cached_tree_.read_node(lvl, n))
            << when << ": level " << lvl << " node " << n;
  }

  BonsaiGeometry geometry_;
  CwMacKey key_;
  BonsaiTree eager_tree_;
  BonsaiTree cached_tree_;
  MetricsCell metrics_;
  VerifiedTreeCache cache_;
  std::vector<std::uint8_t> leaves_;
};

TEST_F(TreeCacheTwin, FuzzEquivalenceAndFlushedTreeBitIdentical) {
  Xoshiro256 rng(0xcafe);
  for (int op = 0; op < 6000; ++op) {
    const std::uint64_t i = rng.next_below(kLines);
    if (rng.chance(0.5)) {
      set_line(i, rng);
      update_both(i);
    } else {
      const bool eager_ok = eager_tree_.verify_leaf(i, line(i));
      const bool cached_ok = cache_.verify(i, line(i));
      ASSERT_TRUE(eager_ok) << "op " << op;
      ASSERT_EQ(eager_ok, cached_ok) << "op " << op << " line " << i;
    }
    if (op % 1500 == 1499) {
      cache_.flush();
      expect_trees_identical("mid-fuzz flush");
    }
  }
  cache_.flush();
  expect_trees_identical("final flush");
  EXPECT_GT(metrics_.value(MetricId::kTreeCacheHits), 0u);
}

TEST_F(TreeCacheTwin, StaleContentRejectedColdAndWarm) {
  Xoshiro256 rng(0x51a1e);
  set_line(7, rng);
  update_both(7);
  std::array<std::uint8_t, BonsaiTree::kLineBytes> stale;
  std::memcpy(stale.data(), line(7).data(), stale.size());
  set_line(7, rng);
  update_both(7);
  const BonsaiTree::LineView stale_view(stale.data(), stale.size());
  // Warm: level-0 residency, so rejection is the 64-byte compare.
  EXPECT_FALSE(cache_.verify(7, stale_view));
  // Cold: full walk against backing.
  cache_.flush();
  EXPECT_FALSE(cache_.verify(7, stale_view));
  EXPECT_FALSE(eager_tree_.verify_leaf(7, stale_view));
  // The true bytes still verify either way.
  EXPECT_TRUE(cache_.verify(7, line(7)));
}

TEST_F(TreeCacheTwin, CorruptionUnderResidencyDetectedAfterFlush) {
  Xoshiro256 rng(0xbad);
  set_line(42, rng);
  update_both(42);
  cache_.flush();
  ASSERT_TRUE(cache_.verify(42, line(42)));  // fills the frontier

  // Corrupt the line's level-1 ancestor in backing. The resident copy
  // masks it (intentional divergence: on-chip state, attacker can't
  // reach it), but detection must resume the moment residency ends.
  cached_tree_.corrupt_node(1, BonsaiGeometry::parent_of(42), 13);
  EXPECT_TRUE(cache_.verify(42, line(42))) << "resident frontier not used";
  cache_.flush();  // entries are clean: flush drops them, no write-back
  EXPECT_FALSE(cache_.verify(42, line(42)));
  EXPECT_FALSE(cache_.verify(42, line(42))) << "failed path must not fill";
}

TEST_F(TreeCacheTwin, CorruptedCounterLineCaughtByResidentCompare) {
  Xoshiro256 rng(0xfee);
  set_line(3, rng);
  update_both(3);
  ASSERT_TRUE(cache_.verify(3, line(3)));
  // Attacker flips a bit in the (off-chip) counter line after it became
  // resident: the next verified read hands us the tampered bytes, and
  // the level-0 compare — not a MAC — rejects them.
  std::array<std::uint8_t, BonsaiTree::kLineBytes> tampered;
  std::memcpy(tampered.data(), line(3).data(), tampered.size());
  tampered[5] ^= 0x10;
  EXPECT_FALSE(cache_.verify(
      3, BonsaiTree::LineView(tampered.data(), tampered.size())));
}

TEST_F(TreeCacheTwin, CorruptionUnderResidencyDetectedAfterEviction) {
  // A deliberately tiny direct-mapped cache (16 entries) so ordinary
  // traffic recycles every slot: corruption under residency must be
  // detected once capacity pressure evicts the entry — clean evictions
  // never write the on-chip copy back over the corrupted backing bytes.
  VerifiedTreeCache tiny(cached_tree_, TreeCacheConfig{1, 1});
  Xoshiro256 rng(0xe71c);
  set_line(100, rng);
  eager_tree_.update_leaf(100, line(100));
  cached_tree_.update_leaf(100, line(100));
  ASSERT_TRUE(tiny.verify(100, line(100)));
  cached_tree_.corrupt_node(1, BonsaiGeometry::parent_of(100), 7);
  ASSERT_TRUE(tiny.verify(100, line(100)));  // masked while resident
  // 512 distinct lines spread over the tree: hundreds of fills through
  // 16 slots recycle the (0,100) and (1,12) entries many times over.
  for (std::uint64_t i = 0; i < kLines; i += 16)
    ASSERT_TRUE(tiny.verify(i, line(i)));
  EXPECT_FALSE(tiny.verify(100, line(100)));
}

TEST_F(TreeCacheTwin, WriteBackCoalescesAncestorMacWork) {
  Xoshiro256 rng(0xc0a1);
  // 1000 updates to the same line: eager would recompute every ancestor
  // MAC 1000 times; the write-back buffer defers it all to one flush.
  for (int i = 0; i < 1000; ++i) {
    set_line(9, rng);
    update_both(9);
  }
  const std::uint64_t before = metrics_.value(MetricId::kTreeCacheWritebacks);
  cache_.flush();
  const std::uint64_t writebacks =
      metrics_.value(MetricId::kTreeCacheWritebacks) - before;
  EXPECT_LE(writebacks, geometry_.total_levels());
  EXPECT_GE(writebacks, 1u);
  expect_trees_identical("after coalesced flush");
}

TEST_F(TreeCacheTwin, DisabledCacheDelegatesEagerly) {
  VerifiedTreeCache off(cached_tree_, TreeCacheConfig{0, 8});
  EXPECT_FALSE(off.enabled());
  Xoshiro256 rng(0x0ff);
  set_line(5, rng);
  eager_tree_.update_leaf(5, line(5));
  off.update(5, line(5));
  EXPECT_TRUE(off.verify(5, line(5)));
  EXPECT_EQ(off.occupied(), 0u);
  expect_trees_identical("disabled cache");
  off.flush();  // no-op, must not crash
}

TEST_F(TreeCacheTwin, ConcurrentProbesMatchEagerVerify) {
  // Shared-lock readers probe a resident hot set, clean cold lines, cold
  // lines under a corrupted level-1 node, and stale copies of both, all at
  // once. Every verdict must match eager verify_leaf, hot lines must
  // answer from residency, and probing must install nothing.
  Xoshiro256 rng(0x9b0e);
  for (std::uint64_t i = 0; i < kLines; ++i) {
    set_line(i, rng);
    update_both(i);
  }
  cache_.flush();
  constexpr std::uint64_t kHot = 64;  // lines 0..63: level-1 nodes 0..7
  for (std::uint64_t i = 0; i < kHot; ++i)
    ASSERT_TRUE(cache_.verify(i, line(i)));
  // Lines 5000..5007 share level-1 node 625, which no hot line's walk
  // touched: corrupt it in both trees, so their walks fail at level 1.
  constexpr std::uint64_t kBadParent = 625;
  ASSERT_FALSE(cache_.contains(1, kBadParent));
  eager_tree_.corrupt_node(1, kBadParent, 3);
  cached_tree_.corrupt_node(1, kBadParent, 3);
  ASSERT_FALSE(eager_tree_.verify_leaf(5000, line(5000)));
  const std::size_t occupied = cache_.occupied();
  const std::uint64_t probe_hits_before =
      metrics_.value(MetricId::kTreeCacheProbeHits);

  constexpr unsigned kThreads = 4;
  constexpr int kProbesPerThread = 3000;
  SharedMutex mu;
  std::atomic<int> mismatches{0};
  std::atomic<int> cold_hot_lines{0};
  std::vector<std::thread> readers;
  for (unsigned t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      Xoshiro256 pick(0x5eed + t);
      std::array<std::uint8_t, BonsaiTree::kLineBytes> stale;
      for (int n = 0; n < kProbesPerThread; ++n) {
        const unsigned kind = static_cast<unsigned>(pick.next_below(4));
        const std::uint64_t i = kind == 0   ? pick.next_below(kHot)
                                : kind == 1 ? 5000 + pick.next_below(8)
                                            : kHot + pick.next_below(
                                                         kLines - kHot);
        BonsaiTree::LineView content = line(i);
        if (pick.chance(0.25)) {  // a stale or tampered copy
          std::memcpy(stale.data(), content.data(), stale.size());
          stale[pick.next_below(stale.size())] ^= 0x10;
          content = BonsaiTree::LineView(stale.data(), stale.size());
        }
        const bool want = eager_tree_.verify_leaf(i, content);
        bool resident = false;
        bool got;
        {
          const ReaderMutexLock lock(mu);
          got = cache_.probe(i, content, resident);
        }
        if (got != want) ++mismatches;
        if (i < kHot && !resident) ++cold_hot_lines;
      }
    });
  }
  for (std::thread& r : readers) r.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(cold_hot_lines.load(), 0);
  EXPECT_EQ(cache_.occupied(), occupied);
  EXPECT_GT(metrics_.value(MetricId::kTreeCacheProbeHits), probe_hits_before);
}

TEST(TreeCacheClock, ReferencedWaySurvivesAndUnreferencedIsEvicted) {
  // 1024 counter lines under 8 KB of on-chip roots: level 1 is the root,
  // so a verify() installs exactly its counter line and nothing else.
  const BonsaiGeometry geometry(1024, 8 * 1024);
  ASSERT_EQ(geometry.total_levels(), 2u);
  const CwMacKey key{0x0123'4567'89ab'cdefULL,
                     Aes128::Key{0x11, 0x22, 0x33, 0x44, 0x55, 0x66}};
  BonsaiTree tree(geometry, key);
  std::vector<std::uint8_t> leaves(1024 * BonsaiTree::kLineBytes);
  Xoshiro256 rng(0xc10c);
  for (std::uint8_t& b : leaves) b = static_cast<std::uint8_t>(rng.next());
  auto view = [&](std::uint64_t i) {
    return BonsaiTree::LineView(leaves.data() + i * BonsaiTree::kLineBytes,
                                BonsaiTree::kLineBytes);
  };
  for (std::uint64_t i = 0; i < 1024; ++i) tree.update_leaf(i, view(i));

  // 1 KB, 8 ways: 16 entries in 2 sets. Ten lines of one set, in order.
  VerifiedTreeCache cache(tree, TreeCacheConfig{1, 8});
  std::vector<std::uint64_t> l;
  for (std::uint64_t i = 0; l.size() < 10; ++i)
    if (cache.set_index(0, i) == cache.set_index(0, 0)) l.push_back(i);

  // Fill the set: ways 0..7 hold l[0..7], all unreferenced, hand at way 0.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(cache.verify(l[i], view(l[i])));
  ASSERT_TRUE(cache.verify(l[0], view(l[0])));  // hit: l[0] referenced

  // The hand finds l[0] referenced, clears it and moves on; l[1] is the
  // first unreferenced way.
  ASSERT_TRUE(cache.verify(l[8], view(l[8])));
  EXPECT_TRUE(cache.contains(0, l[0]));
  EXPECT_FALSE(cache.contains(0, l[1]));
  EXPECT_TRUE(cache.contains(0, l[8]));

  // Reference everything but l[0], whose flag the hand cleared: when the
  // hand comes round it clears l[2..7] and evicts l[0].
  for (int i = 2; i < 8; ++i) ASSERT_TRUE(cache.verify(l[i], view(l[i])));
  ASSERT_TRUE(cache.verify(l[9], view(l[9])));
  EXPECT_FALSE(cache.contains(0, l[0]));
  for (int i = 2; i < 10; ++i) EXPECT_TRUE(cache.contains(0, l[i])) << i;

  // A probe hit marks a way referenced like verify() does: l[8], never
  // hit since its install, survives the next pass once probed.
  bool resident = false;
  ASSERT_TRUE(cache.probe(l[8], view(l[8]), resident));
  ASSERT_TRUE(resident);
  ASSERT_TRUE(cache.verify(l[1], view(l[1])));
  EXPECT_TRUE(cache.contains(0, l[8]));
  EXPECT_EQ(cache.occupied(), 8u);  // the other set stayed empty
}

/// ------------------------------------------------------------------
/// Engine-level: eager vs cached SecureMemory must be indistinguishable
/// through every public surface — reads, save images, tamper detection.
/// ------------------------------------------------------------------

/// CI runs this suite with SECMEM_TREE_CACHE=0 as well; hit-count
/// expectations only hold when the kill switch isn't engaged.
bool env_disables_cache() {
  const char* env = std::getenv("SECMEM_TREE_CACHE");
  return env && std::strtoul(env, nullptr, 10) == 0;
}

SecureMemoryConfig engine_config(unsigned tree_cache_kb) {
  SecureMemoryConfig config;
  config.size_bytes = 4 * 1024 * 1024;  // 1024 counter lines, 2-level walk
  config.tree_cache_kb = tree_cache_kb;
  return config;
}

TEST(TreeCacheEngine, SaveImagesBitIdenticalUnderFuzz) {
  SecureMemory eager(engine_config(0));
  SecureMemory cached(engine_config(8));
  Xoshiro256 rng(0x5a4e);
  for (int round = 0; round < 4; ++round) {
    for (int op = 0; op < 800; ++op) {
      const std::uint64_t b = rng.next_below(eager.num_blocks());
      if (rng.chance(0.6)) {
        DataBlock block{};
        for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next());
        EXPECT_EQ(eager.write_block(b, block), Status::kOk);
        EXPECT_EQ(cached.write_block(b, block), Status::kOk);
      } else {
        const auto e = eager.read_block(b);
        const auto c = cached.read_block(b);
        ASSERT_EQ(e.status, c.status);
        ASSERT_EQ(e.data, c.data);
      }
    }
    // save() is a flush barrier: the cached engine's image must come out
    // byte-for-byte identical to the eager one, every round.
    std::ostringstream eager_img, cached_img;
    EXPECT_EQ(eager.save(eager_img), Status::kOk);
    EXPECT_EQ(cached.save(cached_img), Status::kOk);
    ASSERT_EQ(eager_img.str(), cached_img.str()) << "round " << round;
  }
  if (!env_disables_cache()) {
    EXPECT_GT(cached.stats().tree_cache_hits, 0u);
  }
  EXPECT_EQ(eager.stats().tree_cache_hits, 0u);
}

TEST(TreeCacheEngine, ScrubRotateRestoreStayEquivalent) {
  SecureMemory eager(engine_config(0));
  SecureMemory cached(engine_config(8));
  Xoshiro256 rng(0x707a7e);
  for (int op = 0; op < 400; ++op) {
    DataBlock block{};
    for (auto& byte : block) byte = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t b = rng.next_below(eager.num_blocks());
    EXPECT_EQ(eager.write_block(b, block), Status::kOk);
    EXPECT_EQ(cached.write_block(b, block), Status::kOk);
  }
  // scrub_all flushes first so it sweeps the true off-chip state.
  EXPECT_EQ(eager.scrub_all().scanned, cached.scrub_all().scanned);
  // Key rotation re-encrypts everything; dirty state must not survive
  // under the old key.
  ASSERT_TRUE(eager.rotate_master_key(0xd00d));
  ASSERT_TRUE(cached.rotate_master_key(0xd00d));
  std::ostringstream eager_img, cached_img;
  EXPECT_EQ(eager.save(eager_img), Status::kOk);
  EXPECT_EQ(cached.save(cached_img), Status::kOk);
  EXPECT_EQ(eager_img.str(), cached_img.str());
  // Round-trip the cached engine through restore (which invalidates the
  // cache: the rebuilt tree shares no state with the old one).
  std::istringstream in(cached_img.str());
  SecureMemoryConfig revived_config = engine_config(8);
  revived_config.master_key = 0xd00d;  // restore derives keys from config
  SecureMemory revived(revived_config);
  ASSERT_TRUE(revived.restore(in));
  for (std::uint64_t b = 0; b < revived.num_blocks(); b += 97) {
    const auto want = eager.read_block(b);
    const auto got = revived.read_block(b);
    ASSERT_EQ(got.status, want.status);
    ASSERT_EQ(got.data, want.data);
  }
}

TEST(TreeCacheEngine, TamperDetectionMatchesEagerThroughFlushBarrier) {
  SecureMemory eager(engine_config(0));
  SecureMemory cached(engine_config(8));
  for (std::uint64_t b = 0; b < 64; ++b) {
    DataBlock block{};
    block[0] = static_cast<std::uint8_t>(b);
    EXPECT_EQ(eager.write_block(b, block), Status::kOk);
    EXPECT_EQ(cached.write_block(b, block), Status::kOk);
    // Warm the cached engine's frontier so the tamper lands while the
    // path is resident — the untrusted() accessor is the flush barrier
    // that ends residency before the attacker touches anything.
    (void)cached.read_block(b);
  }
  const std::uint64_t line = cached.counters().storage_line_of(17);
  eager.untrusted().flip_counter_bit(line, 9);
  cached.untrusted().flip_counter_bit(line, 9);
  EXPECT_EQ(eager.read_block(17).status, cached.read_block(17).status);
  EXPECT_EQ(cached.read_block(17).status, ReadStatus::kCounterTampered);

  eager.untrusted().tree().corrupt_node(1, 0, 21);
  cached.untrusted().tree().corrupt_node(1, 0, 21);
  EXPECT_EQ(eager.read_block(0).status, cached.read_block(0).status);
  EXPECT_EQ(cached.read_block(0).status, ReadStatus::kCounterTampered);
}

TEST(TreeCacheEngine, EnvKillSwitchAndCapacityOverride) {
  ASSERT_EQ(setenv("SECMEM_TREE_CACHE", "0", 1), 0);
  {
    SecureMemory mem(engine_config(8));  // config says on; env wins
    DataBlock block{};
    EXPECT_EQ(mem.write_block(1, block), Status::kOk);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(mem.read_block(1).status,
                                           ReadStatus::kOk);
    const EngineStats stats = mem.stats();
    EXPECT_EQ(stats.tree_cache_hits + stats.tree_cache_misses, 0u);
  }
  ASSERT_EQ(setenv("SECMEM_TREE_CACHE", "4", 1), 0);
  {
    SecureMemory mem(engine_config(0));  // config says off; env wins
    DataBlock block{};
    EXPECT_EQ(mem.write_block(1, block), Status::kOk);
    for (int i = 0; i < 32; ++i) EXPECT_EQ(mem.read_block(1).status,
                                           ReadStatus::kOk);
    EXPECT_GT(mem.stats().tree_cache_hits, 0u);
  }
  ASSERT_EQ(unsetenv("SECMEM_TREE_CACHE"), 0);
}

TEST(TreeCacheEngine, ShardedStressWithPerShardCaches) {
  SecureMemoryConfig config = engine_config(8);
  config.size_bytes = 1024 * 1024;
  ShardedSecureMemory mem(config, 4);
  constexpr unsigned kThreads = 4;
  constexpr std::uint64_t kPerThread = 64;  // disjoint block ranges
  std::vector<std::thread> workers;
  std::atomic<int> bad{0};
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&mem, &bad, t] {
      Xoshiro256 rng(0x7157 + t);
      const std::uint64_t base = t * kPerThread;
      for (int op = 0; op < 3000; ++op) {
        if (rng.chance(0.4)) {
          DataBlock block{};
          const std::uint64_t b = base + rng.next_below(kPerThread);
          block[0] = static_cast<std::uint8_t>(b);
          block[1] = static_cast<std::uint8_t>(t);
          EXPECT_EQ(mem.write_block(b, block), Status::kOk);
        } else {
          // Read anywhere, including other threads' hot blocks.
          const std::uint64_t b = rng.next_below(kThreads * kPerThread);
          if (mem.read_block(b).status != ReadStatus::kOk) ++bad;
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(bad.load(), 0);
  if (!env_disables_cache()) {
    EXPECT_GT(mem.stats().tree_cache_hits, 0u);
  }
  // Quiescent readback: last writer's value, verified, for every block.
  for (std::uint64_t b = 0; b < kThreads * kPerThread; ++b) {
    const auto result = mem.read_block(b);
    ASSERT_EQ(result.status, ReadStatus::kOk);
    if (result.data != DataBlock{}) {
      EXPECT_EQ(result.data[0], static_cast<std::uint8_t>(b));
    }
  }
}

TEST(TreeCacheEngine, ShardedReadOnlyHotSetWarmsWithinPulseBound) {
  // A read-only hot set on a freshly flushed sharded engine, read round
  // robin through shared reads by one thread. Each cold shared read ticks
  // the per-thread promotion pulse; one in 64 declines, and its exclusive
  // retry installs that line. With H hot counter lines and no eviction
  // among them, every line is resident after at most 64 * H cold reads,
  // whatever phase the tick starts in; after that the shared path answers
  // every read from residency and declines nothing.
  SecureMemoryConfig config = engine_config(8);
  config.size_bytes = 1024 * 1024;
  ShardedSecureMemory mem(config, 4);
  constexpr std::uint64_t kHot = 16;  // one block per counter line
  std::vector<std::uint64_t> hot;
  for (std::uint64_t i = 0; i < kHot; ++i) hot.push_back(i * 1024 + 7);
  for (const std::uint64_t b : hot) {
    DataBlock block{};
    block[0] = static_cast<std::uint8_t>(b);
    ASSERT_EQ(mem.write_block(b, block), Status::kOk);
  }
  std::ostringstream image;
  ASSERT_EQ(mem.save(image), Status::kOk);  // flush barrier: all cold

  auto counter = [&mem](const char* name) {
    StatRegistry registry;
    mem.publish_metrics(registry);
    return registry.counter_value(name);
  };
  const bool probing = !env_disables_cache() && []() {
    const char* env = std::getenv("SECMEM_SEQLOCK");
    return env == nullptr || std::strcmp(env, "0") != 0;
  }();
  constexpr int kRounds = 2000;
  std::uint64_t warm_after_misses = 0;  // 0: never reached all-resident
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t misses_before =
        counter("engine.tree_cache.probe_misses");
    for (const std::uint64_t b : hot) {
      const ReadResult result = mem.read_block(b);
      ASSERT_EQ(result.status, ReadStatus::kOk);
      ASSERT_EQ(result.data[0], static_cast<std::uint8_t>(b));
    }
    if (warm_after_misses == 0 &&
        counter("engine.tree_cache.probe_misses") == misses_before)
      warm_after_misses = misses_before;
  }
  if (!probing) return;  // no shared probes to warm
  const std::uint64_t hits = counter("engine.tree_cache.probe_hits");
  const std::uint64_t misses = counter("engine.tree_cache.probe_misses");
  ASSERT_GT(warm_after_misses, 0u);
  EXPECT_LE(warm_after_misses, 64 * kHot);
  EXPECT_EQ(misses, warm_after_misses);  // resident from then on
  // Each decline installed a distinct cold line, and none was evicted.
  EXPECT_EQ(counter("engine.shared_read_declines"), kHot);
  EXPECT_GT(hits, 20 * misses);
}

}  // namespace
}  // namespace secmem
