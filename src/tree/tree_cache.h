// VerifiedTreeCache — the verified frontier of a Bonsai tree, cached in
// trusted on-chip storage (paper §2, §5: the 8 KB metadata cache the
// performance argument assumes; SecDDR and Sealer make the same bet).
//
// A bounded set-associative cache of (level, node) entries sitting
// between the engines and BonsaiTree:
//
//  - Read path (`verify`): entries are *verified on fill* and *trusted
//    while resident*, so an authentication walk stops at the first
//    cached ancestor instead of climbing to the on-chip root — O(depth)
//    CW-MACs become O(1) amortized on a hot working set. Counter lines
//    themselves (level 0) are cached too: a level-0 hit replaces the
//    whole walk with one 64-byte compare against the verified copy.
//
//  - Write path (`update`): a write-back dirty-node buffer. A leaf
//    update lands its new tag in the (cached) level-1 node and marks it
//    dirty; ancestor MACs are recomputed once per eviction/flush instead
//    of once per write, coalescing the root-ward propagation of hot
//    lines.
//
// Observational equivalence with the eager path is the design invariant:
// for any sequence of engine operations the post-`flush()` backing tree
// is bit-identical to what eager update_leaf calls would have produced
// (interior contents are a pure bottom-up function of the leaf lines),
// and every verify outcome matches eager verify_leaf. Write-path fills
// adopt the node's backing bytes *unverified* — exactly the bytes the
// eager read-modify-write would fold in — so a corrupted sibling slot is
// still detected one level down, when that sibling's own tag fails to
// match, just as in the eager path. The one intentional divergence:
// backing bytes corrupted *while the node is resident* are masked until
// the entry leaves the cache (on-chip copies are not attacker-reachable;
// the stale off-chip bytes are never consumed). Engines therefore wrap
// every untrusted-surface excursion in a flush barrier — see
// SecureMemory::UntrustedView::tree().
//
// Recency is CLOCK, not LRU: each way has a one-byte *referenced* flag
// that any hit sets, and each set has a hand that, on an install into a
// full set, clears referenced ways as it passes and evicts the first
// unreferenced one. A new line is installed unreferenced, just behind the
// hand, so it must be hit once within a revolution to survive the next
// pass; lines that are installed and never reused (uniform traffic) leave
// first. Keys live in a packed per-set tag line (8 ways x 8 bytes = one
// 64-byte line), so a lookup reads that line and, on a hit, one content
// line — never the other ways' contents.
//
// Thread safety: the mutating operations (verify/update/flush/...) need
// exclusive ownership, statically enforced one level up: each engine's
// cache lives inside a SecureMemory that is itself SECMEM_GUARDED_BY the
// owning facade/shard lock (engine/concurrent.h, engine/sharded_memory.h),
// so under clang -Wthread-safety an unlocked path to them does not
// compile. `probe()` is the one concurrent entry point: a const read-side
// verify that any number of shared-lock holders may run at once — it
// never fills and never moves the hand. Its only cache mutation is
// setting a referenced flag, and only when the flag is clear (a relaxed
// load, then a relaxed store of 1): no read-modify-write, and a hot set
// whose flags are already set, like every cold probe, writes no cache
// line at all. The flags are cleared only by the hand, under the
// exclusive lock, so shared readers stop writing once a working set is
// resident. Metrics go to an optional MetricsCell (relaxed fetch_adds,
// the one shared write left on the probe path), so the observability
// plane reads them without touching any lock.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/metrics.h"
#include "tree/bonsai_tree.h"

namespace secmem {

struct TreeCacheConfig {
  /// Total capacity in KB of 64-byte entries; 0 disables the cache
  /// entirely (every call degrades to the eager BonsaiTree walk).
  unsigned capacity_kb = 8;
  /// Associativity, clamped to [1, VerifiedTreeCache::kMaxWays].
  unsigned ways = 8;
};

class VerifiedTreeCache {
 public:
  /// Ways per set: one set's packed tags fill exactly one 64-byte line.
  static constexpr unsigned kMaxWays = 8;

  /// `tree` must outlive the cache. `metrics` (optional) receives the
  /// kTreeCache* counters; pass the engine's hot-path cell.
  VerifiedTreeCache(BonsaiTree& tree, const TreeCacheConfig& config,
                    MetricsCell* metrics = nullptr);

  VerifiedTreeCache(const VerifiedTreeCache&) = delete;
  VerifiedTreeCache& operator=(const VerifiedTreeCache&) = delete;

  bool enabled() const noexcept { return set_count_ != 0; }

  /// Cache-accelerated BonsaiTree::verify_leaf — identical outcome for
  /// any state reachable through the engine API. The verdict must be
  /// consumed: ignoring it is accepting unauthenticated data.
  [[nodiscard]] bool verify(std::uint64_t line, BonsaiTree::LineView content);

  /// Read-side verify: the identical accept/reject verdict to verify(),
  /// but const — no fills, no path installation, no dirty-state changes;
  /// the only cache mutation is setting a clear referenced flag. Safe to
  /// call from any number of threads holding the owning lock SHARED
  /// (engines' seqlock read fast path). `resident` reports whether a
  /// verified level-0 copy answered the probe (true) or the walk had to
  /// recompute MACs (false) — callers use a false to occasionally bounce
  /// the read to the exclusive path so verify() can warm the frontier.
  [[nodiscard]] bool probe(std::uint64_t line, BonsaiTree::LineView content,
                           bool& resident) const;

  /// Cache-accelerated BonsaiTree::update_leaf. `content` must already
  /// be the line's current backing bytes (engines serialize into counter
  /// storage first). Ancestor MAC recomputation is deferred: the tree's
  /// backing nodes go stale until eviction or flush().
  void update(std::uint64_t line, BonsaiTree::LineView content);

  /// Barrier: write every dirty node back (bottom-up, each dirty
  /// ancestor MAC recomputed once), then drop all residency. Afterwards
  /// the backing tree is bit-identical to the eager path's and nothing
  /// is trusted — required before save(), scrub sweeps, key rotation,
  /// and any untrusted-surface access.
  void flush();

  /// Drop everything *without* write-back — for when the backing tree
  /// was just rebuilt from scratch (restore, key rotation) and cached
  /// state is meaningless.
  void invalidate_all() noexcept;

  /// Occupied entries (tests/benches).
  std::size_t occupied() const noexcept;

  /// Whether (level, node) is resident, without counting or marking it
  /// referenced, and the set it maps to (tests).
  bool contains(unsigned level, std::uint64_t node) const noexcept {
    return enabled() && static_cast<bool>(find(level, node));
  }
  std::size_t set_index(unsigned level, std::uint64_t node) const noexcept {
    return set_of(key_of(level, node));
  }

 private:
  /// Tag of an empty way. No real key matches: levels stay far below
  /// 0xffff.
  static constexpr std::uint64_t kNoTag = ~std::uint64_t{0};

  /// One set: the packed tag line find() scans, then a line of per-way
  /// flags and the hand, then the ways' contents, one 64-byte line each.
  struct alignas(64) Set {
    /// (level << 48) | node per way, kNoTag when empty. Ways at and past
    /// ways_ stay empty, so lookups scan all kMaxWays at a fixed bound.
    std::array<std::uint64_t, kMaxWays> tag{};
    /// CLOCK referenced flag per way. Atomic (relaxed) because probe()
    /// sets it from shared-lock readers; mutable because that is the one
    /// mutation the const read path performs. Set only when clear, and
    /// cleared only by the hand under exclusive ownership.
    mutable std::array<std::atomic<std::uint8_t>, kMaxWays> referenced{};
    /// Ancestor MACs (and possibly backing) stale.
    std::array<bool, kMaxWays> dirty{};
    /// Next way the CLOCK sweep examines; written under exclusive
    /// ownership only.
    std::uint8_t hand = 0;
    alignas(64) std::array<std::array<std::uint8_t, BonsaiTree::kLineBytes>,
                           kMaxWays> content{};
  };

  /// A resident way: its set and index. Null set = not resident.
  template <typename S>
  struct BasicSlot {
    S* set = nullptr;
    unsigned way = 0;
    explicit operator bool() const noexcept { return set != nullptr; }
    auto* content() const noexcept { return set->content[way].data(); }
  };
  using Slot = BasicSlot<Set>;
  using ConstSlot = BasicSlot<const Set>;

  static std::uint64_t key_of(unsigned level, std::uint64_t node) noexcept {
    return (static_cast<std::uint64_t>(level) << 48) | node;
  }
  static unsigned level_of(std::uint64_t key) noexcept {
    return static_cast<unsigned>(key >> 48);
  }
  static std::uint64_t node_of(std::uint64_t key) noexcept {
    return key & ((1ULL << 48) - 1);
  }

  std::size_t set_of(std::uint64_t key) const noexcept;
  ConstSlot find(unsigned level, std::uint64_t node) const noexcept;
  Slot find(unsigned level, std::uint64_t node) noexcept;
  /// Mark a hit way referenced. Load first and store only when clear, so
  /// re-hitting a referenced way writes nothing (shared readers must not
  /// bounce the set's flag line between cores).
  template <typename S>
  static void touch(BasicSlot<S> s) noexcept {
    std::atomic<std::uint8_t>& ref = s.set->referenced[s.way];
    if (ref.load(std::memory_order_relaxed) == 0)
      ref.store(1, std::memory_order_relaxed);
  }
  void count(MetricId id) const noexcept {
    if (metrics_) metrics_->add(id);
  }
  std::span<Set> sets() noexcept { return {sets_.get(), set_count_}; }
  std::span<const Set> sets() const noexcept {
    return {sets_.get(), set_count_};
  }

  /// Install (level, node) with `content`, unreferenced, into an empty way
  /// of its set, else over the CLOCK victim (written back first if dirty).
  /// Must not already be present.
  void install(unsigned level, std::uint64_t node, const std::uint8_t* content,
               bool dirty);

  /// Write a dirty entry's content to the backing store and propagate its
  /// recomputed MAC root-ward: cached ancestors absorb the new tag (and
  /// turn dirty); uncached levels are eagerly read-modify-written, exactly
  /// like BonsaiTree::update_leaf. Never fills, so eviction cannot recurse.
  void write_back(Slot s);

  BonsaiTree& tree_;
  MetricsCell* metrics_;
  unsigned ways_ = 0;
  /// A raw array (not std::vector): sets hold atomics and are neither
  /// movable nor copyable. set_count_ == 0 means disabled.
  std::unique_ptr<Set[]> sets_;
  std::size_t set_count_ = 0;
  /// Scratch for verify(): interior nodes the walk authenticated, to be
  /// installed on success.
  std::vector<std::pair<unsigned, std::uint64_t>> path_;
};

}  // namespace secmem
