#include "tree/tree_cache.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/bitops.h"
#include "common/ct.h"

namespace secmem {

VerifiedTreeCache::VerifiedTreeCache(BonsaiTree& tree,
                                     const TreeCacheConfig& config,
                                     MetricsCell* metrics)
    : tree_(tree), metrics_(metrics) {
  const std::size_t total =
      static_cast<std::size_t>(config.capacity_kb) * 1024 /
      BonsaiTree::kLineBytes;
  if (total == 0) return;  // disabled: eager delegation
  ways_ = std::clamp(config.ways, 1u, kMaxWays);
  if (ways_ > total) ways_ = static_cast<unsigned>(total);
  // Power-of-two sets so set_of() is a mask; round down, never below 1.
  set_count_ = 1;
  while (set_count_ * 2 * ways_ <= total) set_count_ *= 2;
  sets_ = std::make_unique<Set[]>(set_count_);
  invalidate_all();
  path_.reserve(tree_.geometry().total_levels());
}

std::size_t VerifiedTreeCache::set_of(std::uint64_t key) const noexcept {
  // Fibonacci multiplicative hash; (level, node) keys are near-sequential,
  // this spreads them across sets.
  return static_cast<std::size_t>((key * 0x9e3779b97f4a7c15ULL) >> 32) &
         (set_count_ - 1);
}

VerifiedTreeCache::ConstSlot VerifiedTreeCache::find(
    unsigned level, std::uint64_t node) const noexcept {
  const std::uint64_t key = key_of(level, node);
  const Set& set = sets_[set_of(key)];
  // Fixed bound: one pass over the set's tag line (unused ways hold kNoTag).
  for (unsigned w = 0; w < kMaxWays; ++w)
    if (set.tag[w] == key) return {&set, w};
  return {};
}

VerifiedTreeCache::Slot VerifiedTreeCache::find(unsigned level,
                                                std::uint64_t node) noexcept {
  const ConstSlot s = std::as_const(*this).find(level, node);
  return {const_cast<Set*>(s.set), s.way};
}

std::size_t VerifiedTreeCache::occupied() const noexcept {
  std::size_t n = 0;
  for (const Set& set : sets())
    for (const std::uint64_t tag : set.tag) n += tag != kNoTag;
  return n;
}

void VerifiedTreeCache::install(unsigned level, std::uint64_t node,
                                const std::uint8_t* content, bool dirty) {
  const std::uint64_t key = key_of(level, node);
  Set& set = sets_[set_of(key)];
  unsigned victim = 0;
  while (victim < ways_ && set.tag[victim] != kNoTag) ++victim;
  if (victim == ways_) {
    // Full set: CLOCK. Referenced ways get a second chance (flag cleared,
    // hand moves on); the first unreferenced way is the victim. Ends
    // within one revolution plus one step.
    for (;;) {
      victim = set.hand;
      set.hand = static_cast<std::uint8_t>((victim + 1) % ways_);
      if (set.referenced[victim].load(std::memory_order_relaxed) == 0) break;
      set.referenced[victim].store(0, std::memory_order_relaxed);
    }
    if (set.dirty[victim]) {
      write_back({&set, victim});
      count(MetricId::kTreeCacheWritebacks);
    }
  }
  // The victim is unreferenced (empty ways are kept clear), so the new
  // line starts unreferenced: it must be hit before the hand comes round.
  set.tag[victim] = key;
  set.dirty[victim] = dirty;
  std::memcpy(set.content[victim].data(), content, BonsaiTree::kLineBytes);
  count(MetricId::kTreeCacheFills);
}

void VerifiedTreeCache::write_back(Slot s) {
  const std::uint64_t key = s.set->tag[s.way];
  const unsigned level = level_of(key);
  const std::uint64_t node = node_of(key);
  if (level > 0)
    std::memcpy(tree_.node_span(level, node).data(), s.content(),
                BonsaiTree::kLineBytes);
  // Level 0 (counter lines) is the engine's storage and never goes stale
  // here — `update` requires content already serialized — so only the tag
  // needs propagating.
  const std::uint64_t tag = tree_.mac_of(
      level, node, BonsaiTree::LineView(s.content(), BonsaiTree::kLineBytes));
  tree_.walk_from(level, node, tag,
                  [this](unsigned lvl, std::uint64_t n, unsigned slot,
                         std::uint64_t t) {
                    if (const Slot anc = find(lvl, n)) {
                      store_le64(anc.content() + 8 * slot, t);
                      anc.set->dirty[anc.way] = true;
                      return BonsaiTree::StepAction::kStopOk;
                    }
                    store_le64(tree_.node_span(lvl, n).data() + 8 * slot, t);
                    return BonsaiTree::StepAction::kContinue;
                  });
}

bool VerifiedTreeCache::verify(std::uint64_t line,
                               BonsaiTree::LineView content) {
  if (!enabled()) return tree_.verify_leaf(line, content);

  if (const Slot leaf = find(0, line)) {
    // The resident copy was authenticated on fill and tracks every
    // update, so a byte compare IS the verification — zero MACs. It is
    // still an accept/reject decision over attacker-influenced bytes, so
    // it gets the constant-time compare like every other verification.
    touch(leaf);
    count(MetricId::kTreeCacheHits);
    return ct_equal(leaf.content(), content.data(), BonsaiTree::kLineBytes);
  }

  path_.clear();
  bool truncated = false;
  const unsigned top = tree_.top_level();
  const bool ok = tree_.walk_from(
      0, line, tree_.mac_of(0, line, content),
      [&](unsigned lvl, std::uint64_t node, unsigned slot, std::uint64_t tag) {
        if (lvl < top) {
          if (const Slot anc = find(lvl, node)) {
            touch(anc);
            truncated = true;
            return ct_equal_u64(load_le64(anc.content() + 8 * slot), tag)
                       ? BonsaiTree::StepAction::kStopOk
                       : BonsaiTree::StepAction::kStopFail;
          }
          path_.emplace_back(lvl, node);
        }
        return ct_equal_u64(
                   load_le64(tree_.node_span(lvl, node).data() + 8 * slot),
                   tag)
                   ? BonsaiTree::StepAction::kContinue
                   : BonsaiTree::StepAction::kStopFail;
      });
  count(truncated ? MetricId::kTreeCacheHits : MetricId::kTreeCacheMisses);
  if (!ok) return false;

  // The whole path authenticated — it is now frontier. Copy from live
  // backing at install time, not walk time: an eviction write-back during
  // an earlier install may have refreshed a slot since the walk read it.
  // No pre-install find() needed: every queued (lvl, node) MISSED during
  // the walk, and install() only ever (re)fills the keys it is given — a
  // preceding install cannot create one of the remaining path keys, and
  // the leaf key (0, line) missed at the top of this function.
  for (const auto& [lvl, node] : path_)
    install(lvl, node, tree_.node_span(lvl, node).data(), /*dirty=*/false);
  install(0, line, content.data(), /*dirty=*/false);
  return true;
}

bool VerifiedTreeCache::probe(std::uint64_t line,
                              BonsaiTree::LineView content,
                              bool& resident) const {
  if (!enabled()) {
    resident = true;  // nothing to warm — never bounce to the writer path
    return tree_.verify_leaf(line, content);
  }

  if (const ConstSlot leaf = find(0, line)) {
    // Same verdict as verify()'s resident hit; marking the way referenced
    // is the sole mutation, and only when its flag is clear (see touch).
    touch(leaf);
    count(MetricId::kTreeCacheProbeHits);
    resident = true;
    return ct_equal(leaf.content(), content.data(), BonsaiTree::kLineBytes);
  }

  // Cold line: authenticate via the walk, truncating at any cached
  // ancestor exactly like verify() — but install nothing. `resident`
  // stays false so the caller can occasionally route the line through
  // the exclusive path, where verify() warms the frontier.
  resident = false;
  const unsigned top = tree_.top_level();
  const bool ok = tree_.walk_from(
      0, line, tree_.mac_of(0, line, content),
      [&](unsigned lvl, std::uint64_t node, unsigned slot, std::uint64_t tag) {
        if (lvl < top) {
          if (const ConstSlot anc = find(lvl, node)) {
            touch(anc);
            return ct_equal_u64(load_le64(anc.content() + 8 * slot), tag)
                       ? BonsaiTree::StepAction::kStopOk
                       : BonsaiTree::StepAction::kStopFail;
          }
        }
        return ct_equal_u64(
                   load_le64(tree_.node_span(lvl, node).data() + 8 * slot),
                   tag)
                   ? BonsaiTree::StepAction::kContinue
                   : BonsaiTree::StepAction::kStopFail;
      });
  count(MetricId::kTreeCacheProbeMisses);
  return ok;
}

void VerifiedTreeCache::update(std::uint64_t line,
                               BonsaiTree::LineView content) {
  if (!enabled()) {
    tree_.update_leaf(line, content);
    return;
  }

  // Track the new leaf bytes (never dirty: engines serialize into counter
  // storage before calling, so backing already matches).
  if (const Slot leaf = find(0, line)) {
    std::memcpy(leaf.content(), content.data(), BonsaiTree::kLineBytes);
    touch(leaf);
  } else {
    install(0, line, content.data(), /*dirty=*/false);
  }

  const std::uint64_t tag = tree_.mac_of(0, line, content);
  const std::uint64_t parent = BonsaiGeometry::parent_of(line);
  const unsigned slot = BonsaiGeometry::slot_in_parent(line);
  if (tree_.top_level() == 1) {
    // Parent is the trusted root level: nothing to defer.
    store_le64(tree_.node_span(1, parent).data() + 8 * slot, tag);
    count(MetricId::kTreeCacheHits);
    return;
  }
  if (const Slot anc = find(1, parent)) {
    store_le64(anc.content() + 8 * slot, tag);
    anc.set->dirty[anc.way] = true;
    touch(anc);
    count(MetricId::kTreeCacheHits);
    return;
  }
  // Absorb the backing bytes unverified — the same bytes the eager
  // read-modify-write folds in, so detection outcomes are unchanged (a
  // corrupted sibling slot still fails one level down) — and defer the
  // ancestor MACs until write-back.
  std::array<std::uint8_t, BonsaiTree::kLineBytes> node;
  std::memcpy(node.data(), tree_.node_span(1, parent).data(),
              BonsaiTree::kLineBytes);
  store_le64(node.data() + 8 * slot, tag);
  install(1, parent, node.data(), /*dirty=*/true);
  count(MetricId::kTreeCacheMisses);
}

void VerifiedTreeCache::flush() {
  if (!enabled()) return;
  count(MetricId::kTreeCacheFlushes);
  // Level-ascending passes: writing back a level-L node may dirty a cached
  // ancestor at L+1, which a later pass then picks up.
  const unsigned top = tree_.top_level();
  for (unsigned lvl = 0; lvl < top; ++lvl) {
    for (Set& set : sets()) {
      for (unsigned w = 0; w < ways_; ++w) {
        if (set.dirty[w] && level_of(set.tag[w]) == lvl) {
          write_back({&set, w});
          set.dirty[w] = false;
          count(MetricId::kTreeCacheWritebacks);
        }
      }
    }
  }
  invalidate_all();
}

void VerifiedTreeCache::invalidate_all() noexcept {
  for (Set& set : sets()) {
    set.tag.fill(kNoTag);
    for (std::atomic<std::uint8_t>& ref : set.referenced)
      ref.store(0, std::memory_order_relaxed);
    set.dirty.fill(false);
    set.hand = 0;
  }
}

}  // namespace secmem
