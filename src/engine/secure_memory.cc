#include "engine/secure_memory.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "common/bitops.h"
#include "common/ct.h"
#include "common/rng.h"
#include "counters/delta_counter.h"
#include "counters/dual_length_delta.h"
#include "counters/generic_delta.h"
#include "counters/monolithic.h"
#include "counters/split_counter.h"

namespace secmem {

namespace {
/// Derive independent working keys from the master secret.
struct DerivedKeys {
  Aes128::Key data_key;
  CwMacKey mac_key;
  CwMacKey tree_key;
  CwMacKey seal_key;  ///< snapshot-chain seals + delta command MACs
};

/// Resolve the tree-cache capacity: SECMEM_TREE_CACHE (an integer KB
/// count; "0" is the kill switch) overrides the config knob.
unsigned resolved_tree_cache_kb(const SecureMemoryConfig& config) {
  if (const char* env = std::getenv("SECMEM_TREE_CACHE")) {
    char* end = nullptr;
    const unsigned long kb = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0') return static_cast<unsigned>(kb);
  }
  return config.tree_cache_kb;
}

/// SECMEM_BATCH_REENC=0 forces the scalar re-encryption loop; anything
/// else — including unset — takes the batched path. Sampled once at
/// engine construction, like SECMEM_TREE_CACHE.
bool resolved_batch_reencrypt() {
  const char* env = std::getenv("SECMEM_BATCH_REENC");
  return env == nullptr || std::strcmp(env, "0") != 0;
}

DerivedKeys derive_keys(std::uint64_t master) {
  DerivedKeys keys{};
  std::uint64_t state = master;
  auto next_key = [&state](Aes128::Key& k) {
    for (int half = 0; half < 2; ++half)
      store_le64(k.data() + 8 * half, splitmix64(state));
  };
  next_key(keys.data_key);
  keys.mac_key.hash_key = splitmix64(state);
  next_key(keys.mac_key.pad_key);
  keys.tree_key.hash_key = splitmix64(state);
  next_key(keys.tree_key.pad_key);
  // Appended to the derivation chain LAST: the keys above must stay
  // bit-identical to the pre-delta derivation so full save() images and
  // all on-DIMM state are unchanged by the delta-snapshot feature.
  keys.seal_key.hash_key = splitmix64(state);
  next_key(keys.seal_key.pad_key);
  return keys;
}

/// Optional wall-clock sampling for the latency histograms. Costs two
/// steady_clock reads per operation, so it is gated on config.time_ops
/// and compiles down to a single branch when disabled.
class OpTimer {
 public:
  OpTimer(bool enabled, MetricsCell& cell, EngineHistId hist) noexcept
      : cell_(cell), hist_(hist), enabled_(enabled) {
    if (enabled_) start_ = std::chrono::steady_clock::now();
  }
  ~OpTimer() {
    if (!enabled_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    cell_.sample(hist_, ns < 0 ? 0 : static_cast<std::uint64_t>(ns));
  }

 private:
  MetricsCell& cell_;
  EngineHistId hist_;
  bool enabled_;
  std::chrono::steady_clock::time_point start_;
};
}  // namespace

std::unique_ptr<CounterScheme> SecureMemory::make_scheme(
    const SecureMemoryConfig& config) {
  if (config.generic_delta_bits != 0) {
    return std::make_unique<GenericDeltaCounters>(config.size_bytes / 64,
                                                  config.generic_delta_bits);
  }
  return make_counter_scheme(config.scheme, config.size_bytes / 64);
}

LayoutParams SecureMemory::layout_params(const SecureMemoryConfig& config,
                                         const CounterScheme& scheme) {
  LayoutParams params;
  params.data_bytes = config.size_bytes;
  params.blocks_per_counter_line = scheme.blocks_per_storage_line();
  params.onchip_bytes = config.onchip_bytes;
  params.separate_macs = config.mac_placement == MacPlacement::kSeparate;
  params.counter_bits_per_block = scheme.bits_per_block();
  return params;
}

SecureMemory::SecureMemory(const SecureMemoryConfig& config)
    : config_(config),
      scheme_(make_scheme(config)),
      layout_(layout_params(config, *scheme_)),
      keystream_(derive_keys(config.master_key).data_key),
      mac_(derive_keys(config.master_key).mac_key),
      seal_mac_(derive_keys(config.master_key).seal_key),
      corrector_(FlipAndCheck::Config{config.max_correctable_errors, 1}),
      tree_(layout_.tree(), derive_keys(config.master_key).tree_key),
      tree_cache_(tree_, TreeCacheConfig{resolved_tree_cache_kb(config), 8},
                  &metrics_),
      ciphertext_(layout_.num_blocks()),
      lanes_(layout_.num_blocks()),
      counter_store_(layout_.num_counter_lines() * 64, 0),
      shadow_ctr_(layout_.num_blocks(), 0),
      batch_reencrypt_(resolved_batch_reencrypt()),
      batch_snapshot_(batch_snapshot_enabled()) {
  assert(config.size_bytes % 64 == 0 && config.size_bytes > 0);
  if (config.mac_placement == MacPlacement::kSeparate)
    macs_.resize(layout_.num_blocks(), 0);

  // Delta granule: whole re-encryption groups AND whole counter lines,
  // so a granule's ciphertext/lane/MAC/counter payload is
  // self-contained. Allocated before the first store below — every
  // store marks its granule dirty.
  granule_blocks_ = std::lcm<std::uint64_t>(scheme_->blocks_per_group(),
                                            scheme_->blocks_per_storage_line());
  num_granules_ =
      (layout_.num_blocks() + granule_blocks_ - 1) / granule_blocks_;
  dirty_word_count_ = (num_granules_ + 63) / 64;
  dirty_words_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(dirty_word_count_);

  // Initialize every block as encrypted zeros under counter 0, so reads
  // before the first write still verify.
  reset_all_blocks({}, 0);
}

std::uint64_t SecureMemory::data_mac(std::uint64_t block,
                                     std::uint64_t counter,
                                     const DataBlock& ciphertext) const {
  // Bonsai binding: the data MAC covers (address, counter, ciphertext),
  // so replaying stale data requires replaying a stale counter — which
  // the tree catches.
  return mac_.compute(layout_.block_addr(block), counter, ciphertext);
}

void SecureMemory::store_block(std::uint64_t block, const DataBlock& plaintext,
                               std::uint64_t counter) {
  DataBlock ct = plaintext;
  keystream_.crypt(layout_.block_addr(block), counter, ct);
  const std::uint64_t tag = data_mac(block, counter, ct);
  ciphertext_[block] = ct;
  if (config_.mac_placement == MacPlacement::kEccLane) {
    lanes_[block] = mac_ecc_.pack_lane(tag, ct);
  } else {
    macs_[block] = tag;
    lanes_[block] = secded_.encode(ct);
  }
  shadow_ctr_[block] = counter;
  mark_dirty(block);
}

void SecureMemory::store_blocks(std::span<const std::uint64_t> blocks,
                                std::span<const DataBlock> plaintexts,
                                std::span<const std::uint64_t> counters) {
  const std::size_t n = blocks.size();
  assert(plaintexts.size() == n && counters.size() == n);
  std::vector<std::uint64_t>& addrs = scratch_.store_addrs;
  addrs.resize(n);
  for (std::size_t i = 0; i < n; ++i) addrs[i] = layout_.block_addr(blocks[i]);
  std::vector<DataBlock>& cts = scratch_.cts;
  cts.assign(plaintexts.begin(), plaintexts.end());
  keystream_.crypt_batch(addrs, counters, cts);
  std::vector<std::uint64_t>& tags = scratch_.tags;
  tags.resize(n);
  mac_.compute_batch(addrs, counters, cts, tags);
  // Lane packing runs batched too (one codec call per store batch), then
  // scatters to each block's slot. Bit-identical to per-block pack_lane/
  // encode — see the batch codec contracts in src/ecc/.
  std::vector<EccLane>& packed = scratch_.packed;
  packed.resize(n);
  if (config_.mac_placement == MacPlacement::kEccLane) {
    mac_ecc_.pack_lane_batch(tags, cts, packed);
  } else {
    secded_.encode_batch(cts, packed);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t b = blocks[i];
    ciphertext_[b] = cts[i];
    lanes_[b] = packed[i];
    if (config_.mac_placement != MacPlacement::kEccLane) macs_[b] = tags[i];
    shadow_ctr_[b] = counters[i];
    mark_dirty(b);
  }
}

void SecureMemory::reset_all_blocks(std::span<const DataBlock> plaintexts,
                                    std::uint64_t counter) {
  assert(plaintexts.empty() || plaintexts.size() == layout_.num_blocks());
  constexpr std::size_t kChunk = 128;
  std::array<std::uint64_t, kChunk> blocks;
  std::array<std::uint64_t, kChunk> counters;
  counters.fill(counter);
  const std::vector<DataBlock> zeros(plaintexts.empty() ? kChunk : 0);
  for (std::uint64_t base = 0; base < layout_.num_blocks(); base += kChunk) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kChunk, layout_.num_blocks() - base));
    for (std::size_t i = 0; i < n; ++i) blocks[i] = base + i;
    store_blocks({blocks.data(), n},
                 plaintexts.empty()
                     ? std::span<const DataBlock>(zeros.data(), n)
                     : plaintexts.subspan(base, n),
                 {counters.data(), n});
  }
  for (std::uint64_t line = 0; line < layout_.num_counter_lines(); ++line)
    sync_counter_line(line);
}

void SecureMemory::sync_counter_line(std::uint64_t line) {
  std::span<std::uint8_t, 64> dest(counter_store_.data() + line * 64, 64);
  scheme_->serialize_line(line, dest);
  tree_cache_.update(line, dest);
}

std::uint64_t SecureMemory::reencrypt_group(std::uint64_t group,
                                            std::uint64_t skip_block,
                                            std::uint64_t new_counter) {
  const unsigned group_blocks = scheme_->blocks_per_group();
  const std::uint64_t first = group * group_blocks;
  const std::uint64_t end =
      std::min<std::uint64_t>(first + group_blocks, layout_.num_blocks());

  if (!batch_reencrypt_) {
    // Scalar reference path (SECMEM_BATCH_REENC=0): decrypt and re-store
    // one block at a time. The batched path below must leave bit-identical
    // state — the differential tests diff whole save images against this.
    std::uint64_t rewritten = 0;
    for (std::uint64_t b = first; b < end; ++b) {
      if (b == skip_block) continue;
      DataBlock plain = ciphertext_[b];
      keystream_.crypt(layout_.block_addr(b), shadow_ctr_[b], plain);
      store_block(b, plain, new_counter);
      ++rewritten;
    }
    return rewritten;
  }

  // Batched: gather the group's stale ciphertexts and old counters, run
  // ONE crypt_batch decrypt over the 4-wide AES kernel, then re-store the
  // lot through store_blocks (batched encrypt + compute_batch MACs +
  // pack_lane_batch/encode_batch lanes).
  const std::size_t cap = static_cast<std::size_t>(end - first);
  std::vector<std::uint64_t>& blocks = scratch_.blocks;
  std::vector<std::uint64_t>& addrs = scratch_.addrs;
  std::vector<std::uint64_t>& old_ctrs = scratch_.old_ctrs;
  std::vector<DataBlock>& plains = scratch_.plains;
  blocks.clear();
  addrs.clear();
  old_ctrs.clear();
  plains.clear();
  blocks.reserve(cap);
  addrs.reserve(cap);
  old_ctrs.reserve(cap);
  plains.reserve(cap);
  for (std::uint64_t b = first; b < end; ++b) {
    if (b == skip_block) continue;
    blocks.push_back(b);
    addrs.push_back(layout_.block_addr(b));
    old_ctrs.push_back(shadow_ctr_[b]);
    plains.push_back(ciphertext_[b]);
  }
  keystream_.crypt_batch(addrs, old_ctrs, plains);  // CTR: decrypt == crypt
  std::vector<std::uint64_t>& new_ctrs = scratch_.new_ctrs;
  new_ctrs.assign(blocks.size(), new_counter);
  store_blocks(blocks, plains, new_ctrs);
  return blocks.size();
}

Status SecureMemory::write_block(std::uint64_t block,
                                 const DataBlock& plaintext) {
  check_block(block, "write_block");
  const OpTimer timer(config_.time_ops, metrics_,
                      EngineHistId::kWriteLatencyNs);
  metrics_.add(MetricId::kWrites);
  const WriteOutcome outcome = scheme_->on_write(block);

  if (outcome.event == CounterEvent::kReencrypt) {
    // Re-encrypt every other block in the group under the new common
    // counter (paper Fig 5a) in one batched pass; the counter-line/tree
    // sync below covers the whole group (one update_leaf per group).
    metrics_.add(MetricId::kGroupReencryptions);
    const std::uint64_t rewritten =
        reencrypt_group(outcome.group, block, outcome.counter);
    metrics_.sample(EngineHistId::kReencryptedBlocks, rewritten);
    trace(TraceEvent::Kind::kReencrypt, Status::kOk, block);
  }

  store_block(block, plaintext, outcome.counter);
  sync_counter_line(scheme_->storage_line_of(block));
  trace(TraceEvent::Kind::kWrite, Status::kOk, block);
  return Status::kOk;
}

void SecureMemory::account_read(const ReadResult& result,
                                std::uint64_t block) const noexcept {
  metrics_.add(MetricId::kReads);
  if (result.mac_evaluations != 0) {
    metrics_.add(MetricId::kMacEvaluations, result.mac_evaluations);
    metrics_.sample(EngineHistId::kMacEvalsPerCorrection,
                    result.mac_evaluations);
  }
  switch (result.status) {
    case ReadStatus::kOk: break;
    case ReadStatus::kCorrectedMacField:
      metrics_.add(MetricId::kCorrectedMacField);
      break;
    case ReadStatus::kCorrectedData:
      metrics_.add(MetricId::kCorrectedData);
      break;
    case ReadStatus::kCorrectedWord:
      metrics_.add(MetricId::kCorrectedWord);
      break;
    case ReadStatus::kIntegrityViolation:
      metrics_.add(MetricId::kIntegrityViolations);
      break;
    case ReadStatus::kCounterTampered:
      metrics_.add(MetricId::kCounterTampers);
      break;
    case ReadStatus::kRegionPoisoned:
      metrics_.add(MetricId::kIntegrityViolations);
      break;
    case ReadStatus::kSnapshotIoError:  // a snapshot outcome, never a read's
      break;
  }
  trace(TraceEvent::Kind::kRead, result.status, block);
}

namespace {
/// Promotion pulse: one in kSharedProbePulse shared reads of a cold
/// counter line declines to the exclusive path, so verify() can install
/// the line into the verified frontier. The decimator is per thread, so
/// deciding writes no state other readers touch: a shared tick would put
/// every reader's cold reads on one contended cache line. 64 keeps
/// declines near 1.5% of cold reads — a uniform stream, whose lines
/// are evicted before reuse, rarely pays the exclusive lock — while a
/// read-only hot set of H lines that fits the cache is still fully
/// resident after at most 64 * H cold reads on one thread.
constexpr std::uint32_t kSharedProbePulse = 64;
thread_local std::uint32_t shared_cold_ticks = 0;

bool pulse_declines() noexcept {
  return ++shared_cold_ticks % kSharedProbePulse == 0;
}

/// Blocks per pass of the read core: one pad_batch call and one
/// stack-resident counter-line table per chunk, no heap allocation.
constexpr std::size_t kReadChunk = 64;

[[noreturn]] void throw_block_range(const char* op, std::uint64_t block) {
  throw std::out_of_range(std::string("SecureMemory::") + op + ": block " +
                          std::to_string(block) + " out of range");
}
}  // namespace

void SecureMemory::check_block(std::uint64_t block, const char* op) const {
  if (block >= layout_.num_blocks()) throw_block_range(op, block);
}

// Forced inline, like read_core below: the batch-of-one read is the hot
// path, and each call layer measurably added to its latency.
[[gnu::always_inline]] inline void SecureMemory::verify_block(
    std::uint64_t block, std::uint64_t addr, std::uint64_t counter,
    std::uint64_t pad, ReadResult& result) const {
  // An aligned local copy: ReadResult::data sits at byte offset 1, where
  // the MAC hash and the keystream would run on split loads.
  DataBlock ct = ciphertext_[block];
  ReadStatus status = ReadStatus::kOk;
  std::uint64_t mac_evaluations = 0;
  if (config_.mac_placement == MacPlacement::kEccLane) {
    // Unpack the MAC lane; its own 7-bit Hamming code repairs single-bit
    // lane faults (paper §3.3).
    const auto unpacked = mac_ecc_.unpack_lane(lanes_[block]);
    if (unpacked.status == MacEccCodec::MacStatus::kUncorrectable) {
      result = {ReadStatus::kIntegrityViolation, {}, 0};
      return;
    }
    if (!mac_.verify_with_pad(pad, ct, unpacked.mac)) {
      // Flip-and-check (paper §3.4), incremental: one full hash of the
      // block, then each candidate trial is a precomputed GF(2^64) delta
      // XORed in — same search order and trial counts as the generic
      // brute force, a fraction of the work per trial. The hoisted pad
      // serves every candidate under this (addr, counter).
      const CorrectionResult fix =
          corrector_.correct_incremental(ct, mac_, pad, unpacked.mac);
      if (fix.status == CorrectionStatus::kUncorrectable) {
        result = {ReadStatus::kIntegrityViolation, {}, fix.mac_evaluations};
        return;
      }
      ct = fix.data;
      status = ReadStatus::kCorrectedData;
      mac_evaluations = fix.mac_evaluations;
    } else if (unpacked.status == MacEccCodec::MacStatus::kCorrectedSingle) {
      status = ReadStatus::kCorrectedMacField;
    }
  } else {
    // Conventional path: SEC-DED per word, then the MAC from its region.
    const auto decoded = secded_.decode(ct, lanes_[block]);
    if (decoded.any_uncorrectable ||
        !mac_.verify_with_pad(pad, decoded.data, macs_[block])) {
      result = {ReadStatus::kIntegrityViolation, {}, 0};
      return;
    }
    ct = decoded.data;
    if (decoded.any_corrected) status = ReadStatus::kCorrectedWord;
  }
  // Only now — counter line, MAC and correction all verified — decrypt.
  keystream_.crypt(addr, counter, ct);
  result = {status, ct, mac_evaluations};
}

template <typename Sink>
[[gnu::always_inline]] inline void SecureMemory::read_core(
    std::span<const std::uint64_t> blocks, std::span<ReadResult> results,
    VerifiedTreeCache* fill, Sink&& sink) const {
  // time_ops samples per-block latency, so its chunk is one block.
  const std::size_t chunk = config_.time_ops ? 1 : kReadChunk;
  for (std::size_t base = 0; base < blocks.size(); base += chunk) {
    const OpTimer timer(config_.time_ops, metrics_,
                        EngineHistId::kReadLatencyNs);
    const std::size_t n = std::min(chunk, blocks.size() - base);
    std::array<std::uint64_t, kReadChunk> addrs, counters, pads;
    for (std::size_t i = 0; i < n; ++i) {
      addrs[i] = layout_.block_addr(blocks[base + i]);
      // The scheme's registers are on-chip state: the decoded counter is
      // the true one whenever the stored line authenticates below.
      counters[i] = scheme_->read_counter(blocks[base + i]);
    }
    mac_.pad_batch({addrs.data(), n}, {counters.data(), n}, {pads.data(), n});

    // Each distinct counter line authenticates once per chunk: the line
    // bytes cannot change while the caller holds the lock, so one walk
    // per line is observationally equivalent to one per block.
    struct LineState {
      std::uint64_t line;
      bool ok;
      bool resident;
    };
    std::array<LineState, kReadChunk> lines;
    std::size_t num_lines = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t block = blocks[base + i];
      const std::uint64_t line = scheme_->storage_line_of(block);
      std::size_t l = num_lines;  // 1-based slot; newest line first
      while (l > 0 && lines[l - 1].line != line) --l;
      if (l == 0) {  // first block of this line in the chunk
        l = ++num_lines;
        bool resident = true;
        const BonsaiTree::LineView bytes(counter_store_.data() + line * 64,
                                         64);
        const bool ok = fill != nullptr
                            ? fill->verify(line, bytes)
                            : tree_cache_.probe(line, bytes, resident);
        lines[l - 1] = {line, ok, resident};
      }
      const LineState& state = lines[l - 1];
      const bool declined = !state.resident && pulse_declines();
      if (declined) {
        // Promotion pulse: bounce this read to the exclusive path, whose
        // verify() may install the line. Nothing is accounted — the
        // caller's retry does the read (and the books) for real.
        metrics_.add(MetricId::kSharedReadDeclines);
      } else {
        if (state.ok)
          verify_block(block, addrs[i], counters[i], pads[i],
                       results[base + i]);
        else
          results[base + i] = {ReadStatus::kCounterTampered, {}, 0};
        if (fill == nullptr) metrics_.add(MetricId::kSharedReads);
      }
      if (!sink(base + i, declined)) return;
    }
  }
}

ReadResult SecureMemory::read_block(std::uint64_t block) {
  check_block(block, "read_block");
  ReadResult result;
  read_core({&block, 1}, {&result, 1}, &tree_cache_, [&](std::size_t, bool) {
    account_read(result, block);
    return true;
  });
  return result;
}

std::vector<ReadResult> SecureMemory::read_blocks(
    std::span<const std::uint64_t> blocks) {
  for (const std::uint64_t block : blocks) check_block(block, "read_blocks");
  std::vector<ReadResult> results(blocks.size());
  read_core(blocks, results, &tree_cache_, [&](std::size_t i, bool) {
    account_read(results[i], blocks[i]);
    return true;
  });
  return results;
}

std::optional<ReadResult> SecureMemory::read_block_shared(std::uint64_t block,
                                                          bool account) const {
  check_block(block, "read_block_shared");
  ReadResult result;
  bool declined = false;
  read_core({&block, 1}, {&result, 1}, nullptr, [&](std::size_t, bool d) {
    declined = d;
    if (!d && account) account_read(result, block);
    return true;
  });
  if (declined) return std::nullopt;
  return result;
}

void SecureMemory::read_blocks_shared(std::span<const std::uint64_t> blocks,
                                      std::span<ReadResult> results,
                                      std::vector<std::uint32_t>& declined)
    const {
  assert(results.size() == blocks.size());
  for (const std::uint64_t block : blocks)
    check_block(block, "read_blocks_shared");
  read_core(blocks, results, nullptr, [&](std::size_t i, bool d) {
    if (d)
      declined.push_back(static_cast<std::uint32_t>(i));
    else
      account_read(results[i], blocks[i]);
    return true;
  });
}

std::optional<Status> SecureMemory::read_range(std::uint64_t addr,
                                               std::span<std::uint8_t> out,
                                               VerifiedTreeCache* fill) const {
  if (addr > config_.size_bytes || out.size() > config_.size_bytes - addr)
    throw std::out_of_range("SecureMemory::read_bytes: range exceeds region");
  // A shared attempt accounts only once it stands: a decline must leave
  // no footprint, so the exclusive retry's books match a single call.
  struct Pending {
    std::uint64_t block;
    ReadResult result;
  };
  std::vector<Pending> pending;
  Status folded = Status::kOk;
  std::uint64_t trace_block = addr / 64;
  bool declined = false;
  const std::uint64_t end = addr + out.size();
  const std::uint64_t end_block = out.empty() ? addr / 64 : (end + 63) / 64;
  // One read_core pass per 8 blocks (one 8-wide pad_batch lane): the
  // default-initialized results array stays small for short ranges.
  constexpr std::size_t kRangeChunk = 8;
  std::array<std::uint64_t, kRangeChunk> ids;
  std::array<ReadResult, kRangeChunk> results;
  for (std::uint64_t first = addr / 64;
       first < end_block && status_ok(folded) && !declined;
       first += kRangeChunk) {
    const std::size_t n = static_cast<std::size_t>(
        std::min<std::uint64_t>(kRangeChunk, end_block - first));
    std::iota(ids.begin(), ids.begin() + n, first);
    read_core({ids.data(), n}, {results.data(), n}, fill,
              [&](std::size_t i, bool d) {
      if (d) {
        declined = true;
        return false;
      }
      const std::uint64_t block = ids[i];
      const ReadResult& r = results[i];
      if (fill != nullptr)
        account_read(r, block);
      else
        pending.push_back({block, r});
      folded = worse(folded, r.status);
      if (!status_ok(r.status)) {
        trace_block = block;
        return false;
      }
      const std::uint64_t lo = std::max(addr, block * 64);
      const std::uint64_t hi = std::min(end, block * 64 + 64);
      std::memcpy(out.data() + (lo - addr), r.data.data() + (lo - block * 64),
                  hi - lo);
      return true;
    });
  }
  if (declined) return std::nullopt;
  metrics_.add(MetricId::kByteReads);
  metrics_.sample(EngineHistId::kByteReadBytes, out.size());
  for (const Pending& p : pending) account_read(p.result, p.block);
  trace(TraceEvent::Kind::kByteRead, folded, trace_block);
  return folded;
}

std::optional<Status> SecureMemory::read_bytes_shared(
    std::uint64_t addr, std::span<std::uint8_t> out) const {
  return read_range(addr, out, nullptr);
}

Status SecureMemory::read_bytes(std::uint64_t addr,
                                std::span<std::uint8_t> out) {
  return *read_range(addr, out, &tree_cache_);
}

Status SecureMemory::write_blocks(std::span<const BlockWrite> writes) {
  for (const BlockWrite& w : writes) check_block(w.block, "write_blocks");
  if (config_.time_ops) {
    Status folded = Status::kOk;
    for (const BlockWrite& w : writes)
      folded = worse(folded, write_block(w.block, w.data));
    return folded;
  }

  // Counter-scheme events are processed strictly in request order;
  // stores buffer up so the crypto runs batched, and flush before any
  // group re-encryption so it observes exactly the ciphertexts and
  // shadow counters the sequential semantics would.
  std::vector<std::uint64_t> pend_blocks, pend_counters;
  std::vector<DataBlock> pend_plains;
  std::vector<std::uint64_t> dirty_lines;
  auto flush = [&] {
    if (pend_blocks.empty()) return;
    store_blocks(pend_blocks, pend_plains, pend_counters);
    pend_blocks.clear();
    pend_plains.clear();
    pend_counters.clear();
  };

  for (const BlockWrite& w : writes) {
    metrics_.add(MetricId::kWrites);
    const WriteOutcome outcome = scheme_->on_write(w.block);
    if (outcome.event == CounterEvent::kReencrypt) {
      flush();
      metrics_.add(MetricId::kGroupReencryptions);
      const std::uint64_t rewritten =
          reencrypt_group(outcome.group, w.block, outcome.counter);
      metrics_.sample(EngineHistId::kReencryptedBlocks, rewritten);
      trace(TraceEvent::Kind::kReencrypt, Status::kOk, w.block);
    }
    pend_blocks.push_back(w.block);
    pend_plains.push_back(w.data);
    pend_counters.push_back(outcome.counter);
    dirty_lines.push_back(scheme_->storage_line_of(w.block));
    trace(TraceEvent::Kind::kWrite, Status::kOk, w.block);
  }
  flush();

  // One counter-line/tree sync per dirty line; the scheme state already
  // reflects every write, so the serialized lines and tree paths match
  // what per-write syncing would have left behind.
  std::sort(dirty_lines.begin(), dirty_lines.end());
  dirty_lines.erase(std::unique(dirty_lines.begin(), dirty_lines.end()),
                    dirty_lines.end());
  for (const std::uint64_t line : dirty_lines) sync_counter_line(line);
  return Status::kOk;
}

ScrubStatus SecureMemory::scrub_block(std::uint64_t block, bool deep) {
  check_block(block, "scrub_block");
  metrics_.add(MetricId::kScrubbedBlocks);
  if (!deep && config_.mac_placement == MacPlacement::kEccLane) {
    // Quick scan (paper §3.3): ciphertext parity vs the scrub bit, plus
    // the MAC field's own Hamming syndrome — two parity-class checks, no
    // MAC computation.
    const std::uint64_t lane = load_le64(lanes_[block].data());
    if (mac_ecc_.scrub_ok(lane, ciphertext_[block]) &&
        mac_ecc_.unpack(lane).status == MacEccCodec::MacStatus::kOk) {
      return ScrubStatus::kClean;
    }
  } else if (!deep) {
    // Conventional lane: per-word syndromes are the quick check.
    const auto decoded = secded_.decode(ciphertext_[block], lanes_[block]);
    if (!decoded.any_corrected && !decoded.any_uncorrectable)
      return ScrubStatus::kClean;
  }

  // Something looks off (or deep scrub requested): run the full verified
  // read and heal the backing store from its corrected output.
  const ReadResult result = read_block(block);
  ScrubStatus scrubbed = ScrubStatus::kUncorrectable;
  switch (result.status) {
    case ReadStatus::kOk:
      scrubbed = ScrubStatus::kClean;
      break;
    case ReadStatus::kCorrectedMacField:
    case ReadStatus::kCorrectedData:
    case ReadStatus::kCorrectedWord:
      // Re-encrypting under the *same* counter reproduces the correct
      // ciphertext + lane: the fault is scrubbed out of DRAM.
      store_block(block, result.data, shadow_ctr_[block]);
      metrics_.add(MetricId::kScrubRepairs);
      scrubbed = result.status == ReadStatus::kCorrectedMacField
                     ? ScrubStatus::kRepairedMacField
                     : ScrubStatus::kRepairedData;
      break;
    case ReadStatus::kCounterTampered:
      scrubbed = ScrubStatus::kCounterTampered;
      break;
    case ReadStatus::kIntegrityViolation:
    case ReadStatus::kRegionPoisoned:
    case ReadStatus::kSnapshotIoError:  // never a read's; fail closed anyway
      scrubbed = ScrubStatus::kUncorrectable;
      break;
  }
  if (scrubbed == ScrubStatus::kUncorrectable ||
      scrubbed == ScrubStatus::kCounterTampered)
    metrics_.add(MetricId::kScrubUncorrectable);
  trace(TraceEvent::Kind::kScrub, to_status(scrubbed), block);
  return scrubbed;
}

ScrubReport SecureMemory::scrub_all(bool deep) {
  // Flush barrier: the sweep must observe off-chip truth, not trusted
  // resident copies — a latent fault in a tree node that happens to be
  // cached would otherwise be masked for the whole scan.
  tree_cache_.flush();
  ScrubReport report;
  for (std::uint64_t block = 0; block < layout_.num_blocks(); ++block) {
    ++report.scanned;
    switch (scrub_block(block, deep)) {
      case ScrubStatus::kClean: ++report.quick_clean; break;
      case ScrubStatus::kRepairedMacField: ++report.repaired_mac; break;
      case ScrubStatus::kRepairedData: ++report.repaired_data; break;
      case ScrubStatus::kUncorrectable: ++report.uncorrectable; break;
      case ScrubStatus::kCounterTampered: ++report.counter_tampered; break;
      case ScrubStatus::kRegionPoisoned: report.region_poisoned = true; break;
    }
  }
  return report;
}

namespace {
/// Domain constants for the snapshot-chain MACs (CwMac::compute_prf,
/// ≤56 bits). These MACs are nonce-FREE by construction: chain roots
/// repeat at every alignment point and epochs reset on restore, so the
/// data path's XOR-pad Carter-Wegman form — whose security dies with
/// the first reused (addr, counter) pad — must never be used here.
constexpr std::uint64_t kSealDomain = 0x5ea1'0000'0001ULL;
constexpr std::uint64_t kCmdMacDomain = 0x5ea1'0000'0002ULL;

void write_u64(std::ostream& out, std::uint64_t v) {
  std::uint8_t buf[8];
  store_le64(buf, v);
  out.write(reinterpret_cast<const char*>(buf), 8);
}

std::uint64_t read_u64(std::istream& in) {
  std::uint8_t buf[8] = {};
  in.read(reinterpret_cast<char*>(buf), 8);
  return load_le64(buf);
}

// The contiguous vectors ARE the serialized layout: one bulk stream call
// per section depends on the element types packing without padding.
static_assert(sizeof(DataBlock) == kBlockBytes);
static_assert(sizeof(EccLane) == kEccLaneBytes);

/// MACs per endian-conversion chunk (64 KiB of stream traffic a flush).
constexpr std::size_t kMacChunk = 8192;
/// Delta image framing ahead of the command stream: magic, then nine
/// u64 fields (geometry, epochs, base seal, command length, MAC).
constexpr std::size_t kDeltaHeaderBytes =
    sizeof(SecureMemory::kDeltaMagic) + 9 * 8;
}  // namespace

std::uint64_t SecureMemory::image_bytes() const noexcept {
  const unsigned top = layout_.tree().total_levels() - 1;
  return sizeof(kImageMagic) + 4 * 8 +
         layout_.num_blocks() * (kBlockBytes + kEccLaneBytes) +
         macs_.size() * 8 + counter_store_.size() +
         layout_.tree().nodes_at[top] * 64;
}

std::uint64_t SecureMemory::max_delta_image_bytes() const noexcept {
  const unsigned top = layout_.tree().total_levels() - 1;
  const std::uint64_t delta_bytes =
      kDeltaHeaderBytes + delta::max_stream_bytes(delta_geometry()) +
      layout_.tree().nodes_at[top] * 64;
  return std::max(image_bytes(), delta_bytes);
}

Status SecureMemory::save(std::ostream& out) {
  // Flush barrier: write-back the deferred MAC propagation so the image
  // is bit-identical to what the eager path would persist.
  tree_cache_.flush();
  out.write(kImageMagic, sizeof(kImageMagic));
  write_u64(out, config_.size_bytes);
  write_u64(out, static_cast<std::uint64_t>(config_.scheme));
  write_u64(out, static_cast<std::uint64_t>(config_.mac_placement));
  write_u64(out, config_.generic_delta_bits);

  // Off-chip state, exactly what sits on the (NV)DIMMs.
  if (batch_snapshot_) {
    // Chunked path: ciphertext and lane vectors are contiguous and
    // byte-identical to the per-element layout (static_asserts above),
    // so each section is one stream call; the MAC words stream through
    // the engine-owned chunk buffer with store_le64 conversion.
    out.write(reinterpret_cast<const char*>(ciphertext_.data()),
              static_cast<std::streamsize>(ciphertext_.size() *
                                           sizeof(DataBlock)));
    out.write(reinterpret_cast<const char*>(lanes_.data()),
              static_cast<std::streamsize>(lanes_.size() * sizeof(EccLane)));
    if (!macs_.empty()) {
      std::vector<std::uint8_t>& buf = scratch_.io_bytes;
      buf.resize(std::min(macs_.size(), kMacChunk) * 8);
      for (std::size_t base = 0; base < macs_.size(); base += kMacChunk) {
        const std::size_t n = std::min(kMacChunk, macs_.size() - base);
        for (std::size_t i = 0; i < n; ++i)
          store_le64(buf.data() + 8 * i, macs_[base + i]);
        out.write(reinterpret_cast<const char*>(buf.data()),
                  static_cast<std::streamsize>(8 * n));
      }
    }
  } else {
    // Scalar reference (SECMEM_BATCH_SNAPSHOT=0): one stream call per
    // element. The chunked path above must emit bit-identical bytes —
    // the differential tests diff whole images across the two.
    for (const DataBlock& ct : ciphertext_)
      out.write(reinterpret_cast<const char*>(ct.data()), 64);
    for (const EccLane& lane : lanes_)
      out.write(reinterpret_cast<const char*>(lane.data()), 8);
    for (const std::uint64_t mac : macs_) write_u64(out, mac);
  }
  out.write(reinterpret_cast<const char*>(counter_store_.data()),
            static_cast<std::streamsize>(counter_store_.size()));

  // Sealed root snapshot: the on-chip root level of the tree (a handful
  // of nodes — never the bandwidth term).
  const unsigned top = layout_.tree().total_levels() - 1;
  for (std::uint64_t node = 0; node < layout_.tree().nodes_at[top];
       ++node) {
    const auto bytes = tree_.read_node(top, node);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  // A full image is always a valid delta base — but only if it actually
  // persisted. On stream failure keep the previous alignment point (it
  // still describes the last image that made it out) and surface the
  // error; a silent kOk here would chain future deltas on a lost base.
  out.flush();
  if (!out) return Status::kSnapshotIoError;
  // Align so the next save_delta diffs against exactly what was just
  // persisted.
  align_chain();
  return Status::kOk;
}

std::optional<SecureMemory::StagedRestore> SecureMemory::stage_restore(
    std::istream& in) const {
  return stage_restore(in, config_.master_key);
}

std::optional<SecureMemory::StagedRestore> SecureMemory::stage_restore(
    std::istream& in, std::uint64_t master_key) const {
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kImageMagic, sizeof(magic)) != 0)
    return std::nullopt;
  return stage_restore_tail(in, master_key);
}

std::optional<SecureMemory::StagedRestore> SecureMemory::stage_restore_tail(
    std::istream& in, std::uint64_t master_key) const {
  if (read_u64(in) != config_.size_bytes) return std::nullopt;
  if (read_u64(in) != static_cast<std::uint64_t>(config_.scheme))
    return std::nullopt;
  if (read_u64(in) != static_cast<std::uint64_t>(config_.mac_placement))
    return std::nullopt;
  if (read_u64(in) != config_.generic_delta_bits) return std::nullopt;

  // Read the off-chip image into staging storage — engine state is not
  // touched anywhere in this function. The batched path defers the
  // tree's zero-leaf build: rebuild_from_lines below overwrites every
  // slot the image's leaves reach, so building zero MACs first would be
  // pure waste (the scalar path keeps the zero build its update_leaf
  // walks patch).
  const CwMacKey tree_key = derive_keys(master_key).tree_key;
  // Staging storage is adopted from the arena (the state vectors the
  // last commit replaced — right-sized and page-warm; empty vectors on
  // the first restore or in scalar mode, where resize allocates). Every
  // byte of every section is overwritten by the reads below, so stale
  // recycled contents can never leak into a staged image.
  StagedRestore staged{master_key,
                       std::move(snap_arena_.ciphertext),
                       std::move(snap_arena_.lanes),
                       std::move(snap_arena_.macs),
                       std::move(snap_arena_.counter_store),
                       batch_snapshot_
                           ? BonsaiTree(layout_.tree(), tree_key,
                                        BonsaiTree::DeferredBuild{})
                           : BonsaiTree(layout_.tree(), tree_key)};
  staged.ciphertext.resize(layout_.num_blocks());
  staged.lanes.resize(layout_.num_blocks());
  staged.macs.resize(macs_.size());
  staged.counter_store.resize(counter_store_.size());
  if (batch_snapshot_) {
    // Chunked reads, mirroring save(): contiguous sections in one stream
    // call each; the MAC words land in their own storage and convert
    // endianness in place (each element independently re-read through
    // load_le64 — the identity on little-endian hosts).
    in.read(reinterpret_cast<char*>(staged.ciphertext.data()),
            static_cast<std::streamsize>(staged.ciphertext.size() *
                                         sizeof(DataBlock)));
    in.read(reinterpret_cast<char*>(staged.lanes.data()),
            static_cast<std::streamsize>(staged.lanes.size() *
                                         sizeof(EccLane)));
    if (!staged.macs.empty()) {
      in.read(reinterpret_cast<char*>(staged.macs.data()),
              static_cast<std::streamsize>(staged.macs.size() * 8));
      for (std::uint64_t& mac : staged.macs) {
        std::uint8_t raw[8];
        std::memcpy(raw, &mac, 8);
        mac = load_le64(raw);
      }
    }
  } else {
    for (DataBlock& ct : staged.ciphertext)
      in.read(reinterpret_cast<char*>(ct.data()), 64);
    for (EccLane& lane : staged.lanes)
      in.read(reinterpret_cast<char*>(lane.data()), 8);
    for (std::uint64_t& mac : staged.macs) mac = read_u64(in);
  }
  in.read(reinterpret_cast<char*>(staged.counter_store.data()),
          static_cast<std::streamsize>(staged.counter_store.size()));
  if (!in) return std::nullopt;

  // Rebuild the tree from the image's counter lines and check its root
  // level against the sealed snapshot — offline counter tamper dies here.
  if (batch_snapshot_) {
    // Bottom-up bulk rebuild: O(lines) batched MACs instead of the
    // O(lines x depth) scalar MACs of per-leaf root walks. Bit-identical
    // final tree (see BonsaiTree::rebuild_from_lines).
    staged.tree.rebuild_from_lines(staged.counter_store);
  } else {
    for (std::uint64_t line = 0; line < layout_.num_counter_lines();
         ++line) {
      staged.tree.update_leaf(
          line,
          BonsaiTree::LineView(staged.counter_store.data() + line * 64, 64));
    }
  }
  const unsigned top = layout_.tree().total_levels() - 1;
  for (std::uint64_t node = 0; node < layout_.tree().nodes_at[top];
       ++node) {
    std::array<std::uint8_t, 64> sealed{};
    in.read(reinterpret_cast<char*>(sealed.data()), 64);
    const auto computed = staged.tree.read_node(top, node);
    if (!in || !ct_equal(computed.data(), sealed.data(), sealed.size()))
      return std::nullopt;
  }
  return staged;
}

void SecureMemory::commit_restore(StagedRestore&& staged) {
  if (staged.master_key != config_.master_key) {
    // The image was staged under a different master (a shard stranded
    // mid-rotation being recovered): adopt it and re-derive the working
    // keys the ciphertext/MACs/tree in the image were produced with.
    config_.master_key = staged.master_key;
    const DerivedKeys keys = derive_keys(staged.master_key);
    keystream_ = CtrKeystream(keys.data_key);
    mac_ = CwMac(keys.mac_key);
    seal_mac_ = CwMac(keys.seal_key);
  }
  // Swap rather than move-assign: the replaced state vectors survive in
  // `staged` and are parked in the arena below, so the next
  // stage_restore reuses their (right-sized, already-faulted) pages.
  std::swap(ciphertext_, staged.ciphertext);
  std::swap(lanes_, staged.lanes);
  std::swap(macs_, staged.macs);
  std::swap(counter_store_, staged.counter_store);
  tree_ = std::move(staged.tree);
  tree_cache_.invalidate_all();  // cached state described the old tree
  if (batch_snapshot_) {
    // One virtual dispatch per region for the line decode and the shadow
    // counter refill (schemes override read_counters with direct group
    // walks) — same state as the per-line/per-block loops below.
    scheme_->deserialize_all(counter_store_);
    scheme_->read_counters(shadow_ctr_);
  } else {
    for (std::uint64_t line = 0; line < layout_.num_counter_lines();
         ++line) {
      scheme_->deserialize_line(
          line, std::span<const std::uint8_t, 64>(
                    counter_store_.data() + line * 64, 64));
    }
    for (std::uint64_t b = 0; b < layout_.num_blocks(); ++b)
      shadow_ctr_[b] = scheme_->read_counter(b);
  }
  if (batch_snapshot_) {
    snap_arena_.ciphertext = std::move(staged.ciphertext);
    snap_arena_.lanes = std::move(staged.lanes);
    snap_arena_.macs = std::move(staged.macs);
    snap_arena_.counter_store = std::move(staged.counter_store);
  }
  metrics_.add(MetricId::kRestores);
  trace(TraceEvent::Kind::kRestore, Status::kOk, 0);
  // Full images carry no chain state: the restored image becomes epoch
  // 0's base, and a delta sealed against it applies on any instance
  // that restored it (the seal covers the root level, not the epoch).
  snap_epoch_ = 0;
  align_chain();
}

void SecureMemory::wipe_to_zeros() {
  // Leave the region in a valid, freshly-zeroed state. The cache is
  // dropped without write-back: it describes the pre-wipe tree, which
  // is being discarded either way.
  scheme_ = make_scheme(config_);
  tree_ =
      BonsaiTree(layout_.tree(), derive_keys(config_.master_key).tree_key);
  tree_cache_.invalidate_all();
  reset_all_blocks({}, 0);
  // The delta chain is broken: nothing will ever have this wiped state
  // as its base, so the next save_delta must emit a full image.
  snap_epoch_ = 0;
  has_base_ = false;
  mark_all_dirty();
}

bool SecureMemory::restore(std::istream& in) {
  std::optional<StagedRestore> staged = stage_restore(in);
  if (!staged) {
    wipe_to_zeros();
    trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
    return false;
  }
  commit_restore(std::move(*staged));
  return true;
}

/// ---------------------------------------------------------------------
/// Incremental (delta) snapshots.
/// ---------------------------------------------------------------------
namespace {
/// Concatenated root-level bytes — the material both chain seals and
/// delta trailers are built from.
void append_root_level(const SecureRegionLayout& layout,
                       const BonsaiTree& tree,
                       std::vector<std::uint8_t>& out) {
  const unsigned top = layout.tree().total_levels() - 1;
  for (std::uint64_t node = 0; node < layout.tree().nodes_at[top]; ++node) {
    const auto bytes = tree.read_node(top, node);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
}
}  // namespace

void SecureMemory::mark_all_dirty() noexcept {
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w)
    dirty_words_[w].store(~std::uint64_t{0}, std::memory_order_relaxed);
}

void SecureMemory::clear_dirty() noexcept {
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w)
    dirty_words_[w].store(0, std::memory_order_relaxed);
}

std::uint64_t SecureMemory::dirty_granules() const noexcept {
  std::uint64_t count = 0;
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w) {
    std::uint64_t word = dirty_words_[w].load(std::memory_order_relaxed);
    if (w == dirty_word_count_ - 1 && num_granules_ % 64 != 0)
      word &= (std::uint64_t{1} << (num_granules_ % 64)) - 1;
    count += static_cast<std::uint64_t>(std::popcount(word));
  }
  return count;
}

delta::Geometry SecureMemory::delta_geometry() const noexcept {
  delta::Geometry geo;
  geo.num_blocks = layout_.num_blocks();
  geo.blocks_per_line = scheme_->blocks_per_storage_line();
  geo.num_lines = layout_.num_counter_lines();
  geo.granule_blocks = granule_blocks_;
  geo.separate_macs = !macs_.empty();
  return geo;
}

delta::ConstSections SecureMemory::delta_sections() const noexcept {
  return {ciphertext_, lanes_, macs_, counter_store_};
}

std::uint64_t SecureMemory::seal_root_bytes(
    std::span<const std::uint8_t> root_bytes) const noexcept {
  // PRF mode, not the XOR-pad data MAC: every alignment point seals a
  // different root byte string under this one key, and both the seal
  // (delta header, plaintext) and the root bytes (trailer/full image)
  // are attacker-visible — XOR-pad reuse would hand out known-plaintext
  // hash-key equations. The PRF form has no uniqueness requirement.
  return seal_mac_.compute_prf(kSealDomain, root_bytes);
}

std::uint64_t SecureMemory::root_seal() {
  tree_cache_.flush();
  std::vector<std::uint8_t> root;
  append_root_level(layout_, tree_, root);
  return seal_root_bytes(root);
}

void SecureMemory::align_chain() {
  base_seal_ = root_seal();
  has_base_ = true;
  clear_dirty();
}

std::uint64_t SecureMemory::delta_cmd_mac(
    std::uint64_t base_epoch, std::uint64_t new_epoch,
    std::uint64_t base_seal, std::span<const std::uint8_t> cmd,
    std::span<const std::uint8_t> trailer) const noexcept {
  // The MAC covers everything a decoder acts on: the geometry header,
  // both epochs, the base seal, the command length, the command bytes,
  // and the expected-root trailer. Only the magic and the MAC itself
  // stay outside. The epochs are authenticated METADATA only, never a
  // MAC nonce — the epoch space is reused under one seal key (restore
  // resets it), so only the nonce-free PRF form below is sound here.
  std::vector<std::uint8_t> message;
  message.reserve(8 * 8 + cmd.size() + trailer.size());
  const auto put = [&message](std::uint64_t v) {
    std::uint8_t le[8];
    store_le64(le, v);
    message.insert(message.end(), le, le + 8);
  };
  put(config_.size_bytes);
  put(static_cast<std::uint64_t>(config_.scheme));
  put(static_cast<std::uint64_t>(config_.mac_placement));
  put(config_.generic_delta_bits);
  put(base_epoch);
  put(new_epoch);
  put(base_seal);
  put(cmd.size());
  message.insert(message.end(), cmd.begin(), cmd.end());
  message.insert(message.end(), trailer.begin(), trailer.end());
  return seal_mac_.compute_prf(kCmdMacDomain, message);
}

Status SecureMemory::save_delta(std::ostream& out) {
  if (!has_base_) {
    // No usable base (fresh engine, broken chain): fall back to a full
    // image — which save() re-bases the chain on, so the NEXT
    // save_delta is incremental again.
    metrics_.add(MetricId::kDeltaSaveFallbacks);
    return save(out);
  }
  tree_cache_.flush();

  // Drain the dirty bitmap (relaxed loads: snapshot entry points run
  // under the engine's exclusive synchronization contract).
  std::vector<std::uint64_t> dirty(dirty_word_count_);
  for (std::uint64_t w = 0; w < dirty_word_count_; ++w)
    dirty[w] = dirty_words_[w].load(std::memory_order_relaxed);

  const delta::Geometry geo = delta_geometry();
  std::vector<std::uint8_t> cmd;
  const std::uint64_t dirty_count =
      delta::encode_from_dirty(geo, delta_sections(), dirty, cmd);

  std::vector<std::uint8_t> trailer;
  append_root_level(layout_, tree_, trailer);
  const std::uint64_t new_epoch = snap_epoch_ + 1;
  const std::uint64_t mac =
      delta_cmd_mac(snap_epoch_, new_epoch, base_seal_, cmd, trailer);

  out.write(kDeltaMagic, sizeof(kDeltaMagic));
  write_u64(out, config_.size_bytes);
  write_u64(out, static_cast<std::uint64_t>(config_.scheme));
  write_u64(out, static_cast<std::uint64_t>(config_.mac_placement));
  write_u64(out, config_.generic_delta_bits);
  write_u64(out, snap_epoch_);
  write_u64(out, new_epoch);
  write_u64(out, base_seal_);
  write_u64(out, cmd.size());
  write_u64(out, mac);
  out.write(reinterpret_cast<const char*>(cmd.data()),
            static_cast<std::streamsize>(cmd.size()));
  out.write(reinterpret_cast<const char*>(trailer.data()),
            static_cast<std::streamsize>(trailer.size()));

  // A lost delta breaks the chain SILENTLY — every later delta would
  // seal against a base that never persisted — so a stream failure must
  // not advance it. Epoch, base seal, and dirty bitmap stay put: the
  // next save_delta re-emits everything since the last good alignment
  // point against the still-valid old base.
  out.flush();
  if (!out) return Status::kSnapshotIoError;

  snap_epoch_ = new_epoch;
  align_chain();
  metrics_.add(MetricId::kDeltaSaves);
  metrics_.sample(EngineHistId::kDeltaImageBytes,
                  kDeltaHeaderBytes + cmd.size() + trailer.size());
  metrics_.sample(EngineHistId::kDeltaDirtyGranules, dirty_count);
  return Status::kOk;
}

std::optional<SecureMemory::StagedDelta> SecureMemory::stage_delta(
    std::istream& in) {
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kDeltaMagic, sizeof(magic)) != 0)
    return std::nullopt;
  return stage_delta_tail(in);
}

std::optional<SecureMemory::StagedDelta> SecureMemory::stage_delta_tail(
    std::istream& in) {
  if (read_u64(in) != config_.size_bytes) return std::nullopt;
  if (read_u64(in) != static_cast<std::uint64_t>(config_.scheme))
    return std::nullopt;
  if (read_u64(in) != static_cast<std::uint64_t>(config_.mac_placement))
    return std::nullopt;
  if (read_u64(in) != config_.generic_delta_bits) return std::nullopt;
  const std::uint64_t base_epoch = read_u64(in);
  const std::uint64_t new_epoch = read_u64(in);
  const std::uint64_t base_seal = read_u64(in);
  const std::uint64_t cmd_len = read_u64(in);
  const std::uint64_t mac = read_u64(in);
  if (!in) return std::nullopt;

  // Bound the allocation before trusting cmd_len.
  const delta::Geometry geo = delta_geometry();
  if (cmd_len > delta::max_stream_bytes(geo)) return std::nullopt;

  StagedDelta staged;
  staged.new_epoch = new_epoch;
  staged.cmd.resize(cmd_len);
  in.read(reinterpret_cast<char*>(staged.cmd.data()),
          static_cast<std::streamsize>(staged.cmd.size()));
  const unsigned top = layout_.tree().total_levels() - 1;
  staged.trailer.resize(layout_.tree().nodes_at[top] * 64);
  in.read(reinterpret_cast<char*>(staged.trailer.data()),
          static_cast<std::streamsize>(staged.trailer.size()));
  if (!in) return std::nullopt;

  // Verify-before-apply, in authentication order: (1) the command
  // section MAC — nothing below is interpreted until the whole stream
  // is known authentic; (2) the base seal against the engine's CURRENT
  // root — a delta only applies on the exact state it was diffed
  // against (a stale or cross-chain delta dies here, region intact);
  // (3) structural validation of the command stream.
  if (!ct_equal_u64(
          delta_cmd_mac(base_epoch, new_epoch, base_seal, staged.cmd,
                        staged.trailer),
          mac))
    return std::nullopt;
  if (!ct_equal_u64(root_seal(), base_seal)) return std::nullopt;
  if (!delta::parse(geo, staged.cmd, staged.cmds)) return std::nullopt;
  return staged;
}

bool SecureMemory::commit_delta(StagedDelta&& staged) {
  const delta::Geometry geo = delta_geometry();
  delta::MutSections sections{ciphertext_, lanes_, macs_, counter_store_};
  // The staged delta was authenticated in stage_delta_tail (command MAC
  // + base-seal ct_equal_u64, then delta::parse) before this commit ran;
  // the stage/commit split is the verify-before-apply boundary itself.
  delta::apply(geo, staged.cmds,  // secmem-lint: allow(verify-before-apply)
               staged.cmd, sections);

  // Refresh the derived state of every granule the stream wrote:
  // counter-scheme registers from the new line bytes, tree leaves
  // through the verified-frontier update path (O(dirty x depth), not a
  // full rebuild — the in-place payoff on restore), and the per-block
  // shadow counters.
  for (const delta::Command& cmd : staged.cmds) {
    if (cmd.op == delta::Command::kSkip) continue;
    for (std::uint64_t g = cmd.dst; g < cmd.dst + cmd.n; ++g) {
      const std::uint64_t line0 = geo.line_start(g);
      for (std::uint64_t line = line0; line < line0 + geo.lines_in(g);
           ++line) {
        const std::span<std::uint8_t, 64> bytes(
            counter_store_.data() + line * 64, 64);
        scheme_->deserialize_line(line, bytes);
        tree_cache_.update(line, bytes);
      }
      const std::uint64_t b0 = geo.block_start(g);
      for (std::uint64_t b = b0; b < b0 + geo.blocks_in(g); ++b)
        shadow_ctr_[b] = scheme_->read_counter(b);
    }
  }

  // Defense-in-depth: the MAC-covered trailer pins the post-apply root.
  // A mismatch can only mean the base seal collided (negligible), but
  // serving data off a mismatched tree is never acceptable — wipe.
  tree_cache_.flush();
  std::vector<std::uint8_t> root;
  root.reserve(staged.trailer.size());
  append_root_level(layout_, tree_, root);
  if (root.size() != staged.trailer.size() ||
      !ct_equal(root.data(), staged.trailer.data(), root.size())) {
    wipe_to_zeros();
    metrics_.add(MetricId::kDeltaRejects);
    trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
    return false;
  }

  snap_epoch_ = staged.new_epoch;
  align_chain();
  metrics_.add(MetricId::kDeltaRestores);
  trace(TraceEvent::Kind::kRestore, Status::kOk, 0);
  return true;
}

bool SecureMemory::restore_delta(std::istream& in) {
  char magic[8] = {};
  in.read(magic, sizeof(magic));
  if (in && std::memcmp(magic, kImageMagic, sizeof(magic)) == 0) {
    // Full image: ordinary restore semantics, including wipe-on-failure.
    std::optional<StagedRestore> staged =
        stage_restore_tail(in, config_.master_key);
    if (!staged) {
      wipe_to_zeros();
      trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
      return false;
    }
    commit_restore(std::move(*staged));
    return true;
  }
  if (!in || std::memcmp(magic, kDeltaMagic, sizeof(magic)) != 0) {
    metrics_.add(MetricId::kDeltaRejects);
    trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
    return false;
  }
  // Delta image: verified in full before any byte lands, so a rejection
  // leaves the region EXACTLY as it was (crash/restore-loop contract).
  std::optional<StagedDelta> staged = stage_delta_tail(in);
  if (!staged) {
    metrics_.add(MetricId::kDeltaRejects);
    trace(TraceEvent::Kind::kRestore, Status::kIntegrityViolation, 0);
    return false;
  }
  return commit_delta(std::move(*staged));
}

bool SecureMemory::rotate_master_key(std::uint64_t new_master) {
  // Flush barrier: phase 1 must authenticate against off-chip truth so a
  // rotation cannot launder state the eager path would have rejected.
  tree_cache_.flush();
  // Phase 1: recover every plaintext under the current keys. Any
  // verification failure aborts with the region untouched — re-keying
  // must never launder tampered data into a freshly-authenticated state.
  std::vector<DataBlock> plaintexts(layout_.num_blocks());
  {
    constexpr std::uint64_t kChunk = 128;
    std::array<std::uint64_t, kChunk> chunk_blocks;
    for (std::uint64_t base = 0; base < layout_.num_blocks();
         base += kChunk) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kChunk, layout_.num_blocks() - base));
      for (std::size_t i = 0; i < n; ++i) chunk_blocks[i] = base + i;
      const auto results = read_blocks({chunk_blocks.data(), n});
      for (std::size_t i = 0; i < n; ++i) {
        if (!status_ok(results[i].status)) {
          trace(TraceEvent::Kind::kKeyRotation, results[i].status, base + i);
          return false;
        }
        plaintexts[base + i] = results[i].data;
      }
    }
  }

  // Phase 2: rebuild the cryptographic state. Fresh keys make every
  // (addr, counter) pair fresh again, so counters restart at zero.
  config_.master_key = new_master;
  const DerivedKeys keys = derive_keys(new_master);
  keystream_ = CtrKeystream(keys.data_key);
  mac_ = CwMac(keys.mac_key);
  seal_mac_ = CwMac(keys.seal_key);
  tree_ = BonsaiTree(layout_.tree(), keys.tree_key);
  tree_cache_.invalidate_all();  // phase-1 reads refilled it; old tree
  scheme_ = make_scheme(config_);
  std::fill(shadow_ctr_.begin(), shadow_ctr_.end(), 0);
  // The rotation breaks the snapshot chain: every byte re-encrypts and
  // the seal key itself changed, so no prior base exists. The next
  // save_delta emits a full image and re-bases the chain under the new
  // key — the rolling-rotation-across-a-chain contract.
  has_base_ = false;
  mark_all_dirty();

  // Phase 3: re-encrypt everything and re-authenticate counter storage.
  reset_all_blocks(plaintexts, 0);
  metrics_.add(MetricId::kKeyRotations);
  trace(TraceEvent::Kind::kKeyRotation, Status::kOk, 0);
  return true;
}

Status SecureMemory::write_bytes(std::uint64_t addr,
                                 std::span<const std::uint8_t> bytes) {
  // Overflow-safe: `addr + bytes.size()` wraps for addr near UINT64_MAX
  // and would sail past the range check.
  if (addr > config_.size_bytes || bytes.size() > config_.size_bytes - addr)
    throw std::out_of_range("SecureMemory::write_bytes: range exceeds region");
  metrics_.add(MetricId::kByteWrites);
  metrics_.sample(EngineHistId::kByteWriteBytes, bytes.size());
  if (bytes.empty()) return Status::kOk;
  Status folded = Status::kOk;

  // All-or-nothing: only the partial blocks at the edges of the range
  // need their old contents, so they are the only blocks whose
  // verification can fail. Pre-verify them BEFORE mutating anything —
  // a mid-range failure must not leave a torn write behind.
  const std::uint64_t first_block = addr / 64;
  const std::uint64_t last_block = (addr + bytes.size() - 1) / 64;
  const bool head_partial = addr % 64 != 0 || bytes.size() < 64;
  const bool tail_partial = (addr + bytes.size()) % 64 != 0;

  DataBlock head_plain{};
  DataBlock tail_plain{};
  if (head_partial) {
    const ReadResult r = read_block(first_block);
    folded = worse(folded, r.status);
    if (!status_ok(r.status)) {
      trace(TraceEvent::Kind::kByteWrite, r.status, first_block);
      return r.status;
    }
    head_plain = r.data;
  }
  if (tail_partial && last_block != first_block) {
    const ReadResult r = read_block(last_block);
    folded = worse(folded, r.status);
    if (!status_ok(r.status)) {
      trace(TraceEvent::Kind::kByteWrite, r.status, last_block);
      return r.status;
    }
    tail_plain = r.data;
  }

  std::uint64_t pos = addr;
  std::size_t done = 0;
  while (done < bytes.size()) {
    const std::uint64_t block = pos / 64;
    const std::size_t offset = pos % 64;
    const std::size_t chunk = std::min<std::size_t>(64 - offset,
                                                    bytes.size() - done);
    // Middle blocks are fully overwritten; edge blocks merge into the
    // pre-verified plaintext. (Group re-encryptions triggered by earlier
    // iterations change ciphertexts, never plaintexts, so the cached
    // copies stay valid.)
    DataBlock plain{};
    if (chunk != 64)
      plain = block == first_block ? head_plain : tail_plain;
    std::memcpy(plain.data() + offset, bytes.data() + done, chunk);
    folded = worse(folded, write_block(block, plain));
    pos += chunk;
    done += chunk;
  }
  trace(TraceEvent::Kind::kByteWrite, folded, first_block);
  return folded;
}

EngineStats SecureMemory::stats() const noexcept {
  return engine_stats_from({&metrics_});
}

void SecureMemory::reset_stats() noexcept { metrics_.reset(); }

void SecureMemory::publish_metrics(StatRegistry& registry,
                                   const std::string& prefix) const {
  publish_cells({&metrics_}, registry, prefix);
}

SecureMemory::UntrustedView::BlockSnapshot
SecureMemory::UntrustedView::snapshot(std::uint64_t block) const {
  const std::uint64_t line = m_.scheme_->storage_line_of(block);
  BlockSnapshot snap;
  snap.ciphertext = m_.ciphertext_.at(block);
  snap.lane = m_.lanes_.at(block);
  snap.mac = m_.macs_.empty() ? 0 : m_.macs_.at(block);
  snap.counter_line.assign(m_.counter_store_.begin() + line * 64,
                           m_.counter_store_.begin() + line * 64 + 64);
  return snap;
}

void SecureMemory::UntrustedView::restore(std::uint64_t block,
                                          const BlockSnapshot& snapshot) {
  const std::uint64_t line = m_.scheme_->storage_line_of(block);
  m_.ciphertext_.at(block) = snapshot.ciphertext;
  m_.lanes_.at(block) = snapshot.lane;
  if (!m_.macs_.empty()) m_.macs_.at(block) = snapshot.mac;
  std::memcpy(m_.counter_store_.data() + line * 64,
              snapshot.counter_line.data(), 64);
}

}  // namespace secmem
