// Differential test of the verified-read entry points.
//
// One region image — written plaintext plus DRAM faults injected through
// the untrusted view — is read through read_block, read_blocks and
// read_bytes on the plain engine and on both concurrency facades. Every
// entry point must agree with SecureMemory::read_block on each block's
// status and plaintext and on the outcome counters of EngineStats. The
// tree-cache hit/miss counters are left out on purpose: batches
// authenticate each counter line once, single reads once per block.
//
// The suite name matches the TSan preset's filter, so the facade cases
// also run under ThreadSanitizer.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/stats.h"
#include "engine/concurrent.h"
#include "engine/secure_memory.h"
#include "engine/sharded_memory.h"

namespace secmem {
namespace {

constexpr std::uint64_t kRegionBytes = 32 * 1024;  // 512 blocks
constexpr std::uint64_t kBlocks = kRegionBytes / 64;
constexpr unsigned kShards = 4;

enum class Facade { kPlain, kConcurrent, kSharded };
enum class Entry { kReadBlock, kReadBlocks, kReadBytes };

const char* facade_name(Facade f) {
  switch (f) {
    case Facade::kPlain: return "SecureMemory";
    case Facade::kConcurrent: return "ConcurrentSecureMemory";
    case Facade::kSharded: return "ShardedSecureMemory";
  }
  return "?";
}

const char* entry_name(Entry e) {
  switch (e) {
    case Entry::kReadBlock: return "read_block";
    case Entry::kReadBlocks: return "read_blocks";
    case Entry::kReadBytes: return "read_bytes";
  }
  return "?";
}

enum class Fault {
  kCipherFlip1,      // one ciphertext bit
  kCipherFlip2,      // two ciphertext bits in different words
  kLaneFlip,         // one bit of the ECC lane (the MAC field in lane mode)
  kUncorrectable,    // three bits in one word: beyond both correctors
  kCounterLine,      // one bit of the block's stored counter line
};

struct Injection {
  std::uint64_t block;
  Fault fault;
};

// Faulted blocks sit in different routing granules, so the sharded
// facade spreads them over every shard; the counter-line fault covers a
// whole line of otherwise clean blocks.
constexpr std::array<Injection, 5> kInjections{{
    {3, Fault::kCipherFlip1},
    {70, Fault::kCipherFlip2},
    {140, Fault::kLaneFlip},
    {200, Fault::kUncorrectable},
    {300, Fault::kCounterLine},
}};

DataBlock plaintext_of(std::uint64_t block) {
  DataBlock b{};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(block * 29 + i * 7 + 1);
  return b;
}

void inject(SecureMemory& engine, std::uint64_t block, Fault fault) {
  auto view = engine.untrusted();
  switch (fault) {
    case Fault::kCipherFlip1:
      view.flip_ciphertext_bit(block, 100);
      break;
    case Fault::kCipherFlip2:
      view.flip_ciphertext_bit(block, 9);
      view.flip_ciphertext_bit(block, 300);
      break;
    case Fault::kLaneFlip:
      view.flip_lane_bit(block, 20);
      break;
    case Fault::kUncorrectable:
      view.flip_ciphertext_bit(block, 8);
      view.flip_ciphertext_bit(block, 20);
      view.flip_ciphertext_bit(block, 55);
      break;
    case Fault::kCounterLine:
      view.flip_counter_bit(engine.counters().storage_line_of(block), 40);
      break;
  }
}

/// A freshly written region behind one facade, with every injection
/// applied to the engine (and shard-local block) that owns it.
class Region {
 public:
  Region(Facade facade, const SecureMemoryConfig& config) : facade_(facade) {
    switch (facade) {
      case Facade::kPlain:
        memory_ = std::make_unique<SecureMemory>(config);
        break;
      case Facade::kConcurrent:
        memory_ = std::make_unique<ConcurrentSecureMemory>(config);
        break;
      case Facade::kSharded:
        memory_ = std::make_unique<ShardedSecureMemory>(config, kShards);
        break;
    }
    for (std::uint64_t b = 0; b < kBlocks; ++b)
      EXPECT_EQ(memory_->write_block(b, plaintext_of(b)), Status::kOk);
    for (const Injection& inj : kInjections) with_owner(inj.block, inj.fault);
    memory_->reset_stats();
  }

  SecureMemoryLike& memory() { return *memory_; }

 private:
  void with_owner(std::uint64_t block, Fault fault) {
    switch (facade_) {
      case Facade::kPlain:
        inject(static_cast<SecureMemory&>(*memory_), block, fault);
        break;
      case Facade::kConcurrent:
        static_cast<ConcurrentSecureMemory&>(*memory_).with_exclusive(
            [&](SecureMemory& engine) { inject(engine, block, fault); });
        break;
      case Facade::kSharded: {
        auto& sharded = static_cast<ShardedSecureMemory&>(*memory_);
        const std::uint64_t g = sharded.granule_blocks();
        const std::uint64_t local = (block / g / kShards) * g + block % g;
        sharded.with_shard_exclusive(
            sharded.shard_of_block(block),
            [&](SecureMemory& engine) { inject(engine, local, fault); });
        break;
      }
    }
  }

  Facade facade_;
  std::unique_ptr<SecureMemoryLike> memory_;
};

struct Outcome {
  ReadStatus status;
  DataBlock data;
};

struct Transcript {
  std::vector<Outcome> blocks;
  EngineStats stats;
};

/// Two passes over every block — the first on cold counter lines (shared
/// reads decline and retry exclusively), the second warm. read_blocks
/// takes the blocks in a strided order so one batch revisits lines.
Transcript read_all(SecureMemoryLike& memory, Entry entry) {
  Transcript t;
  t.blocks.resize(kBlocks);
  for (int pass = 0; pass < 2; ++pass) {
    switch (entry) {
      case Entry::kReadBlock:
        for (std::uint64_t b = 0; b < kBlocks; ++b) {
          const ReadResult r = memory.read_block(b);
          t.blocks[b] = {r.status, r.data};
        }
        break;
      case Entry::kReadBlocks: {
        std::vector<std::uint64_t> order(kBlocks);
        for (std::uint64_t i = 0; i < kBlocks; ++i)
          order[i] = (i * 37 + pass) % kBlocks;
        const std::vector<ReadResult> rs = memory.read_blocks(order);
        for (std::size_t i = 0; i < order.size(); ++i)
          t.blocks[order[i]] = {rs[i].status, rs[i].data};
        break;
      }
      case Entry::kReadBytes:
        for (std::uint64_t b = 0; b < kBlocks; ++b) {
          DataBlock out{};
          const Status s = memory.read_bytes(b * 64, out);
          t.blocks[b] = {s, out};
        }
        break;
    }
  }
  t.stats = memory.stats();
  return t;
}

void expect_same_outcome_counters(const EngineStats& got,
                                  const EngineStats& want) {
  EXPECT_EQ(got.reads, want.reads);
  EXPECT_EQ(got.corrected_data, want.corrected_data);
  EXPECT_EQ(got.corrected_mac_field, want.corrected_mac_field);
  EXPECT_EQ(got.corrected_word, want.corrected_word);
  EXPECT_EQ(got.integrity_violations, want.integrity_violations);
  EXPECT_EQ(got.counter_tampers, want.counter_tampers);
  EXPECT_EQ(got.mac_evaluations, want.mac_evaluations);
}

using Params = std::tuple<MacPlacement, bool>;  // placement, time_ops

SecureMemoryConfig config_of(const Params& p) {
  SecureMemoryConfig config;
  config.size_bytes = kRegionBytes;
  config.mac_placement = std::get<0>(p);
  config.time_ops = std::get<1>(p);
  return config;
}

class ReadPaths : public ::testing::TestWithParam<Params> {};

TEST_P(ReadPaths, EveryEntryPointAgreesPerBlock) {
  const SecureMemoryConfig config = config_of(GetParam());
  Region reference_region(Facade::kPlain, config);
  const Transcript reference =
      read_all(reference_region.memory(), Entry::kReadBlock);

  // The reference itself must show every fault class: otherwise the
  // comparison below proves nothing about the corrected/failed paths.
  bool corrected = false, violated = false, tampered = false;
  for (const Outcome& o : reference.blocks) {
    corrected |= status_ok(o.status) && o.status != ReadStatus::kOk;
    violated |= o.status == ReadStatus::kIntegrityViolation;
    tampered |= o.status == ReadStatus::kCounterTampered;
  }
  EXPECT_TRUE(corrected && violated && tampered);
  for (std::uint64_t b = 0; b < kBlocks; ++b) {
    if (status_ok(reference.blocks[b].status)) {
      EXPECT_EQ(reference.blocks[b].data, plaintext_of(b)) << "block " << b;
    }
  }

  for (const Facade facade :
       {Facade::kPlain, Facade::kConcurrent, Facade::kSharded}) {
    for (const Entry entry :
         {Entry::kReadBlock, Entry::kReadBlocks, Entry::kReadBytes}) {
      SCOPED_TRACE(std::string(facade_name(facade)) + "::" +
                   entry_name(entry));
      Region region(facade, config);
      const Transcript got = read_all(region.memory(), entry);
      for (std::uint64_t b = 0; b < kBlocks; ++b) {
        ASSERT_EQ(got.blocks[b].status, reference.blocks[b].status)
            << "block " << b;
        if (status_ok(got.blocks[b].status)) {
          EXPECT_EQ(got.blocks[b].data, reference.blocks[b].data)
              << "block " << b;
        }
      }
      expect_same_outcome_counters(got.stats, reference.stats);
    }
  }
}

/// Multi-block byte ranges: unaligned windows of 13 blocks, some clean,
/// some spanning a correctable fault, some stopping at a failed block.
/// Every facade must return the same folded status, fill the same
/// prefix of the buffer, and count the same reads (blocks after a
/// failure are never read).
TEST_P(ReadPaths, ByteRangesAgreeAcrossFacades) {
  const SecureMemoryConfig config = config_of(GetParam());
  struct RangeResult {
    Status status;
    std::vector<std::uint8_t> bytes;
  };
  auto run = [&](Facade facade) {
    Region region(facade, config);
    std::vector<RangeResult> out;
    for (std::uint64_t addr = 5; addr + 13 * 64 <= kRegionBytes;
         addr += 11 * 64) {
      std::vector<std::uint8_t> buf(13 * 64, 0xEE);
      const Status s = region.memory().read_bytes(addr, buf);
      out.push_back({s, std::move(buf)});
    }
    return std::make_pair(out, region.memory().stats());
  };
  const auto [want, want_stats] = run(Facade::kPlain);
  bool saw_failure = false;
  for (const RangeResult& r : want) saw_failure |= !status_ok(r.status);
  EXPECT_TRUE(saw_failure);
  for (const Facade facade : {Facade::kConcurrent, Facade::kSharded}) {
    SCOPED_TRACE(facade_name(facade));
    const auto [got, got_stats] = run(facade);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].status, want[i].status) << "range " << i;
      EXPECT_EQ(got[i].bytes, want[i].bytes) << "range " << i;
    }
    expect_same_outcome_counters(got_stats, want_stats);
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlacementsAndTiming, ReadPaths,
    ::testing::Combine(::testing::Values(MacPlacement::kEccLane,
                                         MacPlacement::kSeparate),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<Params>& info) {
      return std::string(std::get<0>(info.param) == MacPlacement::kEccLane
                             ? "EccLane"
                             : "Separate") +
             (std::get<1>(info.param) ? "Timed" : "Untimed");
    });

/// The promotion pulse ticks once per shared read of a cold counter
/// line, whether or not the block's data verifies cleanly: a batch of
/// faulted blocks declines to the exclusive lock exactly as often as the
/// same batch of clean ones. The pulse is a per-thread 1-in-64 tick, so
/// the batch is 128 cold reads (16 blocks, 8 passes): any 128 consecutive
/// ticks hold exactly two declines, whatever phase earlier tests left.
constexpr std::size_t kPulsePasses = 8;
std::uint64_t shared_batch_declines(bool faulted) {
  SecureMemoryConfig config;
  config.size_bytes = kRegionBytes;
  SecureMemory memory(config);
  std::vector<std::uint64_t> blocks;
  for (std::uint64_t b = 0; b < kBlocks && blocks.size() < 16; ++b)
    if (memory.counters().storage_line_of(b) == 0) blocks.push_back(b);
  for (const std::uint64_t b : blocks) {
    EXPECT_EQ(memory.write_block(b, plaintext_of(b)), Status::kOk);
    if (faulted) memory.untrusted().flip_ciphertext_bit(b, 100);
  }
  (void)memory.untrusted().tree();  // flush: line 0 is cold again

  std::vector<std::uint64_t> batch;
  for (std::size_t pass = 0; pass < kPulsePasses; ++pass)
    batch.insert(batch.end(), blocks.begin(), blocks.end());
  std::vector<ReadResult> results(batch.size());
  std::vector<std::uint32_t> declined;
  memory.read_blocks_shared(batch, results, declined);
  std::size_t next_declined = 0;
  for (std::uint32_t i = 0; i < batch.size(); ++i) {
    if (next_declined < declined.size() && declined[next_declined] == i) {
      ++next_declined;
      continue;
    }
    EXPECT_EQ(results[i].status, faulted ? ReadStatus::kCorrectedData
                                         : ReadStatus::kOk);
    EXPECT_EQ(results[i].data, plaintext_of(batch[i]));
  }
  StatRegistry registry;
  memory.publish_metrics(registry);
  const std::uint64_t declines =
      registry.counter_value("engine.shared_read_declines");
  EXPECT_EQ(declines, declined.size());
  return declines;
}

TEST(ReadPathsPulse, FaultedColdBatchDeclinesAsOftenAsClean) {
  const std::uint64_t clean = shared_batch_declines(false);
  const std::uint64_t faulted = shared_batch_declines(true);
  EXPECT_EQ(faulted, clean);
  const char* cache_env = std::getenv("SECMEM_TREE_CACHE");
  if (cache_env == nullptr || std::strcmp(cache_env, "0") != 0) {
    EXPECT_EQ(clean, 2u);  // 128 cold reads, one in 64 declines
  }
}

}  // namespace
}  // namespace secmem
