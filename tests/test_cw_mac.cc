#include "crypto/cw_mac.h"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/rng.h"
#include "crypto/crypto_backend.h"

namespace secmem {
namespace {

CwMacKey test_key() {
  CwMacKey key{};
  key.hash_key = 0x8a5cd789635d2dffULL;
  for (int i = 0; i < 16; ++i)
    key.pad_key[i] = static_cast<std::uint8_t>(0xA0 + i);
  return key;
}

DataBlock pattern_block(std::uint8_t seed) {
  DataBlock b{};
  for (std::size_t i = 0; i < b.size(); ++i)
    b[i] = static_cast<std::uint8_t>(seed + i * 7);
  return b;
}

TEST(CwMac, Deterministic) {
  CwMac mac(test_key());
  const DataBlock block = pattern_block(1);
  EXPECT_EQ(mac.compute_block(0x40, 3, block),
            mac.compute_block(0x40, 3, block));
}

TEST(CwMac, TagFitsIn56Bits) {
  CwMac mac(test_key());
  Xoshiro256 rng(1);
  for (int i = 0; i < 100; ++i) {
    const DataBlock block = pattern_block(static_cast<std::uint8_t>(i));
    const std::uint64_t tag = mac.compute_block(rng.next(), rng.next(), block);
    EXPECT_EQ(tag & ~kMacMask, 0u);
  }
}

TEST(CwMac, SensitiveToEveryDataBit) {
  CwMac mac(test_key());
  DataBlock block = pattern_block(9);
  const std::uint64_t base = mac.compute_block(0x80, 5, block);
  // Flip each byte's LSB and a sample of other bits.
  for (std::size_t bit = 0; bit < 512; bit += 17) {
    block[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(mac.compute_block(0x80, 5, block), base) << "bit " << bit;
    block[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(CwMac, BoundToAddress) {
  CwMac mac(test_key());
  const DataBlock block = pattern_block(2);
  EXPECT_NE(mac.compute_block(0x40, 3, block),
            mac.compute_block(0x80, 3, block));
}

TEST(CwMac, BoundToCounter) {
  // The Bonsai property: same data, same address, different counter ->
  // different tag, so replaying stale data requires a stale counter.
  CwMac mac(test_key());
  const DataBlock block = pattern_block(3);
  EXPECT_NE(mac.compute_block(0x40, 3, block),
            mac.compute_block(0x40, 4, block));
}

TEST(CwMac, VerifyAcceptsGenuineRejectsForged) {
  CwMac mac(test_key());
  DataBlock block = pattern_block(4);
  const std::uint64_t tag = mac.compute_block(0xC0, 9, block);
  EXPECT_TRUE(mac.verify(0xC0, 9, block, tag));
  EXPECT_FALSE(mac.verify(0xC0, 9, block, tag ^ 1));
  block[10] ^= 0x40;
  EXPECT_FALSE(mac.verify(0xC0, 9, block, tag));
}

TEST(CwMac, KeysMatter) {
  CwMacKey k2 = test_key();
  k2.hash_key ^= 0xdeadbeef;
  const DataBlock block = pattern_block(5);
  EXPECT_NE(CwMac(test_key()).compute_block(0, 0, block),
            CwMac(k2).compute_block(0, 0, block));

  CwMacKey k3 = test_key();
  k3.pad_key[0] ^= 1;
  EXPECT_NE(CwMac(test_key()).compute_block(0, 0, block),
            CwMac(k3).compute_block(0, 0, block));
}

TEST(CwMac, VariableLengthMessages) {
  CwMac mac(test_key());
  const std::vector<std::uint8_t> msg(100, 0xAB);
  std::set<std::uint64_t> tags;
  for (std::size_t len = 0; len <= 100; len += 9) {
    tags.insert(
        mac.compute(0, 0, std::span<const std::uint8_t>(msg.data(), len)));
  }
  EXPECT_EQ(tags.size(), 12u);  // all lengths produce distinct tags
}

TEST(CwMac, TrailingZeroExtensionDetected) {
  // "abc" and "abc\0" must differ (length is absorbed into the hash).
  CwMac mac(test_key());
  const std::uint8_t m1[] = {'a', 'b', 'c'};
  const std::uint8_t m2[] = {'a', 'b', 'c', 0};
  EXPECT_NE(mac.compute(1, 1, m1), mac.compute(1, 1, m2));
}

TEST(CwMac, NonceReuseLeaksHashDifference) {
  // WHY counter-mode freshness is non-negotiable for Carter-Wegman MACs:
  // tags under the SAME (addr, counter) share the AES pad, so
  //   tag(m1) XOR tag(m2) == polyhash(m1) XOR polyhash(m2)   (mod trunc)
  // — the pad cancels and the keyed-hash difference leaks. With fresh
  // counters the pads differ and the XOR is unpredictable.
  CwMac mac(test_key());
  const DataBlock m1 = pattern_block(1);
  const DataBlock m2 = pattern_block(2);

  const std::uint64_t t1 = mac.compute_block(0x40, 9, m1);
  const std::uint64_t t2 = mac.compute_block(0x40, 9, m2);  // same nonce!
  const std::uint64_t pad = mac.pad_for(0x40, 9);
  // Reconstruct the hash difference from tags alone:
  const std::uint64_t leaked = (t1 ^ t2) & kMacMask;
  const std::uint64_t actual =
      (mac.compute_with_pad(pad, m1) ^ mac.compute_with_pad(pad, m2)) &
      kMacMask;
  EXPECT_EQ(leaked, actual) << "pad failed to cancel (test is wrong)";

  // With distinct counters the same XOR no longer matches — the leak
  // needs genuine nonce reuse.
  const std::uint64_t t2_fresh = mac.compute_block(0x40, 10, m2);
  EXPECT_NE((t1 ^ t2_fresh) & kMacMask, actual);
}

TEST(CwMac, PrfModeDeterministicAndDomainSeparated) {
  CwMac mac(test_key());
  const DataBlock m = pattern_block(3);
  EXPECT_EQ(mac.compute_prf(1, m), mac.compute_prf(1, m));
  EXPECT_NE(mac.compute_prf(1, m), mac.compute_prf(2, m));
  // Disjoint from the XOR-pad tag family over the same bytes: the AES
  // inputs differ in the 0x5A/0xA5 separator byte.
  EXPECT_NE(mac.compute_prf(1, m), mac.compute_block(1, 0, m));
}

TEST(CwMac, PrfModeSensitiveToMessageAndLength) {
  CwMac mac(test_key());
  DataBlock m = pattern_block(4);
  const std::uint64_t base = mac.compute_prf(7, m);
  for (std::size_t bit = 0; bit < 512; bit += 31) {
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(mac.compute_prf(7, m), base) << "bit " << bit;
    m[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
  const std::uint8_t s1[] = {'a', 'b', 'c'};
  const std::uint8_t s2[] = {'a', 'b', 'c', 0};
  EXPECT_NE(mac.compute_prf(7, s1), mac.compute_prf(7, s2));
}

TEST(CwMac, PrfModeDomainReuseDoesNotLeakHashDifference) {
  // The snapshot layer MACs MANY messages under one fixed domain —
  // exactly the pad-reuse setting NonceReuseLeaksHashDifference above
  // shows is fatal for the XOR construction (tag XORs hand out hash-key
  // equations). In PRF mode the hash output is encrypted, not masked,
  // so the tag difference never equals the hash difference.
  CwMac mac(test_key());
  Xoshiro256 rng(99);
  for (int i = 0; i < 64; ++i) {
    DataBlock m1, m2;
    for (auto& b : m1) b = static_cast<std::uint8_t>(rng.next());
    for (auto& b : m2) b = static_cast<std::uint8_t>(rng.next());
    const std::uint64_t hash_diff =
        mac.block_polyhash(m1) ^ mac.block_polyhash(m2);
    EXPECT_NE(mac.compute_prf(5, m1) ^ mac.compute_prf(5, m2), hash_diff);
  }
}

TEST(CwMac, KnownAnswers) {
  // Values produced by the word-at-a-time Horner evaluation this hash was
  // defined with; every backend and every evaluation order must keep
  // them, so tags, seals and snapshot images stay byte-identical.
  std::vector<std::uint8_t> msg(4099);
  for (std::size_t i = 0; i < msg.size(); ++i)
    msg[i] = static_cast<std::uint8_t>(i * 13 + 1);
  const std::span<const std::uint8_t> all(msg);
  const auto check = [&all](const CwMac& mac) {
    SCOPED_TRACE(mac.gf_backend_name());
    EXPECT_EQ(mac.compute(0x1240, 77, all.first(0)), 0x00128ac0a7a3e581ULL);
    EXPECT_EQ(mac.compute(0x1240, 77, all.first(5)), 0x006a1c459061bd28ULL);
    EXPECT_EQ(mac.compute(0x1240, 77, all.first(64)), 0x001ab421b539036dULL);
    EXPECT_EQ(mac.compute(0x1240, 77, all.first(200)), 0x0011f5c3c71d2df3ULL);
    EXPECT_EQ(mac.block_polyhash(pattern_block(0x11)), 0xc617cb3ada15ef5fULL);
    EXPECT_EQ(mac.compute_prf(0x51, all), 0x9140753ee8e436c4ULL);
  };
  check(CwMac(test_key(), aes128_ops_portable(), gf64_ops_portable()));
  if (const Gf64Ops* hw = gf64_ops_accelerated())
    check(CwMac(test_key(), aes128_ops(), *hw));
}

TEST(CwMac, CollisionRateSanity) {
  // 56-bit tags over random blocks should essentially never collide in a
  // small sample.
  CwMac mac(test_key());
  Xoshiro256 rng(77);
  std::set<std::uint64_t> tags;
  for (int i = 0; i < 2000; ++i) {
    DataBlock block;
    for (auto& b : block) b = static_cast<std::uint8_t>(rng.next());
    tags.insert(mac.compute_block(0, 0, block));
  }
  EXPECT_EQ(tags.size(), 2000u);
}

}  // namespace
}  // namespace secmem
