// secmem::delta codec unit tests: geometry math (tail granules), the
// dirty-bitmap encoder round-tripping through parse + in-place apply,
// the wire sizes of its SKIP/ADD runs, and the parser's rejection
// contract — truncation, bad opcodes, empty runs, overruns, short
// cover, trailing bytes, short ADD payloads. The engine-level
// sealing/authentication sits on top of this codec and is covered by
// test_delta_snapshot.cc.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"
#include "engine/delta_image.h"

namespace secmem::delta {
namespace {

/// Owned backing storage for one image's four sections.
struct Image {
  std::vector<DataBlock> ciphertext;
  std::vector<EccLane> lanes;
  std::vector<std::uint64_t> macs;
  std::vector<std::uint8_t> counters;

  ConstSections view() const {
    return {ciphertext, lanes, macs, counters};
  }
  MutSections mut() {
    return {ciphertext, lanes, macs, counters};
  }
  bool operator==(const Image& o) const {
    return ciphertext == o.ciphertext && lanes == o.lanes &&
           macs == o.macs && counters == o.counters;
  }
};

Image make_image(const Geometry& geo, std::uint64_t seed) {
  Image img;
  img.ciphertext.resize(geo.num_blocks);
  img.lanes.resize(geo.num_blocks);
  if (geo.separate_macs) img.macs.resize(geo.num_blocks);
  img.counters.resize(geo.num_lines * 64);
  std::uint64_t state = seed;
  const auto next = [&state] { return splitmix64(state); };
  for (auto& b : img.ciphertext)
    for (auto& byte : b) byte = static_cast<std::uint8_t>(next());
  for (auto& l : img.lanes)
    for (auto& byte : l) byte = static_cast<std::uint8_t>(next());
  for (auto& m : img.macs) m = next();
  for (auto& c : img.counters) c = static_cast<std::uint8_t>(next());
  return img;
}

/// Round-trip helper: encode target-vs-base, parse, apply over a copy of
/// base, expect the reconstruction to equal target bit for bit.
void expect_roundtrip(const Geometry& geo, const Image& base,
                      const Image& target,
                      const std::vector<std::uint8_t>& cmd) {
  std::vector<Command> cmds;
  ASSERT_TRUE(parse(geo, cmd, cmds));
  Image work = base;
  apply(geo, cmds, cmd, work.mut());
  EXPECT_TRUE(work == target);
}

/// 36 blocks of 4-block counter lines in 8-block granules: 5 granules,
/// the last a short tail (4 blocks, 1 line) — both section-slicing edge
/// cases in one shape.
Geometry tail_geometry(bool separate_macs) {
  Geometry geo;
  geo.num_blocks = 36;
  geo.blocks_per_line = 4;
  geo.num_lines = 9;
  geo.granule_blocks = 8;
  geo.separate_macs = separate_macs;
  return geo;
}

TEST(DeltaGeometry, TailGranuleMath) {
  const Geometry geo = tail_geometry(true);
  EXPECT_EQ(geo.num_granules(), 5u);
  EXPECT_EQ(geo.lines_per_granule(), 2u);
  EXPECT_EQ(geo.blocks_in(3), 8u);
  EXPECT_EQ(geo.blocks_in(4), 4u);  // tail
  EXPECT_EQ(geo.lines_in(3), 2u);
  EXPECT_EQ(geo.lines_in(4), 1u);  // tail
  EXPECT_EQ(geo.dirty_words(), 1u);
  // Full granule: 8 x (64 ciphertext + 8 lane + 8 mac) + 2 x 64 counters.
  EXPECT_EQ(geo.payload_bytes(0), 8 * (64 + 8 + 8) + 2 * 64u);
  EXPECT_EQ(geo.payload_bytes(4), 4 * (64 + 8 + 8) + 1 * 64u);
  Geometry no_macs = geo;
  no_macs.separate_macs = false;
  EXPECT_EQ(no_macs.payload_bytes(0), 8 * (64 + 8) + 2 * 64u);
}

/// Wire size of one command header: opcode byte + u64 run length.
constexpr std::size_t kHeader = 1 + 8;

TEST(DeltaDirtyEncode, CleanBitmapIsAllSelfCopy) {
  const Geometry geo = tail_geometry(false);
  const Image base = make_image(geo, 1);
  std::vector<std::uint64_t> dirty(geo.dirty_words(), 0);
  std::vector<std::uint8_t> cmd;
  EXPECT_EQ(encode_from_dirty(geo, base.view(), dirty, cmd), 0u);
  // One SKIP covering every granule: a single header, no payload.
  ASSERT_EQ(cmd.size(), kHeader);
  EXPECT_EQ(cmd[0], Command::kSkip);
  EXPECT_EQ(load_le64(cmd.data() + 1), geo.num_granules());
  expect_roundtrip(geo, base, base, cmd);
}

TEST(DeltaDirtyEncode, DirtyGranulesShipAsAdds) {
  for (const bool macs : {false, true}) {
    const Geometry geo = tail_geometry(macs);
    const Image base = make_image(geo, 2);
    Image target = base;
    // Mutate granules 1 and 4 (the tail) — including a counter byte, so
    // every section's splice is exercised.
    target.ciphertext[geo.block_start(1)][0] ^= 0xA5;
    target.counters[geo.line_start(4) * 64] ^= 0x5A;
    if (macs) target.macs[geo.block_start(4)] ^= 1;
    std::vector<std::uint64_t> dirty(geo.dirty_words(), 0);
    dirty[0] = (1u << 1) | (1u << 4);
    std::vector<std::uint8_t> cmd;
    EXPECT_EQ(encode_from_dirty(geo, target.view(), dirty, cmd), 2u);
    expect_roundtrip(geo, base, target, cmd);
  }
}

TEST(DeltaDirtyEncode, AllDirtyShipsWholeImage) {
  const Geometry geo = tail_geometry(true);
  const Image base = make_image(geo, 3);
  const Image target = make_image(geo, 4);
  std::vector<std::uint64_t> dirty(geo.dirty_words(), ~0ull);
  std::vector<std::uint8_t> cmd;
  EXPECT_EQ(encode_from_dirty(geo, target.view(), dirty, cmd),
            geo.num_granules());
  // One ADD run: a single header plus every granule's payload, i.e. the
  // payload part of max_stream_bytes.
  std::uint64_t payload = 0;
  for (std::uint64_t g = 0; g < geo.num_granules(); ++g)
    payload += geo.payload_bytes(g);
  EXPECT_EQ(payload + geo.num_granules() * kHeader, max_stream_bytes(geo));
  EXPECT_EQ(cmd.size(), payload + kHeader);
  expect_roundtrip(geo, base, target, cmd);
}

TEST(DeltaDirtyEncode, RandomBitmapsRoundTrip) {
  Xoshiro256 rng(0xD17F);
  for (int trial = 0; trial < 20; ++trial) {
    Geometry geo;
    geo.num_blocks = 8 + rng.next_below(64);
    geo.blocks_per_line = 4;
    geo.num_lines = (geo.num_blocks + 3) / 4;
    geo.granule_blocks = 8;
    geo.separate_macs = (trial & 1) != 0;
    const Image base = make_image(geo, 100 + trial);
    const Image fresh = make_image(geo, 200 + trial);
    // Dirty granules take fresh content; clean ones keep the base's.
    Image target = base;
    std::vector<std::uint64_t> dirty(geo.dirty_words(), 0);
    std::uint64_t dirty_count = 0;
    for (std::uint64_t g = 0; g < geo.num_granules(); ++g) {
      if (rng.next_below(2) == 0) continue;
      dirty[g / 64] |= std::uint64_t{1} << (g % 64);
      ++dirty_count;
      const std::uint64_t b0 = geo.block_start(g);
      for (std::uint64_t b = b0; b < b0 + geo.blocks_in(g); ++b) {
        target.ciphertext[b] = fresh.ciphertext[b];
        target.lanes[b] = fresh.lanes[b];
        if (geo.separate_macs) target.macs[b] = fresh.macs[b];
      }
      std::memcpy(target.counters.data() + geo.line_start(g) * 64,
                  fresh.counters.data() + geo.line_start(g) * 64,
                  geo.lines_in(g) * 64);
    }
    std::vector<std::uint8_t> cmd;
    EXPECT_EQ(encode_from_dirty(geo, target.view(), dirty, cmd),
              dirty_count);
    EXPECT_LE(cmd.size(), max_stream_bytes(geo));
    expect_roundtrip(geo, base, target, cmd);
  }
}

// ----------------------------------------------------- parser rejection

/// Hand-rolled wire helper for malformed-stream tests.
void put_cmd(std::vector<std::uint8_t>& out, std::uint8_t op,
             std::uint64_t n) {
  out.push_back(op);
  std::uint8_t le[8];
  store_le64(le, n);
  out.insert(out.end(), le, le + 8);
}

TEST(DeltaParse, RejectsMalformedStreams) {
  const Geometry geo = tail_geometry(false);
  const std::uint64_t granules = geo.num_granules();
  std::vector<Command> cmds;

  // Valid baseline: SKIP the first four granules, ADD the short tail.
  std::vector<std::uint8_t> ok;
  put_cmd(ok, Command::kSkip, granules - 1);
  put_cmd(ok, Command::kAdd, 1);
  ok.resize(ok.size() + geo.payload_bytes(granules - 1), 0xEE);
  ASSERT_TRUE(parse(geo, ok, cmds));
  ASSERT_EQ(cmds.size(), 2u);
  EXPECT_EQ(cmds[0].dst, 0u);
  EXPECT_EQ(cmds[1].dst, granules - 1);  // filled from the cursor
  EXPECT_EQ(cmds[1].payload_off, 2 * kHeader);

  // Every proper prefix is a truncation: a cut header, a cover that
  // ends early, or a short ADD payload.
  for (std::size_t keep = 0; keep < ok.size(); ++keep) {
    EXPECT_FALSE(parse(
        geo, std::span<const std::uint8_t>(ok.data(), keep), cmds))
        << "kept " << keep;
  }

  std::vector<std::uint8_t> bad;
  // Unknown opcodes, first and mid-stream.
  for (const std::uint8_t op : {0, 3, 0xFF}) {
    bad = ok;
    bad[0] = op;
    EXPECT_FALSE(parse(geo, bad, cmds)) << "op " << int{op};
    bad = ok;
    bad[kHeader] = op;
    EXPECT_FALSE(parse(geo, bad, cmds)) << "op " << int{op};
  }
  // Zero-length runs, SKIP and ADD alike.
  for (const std::uint8_t op : {Command::kSkip, Command::kAdd}) {
    bad.clear();
    put_cmd(bad, op, 0);
    put_cmd(bad, Command::kSkip, granules);
    EXPECT_FALSE(parse(geo, bad, cmds)) << "op " << int{op};
  }
  // Runs past the last granule: from the start, from a nonzero cursor,
  // and a length that would wrap the cursor.
  bad.clear();
  put_cmd(bad, Command::kSkip, granules + 1);
  EXPECT_FALSE(parse(geo, bad, cmds));
  bad.clear();
  put_cmd(bad, Command::kSkip, 2);
  put_cmd(bad, Command::kSkip, granules - 1);
  EXPECT_FALSE(parse(geo, bad, cmds));
  bad.clear();
  put_cmd(bad, Command::kSkip, 1);
  put_cmd(bad, Command::kSkip, ~std::uint64_t{0});
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Short cover: the runs stop before the last granule.
  bad.clear();
  put_cmd(bad, Command::kSkip, granules - 1);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // Trailing bytes after full cover: one stray byte, or a whole extra
  // command.
  bad = ok;
  bad.push_back(0);
  EXPECT_FALSE(parse(geo, bad, cmds));
  bad = ok;
  put_cmd(bad, Command::kSkip, 1);
  EXPECT_FALSE(parse(geo, bad, cmds));
  // ADD whose payload is one byte short, exact, and one byte long —
  // here the ADD is followed by a SKIP, so a short payload misframes
  // the next header rather than running off the end.
  std::vector<std::uint8_t> add;
  put_cmd(add, Command::kAdd, 1);
  const std::size_t need = geo.payload_bytes(0);
  for (const std::size_t len : {need - 1, need, need + 1}) {
    bad = add;
    bad.resize(bad.size() + len, 0xEE);
    put_cmd(bad, Command::kSkip, granules - 1);
    EXPECT_EQ(parse(geo, bad, cmds), len == need) << "payload " << len;
  }
}

}  // namespace
}  // namespace secmem::delta
