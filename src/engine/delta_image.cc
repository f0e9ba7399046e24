#include "engine/delta_image.h"

#include <cstring>

#include "common/bitops.h"

namespace secmem::delta {
namespace {

constexpr std::size_t kCounterLineBytes = 64;
constexpr std::size_t kCmdWire = 1 + 8;  // op, n (+ ADD payload)

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  std::uint8_t le[8];
  store_le64(le, v);
  out.insert(out.end(), le, le + 8);
}

/// Append granule g's payload: ciphertext, lanes, MACs (LE), counters.
void append_payload(const Geometry& geo, const ConstSections& s,
                    std::uint64_t g, std::vector<std::uint8_t>& out) {
  const std::uint64_t b0 = geo.block_start(g);
  const std::uint64_t nb = geo.blocks_in(g);
  const auto* ct = reinterpret_cast<const std::uint8_t*>(
      s.ciphertext.data() + b0);
  out.insert(out.end(), ct, ct + nb * sizeof(DataBlock));
  const auto* ln = reinterpret_cast<const std::uint8_t*>(s.lanes.data() + b0);
  out.insert(out.end(), ln, ln + nb * sizeof(EccLane));
  if (geo.separate_macs)
    for (std::uint64_t b = b0; b < b0 + nb; ++b) append_u64(out, s.macs[b]);
  const std::uint64_t l0 = geo.line_start(g);
  const std::uint64_t nl = geo.lines_in(g);
  const std::uint8_t* lines = s.counters.data() + l0 * kCounterLineBytes;
  out.insert(out.end(), lines, lines + nl * kCounterLineBytes);
}

}  // namespace

std::uint64_t Geometry::payload_bytes(std::uint64_t g) const noexcept {
  const std::uint64_t nb = blocks_in(g);
  std::uint64_t bytes = nb * (sizeof(DataBlock) + sizeof(EccLane));
  if (separate_macs) bytes += nb * sizeof(std::uint64_t);
  return bytes + lines_in(g) * kCounterLineBytes;
}

std::uint64_t max_stream_bytes(const Geometry& geo) noexcept {
  std::uint64_t per_block = sizeof(DataBlock) + sizeof(EccLane);
  if (geo.separate_macs) per_block += sizeof(std::uint64_t);
  return kCmdWire * geo.num_granules() + geo.num_blocks * per_block +
         geo.num_lines * kCounterLineBytes;
}

std::uint64_t encode_from_dirty(const Geometry& geo,
                                const ConstSections& target,
                                std::span<const std::uint64_t> dirty_words,
                                std::vector<std::uint8_t>& out) {
  const std::uint64_t granules = geo.num_granules();
  std::uint64_t dirty_count = 0;
  std::uint64_t run_start = 0;
  bool run_dirty = false;
  const auto flush_run = [&](std::uint64_t end) {
    if (end == run_start) return;
    out.push_back(run_dirty ? Command::kAdd : Command::kSkip);
    append_u64(out, end - run_start);
    if (run_dirty)
      for (std::uint64_t g = run_start; g < end; ++g)
        append_payload(geo, target, g, out);
  };
  for (std::uint64_t g = 0; g < granules; ++g) {
    const bool dirty =
        (dirty_words[g / 64] >> (g % 64)) & std::uint64_t{1};
    dirty_count += dirty;
    if (g == 0) {
      run_dirty = dirty;
    } else if (dirty != run_dirty) {
      flush_run(g);
      run_start = g;
      run_dirty = dirty;
    }
  }
  flush_run(granules);
  return dirty_count;
}

bool parse(const Geometry& geo, std::span<const std::uint8_t> cmd_bytes,
           std::vector<Command>& cmds) {
  cmds.clear();
  const std::uint64_t granules = geo.num_granules();
  std::size_t off = 0;
  std::uint64_t cursor = 0;
  while (cursor < granules) {
    if (cmd_bytes.size() - off < kCmdWire) return false;  // cover ends early
    Command cmd;
    cmd.op = cmd_bytes[off];
    cmd.dst = cursor;
    cmd.n = load_le64(cmd_bytes.data() + off + 1);
    off += kCmdWire;
    if ((cmd.op != Command::kSkip && cmd.op != Command::kAdd) ||
        cmd.n == 0 || cmd.n > granules - cursor)
      return false;
    if (cmd.op == Command::kAdd) {
      cmd.payload_off = off;
      for (std::uint64_t g = cursor; g < cursor + cmd.n; ++g) {
        const std::uint64_t need = geo.payload_bytes(g);
        if (cmd_bytes.size() - off < need) return false;
        off += need;
      }
    }
    cursor += cmd.n;
    cmds.push_back(cmd);
  }
  return off == cmd_bytes.size();  // nothing after full cover
}

void apply(const Geometry& geo, std::span<const Command> cmds,
           std::span<const std::uint8_t> cmd_bytes,
           const MutSections& s) {
  for (const Command& cmd : cmds) {
    if (cmd.op == Command::kSkip) continue;
    std::size_t off = cmd.payload_off;
    for (std::uint64_t g = cmd.dst; g < cmd.dst + cmd.n; ++g) {
      const std::uint64_t b0 = geo.block_start(g);
      const std::uint64_t nb = geo.blocks_in(g);
      std::memcpy(s.ciphertext.data() + b0, cmd_bytes.data() + off,
                  nb * sizeof(DataBlock));
      off += nb * sizeof(DataBlock);
      std::memcpy(s.lanes.data() + b0, cmd_bytes.data() + off,
                  nb * sizeof(EccLane));
      off += nb * sizeof(EccLane);
      if (geo.separate_macs)
        for (std::uint64_t b = b0; b < b0 + nb; ++b, off += 8)
          s.macs[b] = load_le64(cmd_bytes.data() + off);
      const std::uint64_t nl = geo.lines_in(g);
      std::memcpy(s.counters.data() + geo.line_start(g) * kCounterLineBytes,
                  cmd_bytes.data() + off, nl * kCounterLineBytes);
      off += nl * kCounterLineBytes;
    }
  }
}

}  // namespace secmem::delta
