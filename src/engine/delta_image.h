// secmem::delta — the engine-independent codec behind incremental
// snapshots (save_delta / restore_delta).
//
// A secure-memory image is four flat sections — ciphertext blocks, ECC
// lanes, separate MACs (when the placement keeps them out of the lanes)
// and serialized counter lines. This module carves those sections into
// fixed *granules* (the engine picks lcm(blocks_per_group,
// blocks_per_storage_line) blocks, so a granule always holds whole
// re-encryption groups and whole counter lines) and expresses one image
// as a positional run stream over its base: an implicit cursor starts
// at granule 0 and each command advances it by n granules.
//
//   SKIP n       — granules [cursor, cursor+n) are unchanged; no payload
//   ADD  n data  — granules [cursor, cursor+n) ship verbatim
//                  (ciphertext, lanes, MACs little-endian, counter
//                  lines — in that order, per granule)
//
// There is no cross-position COPY: counter-mode pads and data MACs both
// bind the block address, so a granule's sealed bytes never reappear at
// another address, and an encoder could never usefully emit one.
//
// One encoder produces these streams: encode_from_dirty, driven by the
// engine's dirty-granule bitmap (clean runs become SKIPs, dirty runs
// ADDs; O(dirty) payload). Runs never overlap, so the stream applies in
// place over the base in any order. Decoders must parse() first: it
// walks the cursor, bounds-checks every run and payload, and requires
// the runs to end exactly at the last granule, so a validated stream
// always defines every granule once. Authentication of the stream
// (command-section MAC, base seal) is the engine's job — this module
// moves bytes only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "crypto/ctr_keystream.h"  // DataBlock
#include "ecc/secded72.h"          // EccLane

namespace secmem::delta {

/// Section shape shared by encoder and decoder. Both sides derive it
/// from the same engine geometry, and the image header pins it, so a
/// mismatch is caught before any command is parsed.
struct Geometry {
  std::uint64_t num_blocks = 0;
  std::uint64_t blocks_per_line = 0;  ///< blocks per 64-byte counter line
  std::uint64_t num_lines = 0;        ///< serialized counter lines
  std::uint64_t granule_blocks = 0;   ///< multiple of blocks_per_line
  bool separate_macs = false;         ///< MAC section present in payloads

  std::uint64_t num_granules() const noexcept {
    return (num_blocks + granule_blocks - 1) / granule_blocks;
  }
  std::uint64_t lines_per_granule() const noexcept {
    return granule_blocks / blocks_per_line;
  }
  std::uint64_t block_start(std::uint64_t g) const noexcept {
    return g * granule_blocks;
  }
  std::uint64_t blocks_in(std::uint64_t g) const noexcept {
    const std::uint64_t start = block_start(g);
    return start < num_blocks
               ? (num_blocks - start < granule_blocks ? num_blocks - start
                                                      : granule_blocks)
               : 0;
  }
  std::uint64_t line_start(std::uint64_t g) const noexcept {
    return g * lines_per_granule();
  }
  std::uint64_t lines_in(std::uint64_t g) const noexcept {
    const std::uint64_t start = line_start(g);
    const std::uint64_t per = lines_per_granule();
    return start < num_lines
               ? (num_lines - start < per ? num_lines - start : per)
               : 0;
  }
  /// ADD payload bytes for one granule: ciphertext + lanes [+ MACs] +
  /// counter lines.
  std::uint64_t payload_bytes(std::uint64_t g) const noexcept;

  std::uint64_t dirty_words() const noexcept {
    return (num_granules() + 63) / 64;
  }
};

/// Upper bound on the size of any stream parse() accepts for `geo`: one
/// command header per granule plus every granule's payload. Decoders
/// bound an untrusted length with it before allocating.
std::uint64_t max_stream_bytes(const Geometry& geo) noexcept;

/// The four image sections, read-only (encoder view).
struct ConstSections {
  std::span<const DataBlock> ciphertext;
  std::span<const EccLane> lanes;
  std::span<const std::uint64_t> macs;     ///< empty unless separate_macs
  std::span<const std::uint8_t> counters;  ///< num_lines * 64 bytes
};

/// The four image sections, mutable (in-place apply target).
struct MutSections {
  std::span<DataBlock> ciphertext;
  std::span<EccLane> lanes;
  std::span<std::uint64_t> macs;
  std::span<std::uint8_t> counters;
};

/// One parsed command. Wire form: a 1-byte opcode, then n as a
/// little-endian u64; an ADD's payload follows. `dst` is not on the
/// wire — parse() fills it from the cursor.
struct Command {
  enum : std::uint8_t { kSkip = 1, kAdd = 2 };
  std::uint8_t op = kSkip;
  std::uint64_t dst = 0;
  std::uint64_t n = 0;
  std::size_t payload_off = 0;  ///< kAdd only: offset into the stream
};

/// Encode target state against the in-memory base using the dirty
/// bitmap (bit g set = granule g changed since the base snapshot).
/// Appends the command stream to `out`; returns the dirty-granule count
/// (== granules shipped as ADD payload).
std::uint64_t encode_from_dirty(const Geometry& geo,
                                const ConstSections& target,
                                std::span<const std::uint64_t> dirty_words,
                                std::vector<std::uint8_t>& out);

/// Validate a command stream: opcodes, nonzero runs that stay inside the
/// region, whole ADD payloads, and runs that end exactly at the last
/// granule with no bytes after. False leaves `cmds` unspecified and
/// means the stream must not be applied.
[[nodiscard]] bool parse(const Geometry& geo,
                         std::span<const std::uint8_t> cmd_bytes,
                         std::vector<Command>& cmds);

/// Apply a parse()-validated stream in place over the base sections:
/// SKIPs are no-ops; ADDs splat payload bytes (MACs decoded
/// little-endian).
void apply(const Geometry& geo, std::span<const Command> cmds,
           std::span<const std::uint8_t> cmd_bytes,
           const MutSections& sections);

}  // namespace secmem::delta
