// The benchmark's four workloads and the per-layer ladder.
//
// Every workload is a region geometry plus a seeded op stream, and every
// run drives that pair through the same three user-visible surfaces, so
// each end-to-end metric exists on each workload:
//   client phase  closed-loop verified reads / writes / corrected reads;
//   checkpoint    write intervals, save_delta -> restore_delta onto a
//                 replica, periodic full save + restore re-base;
//   sim phase     the Figure 8 timing model (SystemSimulator) under
//                 unprotected, BMT and optimized protection.
// The workload decides how much of the run each phase gets (README.md
// gives the reasons per workload).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "engine/sharded_memory.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  /// Self-test fault injection; the command line never sets these. Bits
  /// flipped per corrected-read op (1 is the workloads' correctable
  /// single-bit fault), and whether to corrupt one delta image before
  /// restoring it.
  unsigned flip_bits = 1;
  bool tamper_delta = false;
};

struct RunResult {
  Tally tally;
  MetricTable metrics;
};

/// Names accepted by run_workload, in the order README.md lists them.
const std::vector<std::string>& workload_names();
/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const Options& opts);

// ---------------------------------------------------------------------
// Internals shared with the ladder (ladder.cc).
// ---------------------------------------------------------------------

enum class OpKind : std::uint8_t {
  kRead,     ///< read_block, checked against the shadow
  kWrite,    ///< write_block, or write_bytes of one record
  kCorrect,  ///< flip a ciphertext bit, read (corrected), scrub to heal
};

struct Op {
  std::uint64_t where;  ///< block index; byte address for byte writes
  std::uint32_t aux;    ///< payload index (writes) or bit to flip
  OpKind kind;
};

inline constexpr std::size_t kRecordBytes = 100;  ///< uniform-mt records

struct Spec {
  const char* name;
  bool sharded;
  unsigned shards;
  std::uint64_t region_bytes;
  bool multi_thread;   ///< client_threads() clients, else one client
  bool byte_writes;    ///< writes are unaligned write_bytes records
  double client_share, ckpt_share, sim_share;  ///< of --seconds
  unsigned rebase_every;  ///< full re-base every Nth checkpoint interval
  bool sim_parsec;     ///< sim phase runs the Figure 8 apps
};

const Spec& spec_by_name(const std::string& name);

/// Per-thread op streams, generated before any timing starts.
struct Streams {
  std::vector<std::vector<Op>> per_thread;
  std::vector<std::uint64_t> hot_blocks;  ///< checkpoint's hot set
  double gen_ns_per_op = 0;
};
Streams make_streams(const Spec& spec, unsigned threads,
                     std::uint64_t granule_blocks, std::uint64_t seed);

/// Writes every block from the payload pool (block index stamped) and
/// mirrors it into `shadow` when given.
void fill_region(secmem::SecureMemoryLike& mem, const PayloadPool& pool,
                 std::uint8_t* shadow);
/// Snapshot image through the stream API into a buffer that keeps its
/// capacity between images, so steady-state timings measure the engine,
/// not buffer growth (the vector conveniences of SecureMemoryLike copy
/// the whole image through a string on every call).
secmem::Status save_image(secmem::SecureMemoryLike& mem,
                          std::vector<std::byte>& image, bool delta);

/// Per-layer ladder (traced runs): times each layer's public functions
/// over the workload's own stream at the workload's geometry and adds
/// the engine, facade and snapshot rungs. Writes per_layer metrics.
void run_ladder(const Spec& spec, const Streams& streams,
                const PayloadPool& pool, std::uint64_t seed,
                MetricTable& out, Tally& tally);

}  // namespace perfbench
