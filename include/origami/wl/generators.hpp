#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "origami/common/status.hpp"
#include "origami/wl/trace.hpp"

namespace origami::wl {

/// Trace-RW — "a large compilation task consisting of numerous complex
/// metadata operations" (paper §5.1, after Mantle). The namespace is a
/// source tree (projects → modules → src/include/build dirs); the op stream
/// interleaves header stats (hot, shared), object-file creates, directory
/// listings and cleanup renames/unlinks.
struct TraceRwConfig {
  std::uint64_t seed = 1;
  std::uint32_t projects = 24;
  std::uint32_t modules_per_project = 10;
  std::uint32_t sources_per_module = 30;
  std::uint32_t headers_shared = 600;   // hot shared include tree
  /// Hotspot waves across the op stream: the build scheduler sweeps the
  /// active project this many times (fewer waves = slower drift).
  std::uint32_t waves = 4;
  std::uint64_t ops = 400'000;
};
Trace make_trace_rw(const TraceRwConfig& cfg = {});

/// Trace-RO — "a web application access trace, only read-type operations,
/// significant skew, considerable depth" (paper §5.1, after Lunule). Deep
/// directory hierarchy (> 10 levels), Zipf-skewed opens/stats, a small
/// number of extremely hot subtrees.
struct TraceRoConfig {
  std::uint64_t seed = 2;
  std::uint32_t top_sites = 40;
  std::uint32_t depth = 12;            // max directory depth
  std::uint32_t dirs = 30'000;
  std::uint32_t files = 120'000;
  double zipf_theta = 0.99;
  std::uint64_t ops = 400'000;
};
Trace make_trace_ro(const TraceRoConfig& cfg = {});

/// Trace-WI — "a write-intensive trace from a distributed file system on
/// the cloud" (paper §5.1, reproduced from CFS's published characteristics):
/// creates dominate, load is highly dynamic — the hot subtree drifts across
/// phases, which is what makes WI the hardest trace to balance (§5.6).
struct TraceWiConfig {
  std::uint64_t seed = 3;
  std::uint32_t tenants = 32;
  std::uint32_t dirs_per_tenant = 400;
  std::uint32_t files_per_dir = 12;
  double write_fraction = 0.78;
  std::uint32_t phases = 8;            // hotspot drift granularity
  double zipf_theta = 1.1;
  std::uint64_t ops = 400'000;
};
Trace make_trace_wi(const TraceWiConfig& cfg = {});

/// The web-access-style workload used for the Fig. 2 motivation experiment
/// (read-mostly, skewed, matches the CephFS study setup in §2.2).
Trace make_trace_web_motivation(std::uint64_t seed = 7, std::uint64_t ops = 300'000);

/// mdtest-style synthetic benchmark: `ranks` worker directories under a
/// flat job root, each sweeping create → stat → unlink phases over its own
/// files (the standard HPC metadata stress test). Deliberately *flat* and
/// evenly loaded — the regime where hash partitioning is at its best and
/// subtree migration has little to offer; used as a boundary-of-
/// applicability probe (bench/appendix_mdtest).
struct TraceMdtestConfig {
  std::uint64_t seed = 4;
  std::uint32_t ranks = 64;            // worker dirs ("#task dirs")
  std::uint32_t files_per_rank = 500;
  std::uint32_t iterations = 2;        // create/stat/unlink sweeps
};
Trace make_trace_mdtest(const TraceMdtestConfig& cfg = {});

/// Trace-Falcon — FalconFS-style deep-learning data pipeline: many trainers
/// stream a huge-small-file dataset (datasets → shards → samples), each
/// training epoch opening with a readdir/stat scan storm over the shard
/// index, then a long shuffled-read phase (Zipf over samples within the
/// epoch's shard schedule), punctuated by checkpoint bursts that create
/// model/optimizer state under a per-trainer checkpoint dir. The trace is
/// *timed*: `Trace::arrivals` carries native nanosecond timestamps — scan
/// storms and checkpoint barriers arrive at `storm_rate`, steady shuffled
/// reads at `read_rate` — so `--arrival=trace` replays the pipeline's real
/// burst structure.
struct TraceFalconConfig {
  std::uint64_t seed = 5;
  std::uint32_t datasets = 4;
  std::uint32_t shards_per_dataset = 24;
  std::uint32_t files_per_shard = 80;  // small-file samples per shard dir
  std::uint32_t trainers = 16;
  std::uint32_t epochs = 3;            // training epochs (scan → read → ckpt)
  double shuffle_theta = 0.6;          // Zipf skew of the shuffled reads
  double read_rate = 120'000.0;        // steady-phase arrivals (ops/s)
  double storm_rate = 900'000.0;       // scan/checkpoint-storm arrivals
  std::uint64_t ops = 400'000;
};
Trace make_trace_falcon(const TraceFalconConfig& cfg = {});

/// Trace-Midas — MIDAS-style HPC metadata burst workload: batch jobs arrive
/// on a queue and each performs a short, violent metadata storm (create its
/// rank tree, hammer a handful of shared hot directories with stats/
/// readdirs, emit per-rank output files, then tear part of it down), while
/// a low-rate background of interactive stats trickles between storms. The
/// trace is *timed*: storm ops arrive at `burst_rate`, the background at
/// `base_rate`, so `--arrival=trace` reproduces the bursty on/off load
/// shape that overwhelms static partitions.
struct TraceMidasConfig {
  std::uint64_t seed = 6;
  std::uint32_t jobs = 12;
  std::uint32_t ranks_per_job = 32;
  std::uint32_t files_per_rank = 40;
  std::uint32_t hot_dirs = 3;          // shared hot dirs every job hammers
  double burst_fraction = 0.85;        // fraction of ops inside job storms
  double base_rate = 40'000.0;         // background arrivals (ops/s)
  double burst_rate = 800'000.0;       // in-storm arrivals (ops/s)
  std::uint64_t ops = 400'000;
};
Trace make_trace_midas(const TraceMidasConfig& cfg = {});

/// Every generated family by the name the tools take (`--trace NAME`).
inline constexpr std::array<std::string_view, 7> kTraceFamilies = {
    "rw", "ro", "wi", "web", "mdtest", "falcon", "midas"};

/// Generates family `family` with `seed` and `ops` operations; every other
/// knob keeps its config default. mdtest ignores `ops` (its size follows
/// from its ranks and files). An unknown family is `invalid_argument`.
common::Result<Trace> make_trace(std::string_view family, std::uint64_t seed,
                                 std::uint64_t ops);

}  // namespace origami::wl
