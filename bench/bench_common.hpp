#pragma once

// Shared harness code for the bench binaries: `experiments`, whose presets
// regenerate the Origami paper's tables and figures, ablations and
// appendices (see DESIGN.md's experiment index), fig12-15 and
// bench_pipeline. Each writes its CSVs next to stdout.

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "origami/cluster/replay.hpp"
#include "origami/common/csv.hpp"
#include "origami/core/balancers.hpp"
#include "origami/core/pipeline.hpp"
#include "origami/wl/generators.hpp"

namespace origami::bench {

/// The five §5.1 strategies as registry policy specs (for `run_policy`),
/// with the low-op-count thresholds the small bench traces need.
inline constexpr const char* kPaperPolicies[] = {
    "single", "c-hash", "f-hash", "ml-tree:min-ops=8", "origami"};

/// Standard trace scales used across benches (≈ a few hundred thousand ops
/// so every figure regenerates in seconds).
wl::Trace standard_rw(std::uint64_t seed = 1, std::uint64_t ops = 300'000);
wl::Trace standard_ro(std::uint64_t seed = 2, std::uint64_t ops = 300'000);
wl::Trace standard_wi(std::uint64_t seed = 3, std::uint64_t ops = 300'000);

/// The paper's cluster configuration: 5 MDSs saturated by 50 clients,
/// epoch rebalancing, warm-up excluded from steady-state numbers.
cluster::ReplayOptions paper_options();

/// Applies the shared CLI vocabulary (--mds, --clients, --epoch-ms, every
/// --fault-* / --retry-* knob; see cluster::options_from_flags) on top of
/// `base`, so fig12, fig13 and fig15 accept the same flags as origami_sim.
/// Flags that are absent leave `base` untouched — run a bench with no
/// arguments and it reproduces its preset exactly.
cluster::ReplayOptions options_from_argv(int argc, const char* const* argv,
                                         cluster::ReplayOptions base);

/// The label-generation recipe `train_for` uses: Meta-OPT with the small
/// traces' thresholds, costing resolution as `options` caches it.
core::LabelGenOptions label_options(const cluster::ReplayOptions& options);

/// The crash plan of Figs. 11-13 and 15: fault seed 2027, per-MDS
/// per-epoch `crash_prob` with 400 ms outages, five retries at a 2 ms
/// timeout, and light RPC loss, which keeps the retry path and the journal
/// armed even at crash probability 0.
cluster::ReplayOptions with_crashes(cluster::ReplayOptions opt,
                                   double crash_prob);

/// Label-gen + GBDT training against a training run of the given trace
/// (always a different seed than the evaluation trace).
core::TrainedModels train_for(const wl::Trace& training_trace,
                              const cluster::ReplayOptions& options,
                              int gbdt_rounds = 200);

/// Registry-backed runner: resolves a `name[:k=v,...]` policy spec against
/// `policy::Registry::builtin()` and replays `trace` with it, consuming
/// `models` for ml-tree/origami (may be null for the others). A policy
/// registered as the 1-MDS baseline (`single`) runs on one MDS, as the
/// registry sweep runs it. Exits 2 on an invalid spec (same strictness as
/// the CLIs).
cluster::RunResult run_policy(const std::string& spec, const wl::Trace& trace,
                              const cluster::ReplayOptions& options,
                              const core::TrainedModels* models);

/// Single-client latency probe against a *converged* partition (the
/// paper's Fig. 5b methodology: re-run with one thread after rebalancing):
/// replays the trace with 1 client over the ownership map a previous run
/// ended with, no further migrations.
cluster::RunResult run_latency_probe(const wl::Trace& trace,
                                     const cluster::ReplayOptions& options,
                                     const cluster::RunResult& converged);

/// Every bench output goes through these three: each exits 1, naming the
/// path, when the file cannot be written.
///
/// Opens "<bench>_<name>.csv" in the working directory.
common::CsvWriter open_csv(const std::string& bench, const std::string& name);
/// Closes a CSV from `open_csv`, checking that every row landed.
void close_csv(common::CsvWriter& csv);
/// Closes `results` and writes its rows as the JSON report at `path`
/// (common::write_report). Call it only once every gate of the bench has
/// passed.
void write_report(const std::string& path, std::string_view bench,
                  const std::vector<std::pair<std::string, common::Cell>>&
                      config,
                  common::CsvWriter& results);

}  // namespace origami::bench
