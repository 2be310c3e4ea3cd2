#pragma once

// The registry sweep behind Fig. 13 (Trace-RW/WI, closed loop, with live
// rows) and Fig. 15 (the timed falcon/midas families under their native
// arrivals): every policy in `policy::Registry::builtin()` over each
// workload, in up to three modes per policy:
//
//   epoch-clean   the fault-free DES replay (paper methodology),
//   epoch-faults  crashes + RPC loss + async group commit; every run is
//                 audited by the NamespaceInvariantChecker (I1-I8) and the
//                 verdict is printed per row (CI greps it) and recorded in
//                 the CSV,
//   live          the real OrigamiFS service under a light fault plan, for
//                 policies that register a live-mode form.
//
// Per-epoch behaviour (commit/abort distributions, issued arrivals) is
// collected through the engine observer bus rather than RunResult fields.

#include <cstdint>
#include <string>
#include <vector>

#include "origami/cluster/options.hpp"
#include "origami/wl/trace.hpp"

namespace origami::bench {

/// One workload of the sweep.
struct SweepWorkload {
  std::string name;
  wl::Trace trace;     ///< replayed by every policy
  wl::Trace training;  ///< a sibling seed of the same family; the models
                       ///< never see the evaluation trace
};

/// What a figure binary fixes; the sweep itself is shared.
struct SweepPreset {
  std::string figure;    ///< "fig13": the CSV is "<figure>_<bench>.csv"
  std::string bench;     ///< "policy_faceoff": the report's name
  std::string out_path;  ///< the JSON report
  bool smoke = false;    ///< CI size: fewer GBDT rounds
  std::uint64_t ops = 0;
  std::vector<SweepWorkload> workloads;
  cluster::ReplayOptions base;
  std::uint64_t live_epoch_ops = 0;  ///< 0 runs no live rows
};

/// Runs the sweep, writes its CSV and, when every faulted run holds I1-I8,
/// its JSON report. Returns the exit code: 1 on any invariant violation.
int run_policy_sweep(const SweepPreset& preset);

}  // namespace origami::bench
