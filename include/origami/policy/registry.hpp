#pragma once

// The pluggable balancer-policy registry (Mantle-style, after Ceph's
// programmable MDS balancer): every policy is a named entry constructed
// from a `name[:key=value,...]` spec string, declares the metrics it
// consumes out of a fixed vocabulary, and documents its when/where/howmuch
// decision rule. CLIs resolve `--policy` specs here; the engine layers
// below (cluster, fs) never see this library — they only see the
// `cluster::Balancer` / live-epoch callables the factories produce.

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "origami/cluster/balancer.hpp"
#include "origami/cluster/options.hpp"
#include "origami/common/spec.hpp"
#include "origami/common/status.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/fs/origami_fs.hpp"
#include "origami/ml/gbdt.hpp"

namespace origami::policy {

/// The fixed load-metric vocabulary every policy draws its inputs from
/// (the Mantle idea: policies differ in *how* they combine a shared
/// measurement set, so the set itself is declared, not ad hoc).
///
/// Per-MDS inputs:   "req"   ops executed this epoch
///                   "all"   RPCs handled (fan-out included)
///                   "cpu"   busy service time
///                   "queue" aggregate queue-wait time
///                   "auth"  inodes owned (authority size)
/// Per-dir inputs:   "reads" / "writes" metadata ops homed at the dir
///                   "lsdir" readdirs on the dir itself
///                   "nsm"   ns-mutations targeting the dir
///                   "rct"   analytic request-completion time homed there
///                   "shape" static subtree shape (files/dirs/depth)
///                   "future" oracle lookahead at upcoming ops (Meta-OPT)
struct MetricsSchema {
  std::vector<std::string> mds_inputs;
  std::vector<std::string> dir_inputs;
  /// The decision record: when does the policy act, where do subtrees go,
  /// and how much moves per epoch.
  std::string when;
  std::string where;
  std::string howmuch;
};

/// Everything a factory may draw on. Models are only consulted by entries
/// whose `needs_*_model` flag is set; `converged` only by "fixed".
struct PolicyContext {
  const cluster::ReplayOptions* options = nullptr;
  std::shared_ptr<const ml::GbdtModel> benefit_model;
  std::shared_ptr<const ml::GbdtModel> popularity_model;
  const cluster::RunResult* converged = nullptr;
};

/// A policy running against the live OrigamiFS service instead of the
/// simulator: one call per balancing epoch, narrating two-phase decisions
/// through the engine-owned `LiveFaultContext`. Returns migrations made.
class LivePolicy {
 public:
  virtual ~LivePolicy() = default;
  virtual std::uint64_t on_epoch(fs::OrigamiFs& fsys,
                                 fs::LiveFaultContext& ctx) = 0;
};

using BalancerFactory =
    std::function<common::Result<std::unique_ptr<cluster::Balancer>>(
        const common::SpecValues&, const PolicyContext&)>;
using LiveFactory = std::function<common::Result<std::unique_ptr<LivePolicy>>(
    const common::SpecValues&, const PolicyContext&)>;

/// One registered policy.
struct Entry {
  std::string name;
  std::string summary;
  bool needs_benefit_model = false;
  bool needs_popularity_model = false;
  /// Under `--strategy all` / faceoff sweeps this policy is the 1-MDS
  /// baseline (runs on a single server).
  bool single_mds = false;
  std::vector<common::ParamDecl> params;
  MetricsSchema metrics;
  BalancerFactory make;
  LiveFactory make_live;  ///< null when the policy has no live-mode form
};

/// The policy registry. `builtin()` carries every policy shipped in-tree;
/// embedders may copy it and `add` their own entries.
class Registry {
 public:
  /// All in-tree policies: single, c-hash, f-hash, fixed, ml-tree,
  /// origami, meta-opt, greedy-spill, hash-repart, load-frac.
  static const Registry& builtin();

  void add(Entry entry) { entries_.push_back(std::move(entry)); }
  [[nodiscard]] const std::vector<Entry>& entries() const { return entries_; }
  [[nodiscard]] const Entry* find(const std::string& name) const;

  /// Parses `spec` and checks the name, and every key and value against
  /// the entry's declared params (common/spec.hpp). OK iff `make` with the
  /// same spec would not fail on the spec itself (it may still fail on
  /// missing context, e.g. "fixed" without a converged run).
  [[nodiscard]] common::Status validate(const std::string& spec) const;

  /// Parse + validate + construct in one step.
  [[nodiscard]] common::Result<std::unique_ptr<cluster::Balancer>> make(
      const std::string& spec, const PolicyContext& ctx) const;
  [[nodiscard]] common::Result<std::unique_ptr<LivePolicy>> make_live(
      const std::string& spec, const PolicyContext& ctx) const;

  /// Human-readable catalogue: one block per policy with its summary,
  /// parameters (key=default) and metrics schema (--list-policies).
  [[nodiscard]] std::string describe() const;

 private:
  std::vector<Entry> entries_;
};

}  // namespace origami::policy
