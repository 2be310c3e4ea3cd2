#include "origami/policy/registry.hpp"

#include <sstream>
#include <variant>

#include "origami/core/balancers.hpp"
#include "origami/policy/baselines.hpp"
#include "origami/policy/live.hpp"
#include "origami/sim/time.hpp"

namespace origami::policy {

namespace {

/// Every legacy dynamic policy ships with the 0.05 busy-imbalance trigger
/// the CLIs and benches have always used; the registry default must match
/// so registry-constructed balancers stay byte-identical to the historical
/// direct constructions.
constexpr double kLegacyTrigger = 0.05;
/// The registered baselines (greedy-spill, hash-repart, load-frac) act on
/// a 0.10 imbalance in both engines.
constexpr double kBaselineTrigger = 0.10;

core::RebalanceTrigger trigger_from(const common::SpecValues& p,
                                    double threshold) {
  return core::RebalanceTrigger(
      p.get_double("trigger", threshold), p.get_double("alpha", 1.0),
      static_cast<int>(p.get_int("patience", 1)));
}

SheddingParams shedding_params_from(const common::SpecValues& p) {
  SheddingParams sp;
  sp.max_migrations_per_epoch = static_cast<int>(p.get_int("budget", 24));
  sp.max_candidates =
      static_cast<std::size_t>(p.get_int("candidates", 1024));
  sp.min_subtree_ops = static_cast<std::uint64_t>(p.get_int("min-ops", 16));
  sp.max_inodes_per_epoch =
      static_cast<std::uint64_t>(p.get_int("max-inodes", 100'000));
  return sp;
}

LiveParams live_params_from(const common::SpecValues& p, int budget) {
  LiveParams lp;
  lp.max_moves_per_epoch = static_cast<int>(p.get_int("budget", budget));
  lp.min_subtree_ops =
      static_cast<std::uint64_t>(p.get_int("min-ops", 16));
  return lp;
}

constexpr auto kInt = common::ParamKind::kInt;
constexpr auto kReal = common::ParamKind::kReal;

const std::vector<common::ParamDecl> kTriggerParams = {
    {"trigger", "busy-imbalance threshold before acting", "0.05", kReal},
    {"alpha", "EWMA smoothing factor over the imbalance series", "1.0", kReal},
    {"patience", "consecutive over-threshold epochs before firing", "1", kInt},
};

std::vector<common::ParamDecl> with_trigger(
    std::vector<common::ParamDecl> extra, const char* threshold = "0.05") {
  std::vector<common::ParamDecl> all = kTriggerParams;
  all[0].default_value = threshold;
  all.insert(all.end(), extra.begin(), extra.end());
  return all;
}

/// A `*-ms` or `*-us` parameter is a duration the factories convert to
/// SimTime nanoseconds, so, as bursty's `period-ms`, it must name a
/// nanosecond count the clock holds: `sim::millis(1e300)` has no value.
common::Status check_durations(const common::SpecValues& values) {
  for (const auto& [key, value] : values.values) {
    const double* v = std::get_if<double>(&value);
    if (v == nullptr) continue;
    double unit = 0.0;
    if (key.ends_with("-ms")) {
      unit = static_cast<double>(sim::kMillisecond);
    } else if (key.ends_with("-us")) {
      unit = static_cast<double>(sim::kMicrosecond);
    } else {
      continue;
    }
    // [-2^63, 2^63) holds exactly the doubles whose truncation fits.
    const double ns = *v * unit;
    if (!(ns >= -0x1p63 && ns < 0x1p63)) {
      return common::Status::invalid_argument(
          "parameter '" + key +
          "' must be a duration the simulator clock holds (under 2^63 ns)");
    }
  }
  return common::Status::ok();
}

/// `common::check_entry` for a policy spec, plus the duration range.
common::Result<std::pair<const Entry*, common::SpecValues>> check_policy(
    const std::vector<Entry>& entries, const std::string& spec) {
  auto checked = common::check_entry(entries, spec, "policy");
  if (!checked.is_ok()) return checked;
  if (auto s = check_durations(checked.value().second); !s.is_ok()) return s;
  return checked;
}

template <typename T>
common::Result<std::unique_ptr<cluster::Balancer>> ok_balancer(T* b) {
  return std::unique_ptr<cluster::Balancer>(b);
}

Registry build_registry() {
  Registry r;

  // --- the static baselines ------------------------------------------------
  {
    Entry e;
    e.name = "single";
    e.summary = "everything on one MDS (the 1-MDS scaling baseline)";
    e.single_mds = true;
    e.metrics = {{}, {}, "never (static placement)", "MDS 0", "nothing moves"};
    e.make = [](const common::SpecValues&, const PolicyContext&) {
      return ok_balancer(
          new cluster::StaticBalancer(cluster::StaticBalancer::Kind::kSingle));
    };
    e.make_live = [](const common::SpecValues&, const PolicyContext&) {
      return make_live_null();
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "c-hash";
    e.summary = "coarse-grained directory hashing (HopsFS-style)";
    e.params = {{"levels", "hash depth; deeper dirs inherit their ancestor",
                 "2", kInt}};
    e.metrics = {{}, {"shape"}, "never (static placement)",
                 "hash of the depth<=levels ancestor", "nothing moves"};
    e.make = [](const common::SpecValues& p, const PolicyContext&) {
      return ok_balancer(new cluster::StaticBalancer(
          cluster::StaticBalancer::Kind::kCoarseHash,
          static_cast<std::uint32_t>(p.get_int("levels", 2))));
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "f-hash";
    e.summary = "fine-grained per-directory hashing (InfiniFS-style)";
    e.metrics = {{}, {}, "never (static placement)",
                 "hash of every directory independently", "nothing moves"};
    e.make = [](const common::SpecValues&, const PolicyContext&) {
      return ok_balancer(new cluster::StaticBalancer(
          cluster::StaticBalancer::Kind::kFineHash));
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "fixed";
    e.summary = "replays a captured ownership map; never migrates";
    e.metrics = {{}, {}, "never", "the captured per-directory owner",
                 "nothing moves"};
    e.make = [](const common::SpecValues&, const PolicyContext& ctx)
        -> common::Result<std::unique_ptr<cluster::Balancer>> {
      if (ctx.converged == nullptr) {
        return common::Status::failed_precondition(
            "policy 'fixed' needs a converged run's ownership map "
            "(PolicyContext::converged)");
      }
      return ok_balancer(new cluster::FixedPartitionBalancer(*ctx.converged));
    };
    r.add(std::move(e));
  }

  // --- the paper's dynamic policies ----------------------------------------
  {
    Entry e;
    e.name = "ml-tree";
    e.summary =
        "popularity-predicting bin packing (LoADM-style, migration-heavy)";
    e.needs_popularity_model = true;
    e.params = with_trigger({
        {"min-ops", "ignore subtrees with fewer ops in the window", "8", kInt},
        {"budget", "max migrations per epoch", "24", kInt},
        {"candidates", "candidate pool bound (top by subtree RCT)", "1024",
         kInt},
        {"spread", "stop when predicted spread falls below this", "0.02",
         kReal},
        {"max-inodes", "inode-move throttle per epoch", "150000", kInt},
    });
    e.metrics = {{"req", "cpu"},
                 {"reads", "writes", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "predicted-hottest subtree: hottest MDS -> coldest MDS",
                 "until predicted spread < spread, capped by budget"};
    e.make = [](const common::SpecValues& p, const PolicyContext& ctx) {
      core::MlTreeBalancer::Params mp;
      mp.min_subtree_ops =
          static_cast<std::uint64_t>(p.get_int("min-ops", 8));
      mp.max_migrations_per_epoch =
          static_cast<int>(p.get_int("budget", 24));
      mp.max_candidates =
          static_cast<std::size_t>(p.get_int("candidates", 1024));
      mp.target_spread = p.get_double("spread", 0.02);
      mp.max_inodes_per_epoch =
          static_cast<std::uint64_t>(p.get_int("max-inodes", 150'000));
      return ok_balancer(new core::MlTreeBalancer(
          ctx.popularity_model, mp, trigger_from(p, kLegacyTrigger)));
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "origami";
    e.summary = "GBDT benefit-driven greedy migration (the paper's policy)";
    e.needs_benefit_model = true;
    e.params = with_trigger({
        {"min-benefit",
         "stop below this predicted benefit (s; live default 0.002)", "0.01",
         kReal},
        {"budget", "max migrations per epoch (live default 8)", "24", kInt},
        {"candidates", "candidate pool bound", "1024", kInt},
        {"min-ops", "ignore subtrees with fewer ops in the window", "16", kInt},
        {"delta-ms", "Appendix-A post-migration imbalance guard", "800", kReal},
        {"max-inodes", "inode-move throttle per epoch", "100000", kInt},
        {"amortize", "epochs the export cost is amortised over", "8", kReal},
    });
    e.metrics = {{"req", "cpu"},
                 {"reads", "writes", "lsdir", "nsm", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "highest predicted benefit -> least-loaded MDS, D-guarded",
                 "until predicted benefit < min-benefit, capped by budget"};
    e.make = [](const common::SpecValues& p, const PolicyContext& ctx) {
      core::OrigamiBalancer::Params op;
      op.min_predicted_benefit = p.get_double("min-benefit", 0.01);
      op.max_migrations_per_epoch =
          static_cast<int>(p.get_int("budget", 24));
      op.max_candidates =
          static_cast<std::size_t>(p.get_int("candidates", 1024));
      op.min_subtree_ops =
          static_cast<std::uint64_t>(p.get_int("min-ops", 16));
      op.delta = sim::millis(p.get_double("delta-ms", 800.0));
      op.max_inodes_per_epoch =
          static_cast<std::uint64_t>(p.get_int("max-inodes", 100'000));
      op.migration_amortization = p.get_double("amortize", 8.0);
      cost::CostParams cost_params;
      if (ctx.options != nullptr) {
        op.cache_enabled = ctx.options->cache_enabled;
        op.cache_depth = ctx.options->cache_depth;
        cost_params = ctx.options->cost_params;
      }
      return ok_balancer(new core::OrigamiBalancer(
          ctx.benefit_model, cost::CostModel(cost_params), op,
          trigger_from(p, kLegacyTrigger)));
    };
    e.make_live = [](const common::SpecValues& p, const PolicyContext& ctx) {
      return make_live_origami(ctx.benefit_model, live_params_from(p, 8),
                               p.get_double("min-benefit", 0.002),
                               p.get_double("trigger", kLegacyTrigger));
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "meta-opt";
    e.summary = "oracle upper bound: Algorithm 1 on the actual future ops";
    e.params = with_trigger({
        {"min-ops", "ignore subtrees with fewer ops in the window", "16", kInt},
        {"stop-us", "stop below this remaining benefit (us)", "10000", kReal},
        {"budget", "max decisions per invocation", "12", kInt},
        {"candidates", "candidate pool bound", "2048", kInt},
        {"delta-ms", "post-migration imbalance guard", "800", kReal},
    });
    e.metrics = {{"req", "cpu"},
                 {"reads", "writes", "lsdir", "nsm", "rct", "shape",
                  "future"},
                 "smoothed busy imbalance over the trigger",
                 "exact benefit on the oracle window, D-guarded",
                 "until exact benefit < stop-us, capped by budget"};
    e.make = [](const common::SpecValues& p, const PolicyContext& ctx) {
      core::MetaOptParams mp;
      mp.min_subtree_ops =
          static_cast<std::uint64_t>(p.get_int("min-ops", 16));
      mp.stop_threshold = sim::micros(p.get_double("stop-us", 10'000.0));
      mp.max_decisions = static_cast<int>(p.get_int("budget", 12));
      mp.max_candidates =
          static_cast<std::size_t>(p.get_int("candidates", 2048));
      mp.delta = sim::millis(p.get_double("delta-ms", 800.0));
      cost::CostParams cost_params;
      if (ctx.options != nullptr) {
        mp.cache_enabled = ctx.options->cache_enabled;
        mp.cache_depth = ctx.options->cache_depth;
        cost_params = ctx.options->cost_params;
      }
      return ok_balancer(new core::MetaOptOracleBalancer(
          cost::CostModel(cost_params), mp, trigger_from(p, kLegacyTrigger)));
    };
    r.add(std::move(e));
  }

  // --- the registered baseline additions -----------------------------------
  {
    Entry e;
    e.name = "greedy-spill";
    e.summary = "hottest MDS sheds hottest subtrees to the coldest MDS";
    e.params = with_trigger(
        {
            {"budget", "max migrations per epoch (live default 8)", "24",
             kInt},
            {"candidates", "candidate pool bound", "1024", kInt},
            {"min-ops", "ignore subtrees with fewer ops", "16", kInt},
            {"max-inodes", "inode-move throttle per epoch", "100000", kInt},
        },
        "0.1");
    e.metrics = {{"cpu"},
                 {"reads", "writes", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "measured-hottest subtree: hottest MDS -> coldest MDS",
                 "until the source projects at the mean, capped by budget"};
    e.make = [](const common::SpecValues& p, const PolicyContext&) {
      return ok_balancer(new GreedySpillBalancer(
          shedding_params_from(p), trigger_from(p, kBaselineTrigger)));
    };
    e.make_live = [](const common::SpecValues& p, const PolicyContext&) {
      return make_live_greedy_spill(live_params_from(p, 8),
                                    trigger_from(p, kBaselineTrigger));
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "hash-repart";
    e.summary = "re-hashes drifted hot directories toward f-hash placement";
    e.params = with_trigger(
        {
            {"budget",
             "directories re-hashed per firing epoch (live default 32)", "64",
             kInt},
            {"levels", "coarse-hash depth of the initial placement", "2", kInt},
        },
        "0.1");
    e.metrics = {{"cpu"},
                 {"rct"},
                 "smoothed busy imbalance over the trigger",
                 "each drifted directory's fine-hash owner",
                 "hottest drifted directories first, capped by budget"};
    e.make = [](const common::SpecValues& p, const PolicyContext&) {
      HashRepartitionBalancer::Params hp;
      hp.max_moves_per_epoch = static_cast<int>(p.get_int("budget", 64));
      hp.coarse_levels =
          static_cast<std::uint32_t>(p.get_int("levels", 2));
      return ok_balancer(new HashRepartitionBalancer(
          hp, trigger_from(p, kBaselineTrigger)));
    };
    e.make_live = [](const common::SpecValues& p, const PolicyContext&) {
      return make_live_hash_repart(static_cast<int>(p.get_int("budget", 32)),
                                   trigger_from(p, kBaselineTrigger));
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "load-frac";
    e.summary =
        "CephFS-style load fractions: over-mean MDSs shed their excess";
    e.params = with_trigger(
        {
            {"budget", "max migrations per epoch (live default 8)", "24",
             kInt},
            {"candidates", "candidate pool bound", "1024", kInt},
            {"min-ops", "ignore subtrees with fewer ops", "16", kInt},
            {"max-inodes", "inode-move throttle per epoch", "100000", kInt},
        },
        "0.1");
    e.metrics = {{"cpu"},
                 {"reads", "writes", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "each over-mean MDS -> the least-loaded importer",
                 "a load slice matching the exporter's excess fraction"};
    e.make = [](const common::SpecValues& p, const PolicyContext&) {
      return ok_balancer(new LoadFractionBalancer(
          shedding_params_from(p), trigger_from(p, kBaselineTrigger)));
    };
    e.make_live = [](const common::SpecValues& p, const PolicyContext&) {
      return make_live_load_fraction(live_params_from(p, 8),
                                     trigger_from(p, kBaselineTrigger));
    };
    r.add(std::move(e));
  }

  return r;
}

}  // namespace

const Registry& Registry::builtin() {
  static const Registry registry = build_registry();
  return registry;
}

const Entry* Registry::find(const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

common::Status Registry::validate(const std::string& spec) const {
  return check_policy(entries_, spec).status();
}

common::Result<std::unique_ptr<cluster::Balancer>> Registry::make(
    const std::string& spec, const PolicyContext& ctx) const {
  auto checked = check_policy(entries_, spec);
  if (!checked.is_ok()) return checked.status();
  const auto& [entry, values] = checked.value();
  return entry->make(values, ctx);
}

common::Result<std::unique_ptr<LivePolicy>> Registry::make_live(
    const std::string& spec, const PolicyContext& ctx) const {
  auto checked = check_policy(entries_, spec);
  if (!checked.is_ok()) return checked.status();
  const auto& [entry, values] = checked.value();
  if (!entry->make_live) {
    return common::Status::invalid_argument("policy '" + entry->name +
                                            "' has no live-mode form");
  }
  return entry->make_live(values, ctx);
}

std::string Registry::describe() const {
  std::ostringstream out;
  for (const Entry& e : entries_) {
    out << e.name << "  -  " << e.summary << "\n";
    if (e.needs_benefit_model || e.needs_popularity_model) {
      out << "    model: " << (e.needs_benefit_model ? "benefit" : "popularity")
          << " (trained on a sibling trace before the run)\n";
    }
    out << "    modes: epoch" << (e.make_live ? " + live" : "") << "\n";
    if (e.params.empty()) {
      out << "    params: (none)\n";
    } else {
      out << "    params:\n";
      for (const common::ParamDecl& p : e.params) {
        out << "      " << p.key << "=" << p.default_value << "  " << p.summary
            << "\n";
      }
    }
    auto list = [&](const char* label, const std::vector<std::string>& xs) {
      out << "    " << label << ": ";
      if (xs.empty()) {
        out << "(none)";
      } else {
        for (std::size_t i = 0; i < xs.size(); ++i) {
          if (i > 0) out << ", ";
          out << xs[i];
        }
      }
      out << "\n";
    };
    list("mds inputs", e.metrics.mds_inputs);
    list("dir inputs", e.metrics.dir_inputs);
    out << "    when:    " << e.metrics.when << "\n";
    out << "    where:   " << e.metrics.where << "\n";
    out << "    howmuch: " << e.metrics.howmuch << "\n\n";
  }
  return out.str();
}

}  // namespace origami::policy
