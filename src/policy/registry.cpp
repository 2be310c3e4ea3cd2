#include "origami/policy/registry.hpp"

#include <cstdlib>
#include <sstream>

#include "origami/core/balancers.hpp"
#include "origami/policy/baselines.hpp"
#include "origami/policy/live.hpp"

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

core::RebalanceTrigger trigger_from(const ParamMap& p, double threshold) {
  return core::RebalanceTrigger(
      p.get_double("trigger", threshold), p.get_double("alpha", 1.0),
      static_cast<int>(p.get_int("patience", 1)));
}

SheddingParams shedding_params_from(const ParamMap& p) {
  SheddingParams sp;
  sp.max_migrations_per_epoch = static_cast<int>(p.get_int("budget", 24));
  sp.max_candidates =
      static_cast<std::size_t>(p.get_int("candidates", 1024));
  sp.min_subtree_ops = static_cast<std::uint64_t>(p.get_int("min-ops", 16));
  sp.max_inodes_per_epoch =
      static_cast<std::uint64_t>(p.get_int("max-inodes", 100'000));
  return sp;
}

LiveParams live_params_from(const ParamMap& p, int budget) {
  LiveParams lp;
  lp.max_moves_per_epoch = static_cast<int>(p.get_int("budget", budget));
  lp.min_subtree_ops =
      static_cast<std::uint64_t>(p.get_int("min-ops", 16));
  return lp;
}

const std::vector<ParamSpec> kTriggerParams = {
    {"trigger", "busy-imbalance threshold before acting", "0.05"},
    {"alpha", "EWMA smoothing factor over the imbalance series", "1.0"},
    {"patience", "consecutive over-threshold epochs before firing", "1"},
};

std::vector<ParamSpec> with_trigger(std::vector<ParamSpec> extra,
                                    const char* threshold = "0.05") {
  std::vector<ParamSpec> all = kTriggerParams;
  all[0].default_value = threshold;
  all.insert(all.end(), extra.begin(), extra.end());
  return all;
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
    e.make = [](const ParamMap&, const PolicyContext&) {
      return ok_balancer(
          new cluster::StaticBalancer(cluster::StaticBalancer::Kind::kSingle));
    };
    e.make_live = [](const ParamMap&, const PolicyContext&) {
      return make_live_null();
    };
    r.add(std::move(e));
  }
  {
    Entry e;
    e.name = "c-hash";
    e.summary = "coarse-grained directory hashing (HopsFS-style)";
    e.params = {{"levels", "hash depth; deeper dirs inherit their ancestor",
                 "2"}};
    e.metrics = {{}, {"shape"}, "never (static placement)",
                 "hash of the depth<=levels ancestor", "nothing moves"};
    e.make = [](const ParamMap& p, const PolicyContext&) {
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
    e.make = [](const ParamMap&, const PolicyContext&) {
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
    e.make = [](const ParamMap&, const PolicyContext& ctx)
        -> common::Result<std::unique_ptr<cluster::Balancer>> {
      if (ctx.converged == nullptr) {
        return common::Status::invalid_argument(
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
        {"min-ops", "ignore subtrees with fewer ops in the window", "8"},
        {"budget", "max migrations per epoch", "24"},
        {"candidates", "candidate pool bound (top by subtree RCT)", "1024"},
        {"spread", "stop when predicted spread falls below this", "0.02"},
        {"max-inodes", "inode-move throttle per epoch", "150000"},
    });
    e.metrics = {{"req", "cpu"},
                 {"reads", "writes", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "predicted-hottest subtree: hottest MDS -> coldest MDS",
                 "until predicted spread < spread, capped by budget"};
    e.make = [](const ParamMap& p, const PolicyContext& ctx) {
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
        {"min-benefit", "stop below this predicted benefit (s)", "0.01"},
        {"budget", "max migrations per epoch", "24"},
        {"candidates", "candidate pool bound", "1024"},
        {"min-ops", "ignore subtrees with fewer ops in the window", "16"},
        {"delta-ms", "Appendix-A post-migration imbalance guard", "800"},
        {"max-inodes", "inode-move throttle per epoch", "100000"},
        {"amortize", "epochs the export cost is amortised over", "8"},
    });
    e.metrics = {{"req", "cpu"},
                 {"reads", "writes", "lsdir", "nsm", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "highest predicted benefit -> least-loaded MDS, D-guarded",
                 "until predicted benefit < min-benefit, capped by budget"};
    e.make = [](const ParamMap& p, const PolicyContext& ctx) {
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
    e.make_live = [](const ParamMap& p, const PolicyContext& ctx) {
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
        {"min-ops", "ignore subtrees with fewer ops in the window", "16"},
        {"stop-us", "stop below this remaining benefit (us)", "10000"},
        {"budget", "max decisions per invocation", "12"},
        {"candidates", "candidate pool bound", "2048"},
        {"delta-ms", "post-migration imbalance guard", "800"},
    });
    e.metrics = {{"req", "cpu"},
                 {"reads", "writes", "lsdir", "nsm", "rct", "shape",
                  "future"},
                 "smoothed busy imbalance over the trigger",
                 "exact benefit on the oracle window, D-guarded",
                 "until exact benefit < stop-us, capped by budget"};
    e.make = [](const ParamMap& p, const PolicyContext& ctx) {
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
            {"budget", "max migrations per epoch", "24"},
            {"candidates", "candidate pool bound", "1024"},
            {"min-ops", "ignore subtrees with fewer ops", "16"},
            {"max-inodes", "inode-move throttle per epoch", "100000"},
        },
        "0.1");
    e.metrics = {{"cpu"},
                 {"reads", "writes", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "measured-hottest subtree: hottest MDS -> coldest MDS",
                 "until the source projects at the mean, capped by budget"};
    e.make = [](const ParamMap& p, const PolicyContext&) {
      return ok_balancer(new GreedySpillBalancer(
          shedding_params_from(p), trigger_from(p, kBaselineTrigger)));
    };
    e.make_live = [](const ParamMap& p, const PolicyContext&) {
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
            {"budget", "directories re-hashed per firing epoch", "64"},
            {"levels", "coarse-hash depth of the initial placement", "2"},
        },
        "0.1");
    e.metrics = {{"cpu"},
                 {"rct"},
                 "smoothed busy imbalance over the trigger",
                 "each drifted directory's fine-hash owner",
                 "hottest drifted directories first, capped by budget"};
    e.make = [](const ParamMap& p, const PolicyContext&) {
      HashRepartitionBalancer::Params hp;
      hp.max_moves_per_epoch = static_cast<int>(p.get_int("budget", 64));
      hp.coarse_levels =
          static_cast<std::uint32_t>(p.get_int("levels", 2));
      return ok_balancer(new HashRepartitionBalancer(
          hp, trigger_from(p, kBaselineTrigger)));
    };
    e.make_live = [](const ParamMap& p, const PolicyContext&) {
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
            {"budget", "max migrations per epoch", "24"},
            {"candidates", "candidate pool bound", "1024"},
            {"min-ops", "ignore subtrees with fewer ops", "16"},
            {"max-inodes", "inode-move throttle per epoch", "100000"},
        },
        "0.1");
    e.metrics = {{"cpu"},
                 {"reads", "writes", "rct", "shape"},
                 "smoothed busy imbalance over the trigger",
                 "each over-mean MDS -> the least-loaded importer",
                 "a load slice matching the exporter's excess fraction"};
    e.make = [](const ParamMap& p, const PolicyContext&) {
      return ok_balancer(new LoadFractionBalancer(
          shedding_params_from(p), trigger_from(p, kBaselineTrigger)));
    };
    e.make_live = [](const ParamMap& p, const PolicyContext&) {
      return make_live_load_fraction(live_params_from(p, 8),
                                     trigger_from(p, kBaselineTrigger));
    };
    r.add(std::move(e));
  }

  return r;
}

}  // namespace

common::Result<PolicySpec> parse_policy_spec(const std::string& spec) {
  PolicySpec out;
  const std::size_t colon = spec.find(':');
  out.name = spec.substr(0, colon);
  if (out.name.empty()) {
    return common::Status::invalid_argument("empty policy name in spec '" +
                                            spec + "'");
  }
  if (colon == std::string::npos) return out;
  std::size_t pos = colon + 1;
  while (pos <= spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos || eq == 0) {
      return common::Status::invalid_argument(
          "bad policy parameter '" + item + "' in spec '" + spec +
          "' (expected key=value)");
    }
    out.params.emplace_back(item.substr(0, eq), item.substr(eq + 1));
    pos = comma + 1;
  }
  return out;
}

bool ParamMap::has(const std::string& key) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return true;
  }
  return false;
}

std::string ParamMap::get(const std::string& key,
                          const std::string& fallback) const {
  for (const auto& [k, v] : kv_) {
    if (k == key) return v;
  }
  return fallback;
}

double ParamMap::get_double(const std::string& key, double fallback) const {
  const std::string v = get(key);
  if (v.empty()) return fallback;
  return std::strtod(v.c_str(), nullptr);
}

std::int64_t ParamMap::get_int(const std::string& key,
                               std::int64_t fallback) const {
  const std::string v = get(key);
  if (v.empty()) return fallback;
  return static_cast<std::int64_t>(std::strtoll(v.c_str(), nullptr, 10));
}

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

namespace {

common::Status check_spec(const Registry& r, const PolicySpec& spec,
                          const Entry** out) {
  const Entry* entry = r.find(spec.name);
  if (entry == nullptr) {
    std::string names;
    for (const Entry& e : r.entries()) {
      if (!names.empty()) names += ", ";
      names += e.name;
    }
    return common::Status::invalid_argument("unknown policy '" + spec.name +
                                            "' (registered: " + names + ")");
  }
  for (const auto& [key, value] : spec.params) {
    bool known = false;
    for (const ParamSpec& p : entry->params) {
      if (p.key == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      std::string keys;
      for (const ParamSpec& p : entry->params) {
        if (!keys.empty()) keys += ", ";
        keys += p.key;
      }
      return common::Status::invalid_argument(
          "policy '" + spec.name + "' has no parameter '" + key + "'" +
          (keys.empty() ? " (it takes none)" : " (it takes: " + keys + ")"));
    }
  }
  if (out != nullptr) *out = entry;
  return common::Status::ok();
}

}  // namespace

common::Status Registry::validate(const std::string& spec) const {
  auto parsed = parse_policy_spec(spec);
  if (!parsed.is_ok()) return parsed.status();
  return check_spec(*this, parsed.value(), nullptr);
}

common::Result<std::unique_ptr<cluster::Balancer>> Registry::make(
    const std::string& spec, const PolicyContext& ctx) const {
  auto parsed = parse_policy_spec(spec);
  if (!parsed.is_ok()) return parsed.status();
  const Entry* entry = nullptr;
  if (auto s = check_spec(*this, parsed.value(), &entry); !s.is_ok()) return s;
  return entry->make(ParamMap(std::move(parsed).value().params), ctx);
}

common::Result<std::unique_ptr<LivePolicy>> Registry::make_live(
    const std::string& spec, const PolicyContext& ctx) const {
  auto parsed = parse_policy_spec(spec);
  if (!parsed.is_ok()) return parsed.status();
  const Entry* entry = nullptr;
  if (auto s = check_spec(*this, parsed.value(), &entry); !s.is_ok()) return s;
  if (!entry->make_live) {
    return common::Status::invalid_argument("policy '" + entry->name +
                                            "' has no live-mode form");
  }
  return entry->make_live(ParamMap(std::move(parsed).value().params), ctx);
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
      for (const ParamSpec& p : e.params) {
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
