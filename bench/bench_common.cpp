#include "bench_common.hpp"

#include <cstdio>
#include <cstdlib>

#include "origami/cluster/options.hpp"
#include "origami/common/flags.hpp"
#include "origami/common/spec.hpp"
#include "origami/fault/fault.hpp"
#include "origami/policy/registry.hpp"

namespace origami::bench {

wl::Trace standard_rw(std::uint64_t seed, std::uint64_t ops) {
  return wl::make_trace("rw", seed, ops).value();
}

wl::Trace standard_ro(std::uint64_t seed, std::uint64_t ops) {
  return wl::make_trace("ro", seed, ops).value();
}

wl::Trace standard_wi(std::uint64_t seed, std::uint64_t ops) {
  return wl::make_trace("wi", seed, ops).value();
}

cluster::ReplayOptions paper_options() {
  cluster::ReplayOptions opt;
  opt.mds_count = 5;
  opt.clients = 50;
  // The paper uses 10 s epochs on a testbed that runs for tens of minutes;
  // the simulated runs replay a few hundred thousand ops, so epochs scale
  // down proportionally (EXPERIMENTS.md, "time scaling").
  opt.epoch_length = sim::millis(500);
  opt.warmup_epochs = 4;
  opt.lookahead_ops = 60'000;
  return opt;
}

cluster::ReplayOptions options_from_argv(int argc, const char* const* argv,
                                         cluster::ReplayOptions base) {
  const common::Flags flags(argc, argv);
  auto parsed = cluster::options_from_flags(flags, std::move(base));
  if (!parsed.is_ok()) {
    // Benches must fail fast on a typoed fault/commit knob rather than
    // silently producing fault-free numbers under the wrong label.
    std::fprintf(stderr,
                 "error: %s\n"
                 "see cluster::options_from_flags for the shared --fault-* / "
                 "--retry-* / --commit-* vocabulary\n",
                 parsed.status().to_string().c_str());
    std::exit(2);
  }
  return std::move(parsed).value();
}

core::LabelGenOptions label_options(const cluster::ReplayOptions& options) {
  core::LabelGenOptions lg;
  lg.replay = options;
  lg.meta_opt.min_subtree_ops = 8;
  lg.meta_opt.stop_threshold = sim::micros(500);
  lg.meta_opt.cache_enabled = options.cache_enabled;
  lg.meta_opt.cache_depth = options.cache_depth;
  lg.min_feature_ops = 4;
  return lg;
}

core::TrainedModels train_for(const wl::Trace& training_trace,
                              const cluster::ReplayOptions& options,
                              int gbdt_rounds) {
  ml::GbdtParams gbdt;
  gbdt.rounds = gbdt_rounds;
  gbdt.early_stopping_rounds = 30;
  return core::train_from_trace(training_trace, label_options(options), gbdt);
}

cluster::ReplayOptions with_crashes(cluster::ReplayOptions opt,
                                   double crash_prob) {
  fault::FaultPlan& plan = opt.faults;
  plan.seed = 2027;
  plan.crash_prob = crash_prob;
  plan.crash_recovery = sim::millis(400);
  plan.rpc_loss_prob = 0.0005;
  opt.retry.max_retries = 5;
  opt.retry.timeout = sim::millis(2);
  return opt;
}

cluster::RunResult run_policy(const std::string& spec, const wl::Trace& trace,
                              const cluster::ReplayOptions& options,
                              const core::TrainedModels* models) {
  const policy::Registry& registry = policy::Registry::builtin();
  cluster::ReplayOptions opt = options;
  if (const auto parsed = common::parse_spec(spec); parsed.is_ok()) {
    const policy::Entry* entry = registry.find(parsed.value().name);
    if (entry != nullptr && entry->single_mds) opt.mds_count = 1;
  }
  policy::PolicyContext ctx;
  ctx.options = &opt;
  if (models != nullptr) {
    ctx.benefit_model = models->benefit;
    ctx.popularity_model = models->popularity;
  }
  auto made = registry.make(spec, ctx);
  if (!made.is_ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().to_string().c_str());
    std::exit(2);
  }
  const std::unique_ptr<cluster::Balancer> balancer = std::move(made).value();
  return cluster::replay_trace(trace, opt, *balancer);
}

cluster::RunResult run_latency_probe(const wl::Trace& trace,
                                     const cluster::ReplayOptions& options,
                                     const cluster::RunResult& converged) {
  cluster::ReplayOptions opt = options;
  opt.clients = 1;
  opt.mds_count = converged.mds_count;
  cluster::FixedPartitionBalancer balancer(converged);
  return cluster::replay_trace(trace, opt, balancer);
}

namespace {

void exit_unless_written(const common::Status& s) {
  if (s.is_ok()) return;
  std::fprintf(stderr, "error: %s\n", s.to_string().c_str());
  std::exit(1);
}

}  // namespace

common::CsvWriter open_csv(const std::string& bench, const std::string& name) {
  common::CsvWriter csv(bench + "_" + name + ".csv");
  if (!csv.is_open()) {
    exit_unless_written(
        common::Status::unavailable("cannot open " + csv.path()));
  }
  return csv;
}

void close_csv(common::CsvWriter& csv) { exit_unless_written(csv.close()); }

void write_report(const std::string& path, std::string_view bench,
                  const std::vector<std::pair<std::string, common::Cell>>&
                      config,
                  common::CsvWriter& results) {
  close_csv(results);
  exit_unless_written(common::write_report(path, bench, config, results));
}

}  // namespace origami::bench
