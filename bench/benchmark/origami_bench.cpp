// origami_bench — the repository benchmark: what a user of this simulator
// pays in host time and memory to get a result, on four fixed workloads
// that each put most of the host time into a different module. See
// README.md for the metric definitions and why each workload exists.
//
//   origami_bench --workload NAME --seed N [--seconds S] [--smoke]
//                 [--traced --trace-out PATH] [--out PATH] [--git-sha SHA]
//
// One untimed warm-up rep, then timed reps until `--seconds` of host time
// have been measured (at least kMinReps). Every rep builds its engine from
// scratch. `--traced` adds one more rep with spans around the calls into
// each module and reports per-layer metrics; end-to-end metrics always come
// from the untraced reps. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"} (end-to-end metrics, or the
// per-layer ones with --traced). Exit 1 when a correctness check fails,
// 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "../../tests/support/fingerprints.hpp"
#include "bench_common.hpp"
#include "origami/common/flags.hpp"
#include "origami/engine/observer.hpp"
#include "origami/fs/live_replay.hpp"
#include "origami/policy/registry.hpp"
#include "origami/recovery/invariants.hpp"
#include "span_tracer.hpp"

using namespace origami;
using bench::ScopedSpan;
using bench::SpanTracer;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kMinReps = 5;
constexpr int kMinSetupReps = 3;
constexpr double kMinSetupSeconds = 1.0;
/// Training traces use a sibling seed, as origami_sim does.
constexpr std::uint64_t kTrainSeedOffset = 98;
/// Fault schedules derive from the workload seed.
constexpr std::uint64_t kFaultSeedOffset = 2026;
constexpr std::uint32_t kLiveShards = 8;
constexpr std::uint32_t kLiveShardThreads = 3;

// Span-tracer run ids: which phase of the benchmark recorded a span.
constexpr int kSetupRun = 0;
constexpr int kTracedRun = 1;
constexpr int kOneThreadRun = 2;

struct Workload {
  const char* name;
  const char* family;       ///< trace generator: rw | ro | midas | falcon
  std::uint64_t ops;        ///< evaluation trace length
  std::uint64_t train_ops;  ///< training trace length; 0 = no model
  const char* policy;       ///< registry spec
  bool live;                ///< fs::replay_on_live instead of the epoch DES
  bool faults;              ///< fault plan armed
};

// Why these four (README.md has the long form):
//   rw-origami     decision plane: GBDT inference + features in rebalance;
//   ro-chash       the cluster engine alone (policy and ML bypassed);
//   midas-faulted  write path: kvstore, journal, failover, fencing, checker;
//   falcon-live    the only real host threads and the live fault plane.
// The policy parameters keep host cost from depending on the seed: with
// the default trigger, whether origami's rebalance fires at all is a
// property of the rw seed (host time 10x apart between seeds); the default
// budget (24 moves per epoch) let midas migration work vary 6x; live
// origami stalls on some falcon seeds (README.md, "Findings").
constexpr Workload kWorkloads[] = {
    {"rw-origami", "rw", 300'000, 300'000, "origami:trigger=0", false, false},
    {"ro-chash", "ro", 1'000'000, 0, "c-hash", false, false},
    {"midas-faulted", "midas", 500'000, 300'000, "origami:budget=2", false,
     true},
    {"falcon-live", "falcon", 500'000, 0, "hash-repart", true, true},
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

wl::Trace make_trace(const std::string& family, std::uint64_t seed,
                     std::uint64_t ops) {
  if (family == "ro") {
    wl::TraceRoConfig cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    return wl::make_trace_ro(cfg);
  }
  if (family == "midas") {
    wl::TraceMidasConfig cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    return wl::make_trace_midas(cfg);
  }
  if (family == "falcon") {
    wl::TraceFalconConfig cfg;
    cfg.seed = seed;
    cfg.ops = ops;
    return wl::make_trace_falcon(cfg);
  }
  wl::TraceRwConfig cfg;
  cfg.seed = seed;
  cfg.ops = ops;
  return wl::make_trace_rw(cfg);
}

/// Everything the program under test receives: the generated trace and,
/// where the policy needs one, the model trained on a sibling-seed trace.
struct Inputs {
  wl::Trace trace;
  core::TrainedModels models;
  ml::Dataset labels;  ///< the benefit rows the model was fit on
};

/// bench::train_for's recipe, with label generation and the fit as separate
/// calls so each gets its own span.
Inputs set_up(const Workload& w, std::uint64_t seed, std::uint64_t ops,
              std::uint64_t train_ops, SpanTracer& spans) {
  Inputs in;
  {
    ScopedSpan s(spans, "wl.make_trace");
    in.trace = make_trace(w.family, seed, ops);
  }
  if (train_ops == 0) return in;
  wl::Trace training;
  {
    ScopedSpan s(spans, "wl.make_trace");
    training = make_trace(w.family, seed + kTrainSeedOffset, train_ops);
  }
  const cluster::ReplayOptions options = bench::paper_options();
  core::LabelGenOptions lg;
  lg.replay = options;
  lg.meta_opt.min_subtree_ops = 8;
  lg.meta_opt.stop_threshold = sim::micros(500);
  lg.meta_opt.cache_enabled = options.cache_enabled;
  lg.meta_opt.cache_depth = options.cache_depth;
  lg.min_feature_ops = 4;
  ml::GbdtParams gbdt;
  gbdt.rounds = 200;
  gbdt.early_stopping_rounds = 30;
  core::LabelGenResult labels = [&] {
    ScopedSpan s(spans, "core.generate_labels");
    return core::generate_labels(training, lg);
  }();
  {
    ScopedSpan s(spans, "core.train_models");
    in.models = core::train_models(labels, gbdt);
  }
  in.labels = std::move(labels.benefit_data);
  return in;
}

cluster::ReplayOptions epoch_options(const Workload& w, std::uint64_t seed) {
  cluster::ReplayOptions opt = bench::paper_options();
  if (!w.faults) return opt;
  opt.faults.seed = seed + kFaultSeedOffset;
  opt.faults.crash_prob = 0.05;
  opt.faults.crash_recovery = sim::millis(400);
  opt.faults.straggler_prob = 0.1;
  opt.faults.straggler_duration = sim::millis(200);
  opt.faults.rpc_loss_prob = 0.002;
  opt.retry.max_retries = 5;
  opt.retry.timeout = sim::millis(2);
  // A real LSM store per MDS with an in-memory WAL: the CPU cost of the
  // write path without real fsync latency swamping it.
  opt.kv_backing = true;
  opt.recovery.commit_mode = recovery::CommitMode::kSync;
  opt.recovery.capture_ledger = true;
  return opt;
}

fs::LiveReplayOptions live_options(const Workload& w, std::uint64_t seed,
                                   std::uint64_t ops,
                                   std::uint32_t shard_threads) {
  fs::LiveReplayOptions lro;
  lro.clients = 32;
  lro.shard_threads = shard_threads;
  lro.epoch_ops = ops / 25;  // 20k ops per balancing epoch at full size
  if (!w.faults) return lro;
  // fig14's faulted plan at lower rates, async modeled journal.
  lro.faults.seed = seed + kFaultSeedOffset;
  lro.faults.crash_prob = 0.02;
  lro.faults.crash_recovery = sim::millis(300);
  lro.faults.straggler_prob = 0.05;
  lro.faults.straggler_slow = 4.0;
  lro.faults.straggler_duration = sim::millis(200);
  lro.faults.rpc_loss_prob = 0.003;
  lro.retry.max_retries = 4;
  lro.recovery.commit_mode = recovery::CommitMode::kAsync;
  lro.recovery.commit_window = sim::millis(1);
  lro.recovery.commit_batch = 32;
  return lro;
}

/// Times `prepare` and `rebalance` of the balancer it wraps.
class TimedBalancer final : public cluster::Balancer {
 public:
  TimedBalancer(cluster::Balancer& inner, SpanTracer& spans)
      : inner_(inner), spans_(spans) {}

  [[nodiscard]] std::string name() const override { return inner_.name(); }
  void prepare(const fsns::DirTree& tree, mds::PartitionMap& map) override {
    ScopedSpan s(spans_, "policy.prepare");
    inner_.prepare(tree, map);
  }
  std::vector<cluster::MigrationDecision> rebalance(
      const cluster::EpochSnapshot& snapshot, const fsns::DirTree& tree,
      const mds::PartitionMap& map) override {
    ScopedSpan s(spans_, "policy.rebalance");
    return inner_.rebalance(snapshot, tree, map);
  }

 private:
  cluster::Balancer& inner_;
  SpanTracer& spans_;
};

/// Records epoch boundaries, migration phases and fault events, and spans
/// the application of each epoch's decisions (on_decisions fires after
/// `rebalance` returns; on_epoch_end after every decision is applied).
class TimingObserver final : public engine::Observer {
 public:
  explicit TimingObserver(SpanTracer& spans) : spans_(spans) {}

  void on_epoch_begin(const cluster::EpochSnapshot&) override {
    spans_.instant("cluster.epoch");
  }
  void on_decisions(std::uint32_t,
                    std::span<const cluster::MigrationDecision> ds) override {
    decisions += ds.size();
    apply_span_ = spans_.begin("cluster.migration_apply");
  }
  void on_arrival(const engine::ArrivalEvent&) override { ++issued; }
  void on_migration_phase(const engine::MigrationPhaseEvent& ev) override {
    using Phase = engine::MigrationPhaseEvent::Phase;
    spans_.instant(ev.phase == Phase::kPrepare  ? "migration.prepare"
                   : ev.phase == Phase::kCommit ? "migration.commit"
                                                : "migration.abort");
  }
  void on_fault(const engine::FaultEvent& ev) override {
    using Kind = engine::FaultEvent::Kind;
    spans_.instant(ev.kind == Kind::kCrash      ? "fault.crash"
                   : ev.kind == Kind::kFailover ? "fault.failover"
                                                : "fault.recover");
  }
  void on_epoch_end(const cluster::EpochMetrics&,
                    const engine::EpochCounters&) override {
    spans_.end(apply_span_);
    apply_span_ = -1;
  }

  std::uint64_t issued = 0;
  std::uint64_t decisions = 0;

 private:
  SpanTracer& spans_;
  int apply_span_ = -1;
};

/// One replay, timed from engine construction to the end of its checks.
struct Rep {
  double host_s = 0.0;
  std::uint64_t issued = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  ///< simulated ops that failed
  std::string digest;
  double model_throughput_ops = 0.0;
  double model_p99_us = 0.0;
  std::uint64_t model_migrations = 0;
  std::uint64_t decisions = 0;  ///< traced epoch reps only
  std::vector<std::string> problems;
  std::optional<cluster::RunResult> epoch;
  std::optional<fs::LiveReplayStats> live;
};

std::string digest_of(const std::string& fingerprint) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a
  for (const unsigned char c : fingerprint) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

void check_conservation(Rep& rep) {
  if (rep.completed + rep.failed != rep.issued) {
    std::ostringstream os;
    os << "conservation: completed " << rep.completed << " + failed "
       << rep.failed << " != issued " << rep.issued;
    rep.problems.push_back(os.str());
  }
}

Rep run_epoch(const Workload& w, const Inputs& in, std::uint64_t seed,
              SpanTracer& spans) {
  cluster::ReplayOptions opt = epoch_options(w, seed);
  const auto t0 = Clock::now();
  policy::PolicyContext ctx;
  ctx.options = &opt;
  ctx.benefit_model = in.models.benefit;
  ctx.popularity_model = in.models.popularity;
  auto made = policy::Registry::builtin().make(w.policy, ctx);
  if (!made.is_ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().to_string().c_str());
    std::exit(2);
  }
  const std::unique_ptr<cluster::Balancer> inner = std::move(made).value();
  cluster::Balancer* balancer = inner.get();
  std::optional<TimedBalancer> timed;
  std::optional<TimingObserver> observer;
  if (spans.enabled()) {
    // The engine auto-subscribes only the balancer it is handed, so the
    // wrapped policy's own observer (if any) goes first, as it would be.
    // (epoch_options attaches no observers of its own.)
    if (auto* o = dynamic_cast<engine::Observer*>(inner.get())) {
      opt.observers.push_back(o);
    }
    timed.emplace(*inner, spans);
    observer.emplace(spans);
    opt.observers.push_back(&*observer);
    balancer = &*timed;
  }

  Rep rep;
  {
    ScopedSpan s(spans, "cluster.replay");
    rep.epoch = cluster::replay_trace(in.trace, opt, *balancer);
  }
  const cluster::RunResult& r = *rep.epoch;
  if (w.faults) {
    ScopedSpan s(spans, "recovery.check");
    if (r.ledger == nullptr) {
      rep.problems.push_back("invariants: no recovery ledger captured");
    } else if (const auto report = recovery::NamespaceInvariantChecker::check(
                   in.trace.tree, *r.ledger);
               !report.ok()) {
      rep.problems.push_back("invariants: " + report.to_string());
    }
  }
  rep.host_s = seconds_since(t0);

  // Runs never loop the trace, so every trace op is issued exactly once.
  rep.issued = in.trace.ops.size();
  rep.completed = r.completed_ops;
  rep.failed = r.faults.failed_ops;
  check_conservation(rep);
  if (observer && observer->issued != rep.issued) {
    rep.problems.push_back("arrival seam saw " +
                           std::to_string(observer->issued) + " issues, not " +
                           std::to_string(rep.issued));
  }
  rep.decisions = observer ? observer->decisions : 0;
  rep.digest = digest_of(testing::run_result_fingerprint(r));
  rep.model_throughput_ops = r.throughput_ops;
  rep.model_p99_us = r.p99_latency_us;
  rep.model_migrations = r.migrations;
  return rep;
}

Rep run_live(const Workload& w, const Inputs& in, std::uint64_t seed,
             std::uint32_t shard_threads, SpanTracer& spans) {
  const cluster::ReplayOptions base = bench::paper_options();
  const auto t0 = Clock::now();
  policy::PolicyContext ctx;
  ctx.options = &base;
  ctx.benefit_model = in.models.benefit;
  ctx.popularity_model = in.models.popularity;
  auto made = policy::Registry::builtin().make_live(w.policy, ctx);
  if (!made.is_ok()) {
    std::fprintf(stderr, "error: %s\n", made.status().to_string().c_str());
    std::exit(2);
  }
  const std::unique_ptr<policy::LivePolicy> live = std::move(made).value();
  fs::OrigamiFs::Options fopt;
  fopt.shards = kLiveShards;
  fs::OrigamiFs fsys(fopt);
  fs::LiveReplayOptions lro =
      live_options(w, seed, in.trace.ops.size(), shard_threads);
  lro.on_epoch = [&](fs::OrigamiFs& f, fs::LiveFaultContext& c) {
    ScopedSpan s(spans, "policy.live_epoch");
    return live->on_epoch(f, c);
  };

  Rep rep;
  {
    ScopedSpan s(spans, "fs.replay");
    rep.live = fs::replay_on_live(in.trace, fsys, lro);
  }
  rep.host_s = seconds_since(t0);

  const fs::LiveReplayStats& st = *rep.live;
  rep.issued = in.trace.ops.size();
  // `executed` counts service calls, including ones that returned an error;
  // ops abandoned after the retry budget never reach the service.
  rep.completed = st.executed - st.failed;
  rep.failed = st.failed + st.faults.failed_ops;
  check_conservation(rep);
  rep.digest = digest_of(testing::live_stats_fingerprint(st));
  rep.model_throughput_ops = st.throughput_ops;
  rep.model_p99_us = static_cast<double>(st.latency.quantile(0.99)) / 1'000.0;
  rep.model_migrations = st.migrations;
  return rep;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Per-layer metrics from the traced setup and the traced rep. Layers a
/// workload does not run report 0.
std::vector<Metric> per_layer_metrics(const Inputs& in,
                                      const SpanTracer& spans,
                                      const Rep& traced,
                                      double predict_ns_per_row,
                                      double untraced_median_s) {
  const double ops = static_cast<double>(in.trace.ops.size());
  std::vector<Metric> m;
  const auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };

  add("wl.trace_gen_s", spans.total_s("wl.make_trace", kSetupRun), "s");
  add("core.label_gen_s", spans.total_s("core.generate_labels", kSetupRun),
      "s");
  add("core.label_rows", static_cast<double>(in.labels.size()), "count");
  add("ml.fit_s", spans.total_s("core.train_models", kSetupRun), "s");
  add("ml.trees",
      in.models.benefit ? static_cast<double>(in.models.benefit->num_trees())
                        : 0.0,
      "count");
  add("ml.predict_ns_per_row", predict_ns_per_row, "ns/row");

  // Epoch-engine layers (spans a live rep never records read as 0).
  const double replay_s = spans.total_s("cluster.replay", kTracedRun);
  const double engine_s = spans.self_s("cluster.replay", kTracedRun);
  double rebalance_s = 0.0;
  std::vector<double> rebalance_ms;
  for (const auto* s : spans.find("policy.rebalance", kTracedRun)) {
    rebalance_ms.push_back(s->seconds() * 1e3);
    rebalance_s += s->seconds();
  }
  // Host time between consecutive epoch boundaries, from replay start to
  // replay end.
  std::vector<double> epoch_ms;
  for (const auto* replay : spans.find("cluster.replay", kTracedRun)) {
    std::int64_t prev = replay->start_ns;
    for (const auto* s : spans.find("cluster.epoch", kTracedRun)) {
      epoch_ms.push_back(static_cast<double>(s->start_ns - prev) * 1e-6);
      prev = s->start_ns;
    }
    epoch_ms.push_back(static_cast<double>(replay->end_ns - prev) * 1e-6);
  }
  const auto max_of = [](const std::vector<double>& v) {
    return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
  };
  add("policy.rebalance_s", rebalance_s, "s");
  add("policy.rebalance_share", ratio(rebalance_s, replay_s), "ratio");
  add("policy.rebalance_ms_p50", median(rebalance_ms), "ms");
  add("policy.rebalance_ms_max", max_of(rebalance_ms), "ms");
  add("policy.rebalance_calls", static_cast<double>(rebalance_ms.size()),
      "count");
  const cluster::RunResult empty_result;
  const cluster::RunResult& r = traced.epoch ? *traced.epoch : empty_result;
  add("policy.decisions", static_cast<double>(traced.decisions), "count");
  add("policy.commit_ratio",
      ratio(static_cast<double>(r.migrations),
            static_cast<double>(traced.decisions)),
      "ratio");
  add("cluster.replay_s", replay_s, "s");
  add("cluster.engine_s", engine_s, "s");
  add("cluster.engine_ns_per_op", engine_s * 1e9 / ops, "ns/op");
  add("cluster.epoch_ms_p50", median(epoch_ms), "ms");
  add("cluster.epoch_ms_max", max_of(epoch_ms), "ms");
  add("cluster.migration_apply_s",
      spans.total_s("cluster.migration_apply", kTracedRun), "s");
  add("cluster.rpc_per_request", r.rpc_per_request, "rpc/op");
  add("cluster.forwarded_frac",
      ratio(static_cast<double>(r.forwarded_requests),
            static_cast<double>(r.completed_ops)),
      "ratio");
  add("mds.cache_hit_ratio",
      ratio(static_cast<double>(r.cache.hits),
            static_cast<double>(r.cache.hits + r.cache.misses)),
      "ratio");
  add("recovery.check_s", spans.total_s("recovery.check", kTracedRun), "s");
  add("recovery.journal_records", static_cast<double>(r.faults.journal_records),
      "count");
  add("recovery.replayed_records",
      static_cast<double>(r.faults.journal_replayed_records), "count");
  add("recovery.fenced_rejections",
      static_cast<double>(r.faults.fenced_rejections), "count");
  add("fault.crashes", static_cast<double>(r.faults.crashes), "count");
  add("fault.retries_per_op", static_cast<double>(r.faults.retries) / ops,
      "ratio");
  const kv::DbStats& kv = r.kv_stats;
  add("kv.puts", static_cast<double>(kv.puts), "count");
  add("kv.gets", static_cast<double>(kv.gets), "count");
  add("kv.run_probes_per_get",
      ratio(static_cast<double>(kv.run_probes), static_cast<double>(kv.gets)),
      "ratio");
  add("kv.bloom_skip_ratio",
      ratio(static_cast<double>(kv.bloom_negative),
            static_cast<double>(kv.bloom_negative + kv.run_probes)),
      "ratio");
  add("kv.compacted_per_put",
      ratio(static_cast<double>(kv.entries_compacted),
            static_cast<double>(kv.puts)),
      "ratio");
  add("kv.memtable_flushes", static_cast<double>(kv.memtable_flushes),
      "count");

  // Live-plane layers.
  const fs::LiveReplayStats empty_stats;
  const fs::LiveReplayStats& st = traced.live ? *traced.live : empty_stats;
  const double fs_replay_s = spans.total_s("fs.replay", kTracedRun);
  const double live_epoch_s = spans.total_s("policy.live_epoch", kTracedRun);
  add("fs.replay_s", fs_replay_s, "s");
  add("policy.live_epoch_s", live_epoch_s, "s");
  add("policy.live_epoch_share", ratio(live_epoch_s, fs_replay_s), "ratio");
  add("fs.serve_s", spans.self_s("fs.replay", kTracedRun), "s");
  add("fs.thread_speedup",
      ratio(spans.total_s("fs.replay", kOneThreadRun), fs_replay_s), "ratio");
  add("fs.group_commits", static_cast<double>(st.faults.group_commits),
      "count");
  add("fs.crashes", static_cast<double>(st.faults.crashes), "count");
  add("fs.shard_imbalance", st.shard_imbalance, "ratio");

  add("trace.overhead_frac", traced.host_s / untraced_median_s - 1.0, "ratio");
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_list(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    out += (i ? ", " : "") + json_number(v[i]);
  }
  return out + "]";
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " +
           json_number(ms[i].value) + ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  const common::Flags flags(argc, argv);
  const std::vector<std::string> known = {
      "workload", "seed", "seconds", "smoke", "traced", "trace-out", "out",
      "git-sha"};
  for (const std::string& name : flags.names()) {
    if (std::find(known.begin(), known.end(), name) == known.end()) {
      std::fprintf(stderr, "error: unknown flag --%s\n", name.c_str());
      return 2;
    }
  }
  const std::string name = flags.get("workload");
  const Workload* found = nullptr;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) found = &w;
  }
  if (found == nullptr || !flags.positional().empty()) {
    std::fprintf(stderr,
                 "usage: origami_bench --workload "
                 "rw-origami|ro-chash|midas-faulted|falcon-live --seed N "
                 "[--seconds S] [--smoke] [--traced --trace-out PATH] "
                 "[--out PATH] [--git-sha SHA]\n");
    return 2;
  }
  const Workload& w = *found;
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const double budget_s = flags.get_double("seconds", 20.0);
  const bool smoke = flags.get_bool("smoke", false);
  const bool traced = flags.get_bool("traced", false);
  // Smoke: 1% of the ops, one rep, every check on.
  const std::uint64_t ops = smoke ? w.ops / 100 : w.ops;
  const std::uint64_t train_ops = smoke ? w.train_ops / 100 : w.train_ops;

  SpanTracer off(false);
  SpanTracer spans(traced);
  const auto run_rep = [&](SpanTracer& tracer, const Inputs& in,
                           std::uint32_t shard_threads) {
    return w.live ? run_live(w, in, seed, shard_threads, tracer)
                  : run_epoch(w, in, seed, tracer);
  };

  // --- set-up: inputs for the program under test --------------------------
  // At least kMinSetupReps set-ups and kMinSetupSeconds of them, so a
  // set-up of a few milliseconds still gets a steady median.
  std::vector<double> setup_s;
  double setup_total_s = 0.0;
  Inputs in;
  spans.set_run(kSetupRun);
  do {
    in = Inputs{};  // release the previous copy before building the next
    const auto t0 = Clock::now();
    in = set_up(w, seed, ops, train_ops, spans);
    setup_s.push_back(seconds_since(t0));
    setup_total_s += setup_s.back();
  } while (!smoke && !traced &&
           (static_cast<int>(setup_s.size()) < kMinSetupReps ||
            setup_total_s < kMinSetupSeconds));

  // --- reps ---------------------------------------------------------------
  std::vector<Rep> all;  // summaries of every rep, for the digest gate
  const auto keep = [&all](Rep rep) {
    rep.epoch.reset();
    rep.live.reset();
    all.push_back(std::move(rep));
  };
  if (!smoke) keep(run_rep(off, in, kLiveShardThreads));  // warm-up
  std::vector<double> rep_s;
  std::vector<double> rep_ops_per_s;
  double timed_s = 0.0;
  while (rep_s.empty() ||
         (!smoke && (static_cast<int>(rep_s.size()) < kMinReps ||
                     timed_s < budget_s))) {
    Rep rep = run_rep(off, in, kLiveShardThreads);
    timed_s += rep.host_s;
    rep_s.push_back(rep.host_s);
    rep_ops_per_s.push_back(static_cast<double>(rep.completed) / rep.host_s);
    keep(std::move(rep));
  }
  const double untraced_median_s = median(rep_s);

  std::vector<Metric> layers;
  if (traced) {
    double predict_ns_per_row = 0.0;  // a set-up-phase probe (run 0)
    if (in.models.benefit && in.labels.size() > 0) {
      ScopedSpan s(spans, "ml.predict_batch");
      const auto t0 = Clock::now();
      const auto pred = in.models.benefit->predict_batch(in.labels);
      predict_ns_per_row =
          seconds_since(t0) * 1e9 / static_cast<double>(pred.size());
    }
    spans.set_run(kTracedRun);
    Rep traced_rep = run_rep(spans, in, kLiveShardThreads);
    std::optional<Rep> one_thread;
    if (w.live) {
      spans.set_run(kOneThreadRun);
      one_thread = run_rep(spans, in, 1);
    }
    layers = per_layer_metrics(in, spans, traced_rep, predict_ns_per_row,
                               untraced_median_s);
    keep(std::move(traced_rep));
    if (one_thread) keep(std::move(*one_thread));
    const std::string trace_out = flags.get("trace-out");
    if (!trace_out.empty() && !spans.write_chrome_json(trace_out)) {
      std::fprintf(stderr, "error: cannot write %s\n", trace_out.c_str());
      return 2;
    }
  }

  // --- correctness gate ---------------------------------------------------
  std::vector<std::string> problems;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Rep& rep = all[i];
    attempted += rep.issued;
    // An op of a rep that failed a check counts as failed.
    failed += rep.problems.empty() ? rep.failed : rep.issued;
    for (const std::string& p : rep.problems) {
      problems.push_back("rep " + std::to_string(i) + ": " + p);
    }
    if (rep.digest != all.front().digest) {
      problems.push_back("rep " + std::to_string(i) + ": model.digest " +
                         rep.digest + " != " + all.front().digest);
    }
  }
  const bool correct = problems.empty();
  for (const std::string& p : problems) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
  }

  const std::vector<Metric> end_to_end = {
      {"sim_ops_per_s", median(rep_ops_per_s), "ops/s"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  const double failed_frac =
      static_cast<double>(failed) / static_cast<double>(attempted);
  const Rep& first = all.front();

  // --- report -------------------------------------------------------------
  for (const Metric& m : end_to_end) {
    std::printf("%s %s %.6g %s\n", w.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s sim_ops_per_s.min %.6g ops/s\n", w.name,
              *std::min_element(rep_ops_per_s.begin(), rep_ops_per_s.end()));
  std::printf("%s sim_ops_per_s.max %.6g ops/s\n", w.name,
              *std::max_element(rep_ops_per_s.begin(), rep_ops_per_s.end()));
  std::printf("%s failed_frac %.6g ratio\n", w.name, failed_frac);
  for (const Metric& m : layers) {
    std::printf("%s %s %.6g %s\n", w.name, m.name.c_str(), m.value,
                m.unit.c_str());
  }
  std::printf("%s model.throughput_ops %.17g ops/s\n", w.name,
              first.model_throughput_ops);
  std::printf("%s model.p99_us %.17g us\n", w.name, first.model_p99_us);
  std::printf("%s model.migrations %llu count\n", w.name,
              static_cast<unsigned long long>(first.model_migrations));
  std::printf("%s model.digest %s hex\n", w.name, first.digest.c_str());

  const std::string out_path = flags.get("out");
  if (!out_path.empty()) {
    std::FILE* out = std::fopen(out_path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::string problem_list = "[";
    for (std::size_t i = 0; i < problems.size(); ++i) {
      problem_list += (i ? ", " : "") + json_string(problems[i]);
    }
    problem_list += "]";
    std::fprintf(
        out,
        "{\"workload\": \"%s\",\n"
        " \"provenance\": {\"nproc\": %u, \"compiler\": \"%s\", "
        "\"build_type\": \"%s\", \"git_sha\": %s, \"seed\": %llu, "
        "\"ops\": %llu, \"train_ops\": %llu, \"setup_reps\": %zu, "
        "\"warmup_reps\": %d, \"timed_reps\": %zu, \"seconds\": %s, "
        "\"smoke\": %s, \"traced\": %s},\n"
        " \"correct\": %s, \"problems\": %s,\n"
        " \"attempted\": %llu, \"failed\": %llu,\n"
        " \"end_to_end\": %s,\n"
        " \"failed_frac\": %s,\n"
        " \"sim_ops_per_s_reps\": %s, \"setup_s_reps\": %s,\n"
        " \"per_layer\": %s,\n"
        " \"model\": {\"throughput_ops\": %s, \"p99_us\": %s, "
        "\"migrations\": %llu, \"digest\": \"%s\"}}\n",
        w.name, std::max(1u, std::thread::hardware_concurrency()),
        ORIGAMI_BENCH_COMPILER, ORIGAMI_BENCH_BUILD_TYPE,
        json_string(flags.get("git-sha", "unknown")).c_str(),
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(ops),
        static_cast<unsigned long long>(train_ops), setup_s.size(),
        smoke ? 0 : 1, rep_s.size(), json_number(budget_s).c_str(),
        smoke ? "true" : "false", traced ? "true" : "false",
        correct ? "true" : "false", problem_list.c_str(),
        static_cast<unsigned long long>(attempted),
        static_cast<unsigned long long>(failed),
        json_metrics(end_to_end).c_str(), json_number(failed_frac).c_str(),
        json_list(rep_ops_per_s).c_str(), json_list(setup_s).c_str(),
        json_metrics(layers).c_str(),
        json_number(first.model_throughput_ops).c_str(),
        json_number(first.model_p99_us).c_str(),
        static_cast<unsigned long long>(first.model_migrations),
        first.digest.c_str());
    if (std::fclose(out) != 0) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 2;
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              json_metrics(traced ? layers : end_to_end).c_str());
  return correct ? 0 : 1;
}
