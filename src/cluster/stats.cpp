#include "origami/cluster/stats.hpp"

#include <algorithm>

#include "origami/common/csv.hpp"

namespace origami::cluster {

using cost::MdsId;
using sim::SimTime;

void account_issue(EngineCore& core, const Plan& plan) {
  DirEpochStats& home = core.dir_stats[plan.home_dir];
  if (fsns::is_write(plan.type)) {
    ++home.writes;
  } else {
    ++home.reads;
  }
  if (plan.type == fsns::OpType::kReaddir) ++core.dir_stats[plan.target].lsdir;
  if (fsns::classify(plan.type) == fsns::OpClass::kNsMutation &&
      core.trace.tree.is_dir(plan.target)) {
    ++core.dir_stats[plan.target].nsm_self;
  }
  const auto rct = core.model.rct(plan.type, plan.k, plan.m, plan.lsdir_spread,
                                  plan.ns_cross);
  home.rct += rct.total();
  const MdsId exec_owner = plan.visits.empty()
                               ? core.partition.node_owner(plan.target)
                               : plan.visits.back().mds;
  core.servers[exec_owner].counters().rct_charged += rct.total();
}

EpochSnapshot begin_epoch_snapshot(EngineCore& core) {
  EpochSnapshot snap;
  snap.epoch = core.epoch_index;
  snap.now = core.queue.now();
  snap.epoch_length = core.opt.epoch_length;
  snap.mds.reserve(core.servers.size());
  for (auto& s : core.servers) snap.mds.push_back(s.drain_counters());
  snap.mds_inodes = core.partition.inode_counts();
  snap.dir_stats = &core.dir_stats;
  const std::size_t look_end =
      std::min(core.trace.ops.size(),
               core.cursor + static_cast<std::size_t>(core.opt.lookahead_ops));
  snap.upcoming = std::span<const wl::MetaOp>(
      core.trace.ops.data() + core.cursor, look_end - core.cursor);
  return snap;
}

EpochMetrics epoch_metrics_from(const EngineCore& core,
                                const EpochSnapshot& snap) {
  EpochMetrics em;
  em.start = core.last_epoch_at;
  em.end = core.queue.now();
  em.mds.resize(core.servers.size());
  for (std::size_t i = 0; i < core.servers.size(); ++i) {
    em.mds[i].ops = snap.mds[i].ops_executed;
    em.mds[i].rpcs = snap.mds[i].rpcs;
    em.mds[i].busy = snap.mds[i].busy;
    em.mds[i].rct = snap.mds[i].rct_charged;
    em.mds[i].inodes = snap.mds_inodes[i];
  }
  return em;
}

void finalize_run(EngineCore& core) {
  RunResult& result = core.result;
  result.makespan = core.last_completion;
  if (result.makespan > 0) {
    result.throughput_ops = static_cast<double>(result.completed_ops) /
                            sim::to_seconds(result.makespan);
  }
  result.mean_latency_us = result.latency.mean() / 1000.0;
  result.p50_latency_us =
      static_cast<double>(result.latency.quantile(0.5)) / 1000.0;
  result.p99_latency_us =
      static_cast<double>(result.latency.quantile(0.99)) / 1000.0;
  if (result.completed_ops > 0) {
    result.rpc_per_request = static_cast<double>(result.total_rpcs) /
                             static_cast<double>(result.completed_ops);
  }
  result.cache = core.cache.stats();
  if (core.faults_on) {
    result.faults.rpcs_lost = core.network.lost_count();
    result.faults.rpcs_corrupted = core.network.corrupted_count();
    for (const auto& s : core.servers) {
      result.faults.time_down += s.time_down();
      result.faults.time_degraded += s.time_degraded();
    }
    core.fault_plane.roll_up(core.queue.now(), result.faults);
  }

  // Post-warm-up steady state: throughput and imbalance factors.
  double imf_qps = 0, imf_rpc = 0, imf_inodes = 0, imf_busy = 0;
  std::uint64_t steady_ops = 0;
  SimTime steady_time = 0;
  std::size_t counted = 0;
  // The final epoch is truncated by trace exhaustion (clients drain), so it
  // is excluded whenever at least one full post-warm-up epoch exists.
  std::size_t steady_end = result.epochs.size();
  if (steady_end > core.opt.warmup_epochs + 1) --steady_end;
  for (std::size_t e = core.opt.warmup_epochs; e < steady_end; ++e) {
    const EpochMetrics& em = result.epochs[e];
    std::vector<double> qps, rpc, ino, busy;
    std::uint64_t epoch_ops = 0;
    for (const auto& m : em.mds) {
      qps.push_back(static_cast<double>(m.ops));
      rpc.push_back(static_cast<double>(m.rpcs));
      ino.push_back(static_cast<double>(m.inodes));
      busy.push_back(static_cast<double>(m.busy));
      epoch_ops += m.ops;
    }
    if (epoch_ops == 0) continue;
    imf_qps += cost::imbalance_factor(qps);
    imf_rpc += cost::imbalance_factor(rpc);
    imf_inodes += cost::imbalance_factor(ino);
    imf_busy += cost::imbalance_factor(busy);
    steady_ops += epoch_ops;
    steady_time += em.end - em.start;
    ++counted;
  }
  if (counted > 0) {
    result.imf_qps = imf_qps / static_cast<double>(counted);
    result.imf_rpc = imf_rpc / static_cast<double>(counted);
    result.imf_inodes = imf_inodes / static_cast<double>(counted);
    result.imf_busy = imf_busy / static_cast<double>(counted);
  }
  if (steady_time > 0) {
    result.steady_throughput_ops =
        static_cast<double>(steady_ops) / sim::to_seconds(steady_time);
  } else {
    result.steady_throughput_ops = result.throughput_ops;
  }

  result.final_dir_owner.resize(core.trace.tree.size());
  for (fsns::NodeId d = 0; d < core.trace.tree.size(); ++d) {
    result.final_dir_owner[d] = core.partition.node_owner(d);
  }
  result.hash_file_inodes = core.partition.hash_file_inodes();
  result.mds_down_at_end.resize(core.servers.size());
  for (std::size_t i = 0; i < core.servers.size(); ++i) {
    result.mds_down_at_end[i] = core.servers[i].is_down(result.makespan);
  }
  if (core.ledger) {
    core.ledger->final_owner = result.final_dir_owner;
    core.ledger->down_at_end = result.mds_down_at_end;
    core.ledger->hash_file_inodes = core.partition.hash_file_inodes();
    core.ledger->acked_mutations.shrink_to_fit();
    const auto& journals = core.fault_plane.journals();
    core.ledger->journals.reserve(journals.size());
    for (const auto& j : journals) {
      core.ledger->journals.push_back(j.snapshot());
    }
    if (core.fault_plane.async_commit()) {
      core.ledger->async_commit = true;
      core.ledger->commit_window = core.opt.recovery.commit_window;
      core.ledger->commit_batch = core.opt.recovery.commit_batch;
      core.ledger->durability.reserve(journals.size());
      for (const auto& j : journals) {
        core.ledger->durability.push_back(j.durability().history());
      }
      if (core.opt.kv_backing) {
        // kv_crashes were recorded at each crash; arm the measured-store
        // I7/I8 checks and hand them the batch bound.
        core.ledger->kv_backed = true;
        core.ledger->kv_commit_batch = core.opt.recovery.commit_batch;
      }
    }
    result.ledger = core.ledger;
  }

  if (core.opt.kv_backing) {
    result.kv_backed = true;
    for (const auto& s : core.stores) result.kv_stats.merge(s->db().stats());
  }

  result.data_requests = core.data.requests();
  if (core.opt.data_path && result.makespan > 0) {
    result.data_throughput_mb_s =
        static_cast<double>(core.data.bytes_served()) / 1e6 /
        sim::to_seconds(result.makespan);
  }

  core.observers.run_end(result);
}

common::Status write_epoch_csv(const RunResult& result,
                               const std::string& path) {
  common::CsvWriter csv(path);
  if (!csv.is_open()) return common::Status::unavailable("cannot open " + path);
  csv.header({"epoch", "t_start_s", "t_end_s", "mds", "ops", "rpcs",
              "busy_ms", "rct_ms", "inodes", "migrations", "inodes_moved"});
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const EpochMetrics& em = result.epochs[e];
    for (std::size_t m = 0; m < em.mds.size(); ++m) {
      csv.field(static_cast<std::uint64_t>(e))
          .field(sim::to_seconds(em.start))
          .field(sim::to_seconds(em.end))
          .field(static_cast<std::uint64_t>(m))
          .field(em.mds[m].ops)
          .field(em.mds[m].rpcs)
          .field(static_cast<double>(em.mds[m].busy) / 1e6)
          .field(static_cast<double>(em.mds[m].rct) / 1e6)
          .field(em.mds[m].inodes)
          .field(static_cast<std::uint64_t>(em.migrations))
          .field(em.inodes_moved);
      csv.endrow();
    }
  }
  return common::Status::ok();
}

}  // namespace origami::cluster
