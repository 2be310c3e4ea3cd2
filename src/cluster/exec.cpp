#include "origami/cluster/exec.hpp"

#include <algorithm>
#include <cstdio>
#include <string>

#include "origami/cluster/failover.hpp"
#include "origami/cluster/stats.hpp"

namespace origami::cluster {

using cost::MdsId;
using fsns::NodeId;
using sim::SimTime;

EngineCore::EngineCore(const wl::Trace& trace_in, const ReplayOptions& options,
                       Balancer& balancer_in)
    : trace(trace_in),
      opt(options),
      balancer(balancer_in),
      model(options.cost_params),
      network(options.net_params),
      partition(trace_in.tree, options.mds_count),
      cache(trace_in.tree.size(), options.cache_depth, options.cache_enabled),
      data(options.data_params),
      jitter_rng(options.seed ^ 0x5eedULL),
      arrival(wl::resolve_arrival(options.arrival,
                                  {&trace_in, options.clients})),
      faults_on(options.faults.enabled()),
      fault_plane(options.faults, options.recovery, options.mds_count),
      dir_stats(trace_in.tree.size()) {
  // Subscription order is fixed — the policy first (when it observes),
  // then the caller's observers — so hook sequences are reproducible.
  observers.attach(dynamic_cast<engine::Observer*>(&balancer));
  for (engine::Observer* o : opt.observers) observers.attach(o);
  for (std::uint32_t i = 0; i < opt.mds_count; ++i) {
    servers.emplace_back(i, opt.mds_params);
  }
  if (faults_on) {
    network.enable_faults(opt.faults.rpc_loss_prob, opt.faults.rpc_corrupt_prob,
                          opt.faults.seed);
  }
  balancer.prepare(trace.tree, partition);
  if (faults_on) {
    recovering_until.assign(trace.tree.size(), 0);
    if (opt.recovery.capture_ledger) {
      ledger = std::make_shared<recovery::RecoveryLedger>();
      ledger->mds_count = opt.mds_count;
      ledger->initial_owner.resize(trace.tree.size());
      for (NodeId id = 0; id < trace.tree.size(); ++id) {
        ledger->initial_owner[id] = partition.node_owner(id);
      }
      partition.set_transfer_observer(
          [this](NodeId dir, MdsId from, MdsId to, std::uint32_t epoch) {
            ledger->transfers.push_back({dir, from, to, epoch, queue.now()});
          });
    }
  }
  if (opt.kv_backing) {
    stores.reserve(opt.mds_count);
    for (std::uint32_t i = 0; i < opt.mds_count; ++i) {
      kv::DbOptions db_opt;
      if (fault_plane.async_commit()) {
        // The real store rides the same group-commit contract as the
        // modeled journal: acked on memtable apply, durable at the batch
        // flush. The DES timer drives the window trigger (flush_journal
        // commits both in lockstep), so the store's own age trigger stays
        // off and the batch threshold is the shared safety net.
        db_opt.commit_mode = kv::CommitMode::kAsync;
        db_opt.commit_batch = opt.recovery.commit_batch;
        if (!opt.kv_wal_dir.empty()) {
          db_opt.wal_path =
              opt.kv_wal_dir + "/mds_" + std::to_string(i) + ".wal";
          std::remove(db_opt.wal_path.c_str());  // fresh run, fresh log
        }
      }
      stores.push_back(std::make_unique<mds::InodeStore>(std::move(db_opt)));
    }
    const auto n = static_cast<NodeId>(trace.tree.size());
    for (NodeId id = 0; id < n; ++id) {
      stores[partition.node_owner(id)]->put(trace.tree, id);
    }
    if (fault_plane.async_commit()) {
      // The seeded namespace is the run's initial condition, not workload:
      // make it durable so crash loss accounting starts from zero.
      for (auto& store : stores) {
        (void)store->commit();
        fault_plane.attach_group_commit_store(store->db());
      }
    }
  }
}

std::size_t EngineCore::alloc_slot() {
  if (!free_slots.empty()) {
    const std::size_t slot = free_slots.back();
    free_slots.pop_back();
    pool[slot].in_use = true;
    return slot;
  }
  pool.emplace_back();
  pool.back().in_use = true;
  return pool.size() - 1;
}

void ExecEngine::start() {
  if (!core_.arrival->closed_loop()) {
    core_.active_clients = 1;  // the arrival process counts as one driver
    core_.queue.schedule_at(core_.arrival->first_arrival(),
                            [this] { issue_next(); });
  } else {
    core_.active_clients = core_.opt.clients;
    for (std::uint32_t c = 0; c < core_.opt.clients; ++c) {
      // Slight stagger breaks lockstep between identical clients.
      core_.queue.schedule_at(core_.arrival->stagger(c),
                              [this, c] { issue_for_client(c); });
    }
  }
}

void ExecEngine::issue_next() {
  if (core_.trace_done()) {
    core_.active_clients = 0;
    return;
  }
  issue_one(core_.arrival->client_of(core_.issued_ops));

  // Next arrival: the policy owns the process. The legacy Poisson loop
  // draws its gap from the engine's jitter stream at exactly this point
  // (after the hop is scheduled), which byte-identity depends on.
  const SimTime next = core_.arrival->next_arrival(
      core_.issued_ops, core_.queue.now(), core_.jitter_rng);
  core_.queue.schedule_at(next, [this] { issue_next(); });
}

void ExecEngine::issue_for_client(std::uint32_t client) {
  if (core_.trace_done()) {
    --core_.active_clients;
    return;
  }
  issue_one(client);
}

void ExecEngine::issue_one(std::uint32_t client) {
  if (core_.cursor >= core_.trace.ops.size()) core_.cursor = 0;  // loop_trace
  const wl::MetaOp& op = core_.trace.ops[core_.cursor++];

  const std::size_t slot = core_.alloc_slot();
  InFlight& fl = core_.pool[slot];
  planner_.build_plan(op, fl.plan);
  if (core_.faults_on && fsns::is_write(op.type)) {
    fl.plan.op_id = ++core_.next_op_id;
  }
  fl.next_visit = 0;
  fl.issued = core_.queue.now();
  fl.client = client;
  fl.attempts = 0;
  account_issue(core_, fl.plan);
  if (!core_.observers.empty()) {
    core_.observers.arrival({core_.issued_ops, client, core_.queue.now()});
  }
  ++core_.issued_ops;

  const MdsId first = fl.plan.visits.front().mds;
  const SimTime travel =
      core_.network.one_way(core_.opt.mds_count + client, first);
  if (core_.faults_on &&
      failover_->delivery_fails(first, core_.queue.now() + travel)) {
    failover_->retry_or_fail(slot, core_.opt.mds_count + client, 0);
  } else {
    core_.queue.schedule_after(travel, [this, slot] { hop(slot); });
  }
}

void ExecEngine::hop(std::size_t slot) {
  InFlight& fl = core_.pool[slot];
  Visit& v = fl.plan.visits[fl.next_visit];
  if (core_.faults_on) {
    // A fragment absorbed at failover is unavailable while its new owner
    // replays the crashed MDS's journal: park the request until then.
    const NodeId fd = core_.fence_dir(v.node);
    if (v.role != VisitRole::kStub &&
        core_.recovering_until[fd] > core_.queue.now()) {
      core_.result.faults.recovery_queue_time +=
          core_.recovering_until[fd] - core_.queue.now();
      core_.queue.schedule_at(core_.recovering_until[fd],
                              [this, slot] { hop(slot); });
      return;
    }
    // Fencing: a mutation/coordination arrival planned against an older
    // ownership epoch is rejected cheaply and re-routed to the live owner.
    if (fence_checked(v) && core_.fence_epoch(v.node) != v.epoch) {
      ++core_.servers[v.mds].counters().rpcs;
      core_.servers[v.mds].serve(core_.queue.now(),
                                 core_.opt.cost_params.t_rpc_handle);
      reroute(slot, v);
      return;
    }
  }
  fl.attempts = 0;  // delivery succeeded — fresh budget for the next send
  mds::MdsServer& server = core_.servers[v.mds];
  ++server.counters().rpcs;
  SimTime service = v.service;
  if (core_.opt.cost_params.service_jitter_frac > 0.0) {
    const double factor =
        std::max(0.25, 1.0 + core_.opt.cost_params.service_jitter_frac *
                                 core_.jitter_rng.normal());
    service = static_cast<SimTime>(static_cast<double>(service) * factor);
  }
  if (core_.faults_on && fl.plan.op_id != 0 &&
      (v.role == VisitRole::kExec || v.role == VisitRole::kCoord)) {
    // Frame the mutation to this MDS's journal before acknowledging it.
    // Sync mode: the fsync (and any checkpoint) cost rides on the service
    // time. Async mode: the record lands in the commit buffer for free and
    // a group commit pays the fsync later, off the critical path.
    service += core_.fault_plane.journal(v.mds).append_op(
        fl.plan.op_id, v.node, core_.queue.now());
    if (core_.fault_plane.async_commit()) schedule_group_commit(v.mds);
  }
  const SimTime done = server.serve(core_.queue.now(), service);
  if (core_.faults_on && done > core_.queue.now() && fence_checked(v)) {
    // The request waits in the server's queue until `done`; a subtree
    // export can commit in that window (a busy source MDS queues requests
    // across its own copy), so authority is re-checked at completion.
    core_.queue.schedule_at(done, [this, slot] { recheck_fence(slot); });
    return;
  }
  advance(slot, done);
}

void ExecEngine::recheck_fence(std::size_t slot) {
  InFlight& fl = core_.pool[slot];
  Visit& v = fl.plan.visits[fl.next_visit];
  if (core_.fence_epoch(v.node) != v.epoch) {
    // The fragment was exported while the request sat in the queue: the
    // execution is void and the op re-runs at the new owner (at-least-once,
    // exactly like a lost final reply).
    reroute(slot, v);
    return;
  }
  advance(slot, core_.queue.now());
}

bool ExecEngine::fence_checked(const Visit& v) const {
  if (!core_.opt.recovery.fencing) return false;
  if (v.role == VisitRole::kCoord) return true;
  // Hashed file inodes never migrate, so their exec visits are exempt.
  return v.role == VisitRole::kExec &&
         (core_.trace.tree.is_dir(v.node) ||
          !core_.partition.hash_file_inodes());
}

void ExecEngine::reroute(std::size_t slot, Visit& v) {
  ++core_.result.faults.fenced_rejections;
  const MdsId stale = v.mds;
  failover_->retarget(v);
  v.epoch = core_.fence_epoch(v.node);
  const SimTime travel = core_.network.one_way(stale, v.mds);
  if (failover_->delivery_fails(v.mds, core_.queue.now() + travel)) {
    failover_->retry_or_fail(slot, stale, 0);
  } else {
    core_.queue.schedule_after(travel, [this, slot] { hop(slot); });
  }
}

void ExecEngine::advance(std::size_t slot, SimTime done) {
  InFlight& fl = core_.pool[slot];
  Visit& v = fl.plan.visits[fl.next_visit];
  mds::MdsServer& server = core_.servers[v.mds];
  ++fl.next_visit;

  if (fl.next_visit < fl.plan.visits.size()) {
    const MdsId next = fl.plan.visits[fl.next_visit].mds;
    const SimTime arrive = done + core_.network.one_way(v.mds, next);
    if (core_.faults_on && failover_->delivery_fails(next, arrive)) {
      failover_->retry_or_fail(slot, v.mds, done - core_.queue.now());
      return;
    }
    core_.queue.schedule_at(arrive, [this, slot] { hop(slot); });
    return;
  }

  // Final visit executed here.
  ++server.counters().ops_executed;
  if (core_.opt.kv_backing) {
    auto& store = *core_.stores[v.mds];
    if (fsns::is_write(fl.plan.type)) {
      store.put(core_.trace.tree, fl.plan.target);
    } else {
      (void)store.lookup(core_.trace.tree, fl.plan.target);
    }
  }

  SimTime reply_at =
      done + core_.network.one_way(v.mds, core_.opt.mds_count + fl.client);
  if (core_.faults_on) {
    // A lost/corrupted reply: the server did the work, but the client times
    // out and re-sends the final visit (at-least-once execution).
    const auto fate = core_.network.classify_delivery();
    if (fate != net::Network::Delivery::kOk) {
      ++core_.result.faults.timeouts;
      --fl.next_visit;  // the final visit must run again
      failover_->retry_or_fail(slot, core_.opt.mds_count + fl.client,
                               done - core_.queue.now());
      return;
    }
  }
  if (core_.opt.data_path && fl.plan.data_bytes > 0) {
    reply_at =
        core_.data.serve(fl.plan.target, reply_at, fl.plan.data_bytes) +
        core_.opt.net_params.base_rtt / 2;
  }
  core_.queue.schedule_at(reply_at, [this, slot] { finish(slot); });
}

void ExecEngine::schedule_group_commit(std::uint32_t mds) {
  recovery::MetadataJournal& journal = core_.fault_plane.journal(mds);
  const std::size_t pending = journal.pending_records();
  if (pending >= core_.opt.recovery.commit_batch) {
    flush_journal(mds);
    return;
  }
  if (pending == 1) {
    // First record of a fresh batch: arm the commit-window timer. The
    // generation guard turns the timer into a no-op if a batch flush or a
    // crash already dispatched (or dropped) this batch.
    const std::uint64_t gen = journal.flush_generation();
    core_.queue.schedule_after(
        core_.opt.recovery.commit_window, [this, mds, gen] {
          if (core_.fault_plane.journal(mds).flush_generation() == gen) {
            flush_journal(mds);
          }
        });
  }
}

void ExecEngine::flush_journal(std::uint32_t mds) {
  const SimTime cost = core_.fault_plane.journal(mds).flush(core_.queue.now());
  if (cost > 0) core_.servers[mds].serve(core_.queue.now(), cost);
  // Lockstep with the real store: every modeled group commit (batch-full
  // or window timer) also drains this MDS's KV commit buffer, so the
  // measured fsync distribution reflects the same flush cadence the model
  // prices. The store's own batch trigger covers writes between flushes.
  if (core_.opt.kv_backing && core_.fault_plane.async_commit()) {
    (void)core_.stores[mds]->commit();
  }
}

void ExecEngine::finish(std::size_t slot) {
  InFlight& fl = core_.pool[slot];
  const SimTime latency = core_.queue.now() - fl.issued;
  core_.result.latency.add(static_cast<std::uint64_t>(latency));
  core_.result
      .latency_by_class[static_cast<std::size_t>(fsns::classify(fl.plan.type))]
      .add(static_cast<std::uint64_t>(latency));
  ++core_.result.completed_ops;
  core_.result.total_rpcs += fl.plan.visits.size();
  if (fl.plan.visits.size() > 1) ++core_.result.forwarded_requests;
  core_.last_completion = std::max(core_.last_completion, core_.queue.now());
  // The mutation is acknowledged here; its journal frame (written at the
  // exec visit) must outlive any later crash — audited as invariant I6.
  if (core_.ledger && fl.plan.op_id != 0) {
    core_.ledger->acked_mutations.push_back(fl.plan.op_id);
  }
  if (core_.fault_plane.async_commit() && fl.plan.op_id != 0) {
    // Stamp acked_at on every journal that framed this op (the durability
    // window needs the client-visible completion time to classify a later
    // crash as acked-but-lost vs unacked-and-lost).
    for (const Visit& vv : fl.plan.visits) {
      if (vv.role == VisitRole::kExec || vv.role == VisitRole::kCoord) {
        core_.fault_plane.journal(vv.mds).note_acked(fl.plan.op_id,
                                                     core_.queue.now());
      }
    }
  }

  const std::uint32_t client = fl.client;
  fl.in_use = false;
  core_.free_slots.push_back(slot);
  // Open-loop arrivals are self-scheduling; only the closed loop chains
  // the next request off this completion.
  if (core_.arrival->closed_loop()) issue_for_client(client);
}

}  // namespace origami::cluster
