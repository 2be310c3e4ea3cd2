#include "origami/cluster/failover.hpp"

#include <algorithm>
#include <optional>
#include <vector>

namespace origami::cluster {

using cost::MdsId;
using fsns::NodeId;
using sim::SimTime;

namespace {

/// Narrates one fault-seam event onto the observer bus.
void notify_fault(EngineCore& core, engine::FaultEvent::Kind kind, MdsId mds,
                  std::uint64_t dirs) {
  if (core.observers.empty()) return;
  engine::FaultEvent ev;
  ev.kind = kind;
  ev.mds = mds;
  ev.at = core.queue.now();
  ev.dirs = dirs;
  core.observers.fault(ev);
}

/// The epoch engine's namespace as the fault plane sees it: MDSs over the
/// partition map, fragments are directory nodes walked in tree order and
/// weighed in inodes, and only a move that carried inodes counts.
class EpochNamespace final : public FaultNamespace {
 public:
  explicit EpochNamespace(EngineCore& core) : core_(core) {}

  [[nodiscard]] bool down(std::uint32_t mds) const override {
    return core_.servers[mds].is_down(core_.queue.now());
  }
  [[nodiscard]] std::vector<std::uint64_t> loads() const override {
    return core_.partition.inode_counts();
  }
  [[nodiscard]] std::vector<std::uint64_t> fragments_of(
      std::uint32_t mds) const override {
    std::vector<std::uint64_t> out;
    for (NodeId d : core_.trace.tree.directories()) {
      if (core_.partition.dir_owner(d) == mds) out.push_back(d);
    }
    return out;
  }
  [[nodiscard]] std::uint32_t ownership_epoch(
      std::uint64_t dir) const override {
    return core_.partition.ownership_epoch(static_cast<NodeId>(dir));
  }
  std::optional<std::uint64_t> move(std::uint64_t dir, std::uint32_t from,
                                    std::uint32_t to) override {
    const std::uint64_t n =
        core_.partition.migrate_single(static_cast<NodeId>(dir), from, to);
    if (n == 0) return std::nullopt;
    return n;
  }

 private:
  EngineCore& core_;
};

}  // namespace

bool FailoverEngine::delivery_fails(MdsId mds, SimTime arrival) {
  const auto fate = core_.network.classify_delivery();
  const bool bad = fate != net::Network::Delivery::kOk ||
                   core_.servers[mds].is_down(arrival);
  if (bad) ++core_.result.faults.timeouts;
  return bad;
}

void FailoverEngine::retry_or_fail(std::size_t slot, net::EndpointId from,
                                   SimTime extra_delay) {
  InFlight& fl = core_.pool[slot];
  ++fl.attempts;
  if (fl.attempts > core_.opt.retry.max_retries) {
    fail_request(slot);
    return;
  }
  ++core_.result.faults.retries;
  const SimTime delay = extra_delay + core_.opt.retry.timeout +
                        core_.opt.retry.backoff_for(fl.attempts, retry_rng_);
  core_.queue.schedule_after(delay,
                             [this, slot, from] { resend(slot, from); });
}

void FailoverEngine::resend(std::size_t slot, net::EndpointId from) {
  InFlight& fl = core_.pool[slot];
  Visit& v = fl.plan.visits[fl.next_visit];
  retarget(v);  // failover may have moved the fragment while we backed off
  const SimTime travel = core_.network.one_way(from, v.mds);
  if (delivery_fails(v.mds, core_.queue.now() + travel)) {
    retry_or_fail(slot, from, 0);
    return;
  }
  core_.queue.schedule_after(travel, [this, slot] { exec_->hop(slot); });
}

void FailoverEngine::retarget(Visit& v) const {
  switch (v.role) {
    case VisitRole::kExec:
      v.mds = core_.partition.node_owner(v.node);
      break;
    case VisitRole::kResolve:
    case VisitRole::kStub:  // skip the dead stub, go to the live owner
    case VisitRole::kFan:
    case VisitRole::kCoord:
      v.mds = core_.partition.dir_owner(v.node);
      break;
  }
}

void FailoverEngine::fail_request(std::size_t slot) {
  InFlight& fl = core_.pool[slot];
  ++core_.result.faults.failed_ops;
  core_.last_completion = std::max(core_.last_completion, core_.queue.now());
  const std::uint32_t client = fl.client;
  fl.in_use = false;
  fl.attempts = 0;
  core_.free_slots.push_back(slot);
  if (core_.arrival->closed_loop()) exec_->issue_for_client(client);
}

void FailoverEngine::schedule_epoch_faults(std::uint32_t epoch) {
  const SimTime start = static_cast<SimTime>(epoch) * core_.opt.epoch_length;
  const auto windows = core_.fault_plane.injector().windows_for_epoch(
      epoch, start, core_.opt.epoch_length);
  for (const fault::FaultWindow& w : windows) {
    if (w.mds >= core_.servers.size()) continue;
    if (w.kind == fault::FaultKind::kCrash) {
      core_.queue.schedule_at(w.from, [this, w] { on_crash(w); });
    } else {
      core_.queue.schedule_at(w.from, [this, w] {
        if (core_.active_clients == 0) return;  // workload drained
        core_.servers[w.mds].degrade(w.from, w.until, w.slow_factor);
      });
    }
  }
}

void FailoverEngine::on_crash(const fault::FaultWindow& w) {
  // The queue drains every scheduled event, including faults timed after
  // the last client finished; those must not touch servers or the map, or
  // `final_dir_owner` would reflect post-workload churn.
  if (core_.active_clients == 0) return;
  const SimTime now = core_.queue.now();
  notify_fault(core_, engine::FaultEvent::Kind::kCrash, w.mds, 0);
  core_.servers[w.mds].crash(now, w.until);
  core_.fault_plane.crash(w.mds, now, core_.result.faults, core_.ledger.get());
  EpochNamespace ns(core_);
  const FaultPlane::Failover out =
      core_.fault_plane.failover(w.mds, now, ns, core_.result.faults);
  core_.queue.schedule_at(w.until, [this, m = w.mds] { on_recover(m); });
  if (out.moved.empty()) return;
  notify_fault(core_, engine::FaultEvent::Kind::kFailover, w.mds,
               out.moved.size());

  // Each survivor replays the crashed MDS's journal for the fragments it
  // absorbed, then keeps the absorbed fragments unavailable until the
  // absorber's replay work completes.
  std::vector<SimTime> ready(core_.servers.size(), now);
  for (std::size_t s = 0; s < out.absorbed.size(); ++s) {
    if (out.absorbed[s] == 0) continue;
    ready[s] = core_.servers[s].serve(
        now, core_.opt.cost_params.t_migrate_per_inode *
                     static_cast<SimTime>(out.absorbed[s]) +
                 out.replay.replay_time + out.journal_charge[s]);
    core_.result.faults.recovery_window_time += ready[s] - now;
  }
  for (const FaultPlane::FailoverEntry& e : out.moved) {
    SimTime& until = core_.recovering_until[e.fragment];
    until = std::max(until, ready[e.assigned]);
  }
}

void FailoverEngine::on_recover(MdsId mds) {
  if (core_.active_clients == 0) return;  // workload drained; keep the map
  if (core_.servers[mds].is_down(core_.queue.now())) return;  // extended
  EpochNamespace ns(core_);
  const FaultPlane::Restore out = core_.fault_plane.restore(
      mds, core_.queue.now(), ns, core_.result.faults);
  notify_fault(core_, engine::FaultEvent::Kind::kRecover, mds, out.fragments);
  if (out.load > 0) {
    core_.servers[mds].serve(core_.queue.now(),
                             core_.opt.cost_params.t_migrate_per_inode *
                                     static_cast<SimTime>(out.load) +
                                 out.journal_charge);
  }
}

}  // namespace origami::cluster
