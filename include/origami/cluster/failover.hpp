#pragma once

#include <cstdint>

#include "origami/cluster/exec.hpp"
#include "origami/fault/fault.hpp"

namespace origami::cluster {

/// Fault delivery and crash handling for the execution engine: schedules
/// each epoch's fault windows from the shared `FaultPlane`, decides message
/// fate on every send, runs the timeout/backoff retry loop, and on a crash
/// drives the plane's crash, failover and restore steps, pricing the
/// absorbers' journal-replay windows and narrating each step to the
/// observer bus. Never consulted when the fault plan is disabled.
class FailoverEngine {
 public:
  explicit FailoverEngine(EngineCore& core)
      : core_(core), retry_rng_(core.opt.faults.seed ^ 0x7e717e71ULL) {}
  void bind(ExecEngine& exec) { exec_ = &exec; }

  /// Samples + schedules every fault window opening in epoch `epoch`.
  void schedule_epoch_faults(std::uint32_t epoch);
  /// Crashes `w.mds`, fails its fragments over to the survivors and parks
  /// them until each absorber's journal replay completes.
  void on_crash(const fault::FaultWindow& w);
  /// Hands the failed-over fragments back once `mds` is up again.
  void on_recover(cost::MdsId mds);
  /// Re-resolves a visit's target against the current partition map.
  void retarget(Visit& v) const;
  /// Samples message fate + destination health; counts and reports whether
  /// the send will time out. Only call when `core.faults_on`.
  bool delivery_fails(cost::MdsId mds, sim::SimTime arrival);
  /// Backs off and re-sends the current visit, or fails the request once
  /// the retry budget is exhausted. `extra_delay` shifts the retry clock
  /// (e.g. to the service-completion time for lost replies).
  void retry_or_fail(std::size_t slot, net::EndpointId from,
                     sim::SimTime extra_delay);
  /// Retry path: re-resolve, re-send, re-check delivery.
  void resend(std::size_t slot, net::EndpointId from);
  void fail_request(std::size_t slot);

 private:
  EngineCore& core_;
  ExecEngine* exec_ = nullptr;
  common::Xoshiro256 retry_rng_;
};

}  // namespace origami::cluster
